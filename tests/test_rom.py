import itertools
from dataclasses import replace

import numpy as np
import pytest

from cablemass import analysis, balance, ode, rom
from cablemass.cli import PRESETS, _energy_initial_data
from cablemass.model import DimensionMismatch, PhysicalParams, build_system, \
    eval_nonlinearity, fom_jacobian, fom_rhs
from cablemass.signals import eval_input, eval_input_derivative, \
    input_preset, resolve_input
from conftest import EXAMPLE1, node_sampled, record_integrate


@pytest.fixture(scope="module")
def reduced_n20():
    sys = build_system(EXAMPLE1, 20)
    p, q = balance.gramians(sys)
    bal = balance.square_root_transform(p, q, 4)
    return sys, bal, balance.reduce(sys, bal)


@pytest.fixture(scope="module")
def lossless_n20():
    # retain the full numerical rank: the projection is (numerically)
    # a similarity transform
    sys = build_system(EXAMPLE1, 20)
    p, q = balance.gramians(sys)
    hsv = balance.hankel_values(p, q)
    rank = int(np.count_nonzero(hsv > 1e-12 * hsv[0]))
    bal = balance.square_root_transform(p, q, rank)
    return sys, balance.reduce(sys, bal)


class TestRomNonlinear:
    def test_zero_state(self, reduced_n20):
        _, _, red = reduced_n20
        np.testing.assert_array_equal(rom.rom_nonlinear(red, np.zeros(4)),
                                      np.zeros(4))

    def test_linear_variant(self):
        sys = build_system(PhysicalParams(gamma=0.1, alphal=0.1, k3=0.0), 20)
        p, q = balance.gramians(sys)
        red = balance.reduce(sys, balance.square_root_transform(p, q, 4))
        out = rom.rom_nonlinear(red, np.array([1.0, -2.0, 3.0, 0.5]))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_full_projection_oracle(self, reduced_n20, rng):
        sys, bal, red = reduced_n20
        for _ in range(50):
            a = rng.standard_normal(4)
            full = bal.sr @ eval_nonlinearity(sys, bal.tr @ a)
            low = rom.rom_nonlinear(red, a)
            scale = max(np.linalg.norm(full), 1e-300)
            assert np.linalg.norm(low - full) <= 1e-12 * scale

    def test_low_order_storage(self, reduced_n20):
        # O(r) evaluation by construction: the reduced system carries
        # only r-length weight vectors, no full-order data
        _, _, red = reduced_n20
        assert red.nl_in_weights.shape == (4,)
        assert red.nl_out_weights.shape == (4,)
        assert max(red.ar.shape + red.br.shape + red.cr.shape) <= 4

    def test_dimension_mismatch(self, reduced_n20):
        _, _, red = reduced_n20
        with pytest.raises(DimensionMismatch):
            rom.rom_nonlinear(red, np.zeros(5))


class TestRomRhs:
    def test_equilibrium(self, reduced_n20):
        _, _, red = reduced_n20
        np.testing.assert_array_equal(rom.rom_rhs(red, np.zeros(4), 0.0),
                                      np.zeros(4))

    def test_input_column(self, reduced_n20):
        _, _, red = reduced_n20
        np.testing.assert_allclose(rom.rom_rhs(red, np.zeros(4), 1.0),
                                   red.br[:, 0], atol=1e-15)

    def test_linear_matrix_oracle(self, rng):
        sys = build_system(PhysicalParams(gamma=0.1, alphal=0.1, k3=0.0), 20)
        p, q = balance.gramians(sys)
        red = balance.reduce(sys, balance.square_root_transform(p, q, 4))
        a = rng.standard_normal(4)
        u = rng.standard_normal()
        np.testing.assert_allclose(rom.rom_rhs(red, a, u),
                                   red.ar @ a + red.br[:, 0] * u, atol=1e-14)

    def test_jacobian_matches_finite_differences(self, reduced_n20, rng):
        _, _, red = reduced_n20
        a = rng.standard_normal(4)
        jac = rom.rom_jacobian(red, a)
        eps = 1e-6
        fd = np.empty((4, 4))
        for j in range(4):
            ap, am = a.copy(), a.copy()
            ap[j] += eps
            am[j] -= eps
            fd[:, j] = (rom.rom_rhs(red, ap, 0.0)
                        - rom.rom_rhs(red, am, 0.0)) / (2 * eps)
        np.testing.assert_allclose(jac, fd, atol=1e-6)


class TestSimulate:
    def test_zero_input_stays_at_rest(self, reduced_n20):
        _, _, red = reduced_n20
        series = rom.simulate_rom(red, input_preset("zero"), 0.0, 5.0)
        np.testing.assert_array_equal(series.values, np.zeros_like(series.values))

    def test_fom_zero_input(self):
        sys = build_system(EXAMPLE1, 10)
        series = rom.simulate_fom(sys, input_preset("zero"), 0.0, 5.0)
        np.testing.assert_array_equal(series.values, np.zeros_like(series.values))

    def test_lossless_projection_matches_fom(self, lossless_n20):
        # with every Hankel mode retained, ROM and FOM differ only by
        # integrator error
        sys, red = lossless_n20
        rtol = 1e-3
        spec = input_preset("input1")
        fom = rom.simulate_fom(sys, spec, 0.0, 10.0, rtol=rtol, atol=1e-6)
        rr = rom.simulate_rom(red, spec, 0.0, 10.0, rtol=rtol, atol=1e-6)
        metrics = analysis.output_error(fom, rr)
        assert metrics.rel_l2 <= 5.0 * rtol

    def test_fom_superposition_linear(self):
        sys = build_system(PhysicalParams(gamma=0.1, alphal=0.1, k0=1.0,
                                          kl=1.0, k3=0.0), 20)
        spec = input_preset("input1")
        y1 = rom.simulate_fom(sys, spec, 0.0, 20.0, rtol=1e-8, atol=1e-12)
        y2 = rom.simulate_fom(sys, replace(spec, scale=2.0), 0.0, 20.0,
                              rtol=1e-8, atol=1e-12)
        rel = np.linalg.norm(y2.values - 2.0 * y1.values) \
            / np.linalg.norm(y2.values)
        assert rel <= 1e-6

    def test_comparison_grid(self, reduced_n20):
        _, _, red = reduced_n20
        series = rom.simulate_rom(red, input_preset("input1"), 0.0, 10.0,
                                  sample_count=321)
        assert series.times.shape == (321,)
        assert series.values.shape == (321, 2)
        assert series.times[0] == 0.0 and series.times[-1] == 10.0


class TestPiecewise:
    """Simulations integrate between the input's breakpoints."""

    def test_square_wave_segments(self, reduced_n20, monkeypatch):
        _, _, red = reduced_n20
        calls = record_integrate(monkeypatch)
        rom.simulate_rom(red, input_preset("input4"), 0.0, 100.0)
        assert [(c.t0, c.tf) for c in calls] == \
            [(5.0 * k, 5.0 * k + 5.0) for k in range(20)]
        # each piece starts from the exact end state of the one before
        for before, after in zip(calls, calls[1:]):
            np.testing.assert_array_equal(after.x0, before.result.end_state)
        # and holds the input at the square wave's value on that piece
        for k, call in enumerate(calls):
            for t, x in ((call.t0, call.x0), (call.tf, call.result.end_state)):
                push = call.rhs(t, x) - rom.rom_rhs(red, x, 0.0)
                np.testing.assert_allclose(push,
                                           red.br[:, 0] * 0.1 * (-1) ** k,
                                           rtol=1e-9, atol=1e-12)

    def test_smooth_input_one_call(self, reduced_n20, monkeypatch):
        sys, _, red = reduced_n20
        calls = record_integrate(monkeypatch)
        rom.simulate_rom(red, resolve_input(input_preset("input2"), sys),
                         0.0, 100.0)
        assert [(c.t0, c.tf) for c in calls] == [(0.0, 100.0)]

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_stats_summed(self, reduced_n20, monkeypatch, model):
        sys, _, red = reduced_n20
        calls = record_integrate(monkeypatch)
        if model == "rom":
            series = rom.simulate_rom(red, input_preset("input4"), 0.0, 30.0)
        else:
            series = rom.simulate_fom(sys, input_preset("input4"), 0.0, 30.0)
        assert len(calls) == 6
        total = ode.IntegratorStats()
        for call in calls:
            total = total + call.result.stats
        assert series.stats == total

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_forced_runs_take_the_2_3_pair(self, reduced_n20, monkeypatch,
                                           model):
        # outputs.csv and error.csv are made by the adaptive 2(3) pair:
        # two right-hand sides per attempt, after f0 and the start-step
        # probe of each piece
        sys, _, red = reduced_n20
        calls = record_integrate(monkeypatch)
        if model == "rom":
            rom.simulate_rom(red, input_preset("input4"), 0.0, 20.0)
        else:
            rom.simulate_fom(sys, input_preset("input4"), 0.0, 20.0)
        assert calls
        for call in calls:
            s = call.result.stats
            assert s.n_rhs == 2 + 2 * (s.n_steps + s.n_rejected)

    def test_breakpoint_samples_are_stored_states(self, reduced_n20,
                                                  monkeypatch):
        _, _, red = reduced_n20
        calls = record_integrate(monkeypatch)
        # the grid 0, 5, ..., 100 puts a sample on every breakpoint
        series = rom.simulate_rom(red, input_preset("input4"), 0.0, 100.0,
                                  sample_count=21)
        assert not np.isnan(series.values).any()
        stored = np.array([call.x0 for call in calls]
                          + [calls[-1].result.end_state])
        np.testing.assert_array_equal(series.values, stored @ red.cr.T)


class TestStreamedSampling:
    """The grid samples of a run are those of its nodes.

    On [0, 30], 1000 samples put several queries in one step, 7 samples
    put one on every square-wave breakpoint, and with 4 samples most
    square-wave pieces cover no query.  t0 and tf are always queried.
    """

    @staticmethod
    def _args(reduced_n20, model, input_name, count):
        """_integrate_sampled's arguments for a run on [0, 30]."""
        sys, _, red = reduced_n20
        spec = resolve_input(input_preset(input_name), sys)
        if model == "fom":
            fns = (fom_rhs, fom_jacobian, sys, sys.b[:, 0])
            x0 = _energy_initial_data(sys.params, sys.n)
        else:
            fns = (rom.rom_rhs, rom.rom_jacobian, red, red.br[:, 0])
            x0 = np.linspace(-0.1, 0.1, red.r)
        return (*fns, spec, x0, 0.0, 30.0, count, 1e-3, 1e-6)

    @pytest.mark.parametrize("count", [1000, 7, 4])
    @pytest.mark.parametrize("input_name", ["input1", "input2", "input4",
                                            "zero"])
    @pytest.mark.parametrize("model", ["fom", "rom"])
    def test_bitwise_equal_to_node_sampling(self, reduced_n20, monkeypatch,
                                            model, input_name, count):
        args = self._args(reduced_n20, model, input_name, count)
        x0 = args[5]
        grid, streamed, stats = rom._integrate_sampled(*args)
        monkeypatch.setattr(ode, "integrate", node_sampled)
        ref_grid, ref, ref_stats = rom._integrate_sampled(*args)
        assert streamed.shape == ref.shape == (count, x0.size)
        assert streamed.tobytes() == ref.tobytes()
        assert stats == ref_stats
        np.testing.assert_array_equal(grid, ref_grid)
        if count == 1000:
            assert stats.n_steps < count  # some step covers several queries

    @pytest.mark.parametrize("input_name", ["input1", "input2", "input4",
                                            "zero"])
    @pytest.mark.parametrize("model", ["fom", "rom"])
    def test_shared_grid_times_agree_bitwise(self, reduced_n20, model,
                                             input_name):
        # the grid never changes the steps: every sample count gives the
        # same counters and the same samples at the times grids share
        runs = [rom._integrate_sampled(
                    *self._args(reduced_n20, model, input_name, count))
                for count in (1000, 7, 4)]
        for (grid, states, stats), (other_grid, other, other_stats) in \
                itertools.combinations(runs, 2):
            assert other_stats == stats
            shared, i, j = np.intersect1d(grid, other_grid,
                                          return_indices=True)
            assert shared.size >= 2  # t0 and tf at least
            assert states[i].tobytes() == other[j].tobytes()
        # 7 and 4 samples share t = 0, 10, 20, 30
        assert np.intersect1d(runs[1][0], runs[2][0]).size == 4


def _fom_outputs(sys, u, du, x0, tf, rtol, atol, dense):
    """FOM outputs on 1000 samples, through the structured or dense solve.

    u is the input and du its time derivative.
    """
    def jac(t, x):
        structured = fom_jacobian(sys, x)
        return structured.dense() if dense else structured

    grid = np.linspace(0.0, tf, 1000)
    states = ode.integrate(lambda t, x: fom_rhs(sys, x, u(t)), x0, 0.0, tf,
                           rtol=rtol, atol=atol, jacobian=jac,
                           dfdt=lambda t, x: sys.b[:, 0] * du(t),
                           t_eval=grid, out=np.empty((grid.size, x0.size))
                           ).states
    return states @ sys.c.T


class TestSecondOrderFomPath:
    """The FOM's velocity Schur complement solve against the dense one.

    Both solve the same W = I - h d J, so the solutions differ only by
    rounding, and on smooth runs the step controller takes the same
    steps.  Square-wave inputs (input4) are left out on purpose: at each
    jump the controller's accept/reject decision sits at the rtol level,
    so rounding can flip a few of them (542 against 552 rejections on
    small_damp_ex5_in4 at n = 200, rtol 1e-3) and the outputs then differ
    by about 5e-3.
    """

    @staticmethod
    def _rel_l2(structured, dense):
        return np.linalg.norm(structured - dense) / np.linalg.norm(dense)

    def test_energy_decay_run(self):
        preset = PRESETS["exp_stab_Ex1"]
        sys = build_system(preset.params, 40)
        x0 = _energy_initial_data(preset.params, 40)
        runs = [_fom_outputs(sys, lambda t: 0.0, lambda t: 0.0, x0,
                             preset.tf, 1e-6, 1e-9, dense)
                for dense in (False, True)]
        assert self._rel_l2(*runs) <= 1e-10

    def test_smooth_input_run(self):
        preset = PRESETS["small_damp_ex1_in2"]
        sys = build_system(preset.params, 40)
        spec = resolve_input(input_preset(preset.input_name), sys)
        runs = [_fom_outputs(sys, lambda t: eval_input(spec, t),
                             lambda t: eval_input_derivative(spec, t),
                             np.zeros(80), preset.tf, 1e-3, 1e-6, dense)
                for dense in (False, True)]
        assert self._rel_l2(*runs) <= 1e-10
