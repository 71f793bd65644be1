import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cablemass import analysis, balance, ode, rom
from cablemass.cli import PRESETS, _energy_initial_data
from cablemass.model import DimensionMismatch, PhysicalParams, build_system, \
    eval_nonlinearity, fom_jacobian, fom_rhs
from cablemass.signals import eval_input, eval_input_derivative, \
    input_preset, resolve_input
from conftest import (EXAMPLE1, integrate_sampled, node_sampled,
                      record_integrate)


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


def fixed_k(monkeypatch, k):
    """Make the forced runs keep the run at k, checked against k / 2."""
    def doubling(run, steps_per_k, budget):
        if k > 1:
            run(k // 2, False)
        est, _ = run(k, k > 1)
        return k, steps_per_k * (k + k // 2), est

    monkeypatch.setattr(ode, "step_doubling", doubling)


class TestPiecewise:
    """Simulations step between the input's breakpoints."""

    def test_square_wave_segments(self):
        # every jump of input4 on [0, 100] ends one interval and starts
        # the next, and each interval's steps hold the square wave's
        # value on it
        spec = input_preset("input4")
        interval = 100.0 / 999
        starts, lengths, paths = rom._intervals(
            spec, np.linspace(0.0, 100.0, 1000), interval)
        jumps = 5.0 * np.arange(1, 20)
        assert np.isin(jumps, starts).all()
        inside = (jumps[:, None] > starts) & \
            (jumps[:, None] < starts + lengths)
        assert not inside.any()
        # no jump falls on a grid time, so 19 sample intervals are cut
        # in two, and those pieces are the only other step sizes
        assert len(paths) == 999
        cut = [path for path in paths if path != (None,)]
        assert len(cut) == 19 and all(len(path) == 2 for path in cut)
        assert sum(len(path) for path in paths) == starts.size == 1018
        np.testing.assert_array_equal(lengths[lengths != interval],
                                      [p for path in cut for p in path])
        for k in (1, 4):
            held = np.array(rom._stage_inputs(spec, starts, lengths, k))
            value = 0.1 * (-1.0) ** np.floor(starts / 5.0)
            np.testing.assert_array_equal(
                held, np.repeat(value, 3 * k).reshape(-1, 3))

    def test_smooth_input_one_call(self, reduced_n20, monkeypatch):
        # one eval_input call per run, at every stage time of the run
        sys, _, red = reduced_n20
        calls = []

        def recording(spec, t):
            calls.append(np.array(t))
            return eval_input(spec, t)

        monkeypatch.setattr(rom, "eval_input", recording)
        series = rom.simulate_rom(
            red, resolve_input(input_preset("input2"), sys), 0.0, 100.0)
        k = series.stats.steps_per_sample
        assert len(calls) == k.bit_length()  # the runs at 1, 2, ..., k
        for i, times in enumerate(calls):
            h = (100.0 / 999) / 2**i
            assert times.shape == (999, 2 * 2**i + 1)
            np.testing.assert_allclose(
                times, series.times[:-1, None] + 0.5 * h
                * np.arange(2 * 2**i + 1), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_stats_summed(self, reduced_n20, model):
        # n_steps counts the steps of every run made: k per interval at
        # k = 1, 2, ... up to the kept run's k
        sys, _, red = reduced_n20
        spec = input_preset("input4")
        if model == "rom":
            series = rom.simulate_rom(red, spec, 0.0, 30.0)
        else:
            series = rom.simulate_fom(sys, spec, 0.0, 30.0)
        starts, _, _ = rom._intervals(spec, series.times, 30.0 / 999)
        s = series.stats
        assert s.steps_per_sample >= 2
        assert s.n_steps == starts.size * (2 * s.steps_per_sample - 1)
        assert s.step == 30.0 / 999 / s.steps_per_sample

    def test_breakpoint_samples_are_stored_states(self, reduced_n20):
        # the grid 0, 5, ..., 100 puts a sample on every breakpoint: no
        # interval is cut, and the samples agree with those of a run on
        # the grid 0, 0.5, ..., 100 at the shared times
        _, _, red = reduced_n20
        spec = input_preset("input4")
        starts, _, paths = rom._intervals(
            spec, np.linspace(0.0, 100.0, 21), 5.0)
        assert starts.size == 20 and set(paths) == {(None,)}
        coarse = rom.simulate_rom(red, spec, 0.0, 100.0, sample_count=21)
        fine = rom.simulate_rom(red, spec, 0.0, 100.0, sample_count=201)
        np.testing.assert_array_equal(fine.times[::10], coarse.times)
        scale = np.abs(fine.values).max(axis=0)
        assert (np.abs(coarse.values - fine.values[::10]).max(axis=0)
                <= 1e-3 * scale).all()


class TestEtdrk4Runs:
    """The forced runs: fixed-step ETDRK4 checked by step doubling."""

    @pytest.fixture(params=["rom", "fom"])
    def simulate(self, request, reduced_n20):
        sys, _, red = reduced_n20
        model = red if request.param == "rom" else sys
        fn = rom.simulate_rom if request.param == "rom" else rom.simulate_fom
        return lambda spec, **kw: fn(model, spec, 0.0, 20.0, **kw)

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_forced_runs_take_etdrk4(self, reduced_n20, monkeypatch, model):
        # no adaptive run, and the kept run meets rtol and atol per
        # channel by its estimate
        sys, _, red = reduced_n20
        calls = record_integrate(monkeypatch)
        spec = input_preset("input4")
        if model == "rom":
            series = rom.simulate_rom(red, spec, 0.0, 20.0)
        else:
            series = rom.simulate_fom(sys, spec, 0.0, 20.0)
        assert calls == []
        s = series.stats
        assert s.steps_per_sample >= 2
        scale = np.abs(series.values).max(axis=0)
        assert 0.0 < s.error_estimate <= (1e-3 * scale + 1e-6).min()
        modes = red.modes if model == "rom" else sys.modes
        assert s.cond_v == modes.cond

    @pytest.mark.parametrize("input_name", ["input1", "input4"])
    def test_estimate_tracks_true_error(self, simulate, monkeypatch,
                                        input_name):
        # est from the runs at k and k / 2 against the error of the run
        # at k from the one at k = 32, at 10x the input
        spec = replace(input_preset(input_name), scale=10.0)
        fixed_k(monkeypatch, 32)
        ref = simulate(spec, sample_count=101).values
        for k in (2, 4, 8):
            fixed_k(monkeypatch, k)
            series = simulate(spec, sample_count=101)
            error = np.abs(series.values - ref).max()
            assert series.stats.error_estimate == \
                pytest.approx(error, rel=0.2)

    @pytest.mark.parametrize("input_name", ["input1", "input4"])
    def test_fourth_order(self, simulate, monkeypatch, input_name):
        # the error against the run at k = 32 falls >= 10x per halving
        spec = replace(input_preset(input_name), scale=10.0)
        errors = []
        for k in (32, 1, 2, 4, 8):
            fixed_k(monkeypatch, k)
            values = simulate(spec, sample_count=101).values
            if k == 32:
                ref = values
            else:
                errors.append(np.abs(values - ref).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 10.0 * fine

    def test_blowup_dropped(self, reduced_n20, monkeypatch):
        # 10x the square wave over 5-s sample intervals: one step per
        # interval overflows, so the run at k = 1 is dropped and the run
        # at k = 2 is compared with none
        _, _, red = reduced_n20
        spec = replace(input_preset("input4"), scale=10.0)
        made = []
        real = ode.step_doubling

        def logged(run, steps_per_k, budget):
            def run_logged(k, compare):
                made.append((k, compare))
                return run(k, compare)
            return real(run_logged, steps_per_k, budget)

        monkeypatch.setattr(ode, "step_doubling", logged)
        series = rom.simulate_rom(red, spec, 0.0, 20.0, sample_count=5)
        k = series.stats.steps_per_sample
        assert made[:2] == [(1, False), (2, False)]
        assert made[2:] == [(2**i, True) for i in range(2, k.bit_length())]
        assert series.stats.n_steps == 4 * (2 * k - 1)
        assert np.isfinite(series.values).all()
        monkeypatch.setattr(ode, "step_doubling", real)
        fixed_k(monkeypatch, 4 * k)
        ref = rom.simulate_rom(red, spec, 0.0, 20.0, sample_count=5).values
        scale = np.abs(ref).max(axis=0)
        assert (np.abs(series.values - ref).max(axis=0)
                <= 1e-3 * scale + 1e-6).all()

    def test_step_budget(self, reduced_n20, monkeypatch):
        # rtol 1e-15 is never met: k doubles until the budget runs out
        _, _, red = reduced_n20
        monkeypatch.setattr(rom, "_STEP_BUDGET", 20_000)
        with pytest.raises(ode.StepBudget):
            rom.simulate_rom(red, input_preset("input1"), 0.0, 20.0,
                             rtol=1e-15, atol=1e-30)

    @pytest.mark.parametrize("kwargs", [
        dict(tf=0.0), dict(rtol=0.0), dict(atol=np.inf),
        dict(sample_count=1)])
    def test_bad_arguments(self, reduced_n20, kwargs):
        _, _, red = reduced_n20
        with pytest.raises(ValueError):
            rom.simulate_rom(red, input_preset("input1"),
                             **{"t0": 0.0, "tf": 5.0, **kwargs})

    def test_memory_grows_with_outputs_not_states(self):
        # small_damp_ex5_in4 at n = 200 on [0, 20]: 1000 more samples
        # held as (samples, 2n) real states would take 3.2 MB more; the
        # runs hold their outputs and the input at each step instead
        preset = PRESETS["small_damp_ex5_in4"]
        sys = build_system(preset.params, 200)
        spec = input_preset(preset.input_name)
        peaks = []
        for count in (1000, 2000):
            rom.simulate_fom(sys, spec, 0.0, 20.0, sample_count=count)
            tracemalloc.start()
            try:
                rom.simulate_fom(sys, spec, 0.0, 20.0, sample_count=count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1000 * 400 * 8 / 4


class TestStreamedSampling:
    """The grid samples of a run are those of its nodes.

    On [0, 30], 1000 samples put several queries in one step, 7 samples
    put one on every square-wave breakpoint, and with 4 samples most
    square-wave pieces cover no query.  t0 and tf are always queried.
    """

    @staticmethod
    def _args(reduced_n20, model, input_name, count):
        """integrate_sampled's arguments for a run on [0, 30]."""
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
        grid, streamed, stats = integrate_sampled(*args)
        monkeypatch.setattr(ode, "integrate", node_sampled)
        ref_grid, ref, ref_stats = integrate_sampled(*args)
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
        runs = [integrate_sampled(
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
