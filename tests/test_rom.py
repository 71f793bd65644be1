import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cablemass import analysis, balance, ode, rom
from cablemass.cli import PRESETS, _energy_initial_data
from cablemass.model import DimensionMismatch, PhysicalParams, build_system, \
    eval_nonlinearity, fom_jacobian, fom_rhs, quadratic_forms
from cablemass.signals import (breakpoints, eval_input, input_preset,
                               resolve_input)
from conftest import (EXAMPLE1, first_run_steps, integrate_sampled,
                      node_sampled, record_integrate)


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
    """Make the forced runs keep the run at k, checked against k / 2.

    The run at k = 1 is checked against the coarse first run.
    """
    def doubling(first, run, steps_per_k, budget):
        if k > 1:
            run(k // 2, False)
        else:
            first[1]()
        est, _ = run(k, True)
        return k, steps_per_k * (k + k // 2) if k > 1 else first[0], est

    monkeypatch.setattr(ode, "step_doubling", doubling)


def loop_intervals(spec, grid, interval, stride=1):
    """``rom._intervals`` as a loop over every interval builds it.

    The reference for the construction from the grid times' places
    among the knots: each interval joins the path it ends, a whole
    sample interval as None and a piece as its length, and a path closes
    at each grid time.
    """
    times = grid[::stride]
    knots = np.union1d(times, breakpoints(spec, grid[0], times[-1]))
    on_grid = np.isin(knots, times)
    lengths = np.diff(knots)
    whole = on_grid[:-1] & on_grid[1:]
    lengths[whole] = interval
    paths, path = [], []
    for length, is_whole, ends_on_sample in zip(
            lengths.tolist(), whole.tolist(), on_grid[1:].tolist()):
        path.append(None if is_whole else length)
        if ends_on_sample:
            paths.append(tuple(path))
            path = []
    sizes, which = np.unique(lengths, return_inverse=True)
    cuts = tuple(i for i, path in enumerate(paths) if path != (None,))
    return rom._Intervals(
        starts=knots[:-1], lengths=lengths,
        whole=np.array([path == (None,) for path in paths]), cuts=cuts,
        pieces=tuple(paths[i] for i in cuts),
        first=np.cumsum([0] + [len(path) for path in paths]),
        sizes=sizes, which=which)


class TestPiecewise:
    """Simulations step between the input's breakpoints."""

    def test_square_wave_segments(self):
        # every jump of input4 on [0, 100] ends one interval and starts
        # the next, and each interval's steps hold the square wave's
        # value on it
        spec = input_preset("input4")
        interval = 100.0 / 999
        intervals = rom._intervals(spec, np.linspace(0.0, 100.0, 1000),
                                   interval)
        starts, lengths, first = (intervals.starts, intervals.lengths,
                                  intervals.first)
        jumps = 5.0 * np.arange(1, 20)
        assert np.isin(jumps, starts).all()
        inside = (jumps[:, None] > starts) & \
            (jumps[:, None] < starts + lengths)
        assert not inside.any()
        # no jump falls on a grid time, so 19 sample intervals are cut
        # in two, and those pieces are the only other step sizes
        counts = np.diff(first)
        assert counts.size == 999
        cut = np.flatnonzero(counts != 1)
        assert cut.size == 19 and (counts[cut] == 2).all()
        assert first[-1] == starts.size == 1018
        pieces = [lengths[first[i]:first[i + 1]].tolist() for i in cut]
        np.testing.assert_array_equal(lengths[lengths != interval],
                                      [p for path in pieces for p in path])
        # each path's intervals, and the step size of each interval
        np.testing.assert_array_equal(intervals.whole, counts == 1)
        assert intervals.cuts == tuple(cut.tolist())
        assert intervals.pieces == tuple(map(tuple, pieces))
        np.testing.assert_array_equal(intervals.sizes[intervals.which],
                                      lengths)
        np.testing.assert_array_equal(intervals.sizes, np.unique(lengths))
        for k in (1, 4):
            held = rom._stage_inputs(spec, starts, lengths, k)
            value = 0.1 * (-1.0) ** np.floor(starts / 5.0)
            np.testing.assert_array_equal(
                held, np.repeat(value, 3 * k).reshape(-1, 3))

    def test_intervals_kept_per_jump_set_and_grid(self):
        # queries that differ in amplitude share one read-only set, and
        # another grid or jump set gets its own
        spec = input_preset("input4")
        grid = np.linspace(0.0, 100.0, 1000)
        kept = rom._intervals(spec, grid, 100.0 / 999)
        assert rom._intervals(replace(spec, scale=2.5), grid,
                              100.0 / 999) is kept
        smooth = rom._intervals(input_preset("input1"), grid, 100.0 / 999)
        assert smooth.starts.size == 999 and smooth.whole.all()
        assert smooth.cuts == smooth.pieces == ()
        coarse = rom._intervals(spec, np.linspace(0.0, 100.0, 112),
                                100.0 / 111)
        assert coarse is not kept and coarse.whole.size == 111
        for intervals in (kept, smooth):
            for arr in (intervals.starts, intervals.lengths, intervals.whole,
                        intervals.first, intervals.sizes, intervals.which):
                with pytest.raises(ValueError):
                    arr[0] = 0

    @pytest.mark.parametrize("tf, count", [(20.0, 30), (100.0, 216),
                                           (100.0, 1000), (100.0, 1001)])
    def test_coarse_grid_times_exact(self, tf, count):
        # the coarse first run's intervals end on grid[::2] bitwise, which
        # np.linspace(t0, grid[-1 or -2], ...) misses by an ulp at these
        # counts, and cut no piece much shorter than the grid's own (an
        # ulp off a jump, that would be a 2e-15 piece)
        spec = input_preset("input4")
        grid = np.linspace(0.0, tf, count)
        coarse = rom._intervals(spec, grid, 2.0 * tf / (count - 1), 2)
        ends = coarse.starts[coarse.first[1:-1]]
        assert ends.size == coarse.whole.size - 1
        np.testing.assert_array_equal(ends, grid[2:-1:2][:ends.size])
        jumps = breakpoints(spec, 0.0, grid[::2][-1])
        assert np.isin(jumps, coarse.starts).all()
        fine = rom._intervals(spec, grid, tf / (count - 1))
        assert coarse.lengths.min() >= 0.5 * fine.lengths.min()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("tf, count", [(20.0, 30), (100.0, 21),
                                           (100.0, 216), (100.0, 1000),
                                           (300.0, 1000), (300.0, 1001)])
    def test_matches_loop_reference(self, tf, count, stride):
        # the intervals from the grid times' places among the knots are
        # those of a loop over every interval, on grids whose jumps lie
        # on grid times (100.0-21) or well away from them
        spec = input_preset("input4")
        grid = np.linspace(0.0, tf, count)
        interval = stride * tf / (count - 1)
        got = rom._intervals(spec, grid, interval, stride)
        want = loop_intervals(spec, grid, interval, stride)
        assert want.lengths.min() >= 0.01 * interval
        for name in ("starts", "lengths", "whole", "first", "sizes",
                     "which"):
            got_arr, want_arr = getattr(got, name), getattr(want, name)
            assert got_arr.dtype == want_arr.dtype, name
            np.testing.assert_array_equal(got_arr, want_arr, err_msg=name)
        assert got.cuts == want.cuts and got.pieces == want.pieces
        # every jump cuts a path, but on the grid of step 5
        assert got.cuts or (count, stride) == (21, 1)

    @pytest.mark.parametrize("tf", [20.0, 300.0])
    def test_no_sliver_pieces(self, tf):
        # np.linspace puts some grid times an ulp off a jump (at 117
        # samples on [0, 20], 5.000000000000002 for 5): no piece that
        # short is cut, on the fine grid nor on every second time
        spec = input_preset("input4")
        for count in range(3, 400):
            grid = np.linspace(0.0, tf, count)
            for stride in (1, 2):
                interval = stride * tf / (count - 1)
                intervals = rom._intervals(spec, grid, interval, stride)
                assert intervals.lengths.min() >= 1e-9 * interval, \
                    (count, stride)

    def test_smooth_input_one_call(self, reduced_n20, monkeypatch):
        # one eval_input call per run, at every stage time of the run:
        # the run at k = 1, whose inputs the side steps share, the coarse
        # run, the two half steps to sample 1, then k = 2, 4, ...
        sys, _, red = reduced_n20
        calls = []

        def recording(spec, t):
            calls.append(np.array(t))
            return eval_input(spec, t)

        monkeypatch.setattr(rom, "eval_input", recording)
        series = rom.simulate_rom(
            red, resolve_input(input_preset("input2"), sys), 0.0, 100.0)
        k = series.stats.steps_per_sample
        assert k == 1
        h = 100.0 / 999
        starts = series.times[:-1, None]
        assert len(calls) == 3
        for times, want in zip(calls, (
                starts + 0.5 * h * np.arange(3),
                series.times[:998:2, None] + h * np.arange(3),
                starts[:1] + 0.25 * h * np.arange(5))):
            assert times.shape == want.shape
            np.testing.assert_allclose(times, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_stats_summed(self, reduced_n20, model):
        # n_steps counts the steps of every run made: the coarse first
        # run's, then k per interval at k = 1, 2, ... up to the kept k
        sys, _, red = reduced_n20
        spec = input_preset("input4")
        if model == "rom":
            series = rom.simulate_rom(red, spec, 0.0, 30.0)
        else:
            series = rom.simulate_fom(sys, spec, 0.0, 30.0)
        starts = rom._intervals(spec, series.times, 30.0 / 999).starts
        s = series.stats
        assert s.steps_per_sample == 1
        assert s.n_steps == (first_run_steps(spec, series.times)
                             + starts.size * (2 * s.steps_per_sample - 1))
        assert s.step == 30.0 / 999 / s.steps_per_sample

    def test_breakpoint_samples_are_stored_states(self, reduced_n20):
        # the grid 0, 5, ..., 100 puts a sample on every breakpoint: no
        # interval is cut, and the samples agree with those of a run on
        # the grid 0, 0.5, ..., 100 at the shared times
        _, _, red = reduced_n20
        spec = input_preset("input4")
        intervals = rom._intervals(spec, np.linspace(0.0, 100.0, 21), 5.0)
        assert intervals.starts.size == 20
        assert intervals.whole.all() and intervals.cuts == ()
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
        assert s.steps_per_sample == 1
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
        # interval overflows, so the coarse first run and the run at
        # k = 1 are dropped, and the run at k = 2 is compared with none
        _, _, red = reduced_n20
        spec = replace(input_preset("input4"), scale=10.0)
        made = []
        real = ode.step_doubling

        def logged(first, run, steps_per_k, budget):
            def first_logged():
                made.append(("first", None))
                return first[1]()

            def run_logged(k, compare):
                made.append((k, compare))
                return run(k, compare)
            return real((first[0], first_logged), run_logged, steps_per_k,
                        budget)

        monkeypatch.setattr(ode, "step_doubling", logged)
        series = rom.simulate_rom(red, spec, 0.0, 20.0, sample_count=5)
        k = series.stats.steps_per_sample
        assert made[:3] == [("first", None), (1, False), (2, False)]
        assert made[3:] == [(2**i, True) for i in range(2, k.bit_length())]
        assert series.stats.n_steps == (first_run_steps(spec, series.times)
                                        + 4 * (2 * k - 1))
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

    @staticmethod
    def counted_run(reduced_n20, model, count):
        """A 5-s run of count samples: the ROM's, the FOM's or the energy's."""
        sys, _, red = reduced_n20
        if model == "energy":
            return analysis.energy_decay(
                sys, quadratic_forms(EXAMPLE1, 20),
                _energy_initial_data(EXAMPLE1, 20), 5.0, sample_count=count)
        simulate, system = ((rom.simulate_rom, red) if model == "rom"
                            else (rom.simulate_fom, sys))
        return simulate(system, input_preset("input1"), 0.0, 5.0,
                        sample_count=count)

    @pytest.mark.parametrize("count", [20.5, np.float64(20.0)])
    @pytest.mark.parametrize("model", ["rom", "fom", "energy"])
    def test_non_integral_sample_count(self, reduced_n20, monkeypatch,
                                       model, count):
        # refused by the settings check, before any run
        monkeypatch.setattr(rom, "_simulate", None)
        with pytest.raises(ValueError, match="sample_count"):
            self.counted_run(reduced_n20, model, count)

    @pytest.mark.parametrize("model", ["rom", "fom", "energy"])
    def test_numpy_integer_sample_count(self, reduced_n20, model):
        run = self.counted_run(reduced_n20, model, np.int64(20))
        assert run.times.shape == (20,)

    @pytest.mark.parametrize("span", [(0.0, np.inf), (-np.inf, 5.0),
                                      (np.nan, 5.0), (0.0, np.nan)])
    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_non_finite_horizon(self, reduced_n20, model, span):
        # refused by the settings check, before any step or warning
        sys, _, red = reduced_n20
        simulate, system = ((rom.simulate_rom, red) if model == "rom"
                            else (rom.simulate_fom, sys))
        with pytest.raises(ValueError, match="t0 < tf"):
            simulate(system, input_preset("input1"), *span)

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


class TestStiffEstimate:
    """The estimate contract on small_stiff_ex5_in4 at n = 50.

    Its FOM has real eigenvalues down to -949 here and its input is a
    square wave, where a step of stiff order 2 makes the /15 estimate
    too small: Cox and Matthews' ETDRK4 leaves these FOM outputs 1.3x
    (rtol 1e-5) and 2.0x (rtol 1e-6) their tolerance off.
    """

    @pytest.fixture(scope="class")
    def models(self):
        preset = PRESETS["small_stiff_ex5_in4"]
        sys = build_system(preset.params, 50)
        p, q = balance.gramians(sys)
        bal = balance.square_root_transform(p, q, preset.r)
        return preset, {"fom": (sys, rom.simulate_fom),
                        "rom": (balance.reduce(sys, bal), rom.simulate_rom)}

    @pytest.mark.parametrize("rtol", [1e-5, 1e-6])
    @pytest.mark.parametrize("model", ["fom", "rom"])
    def test_outputs_within_tolerance(self, models, monkeypatch, model,
                                      rtol):
        # every output within rtol * scale + atol of a fixed k = 32 run
        preset, systems = models
        system, simulate = systems[model]
        spec = input_preset(preset.input_name)
        atol = 1e-9
        series = simulate(system, spec, 0.0, preset.tf, rtol=rtol, atol=atol)
        fixed_k(monkeypatch, 32)
        ref = simulate(system, spec, 0.0, preset.tf, rtol=rtol,
                       atol=atol).values
        scale = np.abs(series.values).max(axis=0)
        assert (np.abs(series.values - ref) <= rtol * scale + atol).all()


def seed_only(monkeypatch):
    """Make the forced runs return the coarse first run's samples."""
    def doubling(first, run, steps_per_k, budget):
        first[1]()
        return 1, first[0], 0.0

    monkeypatch.setattr(ode, "step_doubling", doubling)


# The defect test_coarse_grid_within_tolerance pins until it is mended
COARSE_GRID_DEFECT = (
    "rom._simulate: the coarse first run's check trusts (2h, h) to be in "
    "the 16-fold range and sees at an odd sample the k = 1 run's error "
    "at the even sample before, so on grids far coarser than the "
    "dynamics the kept k = 1 run is off by more than its tolerance")


class TestCoarseFirstRun:
    """The first run: steps of two sample intervals, and a side step to
    each odd sample.  Square-wave runs on [0, 20] of the 4-mode ROM and
    its 40-state FOM.
    """

    @staticmethod
    def runs(reduced_n20, monkeypatch, model, count):
        """(kept series, its first run's samples, a k = 16 reference)."""
        sys, _, red = reduced_n20
        system, simulate = ((red, rom.simulate_rom) if model == "rom"
                            else (sys, rom.simulate_fom))
        spec = input_preset("input4")
        kept = simulate(system, spec, 0.0, 20.0, sample_count=count)
        seed_only(monkeypatch)
        first = simulate(system, spec, 0.0, 20.0, sample_count=count).values
        fixed_k(monkeypatch, 16)
        ref = simulate(system, spec, 0.0, 20.0, sample_count=count).values
        return kept, first, ref

    @pytest.mark.parametrize("count", [2, 3, 1000, 1001])
    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_sample_counts(self, reduced_n20, monkeypatch, model, count):
        # an odd interval count ends on a side step, an even one on a
        # coarse step; 2 samples make no coarse step at all.  The first
        # run writes every sample, and the kept run is within its
        # tolerance of the reference at every sample
        kept, first, ref = self.runs(reduced_n20, monkeypatch, model, count)
        scale = np.abs(kept.values).max(axis=0)
        assert (np.abs(first - ref) <= 0.1 * scale).all()
        assert (np.abs(kept.values - ref) <= 1e-3 * scale + 1e-6).all()
        intervals = rom._intervals(input_preset("input4"), kept.times,
                                   20.0 / (count - 1))
        k = kept.stats.steps_per_sample
        assert kept.stats.n_steps == (first_run_steps(input_preset("input4"),
                                                      kept.times)
                                      + intervals.starts.size * (2 * k - 1))
        if count >= 1000:
            assert k == 1
            assert (np.abs(first - ref) <= 1e-3 * scale + 1e-6).all()

    @pytest.mark.parametrize("count, on_grid, cut", [
        # 101 samples put t = 5 and 15 on odd samples: the fine grid is
        # cut nowhere and the coarse grid at both
        (101, True, 2),
        # 98 put t = 5, 10 and 15 inside the intervals of side steps
        (98, False, 3)])
    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_jumps(self, reduced_n20, monkeypatch, model, count, on_grid,
                   cut):
        spec = input_preset("input4")
        grid = np.linspace(0.0, 20.0, count)
        interval = 20.0 / (count - 1)
        fine = rom._intervals(spec, grid, interval)
        coarse = rom._intervals(spec, grid, 2.0 * interval, 2)
        jumps = np.array([5.0, 10.0, 15.0])
        assert np.isin(jumps, grid).all() == on_grid
        cut_side = [i for i in range(0, count - 1, 2) if not fine.whole[i]]
        cut_coarse = np.flatnonzero(~coarse.whole).tolist()
        if on_grid:
            assert fine.whole.all() and len(cut_coarse) == cut
        else:
            assert len(cut_side) == cut
        kept, first, ref = self.runs(reduced_n20, monkeypatch, model, count)
        scale = np.abs(ref).max(axis=0)
        tol = 1e-3 * scale + 1e-6
        assert kept.stats.steps_per_sample == 1
        assert (np.abs(kept.values - ref) <= tol).all()
        # the first run holds the square wave's value on each piece
        assert (np.abs(first - ref) <= 0.01 * tol).all()

    @pytest.mark.parametrize("count", [
        *(pytest.param(count, marks=pytest.mark.xfail(
            raises=AssertionError, strict=True, reason=COARSE_GRID_DEFECT))
          for count in (8, 10, 13)),
        20, 40])
    def test_coarse_grid_within_tolerance(self, reduced_n20, monkeypatch,
                                          count):
        # the kept run within its default tolerance of a k = 16 run; on
        # grids far coarser than the dynamics it reads 6.7x, 7.8x and
        # 1.5x the tolerance at 8, 10 and 13 samples, 0.11x at 20
        kept, _, ref = self.runs(reduced_n20, monkeypatch, "rom", count)
        scale = np.abs(kept.values).max(axis=0)
        assert (np.abs(kept.values - ref) <= 1e-3 * scale + 1e-6).all()

    def test_fallback_after_nonfinite_first_run(self, reduced_n20,
                                                monkeypatch):
        # a NonFiniteState in the first run's side steps drops it: the
        # run at k = 1 only seeds the check of the run at k = 2, as a
        # fixed k = 2 makes it
        _, _, red = reduced_n20
        spec = input_preset("input4")

        def failing(self, ys, inputs=None):
            raise ode.NonFiniteState("side step")

        with monkeypatch.context() as patch:
            patch.setattr(ode.CubicEtdrk4, "step_rows", failing)
            series = rom.simulate_rom(red, spec, 0.0, 20.0)
        fixed_k(monkeypatch, 2)
        ref = rom.simulate_rom(red, spec, 0.0, 20.0)
        assert series.stats.steps_per_sample == 2
        assert series.values.tobytes() == ref.values.tobytes()
        intervals = rom._intervals(spec, series.times, 20.0 / 999)
        assert series.stats.n_steps == (first_run_steps(spec, series.times)
                                        + 3 * intervals.starts.size)

    def test_step_budget_counts_first_run(self, reduced_n20, monkeypatch):
        # the budget is charged the coarse steps and the side steps
        _, _, red = reduced_n20
        spec = input_preset("input4")
        grid = np.linspace(0.0, 20.0, 1000)
        first = first_run_steps(spec, grid)
        fine = rom._intervals(spec, grid, 20.0 / 999).starts.size
        for budget, passes in ((first - 1, False), (first + fine - 1, False),
                               (first + fine, True)):
            monkeypatch.setattr(rom, "_STEP_BUDGET", budget)
            if passes:
                stats = rom.simulate_rom(red, spec, 0.0, 20.0).stats
                assert stats.n_steps == budget
            else:
                with pytest.raises(ode.StepBudget):
                    rom.simulate_rom(red, spec, 0.0, 20.0)

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_repeated_query_builds_nothing(self, reduced_n20, model):
        # the coefficient sets and both interval sets of a query are kept
        sys, _, red = reduced_n20
        system, simulate = ((red, rom.simulate_rom) if model == "rom"
                            else (sys, rom.simulate_fom))
        spec = input_preset("input4")
        first = simulate(system, spec, 0.0, 17.0)
        misses = rom._grid_intervals.cache_info().misses
        again = simulate(system, replace(spec, scale=0.5), 0.0, 17.0)
        assert again.stats.sets_built == 0
        assert rom._grid_intervals.cache_info().misses == misses
        assert again.stats.n_steps == first.stats.n_steps


class TestEtdrk4Table:
    """Each model builds a step size's ETDRK4 coefficients once.

    Every test builds its own models: the module-scoped ones share their
    tables across tests.
    """

    @staticmethod
    def fresh(model):
        """A new model and its simulate function."""
        sys = build_system(EXAMPLE1, 10)
        if model == "fom":
            return sys, rom.simulate_fom
        p, q = balance.gramians(sys)
        return (balance.reduce(sys, balance.square_root_transform(p, q, 4)),
                rom.simulate_rom)

    @staticmethod
    def record_builds(monkeypatch, table):
        """Patch ode.cubic_etdrk4 to log h and the table's size per call."""
        calls = []
        real = ode.cubic_etdrk4

        def recording(lam, row, g, h, bm):
            calls.append((h, len(table._sets)))
            return real(lam, row, g, h, bm)

        monkeypatch.setattr(ode, "cubic_etdrk4", recording)
        return calls

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_queries_reuse_coefficients(self, monkeypatch, model):
        # square-wave queries that differ only in amplitude build each
        # step size once, and give the outputs of a fresh model bitwise
        spec = input_preset("input4")
        scales = (1.0, 0.5, 2.0, 1.0)
        refs = []
        for scale in scales:
            other, simulate = self.fresh(model)
            refs.append(simulate(other, replace(spec, scale=scale), 0.0, 20.0))
        system, simulate = self.fresh(model)
        calls = self.record_builds(monkeypatch, system.etdrk4)
        built = []
        for scale, ref in zip(scales, refs):
            before = len(calls)
            series = simulate(system, replace(spec, scale=scale), 0.0, 20.0)
            built.append(series.stats.sets_built)
            assert built[-1] == len(calls) - before
            assert series.values.tobytes() == ref.values.tobytes()
            assert series.stats == replace(ref.stats, sets_built=built[-1])
        steps = [h for h, _ in calls]
        assert len(steps) == len(set(steps)) == system.etdrk4.built
        assert built[0] == refs[0].stats.sets_built > 0 and built[-1] == 0

    @pytest.mark.parametrize("model", ["rom", "fom"])
    def test_bounded(self, monkeypatch, model):
        # 3 sets kept, fewer than one run's step sizes (the sample
        # interval's and the pieces of 3 jumps): the oldest are dropped
        # and rebuilt, and the outputs stay bitwise those of a fresh,
        # unbounded model
        spec = input_preset("input4")
        ks = (1, 2, 4, 2, 1)
        refs = []
        for k in ks:
            fixed_k(monkeypatch, k)
            other, simulate = self.fresh(model)
            refs.append(simulate(other, spec, 0.0, 20.0).values)
        monkeypatch.setattr(ode, "_TABLE_SETS", 3)
        system, simulate = self.fresh(model)
        table = system.etdrk4
        calls = self.record_builds(monkeypatch, table)
        for k, ref in zip(ks, refs):
            fixed_k(monkeypatch, k)
            values = simulate(system, spec, 0.0, 20.0).values
            assert len(table._sets) == 3
            assert values.tobytes() == ref.tobytes()
        # each build sees at most 2 sets: the oldest went to make room
        assert max(size for _, size in calls) == 2
        assert len(calls) > len({h for h, _ in calls})


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
