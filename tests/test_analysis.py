import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from cablemass import analysis, linalg, ode, rom
from cablemass.analysis import (GridMismatch, accurate_prefix, compute_energy,
                                energy_decay, local_maxima, output_error,
                                stability_margin)
from cablemass.cli import PRESETS, _energy_initial_data
from cablemass.model import (DimensionMismatch, PhysicalParams, QuadraticForms,
                             build_system, fom_jacobian, fom_rhs,
                             quadratic_forms)
from cablemass.signals import InputSpec
from conftest import (EXAMPLE1, EXAMPLE2_SMALL, dense_forms,
                      integrate_sampled, record_integrate, schur_system)


def series(times, values):
    return SimpleNamespace(times=np.asarray(times, float),
                           values=np.asarray(values, float))


class TestComputeEnergy:
    def test_zero_state(self):
        forms = quadratic_forms(EXAMPLE1, 10)
        assert compute_energy(forms, EXAMPLE1, np.zeros(20)) == (0.0, 0.0, 0.0)

    def test_unit_velocity_kinetic(self):
        # trapezoid of 1 over [0,1] plus both masses: (1 + 1 + 1.5)/2
        params = PhysicalParams()
        forms = quadratic_forms(params, 100)
        x = np.concatenate([np.zeros(100), np.ones(100)])
        e, ek, ep = compute_energy(forms, params, x)
        assert ek == pytest.approx(1.75)
        assert ep == 0.0
        assert e == pytest.approx(1.75)

    def test_quartic_term(self):
        params = PhysicalParams(k3=1.0, kl=1.0)
        forms = quadratic_forms(params, 30)
        x = np.zeros(60)
        x[29] = 1.0  # d_n = 1
        _, _, ep = compute_energy(forms, params, x)
        d = x[:30]
        k_v = dense_forms(forms)[1]
        assert ep - 0.5 * d @ k_v @ d == pytest.approx(0.25)

    def test_sum_identity(self, rng):
        forms = quadratic_forms(EXAMPLE1, 25)
        for _ in range(10):
            x = rng.standard_normal(50)
            e, ek, ep = compute_energy(forms, EXAMPLE1, x)
            assert e == pytest.approx(ek + ep, rel=1e-12)

    def test_dimension_mismatch(self):
        forms = quadratic_forms(EXAMPLE1, 10)
        for shape in [(19,), (3, 19), (2, 3, 20), ()]:
            with pytest.raises(DimensionMismatch):
                compute_energy(forms, EXAMPLE1, np.zeros(shape))

    def test_block_equals_rows(self, rng):
        forms = quadratic_forms(EXAMPLE1, 25)
        block = rng.standard_normal((7, 50))
        parts = compute_energy(forms, EXAMPLE1, block)
        for i, x in enumerate(block):
            for part, value in zip(parts, compute_energy(forms, EXAMPLE1, x)):
                assert part.shape == (7,)
                assert abs(part[i] - value) <= 1e-14 * abs(value)

    @pytest.mark.parametrize("n", [3, 50, 400])
    @pytest.mark.parametrize("preset", ["exp_stab_Ex1", "small_damp_ex5_in4",
                                        "small_stiff_ex5_in4"])
    def test_banded_norms_match_dense(self, rng, preset, n):
        # the norms read M_H's diagonal and K_V's three bands, against
        # the dense matrices built from those bands
        forms = quadratic_forms(PRESETS[preset].params, n)
        m_h, k_v, _ = dense_forms(forms)
        x = rng.standard_normal((8, 2 * n))
        d, v = x[:, :n], x[:, n:]
        dense = (0.5 * np.einsum("ki,ki->k", v @ m_h, v),
                 0.5 * np.einsum("ki,ki->k", d @ k_v, d))
        for got, want in zip(analysis._quadratic_energies(forms, x), dense):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        for got, want in zip(analysis._quadratic_energies(forms, x[0]),
                             dense):
            assert abs(got - want[0]) <= 1e-14 * abs(want[0])

    @pytest.mark.parametrize("n", [3, 50, 400])
    @pytest.mark.parametrize("preset", ["exp_stab_Ex1", "small_damp_ex5_in4",
                                        "small_stiff_ex5_in4"])
    def test_smooth_potential_energy(self, preset, n):
        # the study's smooth initial data, where each row of K_V d nearly
        # cancels (a dense product loses up to 3e-14 here), against the
        # exact sum over the bands of the same floats
        params = PRESETS[preset].params
        forms = quadratic_forms(params, n)
        k_v = dense_forms(forms)[1]
        d = _energy_initial_data(params, n)[:n]
        exact = sum(Fraction(d[i]) * Fraction(k_v[i, j])
                    * Fraction(d[j])
                    for i in range(n) for j in range(max(0, i - 1),
                                                     min(n, i + 2))) / 2
        _, ep = analysis._quadratic_energies(forms, np.concatenate(
            [d, np.zeros(n)]))
        assert abs(ep - float(exact)) <= 1e-15 * float(exact)


    def test_bands_read_once(self, rng):
        # K_V's row sums are formed once per forms and kept; the bands
        # they are formed from are read-only, so the kept sums cannot go
        # stale.  The energies are those of the row sums formed afresh,
        # bitwise
        params = PRESETS["exp_stab_Ex1"].params
        forms = quadratic_forms(params, 50)
        row_sums = forms.k_row_sums
        assert forms.k_row_sums is row_sums
        for arr in (forms.m_diag, forms.k_diag, forms.k_off, forms.d_diag,
                    forms.d_off, row_sums):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        x = rng.standard_normal((64, 100))
        d, v = x[:, :50], x[:, 50:]
        off = forms.k_off
        row_sums = (forms.k_diag + np.append(off, 0.0)
                    + np.append(0.0, off))
        cells = np.diff(d)
        fresh = (0.5 * np.einsum("...i,i,...i->...", v, forms.m_diag, v),
                 0.5 * (np.einsum("...i,i,...i->...", d, row_sums, d)
                        - np.einsum("...i,i,...i->...", cells, off, cells)))
        for got, want in zip(analysis._quadratic_energies(forms, x), fresh):
            assert got.tobytes() == want.tobytes()

    def test_forms_own_read_only_copies(self):
        # forms built from writeable arrays keep copies: a later write to
        # the caller's arrays cannot reach the kept row sums
        k_diag, k_off = np.array([2.0, 2.0]), np.array([-1.0])
        forms = QuadraticForms(m_diag=np.ones(2), k_diag=k_diag, k_off=k_off,
                               d_diag=np.ones(2), d_off=np.zeros(1))
        row_sums = forms.k_row_sums.copy()
        k_diag[0] = k_off[0] = 5.0
        assert forms.k_diag[0] == 2.0 and forms.k_off[0] == -1.0
        with pytest.raises(ValueError):
            forms.k_off[0] = 5.0
        assert np.array_equal(forms.k_row_sums, row_sums)
        assert np.array_equal(row_sums, [1.0, 1.0])


class TestEnergyDecay:
    def test_zero_initial_data_degenerate(self):
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        report = energy_decay(sys, forms, np.zeros(20), 5.0, sample_count=50)
        assert report.degenerate
        assert report.fitted_rate == 0.0
        np.testing.assert_array_equal(report.e, np.zeros(50))

    @pytest.mark.parametrize("sample_count", [1, 0])
    def test_needs_two_samples(self, sample_count):
        # the step is a fraction of the sample interval
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        x0 = _energy_initial_data(EXAMPLE1, 10)
        with pytest.raises(ValueError, match="sample_count"):
            energy_decay(sys, forms, x0, 5.0, sample_count=sample_count)

    @pytest.mark.parametrize("rtol", [1e-3, 1e-6])
    def test_example1_monotone_decay(self, rtol):
        # the slack absorbs integrator noise at any sane tolerance;
        # tightening rtol must not surface new violations
        sys = build_system(EXAMPLE1, 20)
        forms = quadratic_forms(EXAMPLE1, 20)
        x0 = _energy_initial_data(EXAMPLE1, 20)
        report = energy_decay(sys, forms, x0, 20.0, rtol=rtol,
                              atol=rtol * 1e-3, sample_count=400)
        assert np.all(np.diff(report.e) <= 1e-6 * report.e[0])
        assert report.fitted_rate < 0.0
        assert report.fit_r2 > 0.9
        np.testing.assert_allclose(report.e, report.ek + report.ep, rtol=1e-12)

    def test_example2_oscillatory_decay(self):
        # light viscous damping: the energy never rises, and the loss per
        # sample, v^T D_sig2 v over the interval, oscillates with the waves
        sys = build_system(EXAMPLE2_SMALL, 20)
        forms = quadratic_forms(EXAMPLE2_SMALL, 20)
        x0 = _energy_initial_data(EXAMPLE2_SMALL, 20)
        report = energy_decay(sys, forms, x0, 50.0, rtol=1e-5, atol=1e-8,
                              sample_count=500)
        assert report.max_rise <= 1e-12
        assert local_maxima(-np.diff(report.e)).size >= 10
        assert report.e[-1] < report.e[0]
        assert report.fitted_rate < 0.0

    @pytest.mark.parametrize("n", [10, 20, 50, 100])
    @pytest.mark.parametrize("name", ["exp_stab_Ex1", "exp_stability2"])
    def test_energy_presets_monotone(self, name, n):
        # the study's own settings (the CLI's initial data, 1000 samples,
        # rtol 1e-6): with A built from the energy forms dE/dt <= 0 holds
        # exactly, so the sampled energy never rises
        preset = PRESETS[name]
        sys = build_system(preset.params, n)
        forms = quadratic_forms(preset.params, n)
        x0 = _energy_initial_data(preset.params, n)
        report = energy_decay(sys, forms, x0, preset.tf, rtol=1e-6,
                              atol=1e-9, sample_count=1000)
        rise = np.diff(report.e) / report.e[:-1]
        assert report.max_rise == max(rise.max(), 0.0)
        assert report.max_rise <= 1e-12

    def test_max_rise_reads_the_largest_relative_rise(self, monkeypatch):
        # E = 4, 2, 3, 3.3, 1: rises of 1/2 and 1/10; none from E = 0
        e = np.array([4.0, 2.0, 3.0, 3.3, 1.0, 0.0, 0.0])
        run = SimpleNamespace(values=None, stats=None)
        monkeypatch.setattr(rom, "_simulate", lambda *args: run)
        monkeypatch.setattr(analysis, "compute_energy",
                            lambda forms, params, x: (e, e, 0.0 * e))
        sys = build_system(EXAMPLE1, 10)
        report = energy_decay(sys, quadratic_forms(EXAMPLE1, 10),
                              np.ones(20), 1.0, sample_count=e.size)
        assert report.max_rise == 0.5

    def test_fixed_etdrk4_steps(self, monkeypatch):
        # no adaptive run: a coarse first run, then k ETDRK4 steps per
        # sample interval for k = 1, 2, ...; the run at k = 1 is checked
        # against the first run at every sample, and kept
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        x0 = _energy_initial_data(EXAMPLE1, 10)
        calls = record_integrate(monkeypatch)
        report = energy_decay(sys, forms, x0, 5.0, sample_count=101)
        assert calls == []
        stats = report.stats
        assert stats.steps_per_sample == 1
        assert stats.step == pytest.approx(5.0 / 100, rel=1e-15)
        # 50 coarse steps, 49 side steps, 2 half steps to sample 1, and
        # 100 steps at k = 1
        assert stats.n_steps == 50 + 49 + 2 + 100
        # ||x||_E^2 <= E <= E(0): the default rtol and atol bound it
        assert 0.0 < stats.error_estimate <= \
            1e-6 * np.sqrt(report.e[0]) + 1e-9
        assert stats.cond_v == sys.etdrk4.modes.cond
        # one coefficient set per step size: 2h, h and h / 2
        assert stats.sets_built == 3

    def test_large_amplitude_halves_the_step(self):
        # at 5x the study's initial data the cubic term sets the step:
        # the check rejects k = 1, which the study's data passes at this
        # grid, and the energies still match an rtol-1e-11 Radau run
        preset = PRESETS["exp_stab_Ex1"]
        n, tf, count = 20, 10.0, 100
        sys = build_system(preset.params, n)
        forms = quadratic_forms(preset.params, n)
        x0 = _energy_initial_data(preset.params, n)
        assert energy_decay(sys, forms, x0, tf, sample_count=count) \
            .stats.steps_per_sample == 1
        x0 = 5.0 * x0
        report = energy_decay(sys, forms, x0, tf, sample_count=count)
        assert report.stats.steps_per_sample >= 2
        ref = solve_ivp(lambda t, x: fom_rhs(sys, x, 0.0), (0.0, tf), x0,
                        method="Radau", t_eval=report.times, rtol=1e-11,
                        atol=1e-12,
                        jac=lambda t, x: fom_jacobian(sys, x))
        e_ref, _, _ = compute_energy(forms, preset.params, ref.y.T)
        assert np.abs(report.e - e_ref).max() <= 1e-6 * e_ref[0]
        assert np.all(np.diff(report.e) <= 0.0)

    def test_every_sample_checked(self):
        # one sample interval at 5x the study's initial data: a single
        # ETDRK4 step over it is 0.25 E0 off, so the sample at tf must
        # be compared with a run at half the step before it is accepted;
        # the first run has no coarse step here, and its two half steps
        # to sample 1 are that check
        preset = PRESETS["exp_stab_Ex1"]
        n, tf = 20, 1.0
        sys = build_system(preset.params, n)
        forms = quadratic_forms(preset.params, n)
        x0 = 5.0 * _energy_initial_data(preset.params, n)
        report = energy_decay(sys, forms, x0, tf, sample_count=2)
        assert report.stats.steps_per_sample >= 2
        assert report.stats.error_estimate > 0.0
        ref = solve_ivp(lambda t, x: fom_rhs(sys, x, 0.0), (0.0, tf), x0,
                        method="Radau", t_eval=[tf], rtol=1e-11, atol=1e-12,
                        jac=lambda t, x: fom_jacobian(sys, x))
        e_ref, _, _ = compute_energy(forms, preset.params, ref.y[:, -1])
        assert abs(report.e[-1] - e_ref) <= 1e-6 * report.e[0]

    def test_step_budget(self, monkeypatch):
        # rtol 1e-15 is never met: k doubles until the budget runs out
        monkeypatch.setattr(rom, "_STEP_BUDGET", 5000)
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        x0 = _energy_initial_data(EXAMPLE1, 10)
        with pytest.raises(ode.StepBudget):
            energy_decay(sys, forms, x0, 5.0, rtol=1e-15, atol=1e-30,
                         sample_count=101)

    @pytest.mark.parametrize("tol", [
        dict(rtol=0.0), dict(rtol=-1e-6), dict(rtol=np.nan),
        dict(rtol=np.inf), dict(atol=np.nan), dict(rtol=0.0, atol=0.0)])
    def test_bad_tolerances(self, tol):
        # no run could pass them: refused before any step is taken
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        x0 = _energy_initial_data(EXAMPLE1, 10)
        with pytest.raises(ValueError, match="rtol and atol"):
            energy_decay(sys, forms, x0, 5.0, **tol)
        assert "etdrk4" not in vars(sys)

    @pytest.mark.parametrize("tf", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_horizon(self, tf):
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        x0 = _energy_initial_data(EXAMPLE1, 10)
        with pytest.raises(ValueError, match="t0 < tf"):
            energy_decay(sys, forms, x0, tf)
        assert "etdrk4" not in vars(sys)

    def test_repeated_calls_build_nothing(self):
        # the second study on a system steps through the coefficient
        # sets the first one built, to the same samples bitwise
        sys = build_system(EXAMPLE1, 20)
        forms = quadratic_forms(EXAMPLE1, 20)
        x0 = _energy_initial_data(EXAMPLE1, 20)
        first, again = (energy_decay(sys, forms, x0, 5.0, sample_count=200)
                        for _ in range(2))
        assert first.stats.sets_built > 0
        assert again.stats.sets_built == 0
        assert again.stats == replace(first.stats, sets_built=0)
        for name in ("e", "ek", "ep"):
            assert np.array_equal(getattr(again, name), getattr(first, name))

    def test_near_defective_a_refused(self):
        # distinct eigenvalues 1e-9 apart on a Jordan-like chain: the
        # eigenvectors are nearly parallel
        sys = build_system(EXAMPLE1, 5)
        a = (-np.eye(10) + np.diag(np.ones(9), 1)
             + np.diag(1e-9 * np.arange(10)))
        near = replace(sys, a=a)
        with pytest.raises(linalg.IllConditionedModes):
            energy_decay(near, quadratic_forms(EXAMPLE1, 5),
                         _energy_initial_data(EXAMPLE1, 5), 5.0)

    def test_bad_initial_state(self):
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        with pytest.raises(DimensionMismatch):
            energy_decay(sys, forms, np.zeros(19), 5.0)
        with pytest.raises(ValueError, match="non-finite"):
            energy_decay(sys, forms, np.full(20, np.nan), 5.0)

    @pytest.mark.parametrize("forms_n", [19, 21])
    def test_forms_of_another_size(self, forms_n):
        # refused before the modal factor or any run is paid for
        sys = build_system(EXAMPLE1, 20)
        forms = quadratic_forms(EXAMPLE1, forms_n)
        x0 = _energy_initial_data(EXAMPLE1, 20)
        with pytest.raises(DimensionMismatch, match="forms"):
            energy_decay(sys, forms, x0, 5.0)
        assert "etdrk4" not in vars(sys)

    @pytest.mark.parametrize("band", ["k_off", "d_off"])
    def test_off_diagonal_of_another_length(self, band):
        # diagonals of the system's n, one off-diagonal of n entries: the
        # band lengths are checked, not only the node count
        sys = build_system(EXAMPLE1, 20)
        forms = replace(quadratic_forms(EXAMPLE1, 20),
                        **{band: np.full(20, -1.0)})
        x0 = _energy_initial_data(EXAMPLE1, 20)
        with pytest.raises(DimensionMismatch, match="forms"):
            energy_decay(sys, forms, x0, 5.0)
        assert "etdrk4" not in vars(sys)

    def test_closer_to_reference_than_2_3_pair(self):
        # energies of an rtol-1e-11 Radau run against those of the 2(3)
        # pair at the study's rtol 1e-6 (49x farther at this size)
        preset = PRESETS["exp_stab_Ex1"]
        n, tf, count, rtol, atol = 20, preset.tf, 1000, 1e-6, 1e-9
        sys = build_system(preset.params, n)
        forms = quadratic_forms(preset.params, n)
        x0 = _energy_initial_data(preset.params, n)

        def energies(states):
            return compute_energy(forms, preset.params, states)[0]

        grid = np.linspace(0.0, tf, count)
        ref = solve_ivp(lambda t, x: fom_rhs(sys, x, 0.0), (0.0, tf), x0,
                        method="Radau", t_eval=grid, rtol=1e-11, atol=1e-12,
                        jac=lambda t, x: fom_jacobian(sys, x))
        e_ref = energies(ref.y.T)
        _, states, _ = integrate_sampled(
            fom_rhs, fom_jacobian, sys, sys.b[:, 0], InputSpec(kind="zero"),
            x0, 0.0, tf, count, rtol, atol)
        e_ros23 = energies(states)
        report = energy_decay(sys, forms, x0, tf, rtol=rtol, atol=atol,
                              sample_count=count)

        assert np.abs(report.e - e_ref).max() * 10.0 <= \
            np.abs(e_ros23 - e_ref).max()
        rate_ref, _ = analysis._decay_fit(grid, e_ref, 0.1 * tf)
        assert report.fitted_rate == pytest.approx(rate_ref, rel=1e-4)

    def test_memory_grows_with_samples_not_steps(self):
        # exp_stab_Ex1 at n = 100 takes 999 steps to tf = 50 at k = 1
        # and 1998 at k = 2; the kept run's modal trajectory would be
        # ~6.4 MB, while the 1000 x 200 sampled states are 1.53 MB
        preset = PRESETS["exp_stab_Ex1"]
        sys = build_system(preset.params, 100)
        forms = quadratic_forms(preset.params, 100)
        x0 = _energy_initial_data(preset.params, 100)
        energy_decay(sys, forms, x0, 50.0, rtol=1e-6)  # warm caches
        tracemalloc.start()
        try:
            energy_decay(sys, forms, x0, 50.0, rtol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1000 * 200 * 8


class TestStabilityMargin:
    def test_diagonal(self):
        sys = schur_system(np.diag([-1.0, -2.0]))
        assert stability_margin(sys) == pytest.approx(-1.0)

    def test_example1_n100_stable(self):
        sys = build_system(EXAMPLE1, 100)
        assert stability_margin(sys) < 0.0

    def test_undamped_spectrum_on_axis(self):
        params = PhysicalParams(k3=0.0, k0=1.0, kl=1.0)
        sys = build_system(params, 20)
        margin = stability_margin(sys)
        assert margin >= -1e-8
        assert margin <= 1e-6


class TestOutputError:
    def test_identical(self):
        y = series([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        metrics = output_error(y, y)
        assert metrics.rel_l2 == 0.0
        assert metrics.rel_linf == 0.0
        assert not metrics.absolute_fallback

    def test_ten_percent(self):
        t = np.linspace(0.0, 1.0, 10)
        vals = np.column_stack([np.sin(t) + 1.0, np.cos(t) + 2.0])
        metrics = output_error(series(t, vals), series(t, 1.1 * vals))
        assert metrics.rel_l2 == pytest.approx(0.1)
        assert metrics.rel_linf == pytest.approx(0.1)
        np.testing.assert_allclose(metrics.rel_l2_per_channel, [0.1, 0.1])

    def test_zero_reference_fallback(self):
        t = np.array([0.0, 1.0])
        zero = series(t, np.zeros((2, 2)))
        test = series(t, np.full((2, 2), 0.5))
        metrics = output_error(zero, test)
        assert metrics.absolute_fallback
        assert metrics.rel_linf == pytest.approx(0.5)

    def test_grid_mismatch(self):
        y1 = series([0.0, 1.0], np.zeros((2, 2)))
        y2 = series([0.0, 2.0], np.zeros((2, 2)))
        with pytest.raises(GridMismatch):
            output_error(y1, y2)


class TestLocalMaxima:
    def test_simple(self):
        vals = [0.0, 2.0, 1.0, 3.0, 0.5]
        np.testing.assert_array_equal(local_maxima(vals), [1, 3])

    def test_monotone_has_none(self):
        assert local_maxima(np.linspace(5.0, 0.0, 20)).size == 0


class TestAccuratePrefix:
    def test_never_exceeds(self):
        t = np.linspace(0.0, 10.0, 11)
        ref = series(t, np.ones((11, 2)))
        assert accurate_prefix(ref, ref, 0.05) == 10.0

    def test_prefix_boundary(self):
        t = np.linspace(0.0, 10.0, 11)
        vals = np.ones((11, 2))
        drift = vals.copy()
        drift[6:, 0] += 1.0  # error jumps at t=6
        assert accurate_prefix(series(t, vals), series(t, drift), 0.05) == 5.0

    def test_larger_threshold_longer_prefix(self):
        t = np.linspace(0.0, 10.0, 101)
        vals = np.column_stack([np.sin(t), np.cos(t)])
        drift = vals * (1.0 + 0.02 * t[:, None])
        short = accurate_prefix(series(t, vals), series(t, drift), 0.05)
        longer = accurate_prefix(series(t, vals), series(t, drift), 0.1)
        assert longer > short

    def test_mismatch_raises(self):
        # a one-channel series must not broadcast against a two-channel one
        t = np.linspace(0.0, 10.0, 11)
        two = series(t, np.ones((11, 2)))
        with pytest.raises(GridMismatch, match="shapes"):
            accurate_prefix(series(t, np.ones(11)), two, 0.05)
        with pytest.raises(GridMismatch, match="grids"):
            accurate_prefix(series(t + 1.0, np.ones((11, 2))), two, 0.05)
