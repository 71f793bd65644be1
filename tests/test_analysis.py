import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.integrate import solve_ivp

from cablemass import analysis, ode
from cablemass.analysis import (GridMismatch, accurate_prefix, compute_energy,
                                energy_decay, local_maxima, output_error,
                                stability_margin)
from cablemass.cli import PRESETS, _energy_initial_data
from cablemass.model import (DimensionMismatch, PhysicalParams, build_system,
                             fom_jacobian, fom_rhs, quadratic_forms)
from cablemass.rom import _integrate_sampled
from cablemass.signals import InputSpec
from conftest import EXAMPLE1, EXAMPLE2_SMALL, record_integrate, schur_system


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
        assert ep - 0.5 * d @ forms.k_v @ d == pytest.approx(0.25)

    def test_sum_identity(self, rng):
        forms = quadratic_forms(EXAMPLE1, 25)
        for _ in range(10):
            x = rng.standard_normal(50)
            e, ek, ep = compute_energy(forms, EXAMPLE1, x)
            assert e == pytest.approx(ek + ep, rel=1e-12)

    def test_dimension_mismatch(self):
        forms = quadratic_forms(EXAMPLE1, 10)
        with pytest.raises(DimensionMismatch):
            compute_energy(forms, EXAMPLE1, np.zeros(19))


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
        # the step cap is a multiple of the sample interval
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
        # light viscous damping: the energy ripples (boundary flux of the
        # one-sided stencils) while decaying overall
        sys = build_system(EXAMPLE2_SMALL, 20)
        forms = quadratic_forms(EXAMPLE2_SMALL, 20)
        x0 = _energy_initial_data(EXAMPLE2_SMALL, 20)
        report = energy_decay(sys, forms, x0, 50.0, rtol=1e-5, atol=1e-8,
                              sample_count=500)
        assert local_maxima(report.e).size > 0
        assert report.e[-1] < report.e[0]
        assert report.fitted_rate < 0.0


    def test_rodas4_with_step_cap(self, monkeypatch):
        sys = build_system(EXAMPLE1, 10)
        forms = quadratic_forms(EXAMPLE1, 10)
        x0 = _energy_initial_data(EXAMPLE1, 10)
        calls = record_integrate(monkeypatch)
        report = energy_decay(sys, forms, x0, 5.0, sample_count=101)
        assert [(c.method, c.max_step) for c in calls] == \
            [(ode.RODAS4, 4 * 5.0 / 100)]
        assert report.stats == calls[0].result.stats
        assert report.stats.n_steps > 0

    def test_closer_to_reference_than_2_3_pair(self):
        # energies of an rtol-1e-11 Radau run against those of the 2(3)
        # pair at the study's rtol 1e-6 (49x farther at this size)
        preset = PRESETS["exp_stab_Ex1"]
        n, tf, count, rtol, atol = 20, preset.tf, 1000, 1e-6, 1e-9
        sys = build_system(preset.params, n)
        forms = quadratic_forms(preset.params, n)
        x0 = _energy_initial_data(preset.params, n)

        def energies(states):
            return np.array([compute_energy(forms, preset.params, x)[0]
                             for x in states])

        grid = np.linspace(0.0, tf, count)
        ref = solve_ivp(lambda t, x: fom_rhs(sys, x, 0.0), (0.0, tf), x0,
                        method="Radau", t_eval=grid, rtol=1e-11, atol=1e-12,
                        jac=lambda t, x: fom_jacobian(sys, x).dense())
        e_ref = energies(ref.y.T)
        _, states, _ = _integrate_sampled(
            fom_rhs, fom_jacobian, sys, sys.b[:, 0], InputSpec(kind="zero"),
            x0, 0.0, tf, count, rtol, atol, method=ode.ROS23)
        e_ros23 = energies(states)
        report = energy_decay(sys, forms, x0, tf, rtol=rtol, atol=atol,
                              sample_count=count)

        assert np.abs(report.e - e_ref).max() * 10.0 <= \
            np.abs(e_ros23 - e_ref).max()
        rate_ref, _ = analysis._decay_fit(grid, e_ref, 0.1 * tf)
        assert report.fitted_rate == pytest.approx(rate_ref, rel=1e-4)

    def test_memory_grows_with_samples_not_steps(self):
        # exp_stab_Ex1 at n = 100 takes ~4700 steps to tf = 50; a kept
        # trajectory of states and derivatives would be ~15 MB, while
        # the 1000 x 200 sampled states are 1.53 MB
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
