"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy shared computations (n=100 balancing, the long
square-wave runs) live in module-scoped fixtures.
"""

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cablemass import analysis, balance, rom
from cablemass.analysis import accurate_prefix, local_maxima
from cablemass.cli import PRESETS, _energy_initial_data
from cablemass.model import (PhysicalParams, build_system, eval_nonlinearity,
                             quadratic_forms)
from cablemass.signals import input_preset, resolve_input
from conftest import EXAMPLE1, EXAMPLE2_SMALL

TESTS_DIR = Path(__file__).resolve().parent


def report(num, description, ok):
    print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


@pytest.fixture(scope="module")
def example1_sys100():
    return build_system(EXAMPLE1, 100)


@pytest.fixture(scope="module")
def example1_gramians(example1_sys100):
    return balance.gramians(example1_sys100)


@pytest.fixture(scope="module")
def stiff_ex5_runs():
    """Criterion 9/10 scenario: Example 5, Input 4, small stiffness."""
    params = PhysicalParams(gamma=0.1, k0=0.001, kl=0.001)
    sys = build_system(params, 100)
    p, q = balance.gramians(sys)
    red = balance.reduce(sys, balance.square_root_transform(p, q, 4))

    cache = {}

    def run(scale):
        if scale not in cache:
            spec = replace(input_preset("input4"), scale=scale)
            fom = rom.simulate_fom(sys, spec, 0.0, 300.0, rtol=1e-4, atol=1e-7)
            red_series = rom.simulate_rom(red, spec, 0.0, 300.0,
                                          rtol=1e-4, atol=1e-7)
            cache[scale] = (fom, red_series)
        return cache[scale]

    return run


def test_criterion_01_stability_margin(example1_sys100):
    start = time.perf_counter()
    margin = analysis.stability_margin(example1_sys100)
    elapsed = time.perf_counter() - start
    report(1, f"stability margin {margin:.4g} < 0 at n=100 "
              f"({elapsed:.2f}s < 10s)",
           margin < 0.0 and elapsed < 10.0)


def test_criterion_02_energy_decay(example1_sys100):
    forms = quadratic_forms(EXAMPLE1, 100)
    x0 = _energy_initial_data(EXAMPLE1, 100)
    rep = analysis.energy_decay(example1_sys100, forms, x0, 50.0,
                                rtol=1e-6, atol=1e-9)
    slack = 1e-6 * rep.e[0]
    monotone = bool(np.all(np.diff(rep.e) <= slack))
    report(2, f"unforced energy nonincreasing (slack {slack:.2e}) and "
              f"fitted rate {rep.fitted_rate:.4g} < 0",
           monotone and rep.fitted_rate < 0.0)


def test_criterion_03_hyperbolic_oscillatory_decay():
    sys = build_system(EXAMPLE2_SMALL, 100)
    margin = analysis.stability_margin(sys)
    forms = quadratic_forms(EXAMPLE2_SMALL, 100)
    x0 = _energy_initial_data(EXAMPLE2_SMALL, 100)
    rep = analysis.energy_decay(sys, forms, x0, 100.0, rtol=1e-4, atol=1e-7)
    # E never rises, and its loss per sample oscillates with the waves
    maxima = local_maxima(-np.diff(rep.e))
    monotone = rep.max_rise <= 1e-12
    decayed = rep.e[-1] < rep.e[0]
    report(3, f"hyperbolic case: margin {margin:.4g} < 0, energy "
              f"nonincreasing (largest rise {rep.max_rise:.2g}), "
              f"{maxima.size} >= 10 local maxima of the loss per sample, "
              f"energy decayed",
           margin < 0.0 and monotone and maxima.size >= 10 and decayed)


def test_criterion_04_balancing_algebra():
    sys = build_system(EXAMPLE1, 20)
    p, q = balance.gramians(sys)
    hsv = balance.hankel_values(p, q)
    rank = int(np.count_nonzero(hsv > 1e-12 * hsv[0]))
    bal = balance.square_root_transform(p, q, rank)
    sigma = np.diag(bal.hsv)
    scale = np.linalg.norm(sigma)
    p_err = np.linalg.norm(bal.sr @ p @ bal.sr.T - sigma) / scale
    q_err = np.linalg.norm(bal.tr.T @ q @ bal.tr - sigma) / scale
    identity_ok = all(
        np.linalg.norm(balance.square_root_transform(p, q, r).sr
                       @ balance.square_root_transform(p, q, r).tr
                       - np.eye(r)) <= 1e-10
        for r in range(1, 11))
    report(4, f"projected Gramians balanced (errors {p_err:.2e}, {q_err:.2e} "
              f"<= 1e-8) and Sr Tr = I for r=1..10",
           p_err <= 1e-8 and q_err <= 1e-8 and identity_ok)


def test_criterion_05_error_bound(example1_sys100, example1_gramians):
    start = time.perf_counter()
    linear = build_system(replace(EXAMPLE1, k3=0.0), 100)
    # the cubic term lives outside A, so the linear matrices coincide
    assert np.array_equal(linear.a, example1_sys100.a)
    p, q = example1_gramians
    hsv = balance.hankel_values(p, q)
    omegas = np.logspace(-2, 2, 50)
    gfull = [balance.transfer_function(linear.a, linear.b, linear.c, 1j * w)
             for w in omegas]
    ok = True
    lines = []
    for r in (2, 4, 8):
        red = balance.reduce(linear, balance.square_root_transform(p, q, r))
        worst = max(
            np.linalg.norm(gfull[i] - balance.transfer_function(
                red.ar, red.br, red.cr, 1j * w), 2)
            for i, w in enumerate(omegas))
        bound = balance.error_bound(hsv, r)
        ok = ok and worst <= bound + 1e-6
        lines.append(f"r={r}: {worst:.3e} <= {bound:.3e}")
    elapsed = time.perf_counter() - start
    report(5, f"frequency-grid error within bound [{'; '.join(lines)}] "
              f"({elapsed:.1f}s < 60s)", ok and elapsed < 60.0)


def test_criterion_06_low_order_nonlinearity(example1_sys100,
                                             example1_gramians):
    p, q = example1_gramians
    bal = balance.square_root_transform(p, q, 4)
    red = balance.reduce(example1_sys100, bal)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        a = rng.standard_normal(4)
        full = bal.sr @ eval_nonlinearity(example1_sys100, bal.tr @ a)
        low = rom.rom_nonlinear(red, a)
        scale = max(np.linalg.norm(full), 1e-300)
        worst = max(worst, np.linalg.norm(low - full) / scale)
    report(6, f"O(r) nonlinear term equals full projection for 1000 random "
              f"states (worst rel err {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_07_nonlinear_rom_accuracy():
    preset = PRESETS["small_damp_ex1_in2"]
    sys = build_system(preset.params, 100)
    spec = resolve_input(input_preset("input2"), sys)
    p, q = balance.gramians(sys)
    fom = rom.simulate_fom(sys, spec, 0.0, 100.0, rtol=1e-5, atol=1e-8)
    errs = {}
    for r in (4, 8):
        red = balance.reduce(sys, balance.square_root_transform(p, q, r))
        series = rom.simulate_rom(red, spec, 0.0, 100.0, rtol=1e-5, atol=1e-8)
        errs[r] = analysis.output_error(fom, series).rel_l2
    report(7, f"Input-2 ROM accuracy: relL2(r=4) = {errs[4]:.3e} <= 5e-2 "
              f"and relL2(r=8) = {errs[8]:.3e} smaller",
           errs[4] <= 5e-2 and errs[8] < errs[4])


def test_criterion_08_square_wave_robustness():
    preset = PRESETS["small_damp_ex5_in4"]
    sys = build_system(preset.params, 100)
    spec = input_preset("input4")
    p, q = balance.gramians(sys)
    red = balance.reduce(sys, balance.square_root_transform(p, q, 8))
    fom = rom.simulate_fom(sys, spec, 0.0, 100.0, rtol=1e-4, atol=1e-7)
    series = rom.simulate_rom(red, spec, 0.0, 100.0, rtol=1e-4, atol=1e-7)
    err = analysis.output_error(fom, series).rel_l2
    report(8, f"square-wave ROM (r=8): relL2 = {err:.3e} <= 1e-1",
           err <= 1e-1)


def test_criterion_09_accuracy_loss_regime(stiff_ex5_runs):
    fom, series = stiff_ex5_runs(1.0)
    full = analysis.output_error(fom, series).rel_l2
    cut = fom.times <= 0.2 * 300.0
    prefix = analysis.output_error(
        rom.OutputSeries(fom.times[cut], fom.values[cut], fom.stats),
        rom.OutputSeries(series.times[cut], series.values[cut],
                         series.stats)).rel_l2
    report(9, f"long-horizon square wave: prefix relL2 {prefix:.3e} at least "
              f"5x smaller than full-horizon {full:.3e}",
           full >= 5.0 * prefix)


def test_criterion_10_input_magnitude_effect(stiff_ex5_runs):
    fom_full, rom_full = stiff_ex5_runs(1.0)
    fom_half, rom_half = stiff_ex5_runs(0.5)
    prefix_full = accurate_prefix(fom_full, rom_full, 0.05)
    prefix_half = accurate_prefix(fom_half, rom_half, 0.05)
    report(10, f"halving the input extends the accurate prefix "
               f"({prefix_full:.1f} -> {prefix_half:.1f})",
           prefix_half > prefix_full)


def test_criterion_11_grid_insensitivity():
    spec = input_preset("input1")
    fom100 = rom.simulate_fom(build_system(EXAMPLE1, 100), spec, 0.0, 100.0,
                              rtol=1e-6, atol=1e-9)
    fom200 = rom.simulate_fom(build_system(EXAMPLE1, 200), spec, 0.0, 100.0,
                              rtol=1e-6, atol=1e-9)
    err = analysis.output_error(fom100, fom200).rel_l2
    report(11, f"n=100 vs n=200 outputs differ by relL2 {err:.3e} <= 1e-2",
           err <= 1e-2)


def test_criterion_12_unit_suites():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(TESTS_DIR / "test_ode.py"),
         str(TESTS_DIR / "test_linalg.py"), "-q"],
        capture_output=True, text=True, cwd=TESTS_DIR.parent)
    elapsed = time.perf_counter() - start
    report(12, f"ode and linalg unit suites green in {elapsed:.1f}s < 120s",
           proc.returncode == 0 and elapsed < 120.0)
