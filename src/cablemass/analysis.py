"""Energy, stability and accuracy diagnostics.

The discrete energy mirrors the continuous one: kinetic energy is the
mass form applied to the velocities, potential energy is the stiffness
form applied to the displacements plus the quartic boundary term

    E = 1/2 v^T M_H v + 1/2 d^T K_V d + (k3/4) d_n^4.

For a dissipative parameter set the unforced energy is nonincreasing,
and its logarithm decays asymptotically linearly; the fitted slope is
reported as the decay rate.

The unforced study (``energy_decay``) steps the full-order model
x' = A x + w c (v . x)^3 with fixed-step ETDRK4 in the eigenvector
coordinates of A (``StateSpaceSystem.modes``), where e^(hA) is diagonal
and a step costs O(n).  Each step size h = interval / k ends every k-th
step on a sample, so no dense output is needed, and k is chosen by
comparing the runs at h and 2h at every sample against rtol and atol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .model import (DimensionMismatch, PhysicalParams, QuadraticForms,
                    StateSpaceSystem, _check_state)
# Not called here any more: perfbench's tracer still patches these names
# (its sites ("cablemass.analysis", "fom_rhs") and ("cablemass.analysis",
# "fom_jacobian")), so they stay importable until the benchmark drops them.
from .model import fom_jacobian, fom_rhs  # noqa: F401
from .rom import OutputSeries


class GridMismatch(ValueError):
    """Two output series do not share the same time grid."""


# ETDRK4 steps (every run, every k tried) energy_decay may take.
_ENERGY_STEP_BUDGET = 1_000_000
# Samples energy_decay converts from modal to real coordinates at a time.
_SAMPLE_BLOCK = 64
# Share of the horizon skipped as initial transient by the decay-rate fit.
_FIT_SKIP = 0.1


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Sampled energies of an unforced run and the fitted decay rate.

    fitted_rate is the least-squares slope of log E over the fit
    window; fit_r2 is the coefficient of determination of that fit.
    degenerate flags a run whose energy was identically zero (rate
    reported as 0).  The samples come from ETDRK4 steps of
    h = step, steps_per_sample to a sample interval; error_estimate is
    the estimate of their error in the energy norm from the run at 2h,
    n_steps the ETDRK4 steps taken over every step size tried, and
    cond_v the estimated condition number of A's eigenvector matrix.
    """

    times: np.ndarray
    e: np.ndarray
    ek: np.ndarray
    ep: np.ndarray
    fitted_rate: float
    fit_r2: float
    degenerate: bool
    step: float
    steps_per_sample: int
    n_steps: int
    error_estimate: float
    cond_v: float


@dataclass(frozen=True, eq=False)
class ErrorMetrics:
    """Relative L2/Linf distances between two output series.

    Per-channel entries come first; the combined value treats the
    series as one long vector.  When a reference norm vanishes the
    corresponding metric falls back to the absolute norm and
    absolute_fallback is set.
    """

    rel_l2: float
    rel_linf: float
    rel_l2_per_channel: np.ndarray
    rel_linf_per_channel: np.ndarray
    absolute_fallback: bool


def _quadratic_energies(forms: QuadraticForms, x: np.ndarray):
    """1/2 v^T M_H v and 1/2 d^T K_V d of a state, or of each row of x."""
    n = forms.m_h.shape[0]
    d, v = x[..., :n], x[..., n:]
    return (0.5 * np.einsum("...i,...i->...", v @ forms.m_h, v),
            0.5 * np.einsum("...i,...i->...", d @ forms.k_v, d))


def compute_energy(forms: QuadraticForms, params: PhysicalParams, x):
    """Total, kinetic and potential energy of one state or a block of states.

    x is one state of shape (2n,), which gives three numbers, or a block
    of shape (k, 2n) with one state per row, which gives three arrays
    of length k.
    """
    x = np.asarray(x, dtype=float)
    n = forms.m_h.shape[0]
    if x.ndim not in (1, 2) or x.shape[-1] != 2 * n:
        raise DimensionMismatch(
            f"states must have shape ({2 * n},) or (k, {2 * n}), "
            f"got {x.shape}")
    ek, ep = _quadratic_energies(forms, x)
    ep = ep + 0.25 * params.k3 * x[..., n - 1] ** 4
    return ek + ep, ek, ep


def _etdrk4_run(modes, row, g, y0, k: int, interval: float,
                forms: QuadraticForms, states: np.ndarray, compare: bool):
    """One ETDRK4 run of k steps per sample interval; its error estimate.

    The run starts from the modal state y0 and writes its real state at
    each sample over states[1:], _SAMPLE_BLOCK samples at a time (one
    GEMM with V each).  With compare set, states[1:] holds the samples
    of the run at twice this step, and each is measured against the new
    one in the energy norm ||x||_E^2 = 1/2 v^T M_H v + 1/2 d^T K_V d
    before it is overwritten.  Returns the largest difference over 15
    (2^4 - 1, Richardson for a fourth-order method), or inf without
    compare, and the largest ||x||_E over this run's samples.

    Raises ode.NonFiniteState when a stage or a sample is not finite;
    states[1:] may then hold samples of both runs.
    """
    step = ode.cubic_etdrk4(modes.eigenvalues, row, g, interval / k).step
    # Re(V y) = Re V Re y - Im V Im y: one real GEMM of the block, read
    # with its real and imaginary parts interleaved, by [Re V^T; -Im V^T]
    # interleaved the same way, at half the cost of the complex product
    m = y0.size
    real_v = np.empty((2 * m, m))
    real_v[0::2] = modes.v.real.T
    real_v[1::2] = -modes.v.imag.T
    count = states.shape[0] - 1
    block = np.empty((min(_SAMPLE_BLOCK, count), m), dtype=complex)
    y = y0
    ek, ep = _quadratic_energies(forms, states[0])
    diff2, norm2 = 0.0, ek + ep
    for start in range(1, count + 1, _SAMPLE_BLOCK):
        rows = min(_SAMPLE_BLOCK, count + 1 - start)
        for i in range(rows):
            for _ in range(k):
                y = step(y)
            block[i] = y
        x = block[:rows].view(float) @ real_v
        if not np.isfinite(x).all():
            raise ode.NonFiniteState("ETDRK4 sample not finite")
        kept = states[start:start + rows]
        if compare:
            ek, ep = _quadratic_energies(forms, x - kept)
            diff2 = max(diff2, float((ek + ep).max()))
        ek, ep = _quadratic_energies(forms, x)
        norm2 = max(norm2, float((ek + ep).max()))
        kept[...] = x
    est = math.sqrt(diff2) / 15.0 if compare else math.inf
    return est, math.sqrt(norm2)


def energy_decay(sys: StateSpaceSystem, forms: QuadraticForms, x0,
                 tf: float, rtol: float = 1e-6, atol: float = 1e-9,
                 sample_count: int = 1000) -> EnergyReport:
    """Unforced energy history and exponential decay-rate fit.

    Integrates the full-order model with zero input on the uniform grid
    of sample_count points on [0, tf] (sample_count >= 2), holding only
    the sampled states, and fits log E by least squares over
    [_FIT_SKIP * tf, tf] (the initial transient is skipped).

    In y = V^-1 x (``sys.modes``) the model reads
    y' = diag(lambda) y + g (Re row . y)^3 with g = V^-1 e_target
    nl_coeff and row = V[nl_state_index], and fixed-step ETDRK4
    (``ode.cubic_etdrk4``) integrates it with h = interval / k, so every
    k-th step ends on a sample.  Runs are made at k = 1, 2, 4, ...
    (``ode.step_doubling``); each is compared at every sample with the
    run before it (``_etdrk4_run``), and the first whose estimate is at most
    rtol * max ||x_h||_E + atol is kept.  So at least two runs are made,
    and no sample is kept unchecked.  A run whose state blows up is
    dropped, and the next one is compared with none.

    Raises
    ------
    linalg.IllConditionedModes
        When A is too close to defective for its modal factor.
    ode.StepBudget
        When the next k would take the steps past _ENERGY_STEP_BUDGET.
    """
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    if not tf > 0.0:
        raise ValueError(f"need tf > 0, got {tf}")
    x0 = _check_state(sys, x0)
    if not np.isfinite(x0).all():
        raise ValueError("initial state has non-finite entries")
    modes = sys.modes
    target = np.zeros(x0.size)
    target[sys.nl_target_index] = sys.nl_coeff
    y0, g = modes.solve(np.column_stack([x0, target])).T
    row = modes.v[sys.nl_state_index]
    interval = tf / (sample_count - 1)
    states = np.empty((sample_count, x0.size))
    states[0] = x0

    def run(k, compare):
        est, scale = _etdrk4_run(modes, row, g, y0, k, interval, forms,
                                 states, compare)
        return est, est <= rtol * scale + atol

    k, n_steps, est = ode.step_doubling(run, sample_count - 1,
                                        _ENERGY_STEP_BUDGET)
    times = np.linspace(0.0, tf, sample_count)
    e, ek, ep = compute_energy(forms, sys.params, states)
    integration = dict(step=interval / k, steps_per_sample=k,
                       n_steps=n_steps, error_estimate=est,
                       cond_v=modes.cond)
    fit = _decay_fit(times, e, _FIT_SKIP * tf)
    if fit is None:
        return EnergyReport(times=times, e=e, ek=ek, ep=ep, fitted_rate=0.0,
                            fit_r2=0.0, degenerate=True, **integration)
    rate, r2 = fit
    return EnergyReport(times=times, e=e, ek=ek, ep=ep, fitted_rate=rate,
                        fit_r2=r2, degenerate=False, **integration)


def _decay_fit(times, e, t_start: float) -> tuple[float, float] | None:
    """Least-squares slope of log E over t >= t_start, and its R^2.

    None when E(0) is zero or fewer than two samples in the window are
    positive.
    """
    positive = (times >= t_start) & (e > 0.0)
    if e[0] == 0.0 or np.count_nonzero(positive) < 2:
        return None
    tw = times[positive]
    logw = np.log(e[positive])
    rate, intercept = np.polyfit(tw, logw, 1)
    fit = rate * tw + intercept
    ss_res = float(np.sum((logw - fit) ** 2))
    ss_tot = float(np.sum((logw - logw.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(rate), r2


def stability_margin(sys: StateSpaceSystem) -> float:
    """Largest real part over the eigenvalues of A (negative = stable).

    Read off the system's shared Schur factor (``sys.schur``).
    """
    return float(sys.schur.eigenvalues.real.max())


def _paired_values(y_ref, y_test):
    """(times, reference values, test values) of two series on one grid.

    One-channel values come as a column.  Raises GridMismatch unless the
    time grids are identical and the value arrays have one shape.
    """
    t_ref = np.asarray(y_ref.times, dtype=float)
    if not np.array_equal(t_ref, np.asarray(y_test.times, dtype=float)):
        raise GridMismatch("output series use different time grids")
    v_ref, v_test = (np.asarray(y.values, dtype=float) for y in (y_ref, y_test))
    if v_ref.ndim == 1:
        v_ref = v_ref[:, None]
    if v_test.ndim == 1:
        v_test = v_test[:, None]
    if v_ref.shape != v_test.shape:
        raise GridMismatch(f"output shapes differ: {v_ref.shape} vs {v_test.shape}")
    return t_ref, v_ref, v_test


def output_error(y_ref, y_test) -> ErrorMetrics:
    """Relative L2 and Linf error between two series on one grid.

    Raises
    ------
    GridMismatch
        If the two series do not share an identical time grid and
        output shape.
    """
    _, v_ref, v_test = _paired_values(y_ref, y_test)

    diff = v_test - v_ref
    fallback = False

    def relative(dn, rn):
        nonlocal fallback
        if rn == 0.0:
            fallback = True
            return float(dn)
        return float(dn / rn)

    l2 = np.array([relative(np.linalg.norm(diff[:, j]),
                            np.linalg.norm(v_ref[:, j]))
                   for j in range(v_ref.shape[1])])
    linf = np.array([relative(np.max(np.abs(diff[:, j])),
                              np.max(np.abs(v_ref[:, j])))
                     for j in range(v_ref.shape[1])])
    combined_l2 = relative(np.linalg.norm(diff), np.linalg.norm(v_ref))
    combined_linf = relative(np.max(np.abs(diff)), np.max(np.abs(v_ref)))
    return ErrorMetrics(rel_l2=combined_l2, rel_linf=combined_linf,
                        rel_l2_per_channel=l2, rel_linf_per_channel=linf,
                        absolute_fallback=fallback)


def local_maxima(values) -> np.ndarray:
    """Indices of strict interior local maxima of a sampled signal."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return np.array([], dtype=int)
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return np.nonzero(interior)[0] + 1


def accurate_prefix(y_ref: OutputSeries, y_test: OutputSeries,
                    threshold: float) -> float:
    """Length of the initial interval where the ROM stays accurate.

    The pointwise error ||y(t) - y_r(t)||_2 is normalized by the peak
    output magnitude max_t ||y(t)||_2, which keeps the measure finite
    through zero crossings.  Returns the last grid time before the
    normalized error first exceeds the threshold (the full horizon if
    it never does).  Raises GridMismatch as ``output_error`` does.
    """
    t_ref, v_ref, v_test = _paired_values(y_ref, y_test)
    scale = np.max(np.linalg.norm(v_ref, axis=1))
    if scale == 0.0:
        return float(t_ref[-1])
    err = np.linalg.norm(v_test - v_ref, axis=1) / scale
    exceed = np.nonzero(err > threshold)[0]
    if exceed.size == 0:
        return float(t_ref[-1])
    if exceed[0] == 0:
        return float(t_ref[0])
    return float(t_ref[exceed[0] - 1])
