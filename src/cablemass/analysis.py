"""Energy, stability and accuracy diagnostics.

The discrete energy mirrors the continuous one: kinetic energy is the
mass form applied to the velocities, potential energy is the stiffness
form applied to the displacements plus the quartic boundary term

    E = 1/2 v^T M_H v + 1/2 d^T K_V d + (k3/4) d_n^4.

For a dissipative parameter set the unforced energy is nonincreasing,
and its logarithm decays asymptotically linearly; the fitted slope is
reported as the decay rate.

The unforced study (``energy_decay``) steps the full-order model
x' = A x + w c (v . x)^3 with fixed-step ETDRK4 in the real eigenvector
coordinates of A (``StateSpaceSystem.modes``, folded by the system's
``etdrk4`` table to one mode per real eigenvalue and one per conjugate
pair), where e^(hA) is diagonal and a step costs O(n).  It runs the
forced runs' loop (``rom._simulate``) with zero input from a given
state.  Each step size h = interval / k ends every k-th step on a
sample, so no dense output is needed, and k is chosen by comparing the
runs at h and 2h at every sample against rtol and atol, the run at
k = 1 against a coarse first run of steps of two sample intervals with
a side step to each odd sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rom
from .model import (DimensionMismatch, PhysicalParams, QuadraticForms,
                    StateSpaceSystem, _check_state)
# Not called here any more: perfbench's tracer still patches these names
# (its sites ("cablemass.analysis", "fom_rhs") and ("cablemass.analysis",
# "fom_jacobian")), so they stay importable until the benchmark drops them.
from .model import fom_jacobian, fom_rhs  # noqa: F401
from .rom import Etdrk4Stats, OutputSeries
from .signals import InputSpec


class GridMismatch(ValueError):
    """Two output series do not share the same time grid."""


# Share of the horizon skipped as initial transient by the decay-rate fit.
_FIT_SKIP = 0.1


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Sampled energies of an unforced run and the fitted decay rate.

    fitted_rate is the least-squares slope of log E over the fit
    window; fit_r2 is the coefficient of determination of that fit.
    degenerate flags a run whose energy was identically zero (rate
    reported as 0).  stats tells how the samples were integrated; its
    error_estimate is in the energy norm.
    """

    times: np.ndarray
    e: np.ndarray
    ek: np.ndarray
    ep: np.ndarray
    fitted_rate: float
    fit_r2: float
    degenerate: bool
    stats: Etdrk4Stats


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
    """1/2 v^T M_H v and 1/2 d^T K_V d of a state, or of each row of x.

    Read off the bands the forms have (``QuadraticForms.energy_bands``,
    kept per forms): the diagonal of M_H and the diagonal and first
    off-diagonal of the symmetric K_V, so a state costs O(n).  With
    K_V's off-diagonal o and row sums s,

        d^T K_V d = sum_i s_i d_i^2 - sum_i o_i (d_(i+1) - d_i)^2,

    where o <= 0 and s is 0 but for the boundary springs, so no term
    cancels another: a smooth d, whose rows of K_V d nearly cancel, keeps
    full accuracy.  The interior row sums are computed exactly (Sterbenz's
    lemma), so their rounding adds no spurious term.
    """
    mass, row_sums, off = forms.energy_bands
    n = mass.size
    d, v = x[..., :n], x[..., n:]
    # np.diff's subtraction, without its per-call overhead
    cells = d[..., 1:] - d[..., :-1]
    return (0.5 * np.einsum("...i,i,...i->...", v, mass, v),
            0.5 * (np.einsum("...i,i,...i->...", d, row_sums, d)
                   - np.einsum("...i,i,...i->...", cells, off, cells)))


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


def energy_decay(sys: StateSpaceSystem, forms: QuadraticForms, x0,
                 tf: float, rtol: float = 1e-6, atol: float = 1e-9,
                 sample_count: int = 1000) -> EnergyReport:
    """Unforced energy history and exponential decay-rate fit.

    Integrates the full-order model with zero input on the uniform grid
    of sample_count points on [0, tf] (sample_count >= 2), holding only
    the sampled states, and fits log E by least squares over
    [_FIT_SKIP * tf, tf] (the initial transient is skipped).

    In y = V^-1 x (``sys.modes``) the model reads
    y' = diag(lambda) y + g (Re row . y)^3, and the forced runs' loop
    (``rom._simulate``) steps it with zero input, through
    ``sys.etdrk4``, from V^-1 x0 folded onto the table's real modes
    (``modal_state``), with h = interval / k, so every k-th step ends on
    a sample, and samples x through the table's real modal basis
    (``state_map``, built once per system).  A coarse first run steps
    every second sample, each odd one by a side step from the sample
    before it, then runs are made at k = 1, 2, 4, ...
    (``ode.step_doubling``); each is compared at every sample with the
    run before it in the energy norm
    ||x||_E^2 = 1/2 v^T M_H v + 1/2 d^T K_V d, and the first whose
    estimate is at most rtol * max ||x_h||_E + atol is kept.  So at
    least two runs are made, and no sample is kept unchecked: sample 1
    of the first run takes two steps of half an interval, not the one
    step the run at k = 1 takes.  A run whose state blows up is
    dropped, and the next one is compared with none.  The settings are
    checked as the forced runs' are.

    Raises
    ------
    DimensionMismatch
        When x0 or the forms do not fit the system, before any work.
    linalg.IllConditionedModes
        When A is too close to defective for its modal factor.
    ode.StepBudget
        When no run within rom._STEP_BUDGET steps passes the check.
    """
    times = rom._sample_grid(0.0, tf, rtol, atol, sample_count)
    x0 = _check_state(sys, x0)
    if not np.isfinite(x0).all():
        raise ValueError("initial state has non-finite entries")
    shapes = {form.shape for form in (forms.m_h, forms.k_v, forms.d_sig2)}
    if shapes != {(sys.n, sys.n)}:
        raise DimensionMismatch(f"forms must be ({sys.n}, {sys.n}) for the "
                                f"system's n = {sys.n}, got {sorted(shapes)}")
    table = sys.etdrk4
    run = rom._simulate(
        sys, InputSpec(kind="zero"), times, rtol, atol, table.modal_state(x0),
        x0, table.state_map,
        lambda x: np.sqrt(np.add(*_quadratic_energies(forms, x))))
    e, ek, ep = compute_energy(forms, sys.params, run.values)
    fit = _decay_fit(times, e, _FIT_SKIP * tf)
    rate, r2 = (0.0, 0.0) if fit is None else fit
    return EnergyReport(times=times, e=e, ek=ek, ep=ep, fitted_rate=rate,
                        fit_r2=r2, degenerate=fit is None, stats=run.stats)


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
