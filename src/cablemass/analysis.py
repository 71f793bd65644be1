"""Energy, stability and accuracy diagnostics.

The discrete energy mirrors the continuous one: kinetic energy is the
mass form applied to the velocities, potential energy is the stiffness
form applied to the displacements plus the quartic boundary term

    E = 1/2 v^T M_H v + 1/2 d^T K_V d + (k3/4) d_n^4.

For a dissipative parameter set the unforced energy is nonincreasing,
and its logarithm decays asymptotically linearly; the fitted slope is
reported as the decay rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .model import (DimensionMismatch, PhysicalParams, QuadraticForms,
                    StateSpaceSystem, fom_jacobian, fom_rhs)
from .rom import OutputSeries, _integrate_sampled
from .signals import InputSpec


class GridMismatch(ValueError):
    """Two output series do not share the same time grid."""


#: The energy study's integrator, and its step cap in sample intervals.
ENERGY_METHOD = ode.RODAS4
_ENERGY_STEP_CAP = 4
# Share of the horizon skipped as initial transient by the decay-rate fit.
_FIT_SKIP = 0.1


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Sampled energies of an unforced run and the fitted decay rate.

    fitted_rate is the least-squares slope of log E over the fit
    window; fit_r2 is the coefficient of determination of that fit.
    degenerate flags a run whose energy was identically zero (rate
    reported as 0).  stats holds the integrator counters of the run.
    """

    times: np.ndarray
    e: np.ndarray
    ek: np.ndarray
    ep: np.ndarray
    fitted_rate: float
    fit_r2: float
    degenerate: bool
    stats: ode.IntegratorStats


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


def compute_energy(forms: QuadraticForms, params: PhysicalParams,
                   x) -> tuple[float, float, float]:
    """Total, kinetic and potential energy of one state vector."""
    x = np.asarray(x, dtype=float)
    n = forms.m_h.shape[0]
    if x.shape != (2 * n,):
        raise DimensionMismatch(f"state must have shape ({2 * n},), got {x.shape}")
    d, v = x[:n], x[n:]
    ek = 0.5 * v @ forms.m_h @ v
    ep = 0.5 * d @ forms.k_v @ d + 0.25 * params.k3 * d[-1] ** 4
    return ek + ep, ek, ep


def energy_decay(sys: StateSpaceSystem, forms: QuadraticForms, x0,
                 tf: float, rtol: float = 1e-6, atol: float = 1e-9,
                 sample_count: int = 1000) -> EnergyReport:
    """Unforced energy history and exponential decay-rate fit.

    Integrates the full-order model with zero input, sampling only the
    uniform grid (no trajectory is held), and fits log E by least
    squares over [_FIT_SKIP * tf, tf] (the initial transient is skipped).

    The study runs at tight tolerances, so it takes the fourth-order
    Rodas4 (``ENERGY_METHOD``), not the 2(3) pair of the forced runs,
    and caps every step at 4 sample intervals.  The samples come from
    the cubic Hermite interpolant of each step, whose error grows like
    h^4 whatever the tolerance.  Uncapped at rtol 1e-3, Rodas4 takes
    steps of up to 0.56 on ``exp_stab_Ex1`` at n = 20, and the sampled
    energy of that decaying run rises between two samples by
    2.4e-6 E(0); capped at 0.2 it falls by at least 1.1e-5 E(0) from
    each sample to the next.  At rtol 1e-6 the cap does not bind.
    sample_count must be >= 2, since the cap needs a sample interval.
    """
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    interval = tf / (sample_count - 1)
    times, states, stats = _integrate_sampled(
        fom_rhs, fom_jacobian, sys, sys.b[:, 0], InputSpec(kind="zero"), x0,
        0.0, tf, sample_count, rtol, atol, method=ENERGY_METHOD,
        max_step=_ENERGY_STEP_CAP * interval)

    ek = np.empty(sample_count)
    ep = np.empty(sample_count)
    for i in range(sample_count):
        _, ek[i], ep[i] = compute_energy(forms, sys.params, states[i])
    e = ek + ep

    fit = _decay_fit(times, e, _FIT_SKIP * tf)
    if fit is None:
        return EnergyReport(times=times, e=e, ek=ek, ep=ep, fitted_rate=0.0,
                            fit_r2=0.0, degenerate=True, stats=stats)
    rate, r2 = fit
    return EnergyReport(times=times, e=e, ek=ek, ep=ep, fitted_rate=rate,
                        fit_r2=r2, degenerate=False, stats=stats)


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
