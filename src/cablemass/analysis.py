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

from . import linalg
from .model import (DimensionMismatch, PhysicalParams, QuadraticForms,
                    StateSpaceSystem, fom_jacobian, fom_rhs)
from .rom import OutputSeries, _integrate_sampled
from .signals import InputSpec


class GridMismatch(ValueError):
    """Two output series do not share the same time grid."""


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Sampled energies of an unforced run and the fitted decay rate.

    fitted_rate is the least-squares slope of log E over the fit
    window; fit_r2 is the coefficient of determination of that fit.
    degenerate flags a run whose energy was identically zero (rate
    reported as 0).
    """

    times: np.ndarray
    e: np.ndarray
    ek: np.ndarray
    ep: np.ndarray
    fitted_rate: float
    fit_r2: float
    degenerate: bool


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
                 sample_count: int = 1000,
                 fit_skip: float = 0.1) -> EnergyReport:
    """Unforced energy history and exponential decay-rate fit.

    Integrates the full-order model with zero input, sampling only the
    uniform grid (no trajectory is held), and fits log E by least
    squares over [fit_skip*tf, tf] (the initial transient is skipped).
    """
    times, states, _ = _integrate_sampled(
        fom_rhs, fom_jacobian, sys, sys.b[:, 0], InputSpec(kind="zero"), x0,
        0.0, tf, sample_count, rtol, atol)

    ek = np.empty(sample_count)
    ep = np.empty(sample_count)
    for i in range(sample_count):
        _, ek[i], ep[i] = compute_energy(forms, sys.params, states[i])
    e = ek + ep

    window = times >= fit_skip * tf
    positive = window & (e > 0.0)
    if e[0] == 0.0 or np.count_nonzero(positive) < 2:
        return EnergyReport(times=times, e=e, ek=ek, ep=ep, fitted_rate=0.0,
                            fit_r2=0.0, degenerate=True)
    tw = times[positive]
    logw = np.log(e[positive])
    rate, intercept = np.polyfit(tw, logw, 1)
    fit = rate * tw + intercept
    ss_res = float(np.sum((logw - fit) ** 2))
    ss_tot = float(np.sum((logw - logw.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return EnergyReport(times=times, e=e, ek=ek, ep=ep,
                        fitted_rate=float(rate), fit_r2=r2, degenerate=False)


def stability_margin(sys: StateSpaceSystem) -> float:
    """Largest real part over the eigenvalues of A (negative = stable).

    Read off the system's shared Schur factor (``linalg.system_schur``).
    """
    return float(linalg.system_schur(sys).eigenvalues.real.max())


def _series_values(series) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(series.times, dtype=float)
    values = np.asarray(series.values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return times, values


def output_error(y_ref, y_test) -> ErrorMetrics:
    """Relative L2 and Linf error between two series on one grid.

    Raises
    ------
    GridMismatch
        If the two series do not share an identical time grid.
    """
    t_ref, v_ref = _series_values(y_ref)
    t_test, v_test = _series_values(y_test)
    if t_ref.shape != t_test.shape or not np.array_equal(t_ref, t_test):
        raise GridMismatch("output series use different time grids")
    if v_ref.shape != v_test.shape:
        raise GridMismatch(f"output shapes differ: {v_ref.shape} vs {v_test.shape}")

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
    it never does).
    """
    t_ref, v_ref = _series_values(y_ref)
    t_test, v_test = _series_values(y_test)
    if t_ref.shape != t_test.shape or not np.array_equal(t_ref, t_test):
        raise GridMismatch("output series use different time grids")
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
