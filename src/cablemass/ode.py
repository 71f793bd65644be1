"""Adaptive stiff integrator: a linearly implicit Rosenbrock 2(3) pair.

This is the modified Rosenbrock method of Shampine and Reichelt (the
method class behind MATLAB's ode23s): an L-stable second-order step
with an embedded third-order error estimate.  Each step factors
W = I - h d J once and performs three triangular solves, so the cost
per step is one Jacobian, one LU, and two right-hand-side evaluations,
plus one more when the time derivative df/dt is not supplied and is
approximated by a forward difference.  Accepted nodes store the state
derivative, which gives a free cubic Hermite interpolant for dense
output.

The Jacobian's type picks the factorisation.  A ``BandedJacobian`` is
factored in LAPACK band storage (``dgbtrf``/``dgbtrs``) on its own state
ordering, at O(m (kl + ku)^2) per step instead of O(m^3): the full-order
cable-mass model is banded with kl = 5, ku = 4 once its state is
interleaved as [d1, v1, d2, v2, ...].  Any other Jacobian (the reduced
model's small dense matrix) is factored densely by ``lu_factor`` and
``lu_solve``, thin wrappers of LAPACK ``dgetrf``/``dgetrs``: at r <= 8 a
step costs call overhead, not arithmetic, and the argument handling of
``scipy.linalg.lu_factor``/``lu_solve`` takes several times longer than
the LAPACK calls themselves.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs

_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Step size controller limits (standard safety-factor controller).
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class StepSizeUnderflow(RuntimeError):
    """The controller drove the step below the representable minimum."""


class NonFiniteState(RuntimeError):
    """The right-hand side or the state became NaN/Inf."""


class OutOfRange(ValueError):
    """A query time lies outside the integrated span."""


@dataclass
class IntegratorStats:
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    n_jac: int = 0
    n_lu: int = 0

    def __add__(self, other: IntegratorStats) -> IntegratorStats:
        return IntegratorStats(*(a + b for a, b in zip(astuple(self),
                                                       astuple(other))))


@dataclass(frozen=True, eq=False)
class BandedJacobian:
    """A Jacobian J in LAPACK band storage, on a permuted state ordering.

    With Jp = J[perm][:, perm] banded (kl subdiagonals, ku
    superdiagonals), ab has shape (kl + ku + 1, m) and holds
    ab[ku + i - j, j] = Jp[i, j].  The integrator keeps the caller's
    state ordering and applies perm only inside its linear solves.
    """

    ab: np.ndarray
    kl: int
    ku: int
    perm: np.ndarray

    def dense(self) -> np.ndarray:
        """J as a dense matrix in the caller's state ordering."""
        m = self.ab.shape[1]
        jp = np.zeros((m, m))
        for k in range(-self.kl, self.ku + 1):
            i = np.arange(max(0, -k), min(m, m - k))
            jp[i, i + k] = self.ab[self.ku - k, i + k]
        jac = np.empty((m, m))
        jac[np.ix_(self.perm, self.perm)] = jp
        return jac


@dataclass(eq=False)
class Trajectory:
    """Adaptive-step solution: states and derivatives at accepted nodes."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    stats: IntegratorStats = field(default_factory=IntegratorStats)


def _fd_jacobian(rhs, t, y, f0, thresh, stats):
    n = y.size
    jac = np.empty((n, n))
    dy = math.sqrt(_EPS) * np.maximum(np.abs(y), thresh)
    for j in range(n):
        yp = y.copy()
        yp[j] += dy[j]
        jac[:, j] = (np.asarray(rhs(t, yp)) - f0) / dy[j]
        stats.n_rhs += 1
    return jac


def _initial_step(rhs, t0, y0, f0, tf, rtol, atol, stats):
    """Starting step heuristic based on the first two derivative samples."""
    span = tf - t0
    scale = atol + rtol * np.abs(y0)
    d0 = np.linalg.norm(y0 / scale) / math.sqrt(max(y0.size, 1))
    d1 = np.linalg.norm(f0 / scale) / math.sqrt(max(y0.size, 1))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0))
    stats.n_rhs += 1
    d2 = np.linalg.norm((f1 - f0) / scale) / math.sqrt(max(y0.size, 1)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 3.0)
    return min(100.0 * h0, h1, span)


def lu_factor(w: np.ndarray):
    """LU factors of the square matrix w by LAPACK dgetrf (w may be overwritten).

    Returns (lu, piv) in the form of ``scipy.linalg.lu_factor``, or None
    when w is exactly singular.
    """
    lu, piv, info = dgetrf(w, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dgetrf: argument {-info} is invalid")
    if info > 0:
        return None
    return lu, piv


def lu_solve(lu_and_piv, b: np.ndarray) -> np.ndarray:
    """Solve W z = b from the (lu, piv) factors of ``lu_factor``, by dgetrs."""
    lu, piv = lu_and_piv
    z, info = dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"dgetrs: argument {-info} is invalid")
    return z


def _check_iteration_matrix(w, t):
    if not np.isfinite(w).all():
        raise NonFiniteState(f"jacobian not finite at t={t}")


def _factor(jac, hd: float, t: float):
    """Factor W = I - hd*J; return a solver for W z = b, or None if singular.

    This is the one place where the Jacobian's type matters.  A
    BandedJacobian is factored in band storage by dgbtrf, and each solve
    permutes the right-hand side into the band's ordering and the
    solution back out; any other Jacobian is factored densely.
    """
    if isinstance(jac, BandedJacobian):
        kl, ku, perm = jac.kl, jac.ku, jac.perm
        # dgbtrf keeps the fill-in from row interchanges in kl extra rows
        w = np.zeros((2 * kl + ku + 1, jac.ab.shape[1]), order="F")
        w[kl:] = jac.ab * -hd
        w[kl + ku] += 1.0
        _check_iteration_matrix(w, t)
        lu, piv, info = dgbtrf(w, kl, ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dgbtrf: argument {-info} is invalid")
        if info > 0:
            return None

        def solve(b):
            z, _ = dgbtrs(lu, kl, ku, b[perm], piv)
            out = np.empty_like(z)
            out[perm] = z
            return out

        return solve

    w = np.asarray(jac, dtype=float) * -hd
    w.flat[:: w.shape[0] + 1] += 1.0
    _check_iteration_matrix(w, t)
    factors = lu_factor(w)
    if factors is None:
        return None
    return lambda b: lu_solve(factors, b)


def _stages(rhs, t, y, f0, ft, h, solve, stats):
    """The three Rosenbrock stages of a step of size h.

    Returns (x(t+h), f(t+h, x(t+h)), local error estimate), or None
    when a stage right-hand side is not finite, which the caller treats
    as a rejected step.
    """
    hdt = (h * _D) * ft
    k1 = solve(f0 + hdt)
    f1 = np.asarray(rhs(t + 0.5 * h, y + (0.5 * h) * k1))
    stats.n_rhs += 1
    if not np.isfinite(f1).all():
        return None
    k2 = solve(f1 - k1) + k1
    ynew = y + h * k2
    f2 = np.asarray(rhs(t + h, ynew))
    stats.n_rhs += 1
    if not np.isfinite(f2).all():
        return None
    k3 = solve(f2 - _E32 * (k2 - f1) - 2.0 * (k1 - f0) + hdt)
    return ynew, f2, (h / 6.0) * (k1 - 2.0 * k2 + k3)


def integrate(rhs, x0, t0: float, tf: float, rtol: float = 1e-3,
              atol: float = 1e-6, jacobian=None, first_step: float | None = None,
              max_steps: int = 1_000_000, dfdt=None) -> Trajectory:
    """Integrate x' = rhs(t, x) from t0 to tf with embedded error control.

    Parameters
    ----------
    rhs : callable(t, x) -> array
        Right-hand side.
    x0 : array
        Initial state (finite).
    t0, tf : float
        Time span, tf > t0.
    rtol, atol : float
        Local error is controlled to atol + rtol*|x| componentwise.
        Defaults match the tolerances the experiments were run with.
    jacobian : callable(t, x) -> matrix or BandedJacobian, optional
        State Jacobian.  A BandedJacobian is factored in band storage,
        a matrix densely.  Approximated by forward differences when
        absent.
    first_step : float, optional
        Override the automatic starting step; must be finite and > 0.
    dfdt : callable(t, x) -> array, optional
        Partial time derivative of rhs, which the Rosenbrock formulas
        need for a non-autonomous system.  Approximated by a forward
        difference, at one extra rhs call per step, when absent.  rhs
        must be smooth on [t0, tf]: integrate a discontinuous forcing
        piece by piece between its jumps.

    Raises
    ------
    StepSizeUnderflow
        When stiffness or an unresolvable discontinuity drives the step
        below 16*eps*max(|t|, |tf|).
    NonFiniteState
        When the state, the Jacobian or the right-hand side blows up,
        including a non-finite stage that no smaller step avoids.
    """
    if not (tf > t0):
        raise ValueError(f"need tf > t0, got [{t0}, {tf}]")
    if rtol <= 0.0 or atol <= 0.0:
        raise ValueError("rtol and atol must be positive")
    if first_step is not None and not (math.isfinite(first_step)
                                       and first_step > 0.0):
        raise ValueError(f"first_step must be finite and positive, "
                         f"got {first_step}")
    y = np.array(x0, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise ValueError("initial state has non-finite entries")

    stats = IntegratorStats()
    thresh = atol / rtol
    t = t0
    f0 = np.asarray(rhs(t, y), dtype=float)
    stats.n_rhs += 1
    if not np.isfinite(f0).all():
        raise NonFiniteState(f"rhs not finite at t={t}")

    h = first_step if first_step is not None else _initial_step(
        rhs, t0, y, f0, tf, rtol, atol, stats)

    times = [t]
    states = [y.copy()]
    derivs = [f0.copy()]

    while t < tf:
        if stats.n_steps + stats.n_rejected >= max_steps:
            raise RuntimeError(f"exceeded {max_steps} steps at t={t}")
        hmin = 16.0 * _EPS * max(abs(t), abs(tf))
        remaining = tf - t

        if jacobian is not None:
            jac = jacobian(t, y)
        else:
            jac = _fd_jacobian(rhs, t, y, f0, thresh, stats)
        stats.n_jac += 1

        if dfdt is not None:
            ft = np.asarray(dfdt(t, y), dtype=float)
        else:
            tdelta = math.sqrt(_EPS) * max(abs(t), abs(h))
            ft = (np.asarray(rhs(t + tdelta, y)) - f0) / tdelta
            stats.n_rhs += 1
        if not np.isfinite(ft).all():
            raise NonFiniteState(f"df/dt not finite near t={t}")

        rejected_here = False
        nonfinite_seen = False
        while True:
            h_use = min(h, remaining)
            clamped = h_use >= remaining
            if h_use < hmin:
                if nonfinite_seen:
                    raise NonFiniteState(
                        f"state blew up near t={t} (step underflow)")
                raise StepSizeUnderflow(f"step size {h_use:.3e} below "
                                        f"{hmin:.3e} at t={t}")

            solve = _factor(jac, h_use * _D, t)
            stats.n_lu += 1
            step = None if solve is None else _stages(
                rhs, t, y, f0, ft, h_use, solve, stats)
            if step is None:
                errnorm = math.inf
            else:
                ynew, f2, err = step
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
                errnorm = float((np.abs(err) / scale).max())
                if not math.isfinite(errnorm):
                    errnorm = math.inf

            if errnorm <= 1.0:
                stats.n_steps += 1
                t = tf if clamped else t + h_use
                y = ynew
                f0 = f2
                times.append(t)
                states.append(y.copy())
                derivs.append(f0.copy())
                if errnorm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, max(
                        _MIN_FACTOR, _SAFETY * errnorm ** (-1.0 / 3.0)))
                if rejected_here:
                    factor = min(factor, 1.0)
                h = h_use * factor
                break

            stats.n_rejected += 1
            rejected_here = True
            if errnorm == math.inf:
                nonfinite_seen = True
                factor = 0.1
            else:
                factor = min(0.9, max(0.1, _SAFETY * errnorm ** (-1.0 / 3.0)))
            h = h_use * factor

    return Trajectory(times=np.array(times), states=np.array(states),
                      derivs=np.array(derivs), stats=stats)


def sample(traj: Trajectory, query_times) -> np.ndarray:
    """States at the query times, by cubic Hermite interpolation.

    Queries must lie within the integrated span; a query at a stored
    node returns the stored state exactly.
    """
    q = np.atleast_1d(np.asarray(query_times, dtype=float))
    dim = traj.states.shape[1]
    if q.size == 0:
        return np.empty((0, dim))
    t = traj.times
    if q.min() < t[0] or q.max() > t[-1]:
        raise OutOfRange(f"queries must lie in [{t[0]}, {t[-1]}]")

    idx = np.clip(np.searchsorted(t, q, side="right") - 1, 0, len(t) - 2)
    tl = t[idx]
    hseg = t[idx + 1] - tl
    s = (q - tl) / hseg
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return (h00[:, None] * traj.states[idx]
            + (hseg * h10)[:, None] * traj.derivs[idx]
            + h01[:, None] * traj.states[idx + 1]
            + (hseg * h11)[:, None] * traj.derivs[idx + 1])
