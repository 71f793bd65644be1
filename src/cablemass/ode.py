"""Stiff integrators: fixed-step ETDRK4 and an adaptive Rosenbrock method.

``CubicEtdrk4`` is the five-stage exponential Runge-Kutta method of
stiff order 4 of Hochbruck and Ostermann (2005, SIAM J. Numer. Anal.
43(3)) for y' = diag(lambda) y + bm u(t) + g (Re row . y)^3: a model in
the eigenvector coordinates of A (``linalg.modal_factor``) with the
input column bm.  A is real, so those coordinates of a real state are
real at each real eigenvalue and conjugate within each pair: a state
keeps each real mode once, as a float, and one mode per conjugate pair,
weighted 2, the modes ordered [real | pairs], so it is exactly n reals,
one float vector whose tail is viewed as complex, and the real modes
step in real arithmetic.  The linear part is integrated exactly, so a
step costs O(n) whatever the stiffness, and its order holds for stiff
linear parts too, which makes the error estimate of step doubling hold
there.  It has no error estimate of its own: ``step_doubling`` makes a
coarse first run, then runs at k = 1, 2, 4, ... steps per sample
interval until one agrees with the run before it to the caller's
tolerance.  ``Etdrk4Run.advance`` makes many steps in one call,
``CubicEtdrk4.step_rows`` one step from each row of a block, and
``etd_weights`` evaluates the phi-function coefficients: the closed
forms where |h lambda| >= 2, and below that their Taylor series, whose
coefficients are exact rationals (on evaluating phi-functions see
Skaflestad and Wright 2009, Appl. Numer. Math. 59).  The energy study
and the forced FOM and ROM runs all step this way, and a system keeps
its steps in an ``Etdrk4Table``, which folds the modal factor onto
those modes once, with the real maps its runs sample through, and
builds the coefficients of each step size once for all of the system's
runs and queries.  A run keeps its state, input terms and buffers in
one ``Etdrk4Run``, set up once, which steps through any of the system's
kernels and allocates nothing per step: the input's part of each stage
is formed for the whole run ahead (``input_terms``), the O(n) update is
at most four calls in place, and a model of at most _DENSE_DIM reals of
state, where the per-call cost outweighs the arithmetic, steps by one
real matrix-vector product instead.  ``step_rows`` takes the O(n)
update for every model: its one GEMM serves a whole block.

``integrate`` runs the modified Rosenbrock 2(3) pair of Shampine and
Reichelt (1997; the method class behind MATLAB's ode23s): a linearly
implicit, L-stable second-order step with an embedded third-order error
estimate, built for crude tolerances.  No library run calls it any
more: the tests keep it as an independent adaptive reference, and the
benchmark's tracer still names it.  An attempt factors
W = I - h d J (d = 1/(2 + sqrt 2)) once and costs one factorisation,
three solves and two right-hand-side evaluations.  An accepted step
carries the state and its derivative at both ends, which gives a free
cubic Hermite interpolant for dense output.

The caller supplies the exact state Jacobian J and time derivative
df/dt, which the Rosenbrock formulas are written with; both models have
them in closed form.  ``integrate`` takes the caller's query times
``t_eval`` and, as it accepts each step, writes the step's interpolant
(``sample``) at the queries the step covers into the caller's array; it
keeps no node, so its memory grows with the number of queries, not with
the number of steps.

Each attempt factors W densely by ``lu_factor`` and solves by
``lu_solve``, thin wrappers of LAPACK ``dgetrf``/``dgetrs``: for a
reduced model (r <= 8) a step costs call overhead, not arithmetic, and
the argument handling of ``scipy.linalg.lu_factor``/``lu_solve`` takes
several times longer than the LAPACK calls themselves.
"""

from __future__ import annotations

import itertools
import math
import struct
from bisect import bisect_left
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dgemv
from scipy.linalg.lapack import dgetrf, dgetrs

# Ros2(3): the diagonal coefficient gamma, the third stage's weight, and
# the controller's exponent, -1/3 for an error estimate that is O(h^3).
_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
_EXPONENT = -1.0 / 3.0
_EPS = float(np.finfo(float).eps)

# Step size controller limits (standard safety-factor controller).
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Attempts (accepted and rejected steps) before integrate gives up.
_MAX_STEPS = 1_000_000


class StepSizeUnderflow(RuntimeError):
    """The controller drove the step below the representable minimum."""


class NonFiniteState(RuntimeError):
    """The right-hand side or the state became NaN/Inf."""


class OutOfRange(ValueError):
    """A query time lies outside the integrated span."""


class StepBudget(RuntimeError):
    """Step doubling ran out of steps before a run passed its check."""


@dataclass
class IntegratorStats:
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    n_lu: int = 0

    def __add__(self, other: IntegratorStats) -> IntegratorStats:
        return IntegratorStats(*(a + b for a, b in zip(astuple(self),
                                                       astuple(other))))


@dataclass(eq=False)
class Samples:
    """Dense output of one run at its query times, and the run's end state.

    states[i] is the state at t_eval[i] (states is the caller's ``out``);
    end_state is the state at tf exactly, the one a following run starts
    from.
    """

    states: np.ndarray
    end_state: np.ndarray
    stats: IntegratorStats


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


def _factor(jac, hd: float, t: float):
    """Factor W = I - hd*J by LU: a solver for W z = b, or None if singular."""
    w = np.asarray(jac, dtype=float) * -hd
    # w is fresh and contiguous, so its memory-order ravel is a view; the
    # diagonal has stride n + 1 in either order
    w.ravel("K")[:: w.shape[0] + 1] += 1.0
    if not np.isfinite(w).all():
        raise NonFiniteState(f"jacobian not finite at t={t}")
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


def sample(s, hseg, y0, f0, y1, f1):
    """Cubic Hermite interpolant of a step of length hseg at fractions s.

    The dense output of ``integrate``: every sample it returns is formed
    here.  (y0, f0) and (y1, f1) are the state and derivative at the
    step's two ends.  s is a float (one query) or an array of shape
    (k, 1) (k queries, with hseg a float or of shape (k, 1) and the end
    data of shape (dim,) or (k, dim)).  Both forms do the same
    operations in the same order, so they agree bitwise, and s = 0
    returns y0 exactly.

    ``integrate`` looks this function up at call time, so a wrapper
    patched onto ``ode.sample`` sees every call.
    """
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * y0 + (hseg * h10) * f0 + h01 * y1 + (hseg * h11) * f1


def _query_times(t_eval, t0: float, tf: float) -> np.ndarray:
    q = np.asarray(t_eval, dtype=float)
    if q.ndim != 1:
        raise ValueError(
            f"t_eval must be one-dimensional, got shape {q.shape}")
    # written so that a NaN query fails too
    if q.size and not (t0 <= q[0] and q[-1] <= tf
                       and (q[1:] >= q[:-1]).all()):
        raise OutOfRange(f"t_eval must be sorted and lie in [{t0}, {tf}]")
    return q


def integrate(rhs, x0, t0: float, tf: float, rtol: float = 1e-3,
              atol: float = 1e-6, *, jacobian, dfdt, t_eval,
              out: np.ndarray) -> Samples:
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
        Local error is controlled to atol + rtol*|x| componentwise;
        both must be finite and > 0.  Defaults match the tolerances the
        experiments were run with.
    jacobian : callable(t, x) -> matrix
        Exact state Jacobian of rhs.
    dfdt : callable(t, x) -> array
        Exact partial time derivative of rhs (zeros for an autonomous
        system).  rhs must be smooth on [t0, tf]: integrate a
        discontinuous forcing piece by piece between its jumps.
    t_eval : array
        Sorted query times in [t0, tf], possibly empty or repeated.
        Each accepted step writes its interpolant (``sample``) at the
        queries it covers, [t, t + h) and, for the last step, tf itself;
        no node is kept.  The queries never change the steps taken.
    out : array of shape (len(t_eval), len(x0))
        Where the t_eval samples are written.

    Returns
    -------
    Samples
        ``out`` filled with the states at t_eval, the state at tf and
        the counters.  A query at t0 returns x0, and one at tf the end
        state, bitwise.

    Raises
    ------
    OutOfRange
        When t_eval is unsorted or leaves [t0, tf].
    StepSizeUnderflow
        When stiffness or an unresolvable discontinuity drives the step
        below 16*eps*max(|t|, |tf|).
    NonFiniteState
        When the state, the Jacobian or the right-hand side blows up,
        including a non-finite stage that no smaller step avoids.
    """
    if not (tf > t0):
        raise ValueError(f"need tf > t0, got [{t0}, {tf}]")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be finite and positive, "
                         f"got {rtol}, {atol}")
    y = np.array(x0, dtype=float).ravel()
    if not np.isfinite(y).all():
        raise ValueError("initial state has non-finite entries")
    q = _query_times(t_eval, t0, tf)
    if out.shape != (q.size, y.size):
        raise ValueError(f"out must have shape {(q.size, y.size)}, "
                         f"got {out.shape}")
    tq = q.tolist()  # scalar time arithmetic stays in Python floats
    qi, nq = 0, q.size

    stats = IntegratorStats()
    t = t0
    f0 = np.asarray(rhs(t, y), dtype=float)
    stats.n_rhs += 1
    if not np.isfinite(f0).all():
        raise NonFiniteState(f"rhs not finite at t={t}")

    h = _initial_step(rhs, t0, y, f0, tf, rtol, atol, stats)
    ay = np.abs(y)

    while t < tf:
        if stats.n_steps + stats.n_rejected >= _MAX_STEPS:
            raise RuntimeError(f"exceeded {_MAX_STEPS} steps at t={t}")
        hmin = 16.0 * _EPS * max(abs(t), abs(tf))
        remaining = tf - t

        jac = jacobian(t, y)
        ft = np.asarray(dfdt(t, y), dtype=float)
        if not np.isfinite(ft).all():
            raise NonFiniteState(f"df/dt not finite at t={t}")

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
                aynew = np.abs(ynew)
                scale = atol + rtol * np.maximum(ay, aynew)
                errnorm = float((np.abs(err) / scale).max())
                if not math.isfinite(errnorm):
                    errnorm = math.inf

            if errnorm <= 1.0:
                stats.n_steps += 1
                tnew = tf if clamped else t + h_use
                if qi < nq:
                    # the queries in [t, tnew), and at the end tf too
                    qj = bisect_left(tq, tnew, qi) if tnew < tf else nq
                    hseg = tnew - t
                    if qj == qi + 1:
                        out[qi] = sample((tq[qi] - t) / hseg, hseg,
                                         y, f0, ynew, f2)
                    elif qj > qi:
                        s = (q[qi:qj] - t) / hseg
                        out[qi:qj] = sample(s[:, None], hseg,
                                            y, f0, ynew, f2)
                    qi = qj
                t, y, f0, ay = tnew, ynew, f2, aynew
                if errnorm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, max(
                        _MIN_FACTOR, _SAFETY * errnorm ** _EXPONENT))
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
                factor = min(0.9, max(
                    0.1, _SAFETY * errnorm ** _EXPONENT))
            h = h_use * factor

    return Samples(states=out, end_state=y, stats=stats)


# etd_weights takes the closed forms at |z| >= _ETD_NEAR and their Taylor
# series below it.  a54 vanishes at z = 0, and at |z| = 1 its closed form
# loses about 500 eps to cancellation (1.2e-13 relative, against 50-digit
# values), so the seam sits at |z| = 2, where every closed form keeps
# 5e-15; at |z| < 2 the series' terms fall at least as fast as 2^j / j!,
# so _TAYLOR_TERMS of them leave a remainder below 1e-25.
_ETD_NEAR = 2.0
_TAYLOR_TERMS = 32

# The step's coefficients (``etd_weights``) as combinations of
# phi_1, phi_2, phi_3 at z and at z/2, in that column order: the scheme
# of Hochbruck and Ostermann (2005, SIAM J. Numer. Anal. 43(3)), whose
# stages sit at c = (0, 1/2, 1/2, 1, 1/2).
_F = Fraction
_COMBINATIONS = (
    (0, 0, 0, _F(1, 2), 0, 0),                          # a21
    (0, 0, 0, _F(1, 2), -1, 0),                         # a31
    (0, 0, 0, 0, 1, 0),                                 # a32
    (1, -2, 0, 0, 0, 0),                                # a41
    (0, 1, 0, 0, 0, 0),                                 # a42 = a43
    (0, _F(-1, 4), 1, _F(1, 2), _F(-3, 4), _F(1, 2)),   # a51
    (0, _F(1, 4), -1, 0, _F(1, 2), _F(-1, 2)),          # a52 = a53
    (0, _F(-1, 4), 1, 0, _F(-1, 4), _F(1, 2)),          # a54
    (1, -3, 4, 0, 0, 0),                                # b1
    (0, -1, 4, 0, 0, 0),                                # b4
    (0, 4, -8, 0, 0, 0),                                # b5
)


def _phi_forms():
    """The z^j Taylor coefficients and the z^3-scaled closed forms of the phis.

    Returns (taylor, closed), exact fractions for the six phis phi_1,
    phi_2, phi_3 at z and at z/2: taylor[j] holds their z^j
    coefficients, 1 / (j + k)! and 1 / (2^j (j + k)!), and closed[i] the
    coefficients of the i-th times z^3 on the basis e^z (1, z, z^2),
    e^(z/2) (1, z, z^2), (1, z, z^2): phi_k(z) z^3 =
    z^(3-k) (e^z - sum_(i<k) z^i / i!), and at z/2 the same with
    2^k z^(3-k) and (z/2)^i.
    """
    taylor = [[_F(1, 2**(j * half) * math.factorial(j + k))
               for half in (0, 1) for k in (1, 2, 3)]
              for j in range(_TAYLOR_TERMS)]
    closed = []
    for half in (0, 1):
        for k in (1, 2, 3):
            row = [_F(0)] * 9
            row[3 * half + 3 - k] += 2**(k * half)
            for i in range(k):
                row[6 + 3 - k + i] -= _F(2**(k * half),
                                         2**(i * half) * math.factorial(i))
            closed.append(row)
    return taylor, closed


def _coefficient_tables():
    """``etd_weights``' two tables, each entry an exact rational rounded once.

    The Taylor table's row j holds the z^j coefficient of each of the
    step's coefficients, the closed-form table their numerators over z^3
    on the basis of ``_phi_forms``.
    """
    taylor, closed = _phi_forms()

    def combine(phis):
        return np.array([[float(sum(c * phi[i] for i, c in enumerate(combo)))
                          for combo in _COMBINATIONS] for phi in phis])

    return (combine(taylor),
            combine([[closed[i][b] for i in range(6)] for b in range(9)]).T)


_TAYLOR, _CLOSED = _coefficient_tables()


def etd_weights(z) -> tuple[np.ndarray, ...]:
    """The step's coefficients at z = h lambda, divided by the step h.

    Returns (a21, a31, a32, a41, a42, a51, a52, a54, b1, b4, b5), complex
    arrays of the shape of z.  With phi_(j,i) = phi_j(c_i z),
    c = (0, 1/2, 1/2, 1, 1/2):

        a21 = phi_(1,2) / 2,  a31 = phi_(1,3) / 2 - phi_(2,3),
        a32 = phi_(2,3),
        a41 = phi_(1,4) - 2 phi_(2,4),  a42 = a43 = phi_(2,4),
        a52 = a53 = phi_(2,5) / 2 - phi_(3,4) + phi_(2,4) / 4 - phi_(3,5) / 2,
        a54 = phi_(2,5) / 4 - a52,  a51 = phi_(1,5) / 2 - 2 a52 - a54,
        b1 = phi_1 - 3 phi_2 + 4 phi_3,  b4 = 4 phi_3 - phi_2,
        b5 = 4 phi_2 - 8 phi_3 (at z),

    the stiff-order-4 scheme of Hochbruck and Ostermann (2005).  Each is
    one combination of phi_1..phi_3 at z and z/2 (``_COMBINATIONS``).
    Where |z| >= 2 it is evaluated in closed form, its numerator over z^3
    a polynomial in z, e^z and e^(z/2) (one real GEMM of ``_CLOSED`` with
    the basis' real and imaginary parts); the closed forms cancel
    catastrophically near 0, so below that each is its Taylor series,
    whose coefficients are exact rationals (``_TAYLOR``): the powers
    z^0 ... z^31 by one cumulative product, then one real GEMM.
    """
    z = np.asarray(z, dtype=complex)
    near = np.abs(z) < _ETD_NEAR
    far = ~near
    out = np.empty((len(_COMBINATIONS),) + z.shape, dtype=complex)
    zf = z[far]
    basis = np.empty((9, zf.size), dtype=complex)
    basis[0], basis[3], basis[6] = np.exp(zf), np.exp(0.5 * zf), 1.0
    for i in (1, 2):
        basis[i::3] = basis[i - 1::3] * zf
    out[:, far] = (_CLOSED @ basis.view(float)).view(complex) / (zf * zf * zf)
    powers = np.empty((_TAYLOR_TERMS, np.count_nonzero(near)), dtype=complex)
    powers[0] = 1.0
    powers[1:] = z[near]
    np.cumprod(powers, axis=0, out=powers)
    out[:, near] = (_TAYLOR.T @ powers.view(float)).view(complex)
    return tuple(out)


# Coefficient sets of at most this state dimension (reals: one per real
# mode, two per pair mode) also hold the dense real step matrix of
# ``CubicEtdrk4``: one matrix-vector product per step in place of the
# diagonal update's three or four calls.  At small dimension a step
# costs call overhead, not arithmetic.  Forced steps of an ``Etdrk4Run``,
# the lowest of four runs (an all-pairs and a half-real model, twice;
# one BLAS thread, 2-core Xeon), measured dense against diagonal at
# 1.7-1.9/2.6-3.0 us at dimension 8-32, 2.2/2.6 at 64, 3.5/2.9 at 96 and
# 3.9/3.4 at 128: the gain narrows as the O(dim^2) product grows and is
# gone near 90, while the matrix grows as dim^2 (37 KB at 64).
_DENSE_DIM = 64


def _fold(v: np.ndarray, n_real: int) -> np.ndarray:
    """Complex modal values, [real | pairs] along the last axis, as reals.

    The first n_real entries, those of the real modes, keep their real
    part, and each pair mode's value follows as its real and imaginary
    parts: the layout of a state, so that Re(m . y) = _fold(conj m) @ y
    for the state y of the modal values y_c.
    """
    v = np.asarray(v, dtype=complex)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1] - n_real,))
    out[..., :n_real] = v[..., :n_real].real
    out[..., n_real:] = np.ascontiguousarray(v[..., n_real:]).view(float)
    return out


@dataclass(frozen=True, eq=False)
class CubicEtdrk4:
    """ETDRK4 steps of one size h for y' = diag(lam) y + bm u(t) + g s(y)^3.

    Here s(y) = Re row . y, and the modes are [real | pairs]: the first
    n_real have a real eigenvalue (and real bm and g), so their values
    stay real, and the rest are complex.  A state is one float vector of
    n_real + 2 n_pairs entries: the real modes' values, then the pair
    modes' real and imaginary parts interleaved (its tail viewed as
    complex).  The cubic term is the fixed column g times the cube of
    one scalar, and the input term the fixed column bm times u(t), so
    each of the five stages needs that scalar only: the stage scalars
    s1 ... s5 of a step from y are the three real products ``rows`` @ y
    plus the earlier stages' cubes ci = si^3 weighted by ``stage`` and
    the input's terms, and the step itself is e^(h lam) y plus the real
    rows of ``w`` weighted by c1, c4, c5 and the input values.  Build it
    with ``cubic_etdrk4`` and step it with an ``Etdrk4Run`` or
    ``step_rows``.

    e_real, e_pairs : e^(h lam) of the real modes (floats) and of the
    pair modes (complex).  rows : (3, dim) reals, the state layout of
    row, row e^(h lam / 2) and row e^(h lam), so that rows @ y is Re of
    each times y: s1, p and r.  w : (6, dim) reals in the state layout,
    h b1 g, h b4 g and h b5 g (``etd_weights``), then h b1 bm, h b4 bm
    and h b5 bm: the rows of the weights (c1, c4, c5, u0, u1, uh).
    stage : the eight reals Re row . (h a g) of a = a21, a31, a32, a41,
    a42, a51, a52, a54, called by those names in

        s2 = p + a21 c1,   s3 = p + a31 c1 + a32 c2,
        s4 = r + a41 c1 + a42 (c2 + c3),
        s5 = p + a51 c1 + a52 (c2 + c3) + a54 c4,

    each plus its input term.  input_map : (3, 4) reals, the same eight
    with bm, which take a step's input (u0, uh, u1) at its start, middle
    and end to the input terms (d2, d3, d4, d5) of s2 ... s5.  dense :
    for dim <= _DENSE_DIM, the real (dim + 3, dim + 6) matrix that takes
    [y; weights], the state and the six weights, to the next state and
    its three products rows @ y.  Its top dim rows are [E | w^T], E
    diagonal on the real modes and the 2 x 2 blocks of e^(h lam) on the
    interleaved pairs, and its last 3 are ``rows`` times those.  None
    above _DENSE_DIM.
    """

    e_real: np.ndarray
    e_pairs: np.ndarray
    rows: np.ndarray
    w: np.ndarray
    stage: tuple
    input_map: np.ndarray
    dense: np.ndarray | None = None

    def step_rows(self, ys: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """One step from each row of ys, all rows at once; a new array.

        ys is a block of states, one per row, and inputs an array of each
        row's (u0, uh, u1), zeros for the zero input.  The stage
        arithmetic of ``Etdrk4Run.advance`` runs on arrays, one entry per
        row, in the same order, and the update is one GEMM of the six
        weights with w, added to ys times e^(h lam), for every kernel:
        a ROM query measured no faster with a GEMM by ``dense``.  Raises
        NonFiniteState when a stage value of any row is not finite.
        """
        ys = np.asarray(ys, dtype=float)
        inputs = np.asarray(inputs, dtype=float)
        a21, a31, a32, a41, a42, a51, a52, a54 = self.stage
        s1, p, r = self.rows @ ys.T
        d2, d3, d4, d5 = (inputs @ self.input_map).T
        # an overflow gives inf, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            c1 = s1 * s1 * s1
            s = p + a21 * c1 + d2
            c2 = s * s * s
            s = p + a31 * c1 + a32 * c2 + d3
            c3 = s * s * s
            c23 = c2 + c3
            s = r + a41 * c1 + a42 * c23 + d4
            c4 = s * s * s
            s = p + a51 * c1 + a52 * c23 + a54 * c4 + d5
            c5 = s * s * s
        if not np.isfinite(c5).all():
            raise NonFiniteState("ETDRK4 stage value not finite")
        weights = np.empty((len(ys), 6))
        weights[:, 0], weights[:, 1], weights[:, 2] = c1, c4, c5
        weights[:, 3:] = inputs[:, [0, 2, 1]]
        n_real = self.e_real.size
        out = weights @ self.w
        out[:, :n_real] += ys[:, :n_real] * self.e_real
        out[:, n_real:].view(complex)[...] += (ys[:, n_real:].view(complex)
                                               * self.e_pairs)
        return out


def input_terms(inputs, kernels, which):
    """A forced run's input terms, formed for the whole run ahead.

    inputs holds (u0, uh, u1), the input at a step's start, middle and
    end, for each step of the run in turn; kernels lists the run's
    kernels and which[i] is the index in it of step i's.  The input's
    terms of a step's stage scalars are linear in its (u0, uh, u1)
    (``CubicEtdrk4.input_map``), so all of them are formed here at
    once, each step's from its kernel's map, not step by step in the
    loop.  Returns the iterator an ``Etdrk4Run`` reads, one
    (d2, d3, d4, d5, u0, u1, uh) per step: the input terms of s2 ... s5,
    then the input's three step weights.
    """
    u = np.asarray(inputs, dtype=float).reshape(-1, 3)
    maps = np.array([kernel.input_map for kernel in kernels])
    terms = np.empty((len(u), 7))
    terms[:, :4] = np.einsum("si,sij->sj", u, maps[which])
    terms[:, 4:] = u[:, [0, 2, 1]]
    return struct.iter_unpack("7d", terms)


# The six step weights of ``Etdrk4Run``, written into a buffer in one call
_pack_weights = struct.Struct("6d").pack_into
# An unforced step's input terms and input weights
_NO_INPUT = (0.0,) * 7


class Etdrk4Run:
    """One ETDRK4 run: its state, stepped by the kernels of one system.

    y0 is the initial state (a ``CubicEtdrk4`` state, one float per
    real mode and two per pair mode), copied; terms is the run's input
    terms, one per step for the whole run (``input_terms``), or None
    for the zero input, which then takes no part.
    ``advance(kernel, out, k)`` makes the run's next k len(out) steps
    with any kernel of the system (of y0's dimension), so a run steps
    whole sample intervals and the pieces an input jump cuts with one
    state, one input stream and one set of buffers; the terms must have
    been formed with the kernel each step takes.  A kernel switch costs
    the new kernel's rows @ y, which every ``advance`` starts with.

    The buffers are set up here, O(dim), and a step allocates nothing:
    the stage scalars are read and the six weights written through
    memoryviews.  Two buffers [y; weights] take turns: a dense step's
    product with one writes the next state and its products rows @ y
    into the other, whose weights the next step then fills in.  A
    diagonal step updates the state in place where it is.  ``state()``
    returns a copy of the state; after a NonFiniteState it is the state
    before the failing step.
    """

    def __init__(self, y0, terms=None):
        dim = np.size(y0)
        # an unforced diagonal step leaves the input's weights out: with
        # them energy_decay (exp_stab_Ex1, n = 100) measured 9 % slower
        # and its energies moved by 1.5e-15
        self._nw = 3 if terms is None else 6
        self._terms = itertools.repeat(_NO_INPUT) if terms is None else terms
        bufs = np.zeros((2, dim + 6))
        ys = [buf[:dim] for buf in bufs]
        ys[0][:] = y0
        # per buffer: the product's input, its weights, and where the
        # product goes, its scalars and the state it writes
        self._turns = [(v[:dim + self._nw], memoryview(v[dim:]),
                        to[:dim + 3], memoryview(to[dim:dim + 3]), y_to,
                        memoryview(y_to).cast("B"))
                       for v, to, y_to in ((bufs[0], bufs[1], ys[1]),
                                           (bufs[1], bufs[0], ys[0]))]
        self._turn = 0
        self._y = ys[0]
        self._unforced = {}
        # the diagonal step's weights and the products rows @ y
        weights = np.zeros(6)
        self._weights = weights[:self._nw]
        self._weights_mv = memoryview(weights)
        self._scalars = np.empty(3)
        self._scalars_mv = memoryview(self._scalars)

    def state(self) -> np.ndarray:
        """A copy of the run's state."""
        return self._y.copy()

    def advance(self, kernel: CubicEtdrk4, out: np.ndarray, k: int) -> None:
        """Make k steps of kernel per row of out; write each row's end state.

        Row i of out receives the state after (i + 1) k steps; the
        input terms are advanced by k len(out).  With N(y, t) =
        g s(y)^3 + bm u(t), stage times t + ci h and the stage states
        Y1 = y, Y2 = e^(hL/2) y + h a21 N1,
        Y3 = e^(hL/2) y + h (a31 N1 + a32 N2),
        Y4 = e^(hL) y + h (a41 N1 + a42 (N2 + N3)) and
        Y5 = e^(hL/2) y + h (a51 N1 + a52 (N2 + N3) + a54 N4), a step is
        e^(hL) y + h (b1 N1 + b4 N4 + b5 N5) (Hochbruck and Ostermann
        2005; Ni = N(Yi, t + ci h)), in the stage scalars and weights of
        ``CubicEtdrk4``.

        Raises NonFiniteState when a stage value is not finite, which a
        step too long for the cubic term can cause; the rows completed
        before the failing step are written.
        """
        dense = kernel.dense
        # bound methods and positional arguments: np.dot's dispatch and
        # keyword arguments cost more than a small product itself
        rows_dot, multiply, gemv, pack, isfinite = (
            kernel.rows.dot, np.multiply, dgemv, _pack_weights, math.isfinite)
        a21, a31, a32, a41, a42, a51, a52, a54 = kernel.stage
        terms, nw, y = self._terms, self._nw, self._y
        weights, weights_mv = self._weights, self._weights_mv
        scalars, scalars_mv = self._scalars, self._scalars_mv
        turns, turn = self._turns, self._turn
        if not len(out):
            return
        # out (C-contiguous) as one flat run of bytes: a row is written
        # by a memoryview slice assignment, cheaper than numpy's item
        # assignment
        out_mv = memoryview(out).cast("B")
        size = y.nbytes
        if dense is None:
            # w^T, Fortran-ordered as BLAS reads it without a copy
            w_t = kernel.w[:nw].T
            # the real and the complex part of the state, each multiplied
            # in place by its e^(h lam); an empty part takes no call (with
            # it a query of small_damp_ex5_in4's FOM, no real mode, +7 %)
            n_real = kernel.e_real.size
            e_real = kernel.e_real if n_real else None
            e_pairs = kernel.e_pairs if kernel.e_pairs.size else None
            y_real, y_pairs = y[:n_real], y[n_real:].view(complex)
            y_mv = memoryview(y).cast("B")
        else:
            y_mv = turns[1 - turn][5]
            if nw == 3:
                # a contiguous copy without the input's columns: with the
                # whole matrix, as fast, energy_decay's energies moved by
                # 6e-15 (exp_stab_Ex1, n = 20; 998 of 1000 CSV rows differ)
                if kernel not in self._unforced:
                    self._unforced[kernel] = np.ascontiguousarray(
                        dense[:, :y.size + 3])
                dense = self._unforced[kernel]
            dense_dot = dense.dot
        rows_dot(y, scalars)
        s1, p, r = scalars_mv
        # steps left before the next row is written
        left, end = k, 0
        try:
            for _ in range(k * len(out)):
                d2, d3, d4, d5, u0, u1, uh = next(terms)
                # Python floats: a product that overflows gives inf,
                # not an error
                c1 = s1 * s1 * s1
                s = p + a21 * c1 + d2
                c2 = s * s * s
                s = p + a31 * c1 + a32 * c2 + d3
                c3 = s * s * s
                c23 = c2 + c3
                s = r + a41 * c1 + a42 * c23 + d4
                c4 = s * s * s
                s = p + a51 * c1 + a52 * c23 + a54 * c4 + d5
                c5 = s * s * s
                if not isfinite(c5):
                    raise NonFiniteState("ETDRK4 stage value not finite")
                # all six weights; the input's three take part only in a
                # forced run
                if dense is None:
                    pack(weights_mv, 0, c1, c4, c5, u0, u1, uh)
                    if e_real is not None:
                        multiply(e_real, y_real, y_real)
                    if e_pairs is not None:
                        multiply(e_pairs, y_pairs, y_pairs)
                    # y += w^T weights in place (positional beta, y,
                    # offx, incx, offy, incy, trans, overwrite_y)
                    gemv(1.0, w_t, weights, 1.0, y, 0, 1, 0, 1, 0, 1)
                    rows_dot(y, scalars)
                    s1, p, r = scalars_mv
                else:
                    v, v_weights, to, to_scalars, y, y_mv = turns[turn]
                    pack(v_weights, 0, c1, c4, c5, u0, u1, uh)
                    dense_dot(v, to)
                    s1, p, r = to_scalars
                    turn = 1 - turn
                left -= 1
                if not left:
                    left = k
                    start, end = end, end + size
                    out_mv[start:end] = y_mv
        finally:
            self._turn, self._y = turn, y


def cubic_etdrk4(lam, row, g, h: float, bm) -> CubicEtdrk4:
    """The ETDRK4 step of size h for y' = diag(lam) y + bm u + g (Re row . y)^3.

    lam, row, g and the input column bm are complex vectors of one
    length, one entry per mode, the modes [real | pairs]: the leading
    entries of lam that are real are the real modes, whose row, g and bm
    are read as real (their imaginary parts dropped), and every later
    entry must have a nonzero imaginary part, else ValueError.  Every
    call computes the coefficients afresh; ``Etdrk4Table`` keeps those
    of a system, one set per h.  Up to _DENSE_DIM reals of state the
    kernel also holds ``dense``, assembled from its e, rows and w.  The
    kernel's arrays are read-only.
    """
    lam = np.asarray(lam, dtype=complex)
    n_real = lam.size - np.count_nonzero(lam.imag)
    if lam.imag[:n_real].any():
        raise ValueError("the modes with a real eigenvalue must come first")
    row, g, bm = (np.array(v, dtype=complex) for v in (row, g, bm))
    for v in (row, g, bm):
        v.imag[:n_real] = 0.0
    z = h * lam
    *a, b1, b4, b5 = etd_weights(z)
    half = np.exp(0.5 * z)
    e = np.exp(z)
    # Re(m . y) = _fold(conj m) @ y on states y
    rows = _fold(np.conj([row, row * half, row * e]), n_real)
    w = _fold(h * np.array([b1 * g, b4 * g, b5 * g,
                            b1 * bm, b4 * bm, b5 * bm]), n_real)
    # Re row . (h a g) and Re row . (h a bm) of each stage coefficient a
    a_g, a_bm = (((h * np.array(a) * col) @ row).real for col in (g, bm))
    a21, a31, a32, a41, a42, a51, a52, a54 = a_bm.tolist()
    input_map = np.array([[a21, a31, a41, a51],
                          [0.0, a32, 2.0 * a42, 2.0 * a52],
                          [0.0, 0.0, 0.0, a54]])
    e_real, e_pairs = e[:n_real].real.copy(), e[n_real:]
    dense = (_dense_step(e_real, e_pairs, rows, w)
             if rows.shape[1] <= _DENSE_DIM else None)
    for arr in (e_real, e_pairs, rows, w, input_map, dense):
        if arr is not None:
            arr.flags.writeable = False
    return CubicEtdrk4(e_real=e_real, e_pairs=e_pairs, rows=rows, w=w,
                       stage=tuple(a_g.tolist()), input_map=input_map,
                       dense=dense)


def _dense_step(e_real, e_pairs, rows, w) -> np.ndarray:
    """``CubicEtdrk4.dense`` from the kernel's e, rows and w."""
    dim = rows.shape[1]
    top = np.zeros((dim, dim + 6))
    i = np.arange(e_real.size)
    top[i, i] = e_real
    j = np.arange(e_real.size, dim, 2)
    top[j, j] = top[j + 1, j + 1] = e_pairs.real
    top[j, j + 1] = -e_pairs.imag
    top[j + 1, j] = e_pairs.imag
    top[:, dim:] = w.T
    return np.vstack([top, rows @ top])


# Coefficient sets an Etdrk4Table keeps; past it the oldest is dropped.
# One square-wave system's queries on a 1000-sample grid meet 58 step
# sizes on a 100-s horizon and 96 on a 300-s one (the sample interval's
# and the jump pieces' at k = 1, those of the coarse first run's steps of
# two intervals, and the first interval's half).  A set holds 10 dim
# reals (e, three rows, six rows of w), 80 dim bytes: 64 KB at n = 400
# (dim 800), so a table holds at most 8 MB there.  A set of at most
# _DENSE_DIM reals of state also holds its (dim + 3, dim + 6) dense step,
# about 37 KB at dim 64, so a ROM's table holds at most 5.5 MB; the FOMs'
# sets hold none.
_TABLE_SETS = 128


class Etdrk4Table:
    """The ETDRK4 steps of one system, in real modal coordinates.

    The system is x' = A x + b u(t) + g (row_x . x)^3 with outputs c x,
    and modes is A's modal factor A = V diag(lam) V^-1 (a
    ``linalg.ModalForm``); row is row_x V.  A is real, so V^-1 x of a
    real x is conjugate-symmetric: its entries at real eigenvalues are
    real and those of each conjugate pair conjugate.  The table keeps
    each real eigenvalue once, as a real mode, and one mode of each pair
    (Im lam > 0), the modes ordered [real | pairs], and weights the pair
    modes 2 in row and in the output maps, so Re(row . y) and the
    outputs are the same sums.  A state (``modal_state``) is then
    exactly dim reals.  The table keeps the modal vectors every run
    steps with: lam, row, gm = V^-1 g and bm = V^-1 b over those modes,
    and the real sampling maps, ``out_map`` (c V) and ``state_map`` (V,
    built on first use), each taking a block of states, one per row, to
    its samples.  All of them are read-only.  The forced runs and the
    energy study step through it.

    ``kernel(h)`` returns the ``CubicEtdrk4`` of step h.  Its
    coefficients depend on h lam and these vectors only, not on the
    input or the initial state, so they are built (by ``cubic_etdrk4``)
    the first time h is asked for and kept for every later run and
    query of the system.  At most _TABLE_SETS sets are kept, the oldest
    dropped first; ``built`` counts the sets ever built.
    """

    def __init__(self, modes, b, g, row, c):
        lam = modes.eigenvalues
        self._order = np.concatenate([np.flatnonzero(lam.imag == 0.0),
                                      np.flatnonzero(lam.imag > 0.0)])
        self.dim = lam.size
        self.n_real = self.dim - np.count_nonzero(lam.imag)
        self._weight = np.where(lam[self._order].imag > 0.0, 2.0, 1.0)
        self._modes = modes
        self.lam = lam[self._order]
        self.bm, self.gm = modes.solve(np.column_stack([b, g]))[self._order].T
        self.row = self._weight * row[self._order]
        self.out_map = self._sampling_map(c @ modes.v)
        for arr in (self.lam, self.bm, self.gm, self.row, self.out_map):
            arr.flags.writeable = False
        self.built = 0
        self._sets = {}

    def _sampling_map(self, m: np.ndarray) -> np.ndarray:
        """The real map taking a block of states, one per row, to Re(m y)."""
        folded = _fold(np.conj(m[:, self._order]) * self._weight, self.n_real)
        return np.ascontiguousarray(folded.T)

    @cached_property
    def state_map(self) -> np.ndarray:
        """The real modal basis W, x = W y, transposed as ``out_map`` is.

        Built on first use and kept: the energy study samples the state
        through it, the forced runs never.
        """
        state_map = self._sampling_map(self._modes.v)
        state_map.flags.writeable = False
        return state_map

    def modal_state(self, x) -> np.ndarray:
        """The state of a real x: V^-1 x, folded onto the table's modes."""
        return _fold(self._modes.solve(x)[self._order], self.n_real)

    def kernel(self, h: float) -> CubicEtdrk4:
        """The ETDRK4 step of size h, built on first use and kept."""
        kernel = self._sets.get(h)
        if kernel is None:
            if len(self._sets) >= _TABLE_SETS:
                del self._sets[next(iter(self._sets))]
            kernel = cubic_etdrk4(self.lam, self.row, self.gm, h, self.bm)
            self._sets[h] = kernel
            self.built += 1
        return kernel


def step_doubling(first, run, steps_per_k: int, budget: int):
    """A coarse first run, then runs at k = 1, 2, 4, ... until one passes.

    first is (steps, make): make() makes a first run of that many
    steps, coarser than the run at k = 1, which only seeds that run's
    check.  run(k, compare) makes the run of k steps per unit,
    steps_per_k * k steps in all, and returns (est, ok): its error
    estimate and whether that passes the caller's tolerance.  With
    compare set, the run is checked against the last one made before
    it; without, there is nothing to check it against and ok must be
    false.  A run that raises NonFiniteState, the first one included,
    is dropped, and the next one is made without compare: after a
    dropped first run, the run at k = 1 seeds the check of the run at
    k = 2.  Returns (k, n_steps, est) of the first run that passes,
    where n_steps counts the steps of every run made, the first one's
    included.

    Raises StepBudget when the next run would take the steps past
    budget.
    """
    first_steps, make_first = first
    k, n_steps, compare = 0, 0, False
    while True:
        steps = k * steps_per_k if k else first_steps
        if n_steps + steps > budget:
            which = f"{k} steps per unit" if k else "the first run"
            raise StepBudget(f"{which} would exceed {budget} ETDRK4 steps "
                             f"(after {n_steps})")
        n_steps += steps
        try:
            if k:
                est, ok = run(k, compare)
            else:
                make_first()
                est, ok = math.inf, False
        except NonFiniteState:
            compare = False
        else:
            if ok:
                return k, n_steps, est
            compare = True
        k = 2 * k or 1
