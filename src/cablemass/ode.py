"""Stiff integrators: fixed-step ETDRK4 and an adaptive Rosenbrock method.

``CubicEtdrk4`` is the fourth-order exponential time-differencing
Runge-Kutta method of Cox and Matthews (2002, J. Comput. Phys. 176) for
y' = diag(lambda) y + bm u(t) + g (Re row . y)^3: a model in the
eigenvector coordinates of A (``linalg.modal_factor``), with an optional
input column bm.  The linear part is integrated exactly, so a step costs
O(n) whatever the stiffness; its stiff order is discussed by Hochbruck
and Ostermann (2010, Acta Numerica).  It has no error estimate of its
own: ``step_doubling`` makes runs at k = 1, 2, 4, ... steps per sample
interval until one agrees with the run before it to the caller's
tolerance.  ``etd_weights`` evaluates its phi-function coefficients
(Kassam and Trefethen 2005, SIAM J. Sci. Comput. 26(4)).  The energy
study and the forced FOM and ROM runs all step this way.

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

The Jacobian's type picks the factorisation.  A ``SecondOrderJacobian``
belongs to a second-order system x = [d; v] with d' = v, so
J = [[0, I], [K, G]] and W z = b reduces exactly to the n x n velocity
Schur complement (I - hd G - hd^2 K) z_v = b_v + hd K b_d, with
z_d = b_d + hd z_v (Hairer and Wanner, Solving ODEs II, on second-order
problems).  Its velocity rows come combined by a fixed P that makes P K
and P G tridiagonal, so each step factors P (I - hd G - hd^2 K) with
LAPACK ``dgttrf`` and each solve costs one ``dgbmv`` and one ``dgttrs``,
O(n) in the caller's [d; v] ordering.  Any other Jacobian (the reduced
model's small dense matrix) is factored densely by ``lu_factor`` and
``lu_solve``, thin wrappers of LAPACK ``dgetrf``/``dgetrs``: at r <= 8 a
step costs call overhead, not arithmetic, and the argument handling of
``scipy.linalg.lu_factor``/``lu_solve`` takes several times longer than
the LAPACK calls themselves.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import astuple, dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgetrf, dgetrs, dgttrf, dgttrs

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


@dataclass(frozen=True, eq=False)
class SecondOrderJacobian:
    """The Jacobian of a second-order system, in tridiagonal pieces.

    With x = [d; v] and d' = v, J = [[0, I], [K + delta E, G]], where
    E = e_{n-1} e_{n-1}^T carries a state-dependent diagonal entry.
    P = I + p0 e_0 e_1^T + p1 e_{n-1} e_{n-2}^T combines the first and
    last velocity rows with their neighbours so that P K and P G are
    tridiagonal; P leaves delta E where it is.  p, pk and pg hold P,
    P K and P G in LAPACK band storage of shape (3, n),
    ab[1 + i - j, j] = M[i, j]: row 0 the superdiagonal, row 1 the
    diagonal, row 2 the subdiagonal.  ``linear`` is the dense
    [[0, I], [K, G]], kept only for ``dense``.
    """

    linear: np.ndarray
    p: np.ndarray
    pk: np.ndarray
    pg: np.ndarray
    delta: float = 0.0

    def dense(self) -> np.ndarray:
        """J as a dense matrix in the [d; v] ordering."""
        n = self.pk.shape[1]
        jac = self.linear.copy()
        jac[2 * n - 1, n - 1] += self.delta
        return jac


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


def _check_iteration_matrix(w, t):
    if not np.isfinite(w).all():
        raise NonFiniteState(f"jacobian not finite at t={t}")


def _factor(jac, hd: float, t: float):
    """Factor W = I - hd*J; return a solver for W z = b, or None if singular.

    This is the one place where the Jacobian's type matters.  A
    SecondOrderJacobian is factored through its tridiagonal velocity
    Schur complement P (I - hd G - hd^2 (K + delta E)) by dgttrf, which is
    singular exactly when W is (det P = 1); any other Jacobian is factored
    densely.
    """
    if isinstance(jac, SecondOrderJacobian):
        p, pk = jac.p, jac.pk
        n = pk.shape[1]
        hd2 = hd * hd
        s = jac.pg * -hd
        s -= hd2 * pk
        s += p
        s[1, n - 1] -= hd2 * jac.delta
        _check_iteration_matrix(s, t)
        dl, d, du, du2, ipiv, info = dgttrf(
            s[2, :-1], s[1], s[0, 1:],
            overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info < 0:
            raise ValueError(f"dgttrf: argument {-info} is invalid")
        if info > 0:
            return None
        p0, p1, hdd = p[0, 1], p[2, n - 2], hd * jac.delta

        def solve(b):
            # y = [b_d; P b_v + hd (P K + delta E) b_d]: one dgbmv for
            # b_v + hd P K b_d (positional incx, offx, beta, y, incy, offy:
            # keywords cost more than the product), then P and delta E
            y = dgbmv(n, n, 1, 1, hd, pk, b, 1, 0, 1.0, b, 1, n)
            y[n] += p0 * b[n + 1]
            y[-1] += p1 * b[-2] + hdd * b[n - 1]
            zv, _ = dgttrs(dl, d, du, du2, ipiv, y[n:], overwrite_b=1)
            y[:n] += hd * zv  # zv is y[n:], solved in place
            return y

        return solve

    w = np.asarray(jac, dtype=float) * -hd
    # w is fresh and contiguous, so its memory-order ravel is a view; the
    # diagonal has stride n + 1 in either order
    w.ravel("K")[:: w.shape[0] + 1] += 1.0
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
    jacobian : callable(t, x) -> matrix or SecondOrderJacobian
        Exact state Jacobian of rhs.  A SecondOrderJacobian is factored
        through its tridiagonal velocity Schur complement, a matrix
        densely.
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


# etd_weights takes the closed forms at |z| >= _ETD_NEAR and the contour
# mean below it, over _ETD_NODES points on a circle of radius _ETD_RADIUS
# about z.  Every node then lies at least 1 from 0, where the closed forms
# lose at most a few hundred eps to cancellation; Kassam and Trefethen's
# radius 1 puts a node within 0.05 of 0 when |z| is near 1, and measured
# 2e-11 relative error there against 50-digit references.
_ETD_NEAR = 1.0
_ETD_RADIUS = 2.0
_ETD_NODES = 32


def _etd_closed_forms(z):
    ez = np.exp(z)
    z2 = z * z
    z3 = z2 * z
    return ((np.exp(0.5 * z) - 1.0) / z,
            (-4.0 - z + ez * (4.0 - 3.0 * z + z2)) / z3,
            (2.0 + z + ez * (z - 2.0)) / z3,
            (-4.0 - 3.0 * z - z2 + ez * (4.0 - z)) / z3)


def etd_weights(z) -> tuple[np.ndarray, ...]:
    """ETDRK4's coefficients at z = h lambda, divided by the step h.

    Returns (q, f1, f2, f3), complex arrays of the shape of z:

        q  = (e^(z/2) - 1) / z,
        f1 = (-4 - z + e^z (4 - 3z + z^2)) / z^3,
        f2 = (2 + z + e^z (z - 2)) / z^3,
        f3 = (-4 - 3z - z^2 + e^z (4 - z)) / z^3,

    that is q = phi_1(z/2)/2, f1 = phi_1 - 3 phi_2 + 4 phi_3,
    f2 = phi_2 - 2 phi_3 and f3 = 4 phi_3 - phi_2, with the limits 1/2
    and 1/6 at z = 0.  The closed forms cancel catastrophically near 0,
    so where |z| < 1 each value is the mean of its closed form over a
    full circle of points about z (Kassam and Trefethen 2005): the
    Cauchy integral by the trapezoid rule, exact to rounding for these
    entire functions.  A half circle and a real part would do only for
    real z.
    """
    z = np.asarray(z, dtype=complex)
    near = np.abs(z) < _ETD_NEAR
    out = tuple(np.empty(z.shape, dtype=complex) for _ in range(4))
    for o, value in zip(out, _etd_closed_forms(z[~near])):
        o[~near] = value
    theta = (2.0 * math.pi / _ETD_NODES) * (np.arange(_ETD_NODES) + 0.5)
    nodes = z[near][:, None] + _ETD_RADIUS * np.exp(1j * theta)
    for o, value in zip(out, _etd_closed_forms(nodes)):
        o[near] = value.mean(axis=1)
    return out


@dataclass(frozen=True, eq=False)
class CubicEtdrk4:
    """ETDRK4 steps of one size h for y' = diag(lam) y + bm u(t) + g s(y)^3.

    Here s(y) = Re row . y.  The cubic term is the fixed column g times
    the cube of one scalar, and the input term the fixed column bm times
    u(t), so each stage needs that scalar only: the stage scalars of a
    step from y follow from the three dot products in ``rows`` @ y, and
    the step itself is e^(h lam) y plus the rows of ``w`` weighted by the
    stage cubes and the input values.  Build it with ``cubic_etdrk4``.

    e : e^(h lam).  rows : (3, m), row, row e^(h lam / 2) and
    row e^(h lam).  w : h f1 g, 2 h f2 g and h f3 g (``etd_weights``),
    followed, when there is an input column, by h f1 bm, 2 h f2 bm and
    h f3 bm.  alpha, beta : Re row . (h q g) and
    Re row . (e^(h lam / 2) h q g); gamma, delta : the same with bm.
    """

    e: np.ndarray
    rows: np.ndarray
    w: np.ndarray
    alpha: float
    beta: float
    gamma: float = 0.0
    delta: float = 0.0

    def step(self, y: np.ndarray, u0: float = 0.0, uh: float = 0.0,
             u1: float = 0.0) -> np.ndarray:
        """The state one step of h after y (Cox and Matthews 2002).

        u0, uh and u1 are the input at the step's start, middle and end.
        With N(y, t) = g s(y)^3 + bm u(t) and the stage states
        a = e^(hL/2) y + h q N(y, t),
        b = e^(hL/2) y + h q N(a, t + h/2) and
        c = e^(hL/2) a + h q (2 N(b, t + h/2) - N(y, t)), the step is
        e^(hL) y + h f1 N(y, t) + 2 h f2 (N(a, t + h/2) + N(b, t + h/2))
        + h f3 N(c, t + h).  Without an input column gamma and delta
        are 0 and w has no input rows, so the input takes no part.

        Raises NonFiniteState when a stage value is not finite, which a
        step too long for the cubic term can cause.
        """
        s_y, p, r = (self.rows @ y).real.tolist()
        alpha, gamma = self.alpha, self.gamma
        # Python floats: a product that overflows gives inf, not an error
        c_y = s_y * s_y * s_y
        s_a = p + alpha * c_y + gamma * u0
        c_a = s_a * s_a * s_a
        s_b = p + alpha * c_a + gamma * uh
        c_b = s_b * s_b * s_b
        s_c = (r + self.beta * c_y + self.delta * u0
               + alpha * (2.0 * c_b - c_y) + gamma * (2.0 * uh - u0))
        c_c = s_c * s_c * s_c
        if not math.isfinite(c_c):
            raise NonFiniteState("ETDRK4 stage value not finite")
        out = self.e * y
        # the input's three weights only where w has the input's rows
        out += np.array([c_y, c_a + c_b, c_c, u0, 2.0 * uh, u1][:len(self.w)]
                        ) @ self.w
        return out


def cubic_etdrk4(lam, row, g, h: float, bm=None) -> CubicEtdrk4:
    """The ETDRK4 step of size h for y' = diag(lam) y + bm u + g (Re row . y)^3.

    lam, row, g and the input column bm are complex vectors of one
    length; without bm the system is unforced.  The coefficients are
    computed here, once per h.
    """
    z = h * np.asarray(lam, dtype=complex)
    q, f1, f2, f3 = etd_weights(z)
    half = np.exp(0.5 * z)
    e = np.exp(z)
    hqg = h * q * g
    cols = [f1 * g, 2.0 * f2 * g, f3 * g]
    gamma = delta = 0.0
    if bm is not None:
        cols += [f1 * bm, 2.0 * f2 * bm, f3 * bm]
        hqb = h * q * bm
        gamma = float((row @ hqb).real)
        delta = float((row @ (half * hqb)).real)
    return CubicEtdrk4(
        e=e, rows=np.array([row, row * half, row * e]), w=h * np.array(cols),
        alpha=float((row @ hqg).real), beta=float((row @ (half * hqg)).real),
        gamma=gamma, delta=delta)


def step_doubling(run, steps_per_k: int, budget: int):
    """Runs at k = 1, 2, 4, ... steps per unit until one passes its check.

    run(k, compare) makes the run of k steps per unit, steps_per_k * k
    steps in all, and returns (est, ok): its error estimate and whether
    that passes the caller's tolerance.  With compare set, the run is
    checked against the last one made before it; without, there is
    nothing to check it against and ok must be false.  A run that raises
    NonFiniteState is dropped, and the next one is made without compare.
    Returns (k, n_steps, est) of the first run that passes, where
    n_steps counts every run made.

    Raises StepBudget when the next run would take the steps past
    budget.
    """
    k, n_steps, compare = 1, 0, False
    while True:
        steps = k * steps_per_k
        if n_steps + steps > budget:
            raise StepBudget(f"{k} steps per unit would exceed {budget} "
                             f"ETDRK4 steps (after {n_steps})")
        n_steps += steps
        try:
            est, ok = run(k, compare)
        except NonFiniteState:
            compare = False
        else:
            if ok:
                return k, n_steps, est
            compare = True
        k *= 2
