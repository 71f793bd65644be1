"""Adaptive stiff integrators: linearly implicit Rosenbrock methods.

Two methods share one step-size loop, one error norm and one dense
output; a ``Method`` record names the one a run takes.  Each attempt
factors W = I - hd J (hd = h gamma) once, and an accepted step carries
the state and its derivative at both ends, which gives a free cubic
Hermite interpolant for dense output.

``ROS23``, the default, is the modified Rosenbrock 2(3) pair of
Shampine and Reichelt (1997; the method class behind MATLAB's ode23s):
an L-stable second-order step with an embedded third-order error
estimate, built for crude tolerances.  An attempt costs one Jacobian,
one factorisation, three solves and two right-hand-side evaluations.

``RODAS4`` is the L-stable, stiffly accurate fourth-order method of
Hairer and Wanner (Solving ODEs II, section IV.7; the coefficients of
their ``rodas.f``, METH = 1) with an embedded third-order estimate,
for tight tolerances.  An attempt costs one Jacobian, one
factorisation, six solves and six right-hand-side evaluations, the
last at the new state for the Hermite fill and for reuse as the next
step's first stage.  A step costs about twice what a ROS23 step does;
on the exp_stab_Ex1 energy study at rtol 1e-6 it takes about a fifth
of the steps.

The caller supplies the exact state Jacobian J and time derivative
df/dt, which the Rosenbrock formulas are written with; both models here
have them in closed form.  ``integrate`` takes the caller's query times
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
from collections.abc import Callable
from dataclasses import astuple, dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgetrf, dgetrs, dgttrf, dgttrs

_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
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


# Rodas4 (rodas.f, METH = 1) in the slopes z_i = k_i / (h gamma), so that
# every stage solves (I - h gamma J) z_i = b_i: stage i + 1 evaluates f
# at t + c_i h and y + h gamma (A_i . z), and b_{i+1} = f_{i+1}
# + gamma (C_i . z) + h d_{i+1} df/dt.  Stages 5 and 6 are at t + h
# (c = 1) with d_5 = d_6 = 0; y_6 = y_5 + k_5 is the embedded order-3
# solution and k_6 = y_new - y_6 the error estimate.
_R4_GAMMA = 0.25
_R4_C = (0.386, 0.21, 0.63, 1.0, 1.0)
_R4_D = (0.25, -0.1043, 0.1035, -0.0362)
_R4_A5 = (1.221224509226641, 6.019134481288629, 12.53708332932087,
          -0.6878860361058950)
_R4_A = tuple(np.array(row) for row in (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    _R4_A5,
    (*_R4_A5, 1.0),  # y_6 = y_5 + k_5
))
_R4_CG = tuple(_R4_GAMMA * np.array(row) for row in (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905,
     11.70890893206160),
    (8.083246795921522, -7.981132988064893, -31.52159432874371,
     16.31930543123136, -6.058818238834054),
))


def _stages_rodas4(rhs, t, y, f0, ft, h, solve, stats):
    """The six Rodas4 stages of a step of size h; contract as ``_stages``.

    solve solves (I - h gamma J) z = b with gamma = 0.25.  The last of
    the six right-hand sides is f(t + h, y_new).
    """
    hg = h * _R4_GAMMA
    forced = bool(ft.any())  # the df/dt terms vanish on autonomous pieces
    z = np.empty((6, y.size))
    z[0] = solve(f0 + (h * _R4_D[0]) * ft if forced else f0)
    for i in range(5):
        zi = z[:i + 1]
        ys = y + hg * (_R4_A[i] @ zi)
        fi = np.asarray(rhs(t + _R4_C[i] * h, ys))
        stats.n_rhs += 1
        if not np.isfinite(fi).all():
            return None
        b = fi + _R4_CG[i] @ zi
        if forced and i < 3:
            b += (h * _R4_D[i + 1]) * ft
        z[i + 1] = solve(b)
    err = hg * z[5]
    ynew = ys + err
    fnew = np.asarray(rhs(t + h, ynew))
    stats.n_rhs += 1
    if not np.isfinite(fnew).all():
        return None
    return ynew, fnew, err


@dataclass(frozen=True)
class Method:
    """A Rosenbrock method as ``integrate`` takes it.

    stages(rhs, t, y, f0, ft, h, solve, stats) makes one attempt, with
    solve the solver of (I - h gamma J) z = b, and returns (x(t+h),
    f(t+h, x(t+h)), local error estimate) or None when a stage is not
    finite.  The step-size controller scales h by about
    errnorm**exponent, -1/q for an error estimate that is O(h^q).
    """

    name: str
    stages: Callable
    gamma: float
    exponent: float


ROS23 = Method("Ros2(3)", _stages, _D, -1.0 / 3.0)
RODAS4 = Method("Rodas4", _stages_rodas4, _R4_GAMMA, -0.25)


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
              out: np.ndarray, method: Method = ROS23,
              max_step: float = math.inf) -> Samples:
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
    method : Method
        ROS23 (the default) or RODAS4.
    max_step : float
        Upper bound on every step, > 0; unbounded by default.  Where it
        binds, the rest of the span is split into equal steps.

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
    if not max_step > 0.0:
        raise ValueError(f"max_step must be positive, got {max_step}")
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
            if h_use > max_step:
                # spread the rest of the span evenly over the fewest
                # capped steps, so that the last one ends on tf exactly
                h_use = remaining / math.ceil(remaining / max_step)
            clamped = h_use >= remaining
            if h_use < hmin:
                if nonfinite_seen:
                    raise NonFiniteState(
                        f"state blew up near t={t} (step underflow)")
                raise StepSizeUnderflow(f"step size {h_use:.3e} below "
                                        f"{hmin:.3e} at t={t}")

            solve = _factor(jac, h_use * method.gamma, t)
            stats.n_lu += 1
            step = None if solve is None else method.stages(
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
                        _MIN_FACTOR, _SAFETY * errnorm ** method.exponent))
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
                    0.1, _SAFETY * errnorm ** method.exponent))
            h = h_use * factor

    return Samples(states=out, end_state=y, stats=stats)
