from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cablemass import linalg, ode, rom
from cablemass.model import PhysicalParams
from cablemass.signals import (PIECEWISE_CONSTANT, breakpoints, eval_input,
                               eval_input_derivative)

# Damping scenarios used throughout (fixed parameters l=1, m0=1,
# ml=1.5, k3=1, beta=1 are the dataclass defaults).
EXAMPLE1 = PhysicalParams(gamma=0.1, alphal=0.1, k0=1.0, kl=1.0)
EXAMPLE2_SMALL = PhysicalParams(gamma=0.0, alpha=0.01, alpha0=0.01,
                                alphal=0.01, k0=0.01, kl=0.01)
EXAMPLE3 = PhysicalParams(gamma=0.1, alpha=0.1, k0=1.0, kl=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_stable(rng, n, margin=0.5):
    """Random dense matrix shifted to have spectral abscissa <= -margin."""
    a = rng.standard_normal((n, n))
    shift = np.linalg.eigvals(a).real.max() + margin
    return a - shift * np.eye(n)


def modal_blocks(form) -> np.ndarray:
    """The real block-diagonal D of a modal factor, A V = V D.

    Diagonal on the real eigenvalues, and for each pair lambda,
    conj(lambda) on columns j, j + 1 the block [[a, -b], [b, a]] with
    lambda = a + i b, b > 0: the pair's columns are Re v and -Im v.
    """
    lam = form.eigenvalues
    d = np.diag(lam.real)
    j = np.arange(form.n_real, lam.size, 2)
    d[j, j + 1] = -lam[j].imag
    d[j + 1, j] = lam[j].imag
    return d


def dense_forms(forms):
    """(M_H, K_V, D_sig2) as n x n matrices, built from the forms' bands.

    The tests' dense view of ``model.QuadraticForms``, which keeps only
    the diagonal of M_H and the diagonal and first off-diagonal of K_V
    and D_sig2; every entry off those bands is 0.
    """
    n = forms.m_diag.size
    i = np.arange(n - 1)
    mats = []
    for diag, off in ((forms.m_diag, np.zeros(n - 1)),
                      (forms.k_diag, forms.k_off),
                      (forms.d_diag, forms.d_off)):
        mat = np.diag(diag)
        mat[i, i + 1] = mat[i + 1, i] = off
        mats.append(mat)
    return tuple(mats)


def schur_system(a, **matrices):
    """A stand-in system: A, its real Schur factor and any other matrices.

    Carries what ``StateSpaceSystem`` gives the spectrum and Gramian
    readers, ``a`` and ``schur``, for a matrix no finite-difference
    model produces.
    """
    a = np.asarray(a, dtype=float)
    return SimpleNamespace(a=a, schur=linalg.real_schur(a), **matrices)


def lyapunov(a, g):
    """linalg.solve_lyapunov for A P + P A^T + G G^T = 0 on A's own factor."""
    return linalg.solve_lyapunov(a, g, schur=linalg.real_schur(a))


def record_dtrsyl(monkeypatch):
    """Patch linalg.dtrsyl to log its A and B, as the views it is given."""
    calls = []
    real = linalg.dtrsyl

    def recording(a, b, *args):
        calls.append((a, b))
        return real(a, b, *args)

    monkeypatch.setattr(linalg, "dtrsyl", recording)
    return calls


def record_real_schur(monkeypatch):
    """Patch linalg.real_schur to log the order of every matrix it factors."""
    calls = []
    real = linalg.real_schur

    def recording(a):
        calls.append(np.shape(a)[0])
        return real(a)

    monkeypatch.setattr(linalg, "real_schur", recording)
    return calls


def linear_derivatives(a):
    """The exact derivatives of x' = A x, as ``ode.integrate`` keywords.

    Returns {"jacobian": J, "dfdt": df/dt} with J(t, x) = A and
    df/dt = 0; a scalar a stands for the 1 x 1 matrix [[a]].
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    zero = np.zeros(a.shape[0])
    return {"jacobian": lambda t, x: a, "dfdt": lambda t, x: zero}


class IntegrateCall(NamedTuple):
    t0: float
    tf: float
    x0: np.ndarray
    rhs: Callable
    result: ode.Samples


def record_integrate(monkeypatch):
    """Patch ode.integrate to log an IntegrateCall for every call."""
    calls = []
    real = ode.integrate

    def recording(rhs, x0, t0, tf, **kwargs):
        x0 = np.array(x0)  # the caller's start state, as passed
        result = real(rhs, x0, t0, tf, **kwargs)
        calls.append(IntegrateCall(t0, tf, x0, rhs, result))
        return result

    monkeypatch.setattr(ode, "integrate", recording)
    return calls


_INTEGRATE = ode.integrate  # as imported, whatever a test patches later


def node_sampled(rhs, x0, t0, tf, t_eval, out, *, jacobian, **kwargs):
    """ode.integrate's samples, formed from its accepted nodes afterwards.

    Runs integrate with no queries and records every accepted node: the
    state the step from it starts with (integrate passes it to jacobian),
    its derivative (the last rhs value before that), and at tf the end
    state with the last rhs value.  The nodes are then interpolated at
    t_eval by the step that starts at or before each query, so this
    oracle shares only ``ode.sample`` with the streamed path.  Same call
    and result as ode.integrate.
    """
    times, states, marks, derivs = [], [], [], []

    def logged_rhs(t, x):
        derivs.append(rhs(t, x))
        return derivs[-1]

    def logged_jacobian(t, x):
        times.append(t)
        states.append(np.array(x))
        marks.append(len(derivs))
        return jacobian(t, x)

    run = _INTEGRATE(logged_rhs, x0, t0, tf, t_eval=[],
                     out=np.empty((0, np.size(x0))),
                     jacobian=logged_jacobian, **kwargs)
    # node 0's derivative is rhs(t0, x0), called before the start-step probe
    t = np.array([*times, tf])
    y = np.array([*states, run.end_state])
    f = np.array([derivs[0], *(derivs[m - 1] for m in marks[1:]),
                  derivs[-1]])
    q = np.asarray(t_eval, dtype=float)
    idx = np.clip(np.searchsorted(t, q, side="right") - 1, 0, t.size - 2)
    hseg = t[idx + 1] - t[idx]
    s = (q - t[idx]) / hseg
    out[:] = ode.sample(s[:, None], hseg[:, None], y[idx], f[idx],
                        y[idx + 1], f[idx + 1])
    return ode.Samples(states=out, end_state=run.end_state, stats=run.stats)


def integrate_sampled(rhs_fn, jac_fn, model, b, spec, x0, t0, tf,
                      sample_count, rtol, atol):
    """An adaptive ``ode.integrate`` run of a model, sampled on a grid.

    Integrates x' = rhs_fn(model, x, u(t)) from x(t0) = x0 with the
    Ros2(3) pair; jac_fn(model, x) is the state Jacobian and b the input
    column, so df/dt = b u'(t).  Each piece between the input's
    breakpoints is one ``ode.integrate`` call that writes the grid
    points it covers into the rows of one array, with a square wave held
    at its value on that piece, and the next piece starts from its exact
    end state.  Returns the grid of sample_count points on [t0, tf], the
    sampled states and the counters summed over the pieces.  The
    independent reference for the library's ETDRK4 runs, and the
    model-driven exercise of ``ode.integrate``.
    """
    grid = np.linspace(t0, tf, sample_count)
    cuts = breakpoints(spec, t0, tf)
    edges = [float(t0), *cuts.tolist(), float(tf)]
    first = [0, *np.searchsorted(grid, cuts, side="right").tolist(),
             grid.size]
    x = np.asarray(x0, dtype=float)
    states = np.empty((grid.size, x.size))
    stats = ode.IntegratorStats()
    zero = np.zeros(x.size)

    def jac(t, x):
        return jac_fn(model, x)

    for k in range(len(edges) - 1):
        a, c = edges[k], edges[k + 1]
        if spec.kind in PIECEWISE_CONSTANT:
            u = eval_input(spec, 0.5 * (a + c))

            def rhs(t, x, u=u):
                return rhs_fn(model, x, u)

            def dfdt(t, x):
                return zero
        else:
            def rhs(t, x):
                return rhs_fn(model, x, eval_input(spec, t))

            def dfdt(t, x):
                return b * eval_input_derivative(spec, t)

        rows = slice(first[k], first[k + 1])
        piece = ode.integrate(rhs, x, a, c, rtol=rtol, atol=atol,
                              jacobian=jac, dfdt=dfdt, t_eval=grid[rows],
                              out=states[rows])
        stats = stats + piece.stats
        x = piece.end_state
    return grid, states, stats


def first_run_steps(spec, grid) -> int:
    """The steps of a sampled run's coarse first run on grid.

    One per interval of the coarse grid grid[::2] (a jump cuts one in
    two), one per piece of the side step from each even sample to the
    odd one after it, and two per piece to sample 1.
    """
    interval = (grid[-1] - grid[0]) / (grid.size - 1)
    fine = rom._intervals(spec, grid, interval)
    coarse = (rom._intervals(spec, grid, 2.0 * interval, 2).starts.size
              if grid.size > 2 else 0)
    pieces = np.diff(fine.first)[::2]
    return coarse + int(pieces.sum() + pieces[0])
