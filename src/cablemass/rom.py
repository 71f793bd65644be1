"""Reduced-order simulation with the exact low-order cubic term.

The projected nonlinearity S_r F(T_r a) needs only the right-mass
displacement row of T_r and the cubic-force column of S_r:

    [S_r F(T_r a)]_i = nl_coeff * psi_i * (sum_j phi_j a_j)^3,

so a ROM step costs O(r) regardless of the full order.  FOM and ROM
runs are integrated from zero initial data with the analytic Jacobian,
and the integrator writes the dense output straight onto a uniform
comparison grid: no run holds its adaptive trajectory, so memory grows
with the sample count, not with the step count.

Both models are autonomous apart from the input term B u(t), so the
integrator gets the exact df/dt = B u'(t).  The span is cut at the
input's breakpoints (the square wave's jumps) and each piece is
integrated from the end state of the one before, with the square wave
held at its constant value on that piece; no right-hand side is ever
evaluated on a jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .balance import ReducedSystem
from .model import DimensionMismatch, StateSpaceSystem, fom_jacobian, fom_rhs
from .signals import (PIECEWISE_CONSTANT, InputSpec, breakpoints, eval_input,
                      eval_input_derivative)


@dataclass(frozen=True, eq=False)
class OutputSeries:
    """Output samples y(t) on a uniform grid, plus the integrator counters.

    No adaptive trajectory is ever held: the integrator samples its dense
    output at the grid as it goes (a kept trajectory would be about 20 MB
    of states and derivatives at n = 200).
    """

    times: np.ndarray
    values: np.ndarray
    stats: ode.IntegratorStats


def _check_reduced_state(red: ReducedSystem, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (red.r,):
        raise DimensionMismatch(f"reduced state must have shape ({red.r},), "
                                f"got {a.shape}")
    return a


def _cubic(red: ReducedSystem, a: np.ndarray) -> np.ndarray:
    s = red.nl_in_weights @ a
    return (red.nl_coeff * s**3) * red.nl_out_weights


def rom_nonlinear(red: ReducedSystem, a) -> np.ndarray:
    """Projected cubic term, evaluated in O(r)."""
    return _cubic(red, _check_reduced_state(red, a))


def rom_rhs(red: ReducedSystem, a, u: float) -> np.ndarray:
    """Right-hand side A_r a + B_r u + S_r F(T_r a)."""
    a = _check_reduced_state(red, a)
    return red.ar @ a + red.br[:, 0] * u + _cubic(red, a)


def rom_jacobian(red: ReducedSystem, a) -> np.ndarray:
    """Reduced state Jacobian: A_r plus the rank-one cubic derivative."""
    a = _check_reduced_state(red, a)
    s = red.nl_in_weights @ a
    return red.ar + (3.0 * red.nl_coeff * s**2) * np.outer(
        red.nl_out_weights, red.nl_in_weights)


def _integrate_sampled(rhs_fn, jac_fn, model, b: np.ndarray, spec: InputSpec,
                       x0, t0: float, tf: float, sample_count: int,
                       rtol: float, atol: float):
    """Integrate x' = rhs_fn(model, x, u(t)) from x(t0) = x0; sample x.

    jac_fn(model, x) is the state Jacobian and b the input column, so
    df/dt = b u'(t).  Callers pass the model functions as their own
    module looks them up at call time, so a wrapper patched onto those
    names (``perfbench/tracing.py``) sees every call.  Each piece between
    the input's breakpoints is one ``ode.integrate`` call that writes the
    grid points it covers straight into the rows of one preallocated
    array, and the next piece starts from its exact end state; a grid
    point on a breakpoint gets that state.  Returns the grid of sample_count points on [t0, tf], the
    sampled states and the integrator counters summed over the pieces.
    """
    grid = np.linspace(t0, tf, sample_count)
    cuts = breakpoints(spec, t0, tf)
    # plain floats: the integrator's time arithmetic is scalar Python
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

            def rhs(t, x, u=u):  # bound now: this piece's input value
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


def simulate_rom(red: ReducedSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the nonlinear ROM from a(0) = 0; return y_r = C_r a."""
    grid, states, stats = _integrate_sampled(
        rom_rhs, rom_jacobian, red, red.br[:, 0], spec, np.zeros(red.r), t0,
        tf, sample_count, rtol, atol)
    return OutputSeries(times=grid, values=states @ red.cr.T, stats=stats)


def simulate_fom(sys: StateSpaceSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the full-order model from x(0) = 0; return y = C x."""
    grid, states, stats = _integrate_sampled(
        fom_rhs, fom_jacobian, sys, sys.b[:, 0], spec, np.zeros(2 * sys.n),
        t0, tf, sample_count, rtol, atol)
    return OutputSeries(times=grid, values=states @ sys.c.T, stats=stats)
