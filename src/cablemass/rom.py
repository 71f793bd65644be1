"""Reduced-order simulation with the exact low-order cubic term.

The projected nonlinearity S_r F(T_r a) needs only the right-mass
displacement row of T_r and the cubic-force column of S_r:

    [S_r F(T_r a)]_i = nl_coeff * psi_i * (sum_j phi_j a_j)^3,

so a ROM step costs O(r) regardless of the full order.  FOM and ROM
trajectories are integrated from zero initial data with the analytic
Jacobian and sampled onto a uniform comparison grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ode
from .balance import ReducedSystem
from .model import DimensionMismatch, StateSpaceSystem, fom_jacobian, fom_rhs
from .signals import InputSpec, eval_input


@dataclass(frozen=True, eq=False)
class OutputSeries:
    """Output samples y(t) on a uniform grid, plus the integrator counters.

    The adaptive trajectory itself is dropped once sampled: at n = 200
    it holds about 20 MB of states and derivatives.
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


def simulate_rom(red: ReducedSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the nonlinear ROM from a(0) = 0; return y_r = C_r a."""

    def rhs(t, a):
        return rom_rhs(red, a, eval_input(spec, t))

    def jac(t, a):
        return rom_jacobian(red, a)

    traj = ode.integrate(rhs, np.zeros(red.r), t0, tf, rtol=rtol, atol=atol,
                         jacobian=jac)
    grid = np.linspace(t0, tf, sample_count)
    states = ode.sample(traj, grid)
    return OutputSeries(times=grid, values=states @ red.cr.T,
                        stats=traj.stats)


def simulate_fom(sys: StateSpaceSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the full-order model from x(0) = 0; return y = C x."""

    def rhs(t, x):
        return fom_rhs(sys, x, eval_input(spec, t))

    def jac(t, x):
        return fom_jacobian(sys, x)

    traj = ode.integrate(rhs, np.zeros(2 * sys.n), t0, tf, rtol=rtol,
                         atol=atol, jacobian=jac)
    grid = np.linspace(t0, tf, sample_count)
    states = ode.sample(traj, grid)
    return OutputSeries(times=grid, values=states @ sys.c.T,
                        stats=traj.stats)
