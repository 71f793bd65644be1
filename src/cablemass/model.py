"""Finite-difference model of the cable-mass system.

A flexible cable on [0, l] obeys a damped 1D wave equation
(Kelvin-Voigt damping gamma, viscous damping alpha) and carries a
damped mass-spring oscillator at each end.  The left oscillator is
forced by the control input u(t); the right one carries a cubic
stiffening spring.  Displacement compatibility ties the cable ends to
the oscillator positions, so the boundary nodes double as the mass
coordinates.

Three quadratic forms on the nodal values define the discretization
(``quadratic_forms``): the mass form M_H, the potential form K_V and the
damping form D_sig2 of lumped-mass linear elements, a summation-by-parts
closure in which each boundary mass carries its half cell h/2 of cable.
M_H is diagonal and K_V and D_sig2 tridiagonal, and the forms are kept
as those bands (``QuadraticForms``), which A and the energy both read.
With d the nodal displacements and v the nodal velocities, the state is
x = [d; v] and the system reads

    x' = A x + F(x) + B u,     y = C x,

where F is zero except for the cubic term -(k3/(M_H)_nn) d_n^3 in the
right-mass velocity equation, and y picks out the position and
velocity of the right mass.  The energy of ``analysis`` obeys
dE/dt = -v^T D_sig2 v + v_1 u exactly.

fom_rhs and fom_jacobian evaluate the model with the dense A; they
serve the tests' Rosenbrock reference runs, while the library's own
runs step in modal coordinates.

A system's real Schur factor (``StateSpaceSystem.schur``) is computed
once and shared by the spectrum, the Gramians and the input-2
frequencies.  The energy study and the forced runs step through one
ETDRK4 table (``StateSpaceSystem.etdrk4``), built once, which factors A
and keeps the real modal factor (``sys.etdrk4.modes``).  A, b and c are
read-only, so the factors and table derived from them cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .ode import Etdrk4Table


class InvalidParams(ValueError):
    """A physical parameter violates its sign constraint."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"invalid parameter: {field}")


class GridTooCoarse(ValueError):
    """Fewer than 3 nodes: the grid keeps one cable node between the masses."""


class DimensionMismatch(ValueError):
    """A vector or matrix has a size inconsistent with the system."""


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the cable-mass model.

    l : cable length; m0, ml : boundary masses; k0, kl : linear boundary
    stiffnesses; k3 : cubic stiffness of the right spring; beta : wave
    speed coefficient; gamma : Kelvin-Voigt damping; alpha : interior
    viscous damping; alpha0, alphal : boundary viscous dampings.

    Lengths, masses, linear stiffnesses and beta must be positive;
    dampings and the cubic stiffness must be nonnegative (k3 = 0 gives
    the linear variant of the model).
    """

    l: float = 1.0
    m0: float = 1.0
    ml: float = 1.5
    k0: float = 1.0
    kl: float = 1.0
    k3: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    alpha: float = 0.0
    alpha0: float = 0.0
    alphal: float = 0.0

    def __post_init__(self):
        for field in ("l", "m0", "ml", "k0", "kl", "beta"):
            value = getattr(self, field)
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidParams(field, f"{field} must be positive, got {value}")
        for field in ("k3", "gamma", "alpha", "alpha0", "alphal"):
            value = getattr(self, field)
            if not np.isfinite(value) or value < 0.0:
                raise InvalidParams(field, f"{field} must be nonnegative, got {value}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Equally spaced nodes x_j = (j-1) h on [0, l], j = 1..n."""

    n: int
    h: float
    nodes: np.ndarray


def make_grid(l: float, n: int) -> Grid:
    if n < 3:
        raise GridTooCoarse(f"need at least 3 nodes, got {n}")
    return Grid(n=n, h=l / (n - 1), nodes=np.linspace(0.0, l, n))


@dataclass(frozen=True, eq=False)
class StateSpaceSystem:
    """Dense state-space form of the discretized cable-mass model.

    State ordering is x = [d_1..d_n, v_1..v_n], so A has the block form
    [[0, I], [A11, A12]].  The cubic boundary term is deliberately kept
    out of A and described by (nl_coeff, nl_state_index,
    nl_target_index): the full nonlinearity is
    nl_coeff * x[nl_state_index]**3 added to row nl_target_index.
    Keeping the descriptor explicit is what makes the exact low-order
    evaluation in the reduced model possible.

    A, b and c are read-only (``build_system`` marks them so): schur
    and etdrk4 are derived from them once and kept, and an in-place
    write would leave them stale.
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    nl_coeff: float
    nl_state_index: int
    nl_target_index: int
    params: PhysicalParams
    grid: Grid

    @cached_property
    def schur(self) -> linalg.SchurForm:
        """The real Schur factor of A, computed on first use and kept.

        The one factor of this system: the spectrum (``dgees``'s, kept
        with Q and T), both Gramians and the input-2 frequencies are
        read off it.  Its Q, T and eigenvalues are read-only.
        """
        return linalg.real_schur(self.a)

    @cached_property
    def etdrk4(self) -> Etdrk4Table:
        """The ETDRK4 steps in real modal coordinates, built on first use.

        The table factors A and keeps the factor (``etdrk4.modes``), so
        the balancing never pays for it: 2n reals of state, one per real
        eigenvalue of A and two per conjugate pair.  ``rom.simulate_fom``
        and ``analysis.energy_decay`` step through it: each step size's
        coefficients are built once and kept for every later run of
        either, and so are the output map and the real modal basis V
        the energy study samples the state through.
        """
        dim = 2 * self.n
        target, row = np.zeros(dim), np.zeros(dim)
        target[self.nl_target_index] = self.nl_coeff
        row[self.nl_state_index] = 1.0
        return Etdrk4Table(self.a, self.b[:, 0], target, row, self.c)


@dataclass(frozen=True, eq=False)
class QuadraticForms:
    """The three energy forms, symmetric PSD, as their bands.

    m_diag : diagonal of the mass form M_H (trapezoid weights plus the
    boundary masses); k_diag, k_off : diagonal and first off-diagonal of
    the potential form K_V (beta^2 cell-difference stiffness plus the
    boundary springs); d_diag, d_off : those of the damping form D_sig2
    (gamma-stiffness plus alpha-mass plus boundary dampings).  M_H is
    diagonal and K_V and D_sig2 tridiagonal, so no other entry is kept.
    A's velocity rows and the energy norms read these bands.  They are
    read-only copies of the arrays given, so k_row_sums cannot go stale.
    """

    m_diag: np.ndarray
    k_diag: np.ndarray
    k_off: np.ndarray
    d_diag: np.ndarray
    d_off: np.ndarray

    def __post_init__(self):
        for field in ("m_diag", "k_diag", "k_off", "d_diag", "d_off"):
            arr = np.array(getattr(self, field), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @cached_property
    def k_row_sums(self) -> np.ndarray:
        """K_V's row sums for the energy norms, formed once, read-only."""
        row_sums = (self.k_diag + np.append(self.k_off, 0.0)
                    + np.append(0.0, self.k_off))
        row_sums.flags.writeable = False
        return row_sums


def _form_bands(params: PhysicalParams, h: float, n: int) -> QuadraticForms:
    """The three energy forms on n nodes of spacing h, as their bands.

    M_H's diagonal holds the trapezoid weights h*(1/2, 1, ..., 1, 1/2)
    plus m0, ml at the ends; K_V and D_sig2 are the cell-difference
    stiffness sum_j (w_(j+1) - w_j)^2 / h times beta^2 and gamma, D_sig2
    plus alpha times the trapezoid weights, and the boundary springs and
    dampings at the ends.
    """
    trap = np.full(n, h)
    trap[0] = trap[-1] = 0.5 * h
    stiff = np.full(n, 2.0 / h)
    stiff[0] = stiff[-1] = 1.0 / h
    b2 = params.beta**2

    m, k_diag = trap.copy(), b2 * stiff
    d_diag = params.gamma * stiff + params.alpha * trap
    ends = ((m, params.m0, params.ml), (k_diag, params.k0, params.kl),
            (d_diag, params.alpha0, params.alphal))
    for band, left, right in ends:
        band[0] += left
        band[-1] += right
    off = -1.0 / h
    return QuadraticForms(m, k_diag, np.full(n - 1, b2 * off), d_diag,
                          np.full(n - 1, params.gamma * off))


def build_system(params: PhysicalParams, n: int) -> StateSpaceSystem:
    """Assemble the 2n-state system from the energy forms.

    A = [[0, I], [-M_H^-1 K_V, -M_H^-1 D_sig2]], the input column is
    e_1 / (M_H)_11 in the v_1 row and the cubic coefficient is
    -k3 / (M_H)_nn, all read off the forms' bands (``_form_bands``, the
    ``QuadraticForms`` that ``quadratic_forms`` returns too).  M_H is
    diagonal, so both velocity blocks are
    tridiagonal.  Interior rows (i = 2..n-1) are the centered differences

        v_i' = (gamma/h^2)(v_{i+1} - 2 v_i + v_{i-1})
             + (beta^2/h^2)(d_{i+1} - 2 d_i + d_{i-1}) - alpha v_i

    and each boundary row is its oscillator's equation with the half
    cell h/2 of cable next to the mass moving with it:

        (m0 + h/2) v_1' = -k0 d_1 - alpha0 v_1 + (beta^2/h)(d_2 - d_1)
                          + (gamma/h)(v_2 - v_1) - (h/2) alpha v_1 + u.

    With H = blkdiag(K_V, M_H), sym(H A) = blkdiag(0, -D_sig2), so the
    unforced energy obeys dE/dt = -v^T D_sig2 v <= 0 exactly.
    """
    grid = make_grid(params.l, n)
    forms = _form_bands(params, grid.h, n)
    m = forms.m_diag

    a = np.zeros((2 * n, 2 * n))
    _set_band(a, 0, n, np.ones(n))
    # row i of each velocity block is row i of its form over -m_i
    for col, diag, off in ((0, forms.k_diag, forms.k_off),
                           (n, forms.d_diag, forms.d_off)):
        _set_band(a, n, col, -diag / m)
        _set_band(a, n + 1, col, -off / m[1:])
        _set_band(a, n, col + 1, -off / m[:-1])

    b = np.zeros((2 * n, 1))
    b[n, 0] = 1.0 / m[0]

    c = np.zeros((2, 2 * n))
    c[0, n - 1] = 1.0  # right-mass position
    c[1, 2 * n - 1] = 1.0  # right-mass velocity
    for arr in (a, b, c):
        arr.flags.writeable = False

    return StateSpaceSystem(
        n=n,
        a=a,
        b=b,
        c=c,
        nl_coeff=-params.k3 / m[-1],
        nl_state_index=n - 1,
        nl_target_index=2 * n - 1,
        params=params,
        grid=grid,
    )


def _check_state(sys: StateSpaceSystem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * sys.n,):
        raise DimensionMismatch(f"state must have shape ({2 * sys.n},), got {x.shape}")
    return x


def eval_nonlinearity(sys: StateSpaceSystem, x) -> np.ndarray:
    """Nonlinear term F(x): zero except -(k3/(M_H)_nn) d_n^3 in the v_n row."""
    x = _check_state(sys, x)
    out = np.zeros_like(x)
    out[sys.nl_target_index] = sys.nl_coeff * x[sys.nl_state_index] ** 3
    return out


def fom_rhs(sys: StateSpaceSystem, x, u: float) -> np.ndarray:
    """Right-hand side A x + F(x) + B u of the full-order model."""
    x = _check_state(sys, x)
    out = sys.a @ x + sys.b[:, 0] * u
    out[sys.nl_target_index] += sys.nl_coeff * x[sys.nl_state_index] ** 3
    return out


def fom_jacobian(sys: StateSpaceSystem, x) -> np.ndarray:
    """State Jacobian, dense: A plus the one cubic entry d(v_n')/d(d_n)."""
    x = _check_state(sys, x)
    jac = sys.a.copy()
    jac[sys.nl_target_index, sys.nl_state_index] += (
        3.0 * sys.nl_coeff * x[sys.nl_state_index] ** 2)
    return jac


def sample_initial_data(params: PhysicalParams, n: int, pos, vel) -> np.ndarray:
    """Sample position/velocity profiles onto the grid.

    The boundary masses inherit the endpoint samples, so the sampled
    state satisfies the displacement compatibility condition by
    construction.
    """
    grid = make_grid(params.l, n)
    d = np.array([float(pos(x)) for x in grid.nodes])
    v = np.array([float(vel(x)) for x in grid.nodes])
    x0 = np.concatenate([d, v])
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial data functions produced non-finite values")
    return x0


def quadratic_forms(params: PhysicalParams, n: int) -> QuadraticForms:
    """The three energy forms on n nodes: the bands A is built from."""
    return _form_bands(params, make_grid(params.l, n).h, n)


def _set_band(a: np.ndarray, row: int, col: int, values: np.ndarray) -> None:
    """Write values down the diagonal of the square a from (row, col) on."""
    step = a.shape[1] + 1
    start = row * a.shape[1] + col
    a.reshape(-1)[start:start + values.size * step:step] = values
