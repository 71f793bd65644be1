"""Finite-difference model of the cable-mass system.

A flexible cable on [0, l] obeys a damped 1D wave equation
(Kelvin-Voigt damping gamma, viscous damping alpha) and carries a
damped mass-spring oscillator at each end.  The left oscillator is
forced by the control input u(t); the right one carries a cubic
stiffening spring.  Displacement compatibility ties the cable ends to
the oscillator positions, so the boundary nodes double as the mass
coordinates.

Interior nodes use second-order centered differences; the oscillator
equations use second-order one-sided differences for the cable traces
w_x(t,0) and w_x(t,l), which keeps second-order accuracy without ghost
nodes.  With d the nodal displacements and v the nodal velocities, the
state is x = [d; v] and the system reads

    x' = A x + F(x) + B u,     y = C x,

where F is zero except for the cubic term -(k3/ml) d_n^3 in the
right-mass velocity equation, and y picks out the position and
velocity of the right mass.

The model is second order: A = [[0, I], [K, G]], and F'(x) adds one
entry to the diagonal of K.  Every stencil couples only neighbouring
nodes except the two one-sided boundary stencils, which reach a third
node.  Adding h/(2 m0) times the second velocity row to the first, and
h/(2 ml) times the second-to-last to the last, cancels that third
coefficient in the beta^2 part and the gamma part alike, so P K and P G
are tridiagonal.  fom_jacobian returns the Jacobian in that form, an
``ode.SecondOrderJacobian``, and the Rosenbrock integrator solves each
of its systems through the tridiagonal velocity Schur complement in the
[d; v] ordering.  fom_rhs multiplies by a cached CSR copy of A through
scipy.sparse's kernel, O(n) per call instead of the dense product's
O(n^2).  The library's own runs step in modal coordinates instead
(``modes``), so fom_rhs and fom_jacobian serve the tests' Rosenbrock
reference runs.

A system's real Schur factor (``StateSpaceSystem.schur``) is computed
once and shared by the spectrum, the Gramians and the input-2
frequencies; its modal factor (``StateSpaceSystem.modes``) is computed
once for the exponential integrator of the energy study and the forced
runs.  A is read-only, so
the tridiagonal pieces, the CSR copy and the factors derived from it
cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import linalg
from .ode import SecondOrderJacobian


class InvalidParams(ValueError):
    """A physical parameter violates its sign constraint."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"invalid parameter: {field}")


class GridTooCoarse(ValueError):
    """Fewer than 3 nodes: the one-sided boundary stencils need 3."""


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

    A is read-only (``build_system`` marks it so): a_second_order,
    a_matvec, schur and modes are derived from it once and kept, and an
    in-place write would leave them stale.
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
    def a_second_order(self) -> SecondOrderJacobian:
        """A as the integrator's SecondOrderJacobian (delta = 0).

        Built on first use and kept: the Gramians and the spectrum need
        only the dense A, the full-order simulations only this.  With
        K = A[n:, :n] and G = A[n:, n:], row 0 of each gains h/(2 m0)
        times row 1 and row n-1 gains h/(2 ml) times row n-2; the
        third stencil coefficients this cancels are dropped, leaving
        P K and P G tridiagonal.
        """
        n = self.n
        p0 = self.grid.h / (2.0 * self.params.m0)
        p1 = self.grid.h / (2.0 * self.params.ml)

        def combined_band(m):
            pm = m.copy()
            pm[0] += p0 * m[1]
            pm[-1] += p1 * m[-2]
            band = np.zeros((3, n), order="F")  # as dgbmv reads it
            band[0, 1:] = np.diagonal(pm, 1)
            band[1] = np.diagonal(pm)
            band[2, :-1] = np.diagonal(pm, -1)
            return band

        return SecondOrderJacobian(linear=self.a,
                                   p=combined_band(np.eye(n)),
                                   pk=combined_band(self.a[n:, :n]),
                                   pg=combined_band(self.a[n:, n:]))

    @cached_property
    def a_matvec(self):
        """y += A x for float arrays x, y of length 2n, for fom_rhs.

        scipy.sparse's CSR kernel on the CSR arrays of A, the call that
        ``csr_array(A) @ x`` ends in, without the dispatch around it,
        which at these sizes costs more than the product.  Built on
        first use and kept, like a_second_order; scipy.sparse is
        imported here, so runs that never evaluate the full-order
        right-hand side never load it.
        """
        from scipy.sparse import csr_array
        from scipy.sparse._sparsetools import csr_matvec

        a, dim = csr_array(self.a), 2 * self.n
        return partial(csr_matvec, dim, dim, a.indptr, a.indices, a.data)

    @cached_property
    def schur(self) -> linalg.SchurForm:
        """The real Schur factor of A, computed on first use and kept.

        The one factor of this system: the spectrum, both Gramians and
        the input-2 frequencies are read off it.
        Its Q, T and eigenvalues are read-only.
        """
        return linalg.real_schur(self.a)

    @cached_property
    def modes(self) -> linalg.ModalForm:
        """The eigendecomposition of A, computed on first use and kept.

        The energy study and the forced runs step in modal
        coordinates; the balancing never pays for it.  Raises
        ``linalg.IllConditionedModes`` where A is nearly defective.
        """
        return linalg.modal_factor(self.a)


@dataclass(frozen=True, eq=False)
class QuadraticForms:
    """Discrete quadratic forms used by the energy diagnostics.

    m_h : mass form (trapezoid weights plus the boundary masses),
    k_v : potential form (beta^2 cell-difference stiffness plus the
    boundary springs), d_sig2 : damping form (gamma-stiffness plus
    alpha-mass plus boundary dampings).  All symmetric PSD.
    """

    m_h: np.ndarray
    k_v: np.ndarray
    d_sig2: np.ndarray


def build_system(params: PhysicalParams, n: int) -> StateSpaceSystem:
    """Assemble the 2n-state finite-difference system.

    Interior rows (i = 2..n-1):

        v_i' = (gamma/h^2)(v_{i+1} - 2 v_i + v_{i-1})
             + (beta^2/h^2)(d_{i+1} - 2 d_i + d_{i-1}) - alpha v_i

    Boundary rows discretize the oscillator equations with the
    second-order one-sided stencils

        w_x(t,0) ~ (-3 d_1 + 4 d_2 - d_3) / (2h)
        w_x(t,l) ~ ( 3 d_n - 4 d_{n-1} + d_{n-2}) / (2h)

    and the input enters the left velocity row with gain 1/m0.
    """
    grid = make_grid(params.l, n)
    h = grid.h
    b2 = params.beta**2
    g = params.gamma

    a = np.zeros((2 * n, 2 * n))
    nodes = np.arange(n)
    a[nodes, n + nodes] = 1.0

    # interior centered differences, all rows at once; += on the zero
    # entries keeps each a signed +0.0 where a coefficient is -0.0
    i = nodes[1:-1]
    row = n + i
    a[row, i - 1] += b2 / h**2
    a[row, i] += -2.0 * b2 / h**2
    a[row, i + 1] += b2 / h**2
    a[row, n + i - 1] += g / h**2
    a[row, n + i] += -2.0 * g / h**2 - params.alpha
    a[row, n + i + 1] += g / h**2

    # left oscillator: m0 v1' = -k0 d1 - alpha0 v1 + trace force + u
    row = n
    a[row, 0] = -params.k0 / params.m0 - 3.0 * b2 / (2.0 * h * params.m0)
    a[row, 1] = 4.0 * b2 / (2.0 * h * params.m0)
    a[row, 2] = -b2 / (2.0 * h * params.m0)
    a[row, n + 0] = -3.0 * g / (2.0 * h * params.m0) - params.alpha0 / params.m0
    a[row, n + 1] = 4.0 * g / (2.0 * h * params.m0)
    a[row, n + 2] = -g / (2.0 * h * params.m0)

    # right oscillator (cubic term stays out of A)
    row = 2 * n - 1
    a[row, n - 1] = -params.kl / params.ml - 3.0 * b2 / (2.0 * h * params.ml)
    a[row, n - 2] = 4.0 * b2 / (2.0 * h * params.ml)
    a[row, n - 3] = -b2 / (2.0 * h * params.ml)
    a[row, 2 * n - 1] = -params.alphal / params.ml - 3.0 * g / (2.0 * h * params.ml)
    a[row, 2 * n - 2] = 4.0 * g / (2.0 * h * params.ml)
    a[row, 2 * n - 3] = -g / (2.0 * h * params.ml)

    b = np.zeros((2 * n, 1))
    b[n, 0] = 1.0 / params.m0

    c = np.zeros((2, 2 * n))
    c[0, n - 1] = 1.0  # right-mass position
    c[1, 2 * n - 1] = 1.0  # right-mass velocity
    a.flags.writeable = False

    return StateSpaceSystem(
        n=n,
        a=a,
        b=b,
        c=c,
        nl_coeff=-params.k3 / params.ml,
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
    """Nonlinear term F(x): zero except -(k3/ml) d_n^3 in the v_n row."""
    x = _check_state(sys, x)
    out = np.zeros_like(x)
    out[sys.nl_target_index] = sys.nl_coeff * x[sys.nl_state_index] ** 3
    return out


def fom_rhs(sys: StateSpaceSystem, x, u: float) -> np.ndarray:
    """Right-hand side A x + F(x) + B u of the full-order model.

    A x goes through ``sys.a_matvec``, the kernel
    ``scipy.sparse.csr_array(sys.a) @ x`` ends in, so it equals that
    product bitwise.
    """
    x = _check_state(sys, x)
    ax = np.zeros(x.size)
    sys.a_matvec(x, ax)
    out = ax + sys.b[:, 0] * u
    out[sys.nl_target_index] += sys.nl_coeff * x[sys.nl_state_index] ** 3
    return out


def fom_jacobian(sys: StateSpaceSystem, x) -> SecondOrderJacobian:
    """State Jacobian: A plus the single cubic derivative entry.

    The cubic entry d(v_n')/d(d_n) is the SecondOrderJacobian's delta,
    on the diagonal of K.  ``.dense()`` gives the [d; v] matrix.
    """
    x = _check_state(sys, x)
    base = sys.a_second_order
    return SecondOrderJacobian(
        base.linear, base.p, base.pk, base.pg,
        delta=3.0 * sys.nl_coeff * x[sys.nl_state_index] ** 2)


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
    """Trapezoid-rule discretizations of the model's quadratic forms.

    The mass form applies trapezoid weights h*(1/2, 1, ..., 1, 1/2) and
    adds m0, ml at the endpoints.  The stiffness quadrature sums cell
    differences, sum_j (w_{j+1} - w_j)^2 / h, a second-order companion
    of the trapezoid mass form.
    """
    grid = make_grid(params.l, n)
    h = grid.h

    trap = np.full(n, h)
    trap[0] = trap[-1] = 0.5 * h

    diff = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    diff[idx, idx] = -1.0
    diff[idx, idx + 1] = 1.0
    stiffness = diff.T @ diff / h

    m_h = np.diag(trap)
    m_h[0, 0] += params.m0
    m_h[-1, -1] += params.ml

    k_v = params.beta**2 * stiffness
    k_v[0, 0] += params.k0
    k_v[-1, -1] += params.kl

    d_sig2 = params.gamma * stiffness + params.alpha * np.diag(trap)
    d_sig2[0, 0] += params.alpha0
    d_sig2[-1, -1] += params.alphal

    return QuadraticForms(m_h=m_h, k_v=k_v, d_sig2=d_sig2)
