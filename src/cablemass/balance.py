"""Balanced truncation: Gramians, Hankel values, square-root projection.

For a stable system (A, B, C) the controllability and observability
Gramians solve

    A P + P A^T + B B^T = 0,        A^T Q + Q A + C^T C = 0.

The square-root algorithm factors P = U U^T and Q = L L^T, takes the
SVD  L^T U = Z S Y^T,  and builds the Petrov-Galerkin pair

    T_r = U Y_r S_r^{-1/2},         S_r = S_r^{-1/2} Z_r^T L^T,

with S_r T_r = I_r.  The diagonal of S holds the Hankel singular
values, and truncating after r of them bounds the transfer-function
error in the H-infinity norm by twice the discarded tail.

Both Gramians are solved by ``linalg.solve_lyapunov`` on the system's
one real Schur factor of A, the same read-only factor its spectrum is
read from, given B and C^T, the factors of their right-hand sides;
stability is checked on that factor's cached spectrum, each solve.
Each Gramian is factored by pivoted Cholesky (``linalg.psd_factor``),
which keeps one column per pivot above LAPACK's default tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .model import DimensionMismatch, StateSpaceSystem
from .ode import Etdrk4Table

# Singular values below this fraction of the largest count as rank-deficient.
RANK_TOL = 1e-12
# Gap below this fraction of the local singular value is a Hankel plateau.
PLATEAU_TOL = 1e-9


class RankDeficient(ValueError):
    """Requested order exceeds the numerical rank of the Hankel product."""


class PlateauSplit(ValueError):
    """Truncation would split a run of (numerically) equal Hankel values."""


class SingularShift(ValueError):
    """Transfer function evaluated at an eigenvalue of A."""


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Gramians, Hankel singular values and the projection pair."""

    p: np.ndarray
    q: np.ndarray
    hsv: np.ndarray
    tr: np.ndarray
    sr: np.ndarray
    r: int


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """Projected r-state model plus the low-order cubic descriptor.

    nl_in_weights holds row nl_state_index of T_r (the weights that
    reconstruct the right-mass displacement from reduced coordinates)
    and nl_out_weights holds column nl_target_index of S_r (how the
    cubic force distributes over the reduced equations), so the
    nonlinear term can be evaluated in O(r) without ever forming a
    full-order vector.

    A_r, B_r, C_r and both weight vectors are read-only (``reduce``
    marks them so): etdrk4 is derived from them once and kept, and an
    in-place write would leave it stale.
    """

    ar: np.ndarray
    br: np.ndarray
    cr: np.ndarray
    nl_out_weights: np.ndarray
    nl_in_weights: np.ndarray
    nl_coeff: float
    r: int

    @cached_property
    def etdrk4(self) -> Etdrk4Table:
        """The forced runs' ETDRK4 steps, built on first use.

        The table factors A_r and keeps the factor (``etdrk4.modes``),
        so ``reduce`` never pays for it.  In real modal coordinates, r
        reals of state (one per real eigenvalue of A_r, two per conjugate
        pair), so each of its steps is one real (r + 3) x (r + 6)
        matrix-vector product.  ``rom.simulate_rom`` steps through it:
        each step size's coefficients are built once and kept for every
        later query.
        """
        return Etdrk4Table(self.ar, self.br[:, 0],
                           self.nl_coeff * self.nl_out_weights,
                           self.nl_in_weights, self.cr)


def gramians(sys: StateSpaceSystem) -> tuple[np.ndarray, np.ndarray]:
    """Controllability and observability Gramians of the linear part.

    Two ``linalg.solve_lyapunov`` calls on the system's one real Schur
    factor of A (``sys.schur``), which the spectrum shares: P's with the
    factor B of B B^T, Q's with C^T and ``trans=True``.

    Raises
    ------
    linalg.UnstableSystem
        If A has an eigenvalue with nonnegative real part.
    linalg.SingularBlock, linalg.LyapunovResidual
        As for linalg.solve_lyapunov.
    """
    p = linalg.solve_lyapunov(sys.a, sys.b, schur=sys.schur)
    q = linalg.solve_lyapunov(sys.a, sys.c.T, schur=sys.schur, trans=True)
    return p, q


def _hankel_svd(p, q):
    """Pivoted-Cholesky factors P = U U^T, Q = L L^T and the SVD of L^T U."""
    u = linalg.psd_factor(p)
    l = linalg.psd_factor(q)
    return u, l, linalg.svd(l.T @ u)


def hankel_values(p, q) -> np.ndarray:
    """Hankel singular values: singular values of L^T U.

    Equivalently the square roots of the eigenvalues of P Q.

    Raises
    ------
    linalg.NotPsd
        If either Gramian fails the PSD check.
    """
    return _hankel_svd(p, q)[2].sigma


def square_root_transform(p, q, r: int) -> BalanceResult:
    """Balancing projection of order r from the Gramian pair.

    Raises
    ------
    RankDeficient
        If r exceeds the numerical rank of L^T U.
    PlateauSplit
        If sigma_r and sigma_{r+1} coincide numerically.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    u, l, res = _hankel_svd(p, q)
    sig = res.sigma
    if sig.size == 0 or sig[0] == 0.0:
        raise RankDeficient("Hankel product is numerically zero")
    rank = int(np.count_nonzero(sig > RANK_TOL * sig[0]))
    if r < 1 or r > rank:
        raise RankDeficient(f"order {r} exceeds numerical rank {rank}")
    if r < sig.size and (sig[r - 1] - sig[r]) <= PLATEAU_TOL * sig[r - 1]:
        raise PlateauSplit(
            f"sigma_{r} == sigma_{r + 1} = {sig[r]:.6e}; truncation inside a "
            "Hankel plateau is ill-defined")
    inv_sqrt = 1.0 / np.sqrt(sig[:r])
    tr = u @ (res.v[:, :r] * inv_sqrt)
    sr = (inv_sqrt[:, None] * res.u[:, :r].T) @ l.T
    return BalanceResult(p=p, q=q, hsv=sig[:rank], tr=tr, sr=sr, r=r)


def reduce(sys: StateSpaceSystem, bal: BalanceResult) -> ReducedSystem:
    """Project the full-order system onto the balancing pair.

    A_r = S_r A T_r, B_r = S_r B, C_r = C T_r, and the cubic descriptor
    is carried over through the two weight vectors.
    """
    two_n = sys.a.shape[0]
    if bal.tr.shape[0] != two_n or bal.sr.shape[1] != two_n:
        raise DimensionMismatch(
            f"projection is {bal.tr.shape[0]}-state, system is {two_n}-state")
    arrays = dict(ar=bal.sr @ sys.a @ bal.tr, br=bal.sr @ sys.b,
                  cr=sys.c @ bal.tr,
                  nl_out_weights=bal.sr[:, sys.nl_target_index].copy(),
                  nl_in_weights=bal.tr[sys.nl_state_index, :].copy())
    for arr in arrays.values():
        arr.flags.writeable = False
    return ReducedSystem(**arrays, nl_coeff=sys.nl_coeff, r=bal.r)


def error_bound(hsv, r: int) -> float:
    """A-priori H-infinity error bound 2 * sum of the discarded tail."""
    hsv = np.asarray(hsv, dtype=float)
    if r < 0 or r > hsv.size:
        raise ValueError(f"r must lie in [0, {hsv.size}], got {r}")
    return float(2.0 * np.sum(hsv[r:]))


def transfer_function(a, b, c, s: complex) -> np.ndarray:
    """Transfer function G(s) = C (s I - A)^{-1} B by linear solve.

    Raises
    ------
    SingularShift
        If s is an eigenvalue of A.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a.shape[0]
    shifted = s * np.eye(n) - a
    try:
        x = np.linalg.solve(shifted, b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularShift(f"s = {s} is an eigenvalue of A") from exc
    return c @ x
