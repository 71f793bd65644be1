"""Dense linear-algebra kernels for balancing and the energy study.

Factorizations (real Schur, SVD, symmetric eigendecomposition) are
delegated to LAPACK through scipy/numpy.  The continuous Lyapunov
equation is solved by the Bartels-Stewart method (R. H. Bartels and
G. W. Stewart, "Solution of the matrix equation AX + XB = C", Comm. ACM
15(9), 1972): reduce the coefficient matrix to real Schur form, then
solve the quasi-triangular Lyapunov equation.  That solve is recursive
and blocked (I. Jonsson and B. Kagstrom, "Recursive blocked algorithms
for solving triangular systems - Part I: one-sided and coupled Sylvester-
type matrix equations", ACM TOMS 28(4), 2002): it halves the triangular
factor until the blocks are small enough for LAPACK ``xTRSYL``, so most
of the work runs as matrix products.

A system is factored once: ``StateSpaceSystem.schur`` caches a read-only
factor, and the spectrum, both Gramians and the input-2 frequencies all
read it.  ``eigenvalues`` and ``solve_lyapunov`` factor a bare matrix.

``modal_factor`` diagonalises A = V diag(lambda) V^-1 for the exponential
integrator of the energy study, which steps in the coordinates y = V^-1 x
(``StateSpaceSystem.modes`` caches it).  V is kept as its LU factors, and
its condition number is estimated from them by LAPACK ``zgecon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrsyl, zgecon, zgetrf, zgetrs


class NonConvergence(RuntimeError):
    """An iterative LAPACK factorization exhausted its iteration budget."""


class NotPsd(ValueError):
    """A symmetric matrix has a negative eigenvalue beyond tolerance."""


class NotSymmetric(NotPsd):
    """A matrix that must be symmetric is not, to 1e-10 relative."""


class UnstableSystem(ValueError):
    """A system matrix has an eigenvalue with nonnegative real part."""


class SingularBlock(RuntimeError):
    """LAPACK had to perturb a near-singular eigenvalue sum T_ii + T_jj."""


class LyapunovResidual(RuntimeError):
    """A Lyapunov solution misses the backward-error contract."""


class IllConditionedModes(ValueError):
    """A's eigenvector matrix is too ill-conditioned to change basis by."""


# Relative eigenvalue threshold below which psd_factor drops a mode.
PSD_RANK_DROP = 1e-12
# Most negative eigenvalue tolerated by psd_factor, relative to the largest.
PSD_NEG_TOL = 1e-8
# Largest backward error of a Lyapunov solution (see solve_lyapunov).
LYAP_BACKWARD_TOL = 1e-12
# Largest order that the recursive Lyapunov solver hands to dtrsyl whole.
_TRSYL_LEAF = 64
# Largest 1-norm condition number of the eigenvector matrix modal_factor
# accepts.  The change of basis x -> V^-1 x -> x can lose about cond * eps
# relative, 2e-8 here.  The finite-difference models measure 4.6e3 to
# 2.4e5 at n = 100 to 400.
MODAL_COND_MAX = 1e8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Real Schur decomposition A = Q T Q^T.

    Q is orthogonal and T is quasi-upper-triangular with 1x1 blocks for
    real eigenvalues and 2x2 blocks for complex-conjugate pairs.  Both
    are read-only: one factor is shared by every consumer of a system's
    spectrum, so a reordering (``dtrsen``) must work on a copy.
    """

    q: np.ndarray
    t: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A in the order of the blocks of T (read-only).

        Read off T once per factor and kept.
        """
        eigs = _block_eigenvalues(self.t)
        eigs.flags.writeable = False
        return eigs


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Thin singular value decomposition M = U diag(sigma) V^T.

    U and V have orthonormal columns; sigma is nonincreasing and
    nonnegative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class ModalForm:
    """Eigendecomposition A = V diag(eigenvalues) V^-1 of a real matrix.

    V (``v``, unit columns) is kept with its LU factors (``lu``, ``piv``,
    LAPACK ``zgetrf`` form), from which ``solve`` applies V^-1; cond is
    the ``zgecon`` estimate of its 1-norm condition number.  The arrays
    are read-only.  Complex-conjugate eigenvalues come with conjugate
    eigenvectors, so V^-1 x of a real x is conjugate-symmetric.
    """

    eigenvalues: np.ndarray
    v: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    cond: float

    def solve(self, b) -> np.ndarray:
        """V^-1 b for a vector or a matrix b, by ``zgetrs``."""
        z, info = zgetrs(self.lu, self.piv, np.asarray(b, dtype=complex))
        if info < 0:
            raise ValueError(f"zgetrs: argument {-info} is invalid")
        return z


def modal_factor(a) -> ModalForm:
    """Eigenvalues, eigenvectors and the LU of the eigenvector matrix of A.

    Raises
    ------
    NonConvergence
        If the QR iteration fails to converge (pathological input).
    IllConditionedModes
        If the eigenvector matrix is singular, or its estimated 1-norm
        condition number exceeds ``MODAL_COND_MAX`` (a defective or
        nearly defective A).
    """
    a = _as_square(a)
    try:
        eigs, v = scipy.linalg.eig(a)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK budget
        raise NonConvergence(str(exc)) from exc
    lu, piv, info = zgetrf(v)
    if info < 0:
        raise ValueError(f"zgetrf: argument {-info} is invalid")
    cond = math.inf
    if info == 0:
        rcond, info = zgecon(lu, np.abs(v).sum(axis=0).max(), norm="1")
        if info < 0:
            raise ValueError(f"zgecon: argument {-info} is invalid")
        if rcond > 0.0:
            cond = 1.0 / rcond
    if not cond <= MODAL_COND_MAX:
        raise IllConditionedModes(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{MODAL_COND_MAX:.0e}")
    for arr in (eigs, v, lu, piv):
        arr.flags.writeable = False
    return ModalForm(eigenvalues=eigs, v=v, lu=lu, piv=piv, cond=float(cond))


def real_schur(a) -> SchurForm:
    """Real Schur decomposition of a square matrix.

    Raises
    ------
    NonConvergence
        If the QR iteration fails to converge (pathological input).
    """
    a = _as_square(a)
    try:
        t, q = scipy.linalg.schur(a, output="real")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK budget
        raise NonConvergence(str(exc)) from exc
    q.flags.writeable = False
    t.flags.writeable = False
    return SchurForm(q=q, t=t)


def _block_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Eigenvalues read off the diagonal blocks of a real Schur factor.

    LAPACK standardizes each 2x2 block to [[a, b], [c, a]] with b c < 0,
    so its pair is a +- i sqrt(-b c), in the order of the blocks on the
    diagonal of T.
    """
    eigs = np.diagonal(t).astype(complex)
    starts = np.flatnonzero(np.diagonal(t, -1))
    w = np.sqrt(-t[starts, starts + 1] * t[starts + 1, starts])
    eigs.imag[starts] = w
    eigs.imag[starts + 1] = -w
    return eigs


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square real matrix, via the real Schur form."""
    return real_schur(a).eigenvalues


def svd(m) -> SvdResult:
    """Thin SVD of a real matrix.

    Raises
    ------
    NonConvergence
        If the SVD iteration fails to converge.
    """
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK budget
        raise NonConvergence(str(exc)) from exc
    return SvdResult(u=u, sigma=s, v=vt.T)


def psd_factor(p) -> np.ndarray:
    """Rank-revealing factor F of a symmetric PSD matrix, P = F F^T.

    Computed from the symmetric eigendecomposition.  Eigenvalues below
    ``PSD_RANK_DROP`` times the largest are truncated, so F has one
    column per numerically significant mode.  Gramians of lightly
    damped systems are routinely semidefinite, which is why this is
    preferred over a Cholesky factorization.

    Raises
    ------
    NotPsd
        If P is not symmetric to 1e-10 (relative; raised as the subclass
        NotSymmetric) or has a negative eigenvalue beyond
        ``PSD_NEG_TOL`` times the largest magnitude.
    """
    p = _as_square(p, "P")
    _check_symmetric(p, "P")
    w, v = np.linalg.eigh(0.5 * (p + p.T))
    scale = np.max(np.abs(w)) if w.size else 0.0
    if scale == 0.0:
        return np.zeros((p.shape[0], 0))
    if w[0] < -PSD_NEG_TOL * scale:
        raise NotPsd(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
    keep = w > PSD_RANK_DROP * scale
    return v[:, keep] * np.sqrt(w[keep])


def _check_symmetric(m: np.ndarray, name: str) -> None:
    """Raise NotSymmetric unless ||M - M^T|| <= 1e-10 ||M|| (Frobenius)."""
    mnorm = np.linalg.norm(m)
    if mnorm > 0 and np.linalg.norm(m - m.T) > 1e-10 * mnorm:
        raise NotSymmetric(f"{name} is not symmetric")


def _trsyl(a: np.ndarray, b: np.ndarray, c: np.ndarray, trana: str,
           tranb: str) -> np.ndarray:
    """LAPACK dtrsyl: X with op(A) X + X op(B) = C, its scale divided out."""
    x, scale, info = dtrsyl(a, b, c, trana, tranb)
    if info < 0:
        raise ValueError(f"dtrsyl: argument {-info} is invalid")
    if info == 1:
        raise SingularBlock(
            "near-singular eigenvalue sum T_ii + T_jj in dtrsyl")
    if scale != 1.0:
        x /= scale
    return x


def _trlyap(t: np.ndarray, c: np.ndarray, trans: bool) -> None:
    """Overwrite symmetric C with Y solving op(T) Y + Y op(T)^T = C.

    T is quasi-triangular and op(T) is T, or T^T when trans.  Recursive
    blocked Bartels-Stewart (Jonsson and Kagstrom 2002): split T between
    two diagonal blocks, solve the two half-size Lyapunov equations
    recursively and the Sylvester equation for Y12 with one dtrsyl, and
    apply the coupling terms as matrix products.  Orders up to
    ``_TRSYL_LEAF`` go to dtrsyl whole.
    """
    n = t.shape[0]
    if n <= _TRSYL_LEAF:
        c[...] = _trsyl(t, t, c, *(("T", "N") if trans else ("N", "T")))
        return
    k = n // 2
    if t[k, k - 1] != 0.0:  # never split a 2x2 block
        k += 1
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    c11, c12, c22 = c[:k, :k], c[:k, k:], c[k:, k:]
    if trans:
        # T11^T Y11 + Y11 T11 = C11 first, then Y12, then Y22.
        _trlyap(t11, c11, True)
        c12 -= c11 @ t12
        c12[...] = _trsyl(t11, t22, c12, "T", "N")
        x = t12.T @ c12
        c22 -= x
        c22 -= x.T
        _trlyap(t22, c22, True)
    else:
        # T22 Y22 + Y22 T22^T = C22 first, then Y12, then Y11.
        _trlyap(t22, c22, False)
        c12 -= t12 @ c22
        c12[...] = _trsyl(t11, t22, c12, "N", "T")
        x = t12 @ c12.T
        c11 -= x
        c11 -= x.T
        _trlyap(t11, c11, False)
    c[k:, :k] = c12.T


def check_stable(form: SchurForm) -> None:
    """Raise UnstableSystem unless every eigenvalue has negative real part."""
    eigs = form.eigenvalues
    if eigs.size and eigs.real.max() >= 0.0:
        raise UnstableSystem(
            f"eigenvalue with real part {eigs.real.max():.3e} >= 0")


def _lyapunov_on_schur(a: np.ndarray, form: SchurForm, w: np.ndarray,
                       trans: bool = False) -> np.ndarray:
    """Solve op(A) P + P op(A)^T + W = 0 given A = Q T Q^T.

    op(A) is A, or A^T when trans, so both Gramians share one factor.
    W must be symmetric: the recursive solve fills the lower off-diagonal
    blocks of the solution by symmetry.  The caller checks stability
    (``check_stable``), once for all solves on the factor.
    """
    q = form.q
    t = np.asfortranarray(form.t)
    op_a = a.T if trans else a
    wnorm = np.linalg.norm(w)
    p = np.zeros_like(w)
    resid = w
    for _ in range(2):
        y = q.T @ resid @ q
        _trlyap(t, y, trans)
        p -= q @ y @ q.T
        p += p.T
        p *= 0.5
        # P is symmetric, so op(A) P + P op(A)^T = X + X^T with X = op(A) P.
        resid = op_a @ p
        resid += resid.T
        resid += w
        rnorm = np.linalg.norm(resid)
        if rnorm <= 1e-11 * max(wnorm, 1e-300):
            break
    denom = 2.0 * np.linalg.norm(a) * np.linalg.norm(p) + wnorm
    if rnorm > LYAP_BACKWARD_TOL * denom:
        raise LyapunovResidual(f"backward error {rnorm / denom:.3e} exceeds "
                               f"{LYAP_BACKWARD_TOL:.0e}")
    return p


def solve_lyapunov(a, w) -> np.ndarray:
    """Solve A P + P A^T + W = 0 for stable A and symmetric PSD W.

    Bartels-Stewart on the real Schur factor of A.  The quasi-triangular
    equation is solved by the recursive blocked method of Jonsson and
    Kagstrom (ACM TOMS 28(4), 2002): the factor is split between two
    diagonal blocks, the halves are solved recursively, the coupling
    block by one LAPACK ``dtrsyl`` call, and the remaining terms by
    matrix products; blocks of order up to 64 go to ``dtrsyl`` whole.
    One residual-correction pass reuses the Schur factor when the
    residual exceeds 1e-11 relative to ||W|| (two solves at most: a
    third never lowered the residual).

    Raises
    ------
    NotSymmetric
        If W is not symmetric to 1e-10 (relative, Frobenius norms).
    UnstableSystem
        If any eigenvalue of A has nonnegative real part (the Gramian
        does not exist).
    SingularBlock
        If ``dtrsyl`` meets a near-singular sum of two eigenvalues.
    LyapunovResidual
        If the normwise backward error ||A P + P A^T + W|| /
        (2 ||A|| ||P|| + ||W||) (Frobenius norms) exceeds LYAP_BACKWARD_TOL.
    """
    a = _as_square(a, "A")
    w = _as_square(w, "W")
    if a.shape != w.shape:
        raise ValueError(f"shape mismatch: A {a.shape} vs W {w.shape}")
    _check_symmetric(w, "W")
    form = real_schur(a)
    check_stable(form)
    return _lyapunov_on_schur(a, form, w)
