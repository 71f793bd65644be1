"""Dense linear-algebra kernels for balancing and the energy study.

Factorizations (real Schur, SVD, pivoted Cholesky) are delegated to
LAPACK through scipy/numpy: ``real_schur`` keeps the eigenvalues
``dgees`` computes with the factor, and ``psd_factor`` factors a Gramian
by ``dpstrf``.  The continuous Lyapunov equation, with its right-hand
side given as W = G G^T, is solved by the Bartels-Stewart method (R. H.
Bartels and G. W. Stewart, "Solution of the matrix equation AX + XB =
C", Comm. ACM 15(9), 1972): reduce the coefficient matrix to real Schur
form, then solve the quasi-triangular Lyapunov equation.  That solve is
recursive and blocked (I. Jonsson and B. Kagstrom, "Recursive blocked
algorithms for solving triangular systems - Part I: one-sided and
coupled Sylvester-type matrix equations", ACM TOMS 28(4), 2002): it
halves the triangular factor, and the larger side of each Sylvester
equation that couples two halves, until the blocks are small enough for
LAPACK ``xTRSYL``, so most of the work runs as matrix products.  It
solves one equation, A P + P A^T + G G^T = 0, always on a factor of A
that the caller passes: the observability Gramian is that equation for
A^T, on ``SchurForm.transposed()``, the order-reversed factor of A^T.

A system is factored once: ``StateSpaceSystem.schur`` caches a read-only
factor, and the spectrum (its ``dgees`` eigenvalues), both Gramians and
the input-2 frequencies all read it; ``eigenvalues`` takes the spectrum
of a bare matrix from LAPACK's eigenvalue driver ``dgeev``.

``modal_factor`` block-diagonalises A = V D V^-1, V the real
eigenvector matrix of LAPACK ``dgeev``, for the exponential integrator
of the energy study and the forced FOM and ROM runs, which step in
y = V^-1 x: each model's ETDRK4 table (``ode.Etdrk4Table``) factors its
A and keeps the factor (``sys.etdrk4.modes``).  V is kept with its LU
factors (``dgetrf``), from which ``dgecon`` estimates its condition
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import (dgecon, dgees, dgeev, dgeev_lwork, dgetrf,
                                 dgetrs, dpotrf, dpstrf, dtrsyl)


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


# Most negative eigenvalue tolerated by psd_factor, relative to the largest.
PSD_NEG_TOL = 1e-8
# Largest backward error of a Lyapunov solution (see solve_lyapunov).
LYAP_BACKWARD_TOL = 1e-12
# Largest order that the recursive Lyapunov and Sylvester solves hand to
# dtrsyl whole.
_TRSYL_LEAF = 64
# Rows per block of _check_symmetric's norm of M - M^T.
_SYM_BLOCK = 64
# Largest 1-norm condition number of the eigenvector matrix modal_factor
# accepts.  The change of basis x -> V^-1 x -> x can lose about cond * eps
# relative, 2e-8 here.  The finite-difference models measure 3.7e3 to
# 2.1e5 at n = 100 to 400.
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
    """Real Schur decomposition A = Q T Q^T, with A's eigenvalues.

    Q is orthogonal and T is quasi-upper-triangular with 1x1 blocks for
    real eigenvalues and 2x2 blocks for complex-conjugate pairs; the
    eigenvalues (``dgees``'s) follow its blocks, a pair's Im > 0 value
    first.  All three are read-only: one factor is shared by every
    consumer of a system's spectrum, so a reordering (``dtrsen``) must
    work on a copy.
    """

    q: np.ndarray
    t: np.ndarray
    eigenvalues: np.ndarray

    def transposed(self) -> SchurForm:
        """The factor A^T = (Q J)(J T^T J)(Q J)^T, J the order reversal.

        J T^T J is upper quasi-triangular with T's standardized 2x2
        blocks at mirrored rows; the eigenvalues are conjugated and
        reversed.  Read-only Fortran copies, not kept.
        """
        q = np.asfortranarray(self.q[:, ::-1])
        t = np.asfortranarray(self.t.T[::-1, ::-1])
        eigs = np.conj(self.eigenvalues[::-1])
        for arr in (q, t, eigs):
            arr.flags.writeable = False
        return SchurForm(q=q, t=t, eigenvalues=eigs)


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
    """Real block-diagonalisation A = V D V^-1 of a real matrix.

    V (``v``, Fortran order) holds a unit eigenvector for each of the
    ``n_real`` real eigenvalues, then for each conjugate pair (Im lambda
    > 0, unit eigenvector u + i w) the columns u and -w, so that x = V y
    and the pair's y_j + i y_(j+1) evolves as e^(lambda t): D has the
    block [[Re lambda, -Im lambda], [Im lambda, Re lambda]].
    ``eigenvalues`` has lambda, conj(lambda) on a pair's columns.  V is
    kept with its LU factors (``lu``, ``piv``, ``dgetrf`` form), from
    which ``solve`` applies V^-1; cond is the ``dgecon`` estimate of its
    1-norm condition number.  The arrays are read-only.
    """

    eigenvalues: np.ndarray
    v: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    cond: float
    n_real: int

    def solve(self, b) -> np.ndarray:
        """V^-1 b for a vector or a matrix b, by ``dgetrs``."""
        x, info = dgetrs(self.lu, self.piv, np.asarray(b, dtype=float))
        if info < 0:
            raise ValueError(f"dgetrs: argument {-info} is invalid")
        return x


def modal_factor(a) -> ModalForm:
    """The real eigenvector matrix of A (``dgeev``) and its LU factors.

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
    # the queried workspace: the wrapper's default minimal one measured
    # 1.2 and 1.3 times slower at orders 400 and 800
    work, _ = dgeev_lwork(len(a), compute_vl=0)
    wr, wi, _, vr, info = dgeev(a, compute_vl=0, lwork=int(work))
    if info:  # pragma: no cover - LAPACK budget
        raise NonConvergence(f"dgeev: QR iteration failed (info {info})")
    # dgeev gives a pair's Im > 0 eigenvalue first, with the columns Re v
    # and Im v: the real eigenvalues go first, and Im v is negated
    real, pairs = np.flatnonzero(wi == 0.0), np.flatnonzero(wi > 0.0)
    order = np.concatenate([real, np.stack([pairs, pairs + 1], 1).ravel()])
    v = vr[:, order]
    v[:, real.size + 1::2] *= -1.0
    eigs = (wr + 1j * wi)[order]
    lu, piv, info = dgetrf(v)
    if info < 0:
        raise ValueError(f"dgetrf: argument {-info} is invalid")
    cond = math.inf
    if info == 0:
        rcond, info = dgecon(lu, np.abs(v).sum(axis=0).max(), norm="1")
        if info < 0:
            raise ValueError(f"dgecon: argument {-info} is invalid")
        if rcond > 0.0:
            cond = 1.0 / rcond
    if not cond <= MODAL_COND_MAX:
        raise IllConditionedModes(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"{MODAL_COND_MAX:.0e}")
    for arr in (eigs, v, lu, piv):
        arr.flags.writeable = False
    return ModalForm(eigenvalues=eigs, v=v, lu=lu, piv=piv, cond=float(cond),
                     n_real=real.size)


def real_schur(a) -> SchurForm:
    """Real Schur decomposition of a square matrix, by LAPACK ``dgees``.

    Q and T are ``scipy.linalg.schur``'s bitwise (one workspace query,
    then one call), and the eigenvalues wr + i wi are computed with T;
    an empty matrix, which ``dgees`` rejects, has empty factors.

    Raises
    ------
    NonConvergence
        If the QR iteration fails to converge (pathological input).
    """
    a = _as_square(a)
    if a.size == 0:
        q, t = np.empty((0, 0)), np.empty((0, 0))
        wr = wi = np.empty(0)
    else:
        lwork = int(dgees(_no_select, a, lwork=-1)[-2][0])
        t, _, wr, wi, q, _, info = dgees(_no_select, a, lwork=lwork)
        if info < 0:
            raise ValueError(f"dgees: argument {-info} is invalid")
        if info:  # pragma: no cover - LAPACK budget
            raise NonConvergence(f"dgees: QR iteration failed (info {info})")
    eigs = wr + 1j * wi
    for arr in (q, t, eigs):
        arr.flags.writeable = False
    return SchurForm(q=q, t=t, eigenvalues=eigs)


def _no_select(wr, wi):  # pragma: no cover - dgees never calls it unsorted
    return 0


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square real matrix, by LAPACK ``dgeev``.

    The array is complex even when every eigenvalue is real.  The values
    match the spectrum of ``real_schur`` to rounding, not bitwise.

    Raises
    ------
    NonConvergence
        If the QR iteration fails to converge (pathological input).
    """
    a = _as_square(a)
    try:
        return scipy.linalg.eigvals(a, check_finite=False)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK budget
        raise NonConvergence(str(exc)) from exc


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

    Cholesky with diagonal pivoting, LAPACK ``dpstrf`` at its default
    tolerance: the factorization stops at the first pivot below n u
    max_i P_ii (u the unit roundoff), so F has one column per pivot
    taken, the numerical rank of P.  Gramians of lightly damped
    systems are routinely semidefinite, which is why the pivoted form
    is used.  ``dpstrf`` stops at a small pivot and does not see a
    negative eigenvalue behind it, so P is checked once more: one
    Cholesky factorization (``dpotrf``) of P + PSD_NEG_TOL * lambda_max
    * I, lambda_max = ||F||_2^2, must succeed.  A zero P has a factor
    with no columns.

    Raises
    ------
    NotPsd
        If P is not symmetric to 1e-10 (relative; raised as the subclass
        NotSymmetric) or has a negative eigenvalue beyond
        ``PSD_NEG_TOL`` times lambda_max (any negative eigenvalue when
        no diagonal entry of P is positive).
    """
    p = _as_square(p, "P")
    _check_symmetric(p, "P")
    n = p.shape[0]
    # P^T equals P to 1e-10 (checked above) and, for a row-major P, is in
    # LAPACK's column-major order: no transposing copy
    c, piv, rank, info = dpstrf(p.T, lower=1)
    if info < 0:
        raise ValueError(f"dpstrf: argument {-info} is invalid")
    # P[piv, piv] = L L^T, L lower trapezoidal of width rank
    f = np.zeros((n, rank))
    f[piv - 1] = np.tril(c[:, :rank])
    if rank == 0:
        if np.any(p):  # nonzero, with no positive diagonal entry
            raise NotPsd("no positive pivot in a nonzero matrix")
        return f
    # ||F||_2^2 is the largest eigenvalue of the rank x rank F^T F
    lam_max = np.linalg.eigvalsh(f.T @ f)[-1]
    shifted = np.array(p.T, order="F")
    shifted.flat[::n + 1] += PSD_NEG_TOL * lam_max
    _, info = dpotrf(shifted, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPsd("negative eigenvalue beyond tolerance")
    return f


def _check_symmetric(m: np.ndarray, name: str) -> None:
    """Raise NotSymmetric unless ||M - M^T|| <= 1e-10 ||M|| (Frobenius).

    ||M - M^T|| is summed over blocks of ``_SYM_BLOCK`` rows from the
    diagonal rightwards, so no temporary larger than one block is made.
    """
    mnorm = np.linalg.norm(m)
    sq = 0.0
    for i in range(0, m.shape[0], _SYM_BLOCK):
        j = i + _SYM_BLOCK
        d = m[i:j, i:].copy()
        d -= m[i:, i:j].T
        # right of the diagonal block, d holds each pair (k, l) once
        sq += 2.0 * np.vdot(d, d) - np.vdot(d[:, :j - i], d[:, :j - i])
    if mnorm > 0 and math.sqrt(sq) > 1e-10 * mnorm:
        raise NotSymmetric(f"{name} is not symmetric")


def _trsyl(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """LAPACK dtrsyl: X with A X + X B^T = C, its scale divided out."""
    x, scale, info = dtrsyl(a, b, c, "N", "T")
    if info < 0:
        raise ValueError(f"dtrsyl: argument {-info} is invalid")
    if info == 1:
        raise SingularBlock(
            "near-singular eigenvalue sum T_ii + T_jj in dtrsyl")
    if scale != 1.0:
        x /= scale
    return x


def _split(t: np.ndarray) -> int:
    """A split point of quasi-triangular T near its middle, between blocks."""
    k = t.shape[0] // 2
    if t[k, k - 1] != 0.0:  # never split a 2x2 block
        k += 1
    return k


def _trsylv(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """Overwrite C with X solving A X + X B^T = C.

    A and B are upper quasi-triangular.  Recursive blocked solve
    (Jonsson and Kagstrom 2002): the larger of A and B is split between
    two diagonal blocks, the two half-size equations are solved in turn
    and coupled by one matrix product.  When both orders are at most
    ``_TRSYL_LEAF``, one dtrsyl call solves the equation.
    """
    m, n = a.shape[0], b.shape[0]
    if max(m, n) <= _TRSYL_LEAF:
        c[...] = _trsyl(a, b, c)
        return
    if n > m:
        # X^T solves B X^T + X^T A^T = C^T: split B as A
        _trsylv(b, a, c.T)
        return
    k = _split(a)
    a11, a12, a22 = a[:k, :k], a[:k, k:], a[k:, k:]
    c1, c2 = c[:k], c[k:]
    # A22 X2 + X2 B^T = C2 first, then X1
    _trsylv(a22, b, c2)
    c1 -= a12 @ c2
    _trsylv(a11, b, c1)


def _trlyap(t: np.ndarray, c: np.ndarray) -> None:
    """Overwrite symmetric C with Y solving T Y + Y T^T = C.

    T is upper quasi-triangular.  Recursive blocked Bartels-Stewart
    (Jonsson and Kagstrom 2002): split T between two diagonal blocks,
    solve the two half-size Lyapunov equations and the Sylvester
    equation for Y12 recursively (``_trsylv``), and apply the coupling
    terms as matrix products.  Orders up to ``_TRSYL_LEAF`` go to
    dtrsyl whole.
    """
    n = t.shape[0]
    if n <= _TRSYL_LEAF:
        c[...] = _trsyl(t, t, c)
        return
    k = _split(t)
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    c11, c12, c22 = c[:k, :k], c[:k, k:], c[k:, k:]
    # T22 Y22 + Y22 T22^T = C22 first, then Y12, then Y11
    _trlyap(t22, c22)
    c12 -= t12 @ c22
    _trsylv(t11, t22, c12)
    x = t12 @ c12.T
    c11 -= x
    c11 -= x.T
    _trlyap(t11, c11)
    c[k:, :k] = c12.T


def solve_lyapunov(a, g, *, schur: SchurForm) -> np.ndarray:
    """Solve A P + P A^T + W = 0 for stable A and W = G G^T.

    G is n x m, any m (the Gramians pass B and C^T).  Bartels-Stewart
    on the caller's real Schur factor A = Q T Q^T (``schur``, not
    checked beyond its order; ``SchurForm.transposed()`` gives A^T's);
    stability is checked on that factor's spectrum.  The first pass
    transforms W as (Q^T G)(Q^T G)^T, a rank-m product.  The
    quasi-triangular equation is solved by the recursive blocked method
    of Jonsson and Kagstrom (ACM TOMS 28(4), 2002): the factor is split
    between two diagonal blocks, the halves are solved recursively, and
    so is the Sylvester equation that couples them, whose larger side
    is split in turn; the coupling terms are matrix products, equations
    whose orders are at most 64 go to LAPACK ``dtrsyl`` whole, and the
    lower blocks of P are filled by symmetry.  One residual-correction
    pass reuses the factor when the residual exceeds 1e-11 relative to
    ||W|| (two solves at most: a third never lowered the residual).

    Raises
    ------
    ValueError
        If A is not a finite square matrix, G not a finite matrix with
        A's row count, or ``schur`` is of another order (before any
        work).
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
    g = as_matrix(g, "G")
    if g.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: A {a.shape} vs G {g.shape}")
    if schur.t.shape != a.shape:
        raise ValueError(f"Schur factor of order {schur.t.shape[0]} for A "
                         f"of order {a.shape[0]}")
    eigs = schur.eigenvalues
    if eigs.size and eigs.real.max() >= 0.0:
        raise UnstableSystem(
            f"eigenvalue with real part {eigs.real.max():.3e} >= 0")
    q, t = schur.q, np.asfortranarray(schur.t)
    wnorm = np.linalg.norm(g @ g.T)
    p = np.zeros(a.shape)
    qg = q.T @ g
    y = qg @ qg.T
    # Y's buffer takes each n x n product in turn, W = G G^T included.
    # P, Y, the residual and the factors live across the passes, and
    # q @ y, q.T @ resid, p += p.T and resid += resid.T each allocate an
    # n x n temporary (1.28 MB at n = 400).  A change to these moves the
    # offline set-up samples (ROADMAP, "Considered and set aside").
    for correction in (False, True):
        if correction:
            np.matmul(q.T @ resid, q, out=y)
        _trlyap(t, y)
        np.matmul(q @ y, q.T, out=y)
        p -= y
        p += p.T
        p *= 0.5
        # P is symmetric, so A P + P A^T = X + X^T with X = A P.
        resid = a @ p
        resid += resid.T
        resid += np.matmul(g, g.T, out=y)
        rnorm = np.linalg.norm(resid)
        if rnorm <= 1e-11 * max(wnorm, 1e-300):
            break
    denom = 2.0 * np.linalg.norm(a) * np.linalg.norm(p) + wnorm
    if rnorm > LYAP_BACKWARD_TOL * denom:
        raise LyapunovResidual(f"backward error {rnorm / denom:.3e} exceeds "
                               f"{LYAP_BACKWARD_TOL:.0e}")
    return p
