import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from cablemass import linalg
from cablemass.cli import PRESETS, get_preset
from cablemass.model import build_system
from conftest import lyapunov, modal_blocks, random_stable, record_dtrsyl


def lightly_damped_oscillators(rng):
    """Damping 0.01 on three oscillators, in random orthogonal coordinates."""
    blocks = [np.array([[-0.01, w], [-w, -0.01]]) for w in (1.0, 3.0, 7.0)]
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    return q @ scipy.linalg.block_diag(*blocks) @ q.T


def paired_blocks(rng, n):
    """Upper quasi-triangular T (Fortran order), 2x2 blocks on rows (0, 1),
    (2, 3), ...: eigenvalues -1 - i/n +- i, so no two sum to near zero."""
    t = np.triu(rng.standard_normal((n, n)), 2) / np.sqrt(n)
    for i in range(0, n, 2):
        d = -1.0 - i / n
        t[i:i + 2, i:i + 2] = [[d, 2.0], [-0.5, d]]
    return np.asfortranarray(t)


def diagonal_rows(block, t):
    """Rows (start, stop) of Fortran T that its diagonal-block view covers."""
    offset = (block.__array_interface__["data"][0]
              - t.__array_interface__["data"][0]) // t.itemsize
    start, rem = divmod(offset, t.shape[0] + 1)
    assert rem == 0 and 0 <= start and start + block.shape[0] <= t.shape[0]
    return start, start + block.shape[0]


class TestRealSchur:
    def test_already_triangular(self):
        form = linalg.real_schur(np.diag([-1.0, -2.0]))
        np.testing.assert_allclose(form.t, np.diag([-1.0, -2.0]), atol=1e-14)
        np.testing.assert_allclose(np.abs(form.q), np.eye(2), atol=1e-14)

    def test_rotation_block(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        form = linalg.real_schur(a)
        assert form.t[1, 0] != 0.0  # one 2x2 block
        eigs = sorted(linalg.eigenvalues(a), key=lambda z: z.imag)
        np.testing.assert_allclose(eigs, [-1j, 1j], atol=1e-14)

    def test_reconstruction_random(self, rng):
        a = rng.standard_normal((8, 8))
        form = linalg.real_schur(a)
        rel = np.linalg.norm(form.q @ form.t @ form.q.T - a) / np.linalg.norm(a)
        assert rel <= 1e-10

    def test_orthogonality(self, rng):
        a = rng.standard_normal((8, 8))
        form = linalg.real_schur(a)
        assert np.linalg.norm(form.q.T @ form.q - np.eye(8)) <= 1e-12 * 8

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.real_schur(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.real_schur(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_empty_matrix(self, monkeypatch):
        # dgees rejects order 0, so it is not called
        monkeypatch.setattr(linalg, "dgees", None)
        form = linalg.real_schur(np.zeros((0, 0)))
        assert form.q.shape == form.t.shape == (0, 0)
        assert form.eigenvalues.shape == (0,)
        assert form.eigenvalues.dtype == complex

    def test_one_query_one_call(self, rng, monkeypatch):
        # as scipy.linalg.schur: a workspace query, then the call with
        # the queried size
        a = rng.standard_normal((30, 30))
        lworks = []
        real = linalg.dgees

        def recording(select, a, lwork):
            lworks.append(lwork)
            return real(select, a, lwork=lwork)

        monkeypatch.setattr(linalg, "dgees", recording)
        form = linalg.real_schur(a)
        queried = int(real(linalg._no_select, a, lwork=-1)[-2][0])
        assert lworks == [-1, queried]
        assert_block_eigenvalues(form)


class TestEigenvalues:
    def test_diagonal(self):
        eigs = sorted(linalg.eigenvalues(np.diag([-1.0, -2.0])).real)
        np.testing.assert_allclose(eigs, [-2.0, -1.0], atol=1e-14)

    def test_rotation(self):
        eigs = sorted(linalg.eigenvalues([[0.0, 1.0], [-1.0, 0.0]]),
                      key=lambda z: z.imag)
        np.testing.assert_allclose(eigs, [-1j, 1j], atol=1e-14)

    def test_companion_cubic(self):
        # companion matrix of (x+1)(x+2)(x+3) = x^3 + 6x^2 + 11x + 6
        comp = np.array([[0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [-6.0, -11.0, -6.0]])
        eigs = np.sort(linalg.eigenvalues(comp).real)
        np.testing.assert_allclose(eigs, [-3.0, -2.0, -1.0], atol=1e-10)
        assert np.abs(linalg.eigenvalues(comp).imag).max() <= 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            linalg.eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_empty(self):
        assert linalg.eigenvalues(np.zeros((0, 0))).shape == (0,)

    def test_conjugate_pair_symmetry(self, rng):
        for n in (3, 6, 9):
            a = rng.standard_normal((n, n))
            eigs = linalg.eigenvalues(a)
            key = lambda z: (round(z.real, 9), round(z.imag, 9))
            plain = sorted(eigs, key=key)
            conj = sorted(np.conj(eigs), key=key)
            np.testing.assert_allclose(plain, conj, atol=1e-10)

    @pytest.mark.parametrize("name, n", [(name, n) for name in sorted(PRESETS)
                                         for n in (100, 200)])
    def test_matches_schur_spectrum(self, name, n):
        # dgeev and the Schur factor agree to rounding, eigenvalue by
        # eigenvalue: at most 6.2e-13 max|A| measured (small_stiff_ex2_in1
        # at n = 200)
        sys = build_system(PRESETS[name].params, n)
        eigs = linalg.eigenvalues(sys.a)
        ref = sys.schur.eigenvalues
        rows, cols = scipy.optimize.linear_sum_assignment(
            np.abs(eigs[:, None] - ref[None, :]))
        assert np.abs(eigs[rows] - ref[cols]).max() <= (
            1e-11 * np.abs(sys.a).max())
        if name == "small_stiff_ex5_in4":
            # near-marginal: the abscissa, -6.8e-10, keeps its sign
            abscissa, ref_abscissa = eigs.real.max(), ref.real.max()
            assert abs(abscissa - ref_abscissa) <= 1e-11
            assert abscissa < 0.0 and ref_abscissa < 0.0


def loop_eigenvalues(t):
    """Reference read-off: walk the diagonal blocks of T one at a time."""
    eigs = []
    i, n = 0, t.shape[0]
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            a, b = t[i, i], t[i, i + 1]
            c, d = t[i + 1, i], t[i + 1, i + 1]
            mu = 0.5 * (a + d)
            disc = 0.25 * (a - d) ** 2 + b * c
            if disc < 0.0:
                w = np.sqrt(-disc)
                eigs.extend([complex(mu, w), complex(mu, -w)])
            else:
                w = np.sqrt(disc)
                eigs.extend([complex(mu + w), complex(mu - w)])
            i += 2
        else:
            eigs.append(complex(t[i, i]))
            i += 1
    return np.array(eigs)


def standardized_t(rng, blocks):
    """Quasi-triangular T with LAPACK-standardized diagonal blocks.

    blocks lists block sizes; a 2x2 block is [[d, b], [c, d]], b c < 0.
    """
    n = sum(blocks)
    t = np.triu(rng.standard_normal((n, n)), 1)
    i = 0
    for size in blocks:
        d = -rng.uniform(0.1, 2.0)
        if size == 1:
            t[i, i] = d
        else:
            b = rng.uniform(0.5, 3.0)
            t[i:i + 2, i:i + 2] = [[d, b], [-rng.uniform(0.1, 2.0) / b, d]]
        i += size
    return t


def assert_block_eigenvalues(form):
    """The eigenvalues of a factor against the diagonal blocks of its T.

    Real parts are T's diagonal bitwise, a 2x2 block's pair is conjugate
    (Im > 0 first) and a 1x1 block's value real, and each imaginary part
    is within 2 ulp of the block-by-block loop's.
    """
    eigs, t = form.eigenvalues, form.t
    assert np.array_equal(eigs.real, np.diagonal(t))
    starts = np.flatnonzero(np.diagonal(t, -1))
    assert np.all(eigs.imag[starts] > 0.0)
    assert np.array_equal(eigs.imag[starts + 1], -eigs.imag[starts])
    assert np.count_nonzero(eigs.imag) == 2 * starts.size
    ref = loop_eigenvalues(t).imag
    assert np.all(np.abs(eigs.imag - ref) <= 2.0 * np.spacing(np.abs(ref)))


class TestBlockEigenvalues:
    """real_schur keeps dgees's eigenvalues of the diagonal blocks of T."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("n", [8, 20, 50, 100])
    def test_presets_bitwise(self, name, n):
        sys = build_system(PRESETS[name].params, n)
        assert_block_eigenvalues(sys.schur)
        # T and Q are scipy.linalg.schur's, bitwise
        t, q = scipy.linalg.schur(sys.a, output="real")
        assert np.array_equal(sys.schur.t, t)
        assert np.array_equal(sys.schur.q, q)

    @pytest.mark.parametrize("blocks", [[1] * 7, [2] * 4, [1, 2, 2, 1, 1, 2]],
                             ids=["1x1", "2x2", "mixed"])
    def test_hand_built_bitwise(self, rng, blocks):
        form = linalg.real_schur(standardized_t(rng, blocks))
        assert_block_eigenvalues(form)
        assert np.count_nonzero(form.eigenvalues.imag) == 2 * blocks.count(2)

    def test_extreme_block(self):
        # the pair -1 +- 1e200 i, whose block's product b c overflows:
        # LAPACK takes sqrt|b| sqrt|c|
        a = np.array([[-1.0, 1e200], [-1e200, -1.0]])
        eigs = linalg.real_schur(a).eigenvalues
        np.testing.assert_allclose(eigs.imag, [1e200, -1e200], rtol=1e-15)
        np.testing.assert_allclose(eigs.real, [-1.0, -1.0], rtol=1e-15)

    def test_read_once_per_factor(self):
        form = linalg.real_schur(np.diag([-1.0, -2.0]))
        np.testing.assert_array_equal(form.eigenvalues, [-1.0, -2.0])
        with pytest.raises(ValueError):
            form.eigenvalues[0] = 0.0


class TestSvd:
    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.sigma, [3.0, 1.0], atol=1e-14)

    def test_zero(self):
        res = linalg.svd(np.zeros((2, 2)))
        np.testing.assert_allclose(res.sigma, [0.0, 0.0])

    def test_gram_oracle(self, rng):
        m = rng.standard_normal((6, 4))
        res = linalg.svd(m)
        gram_eigs = np.linalg.eigvalsh(m.T @ m)[::-1]
        np.testing.assert_allclose(res.sigma, np.sqrt(np.maximum(gram_eigs, 0.0)),
                                   atol=1e-10)

    def test_reconstruction_and_orthonormality(self, rng):
        m = rng.standard_normal((6, 4))
        res = linalg.svd(m)
        rel = np.linalg.norm(res.u @ np.diag(res.sigma) @ res.v.T - m) \
            / np.linalg.norm(m)
        assert rel <= 1e-10
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(4), atol=1e-12)
        assert np.all(np.diff(res.sigma) <= 0.0)
        assert np.all(res.sigma >= 0.0)


class TestPsdFactor:
    def test_identity(self):
        f = linalg.psd_factor(np.eye(3))
        np.testing.assert_allclose(f @ f.T, np.eye(3), atol=1e-12)

    def test_semidefinite_rank_one(self):
        f = linalg.psd_factor(np.diag([4.0, 0.0]))
        assert f.shape == (2, 1)
        np.testing.assert_allclose(f @ f.T, np.diag([4.0, 0.0]), atol=1e-12)

    def test_lyapunov_sourced(self, rng):
        a = random_stable(rng, 10)
        g = rng.standard_normal((10, 2))
        p = lyapunov(a, g)
        f = linalg.psd_factor(p)
        rel = np.linalg.norm(f @ f.T - p) / np.linalg.norm(p)
        assert rel <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(linalg.NotPsd):
            linalg.psd_factor(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(linalg.NotPsd):
            linalg.psd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("lam_min, raises", [(-2e-8, True),
                                                 (-5e-9, False)])
    def test_negative_eigenvalue_tolerance(self, rng, lam_min, raises):
        # lambda_max = 1: PSD_NEG_TOL = 1e-8 lies between the two
        u = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        lam = np.array([1.0, 0.5, 0.2, 0.1, 1e-2, 1e-3, 1e-4, lam_min])
        p = u @ np.diag(lam) @ u.T
        p = 0.5 * (p + p.T)
        if raises:
            with pytest.raises(linalg.NotPsd):
                linalg.psd_factor(p)
        else:
            linalg.psd_factor(p)

    def test_rejects_negative_definite(self, rng):
        g = rng.standard_normal((5, 5))
        with pytest.raises(linalg.NotPsd):
            linalg.psd_factor(-(g @ g.T) - np.eye(5))

    def test_zero_matrix_has_no_columns(self):
        f = linalg.psd_factor(np.zeros((4, 4)))
        assert f.shape == (4, 0)

    def test_rank_deficient_gramian(self, rng):
        # the input reaches only the first 10 of 20 states, so P has
        # rank 10, in random orthogonal coordinates
        a = scipy.linalg.block_diag(random_stable(rng, 10),
                                    random_stable(rng, 10))
        g = np.concatenate([rng.standard_normal((10, 1)), np.zeros((10, 1))])
        q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
        p = lyapunov(q @ a @ q.T, q @ g)
        f = linalg.psd_factor(p)
        assert f.shape[1] == 10
        assert np.linalg.norm(p - f @ f.T) <= 1e-8 * np.linalg.norm(p)


class TestSolveLyapunov:
    def test_scalar(self):
        p = lyapunov([[-1.0]], [[np.sqrt(2.0)]])
        np.testing.assert_allclose(p, [[1.0]], atol=1e-14)

    def test_decoupled_diagonal(self):
        p = lyapunov(np.diag([-1.0, -2.0]), np.diag([np.sqrt(2.0), 2.0]))
        np.testing.assert_allclose(p, np.eye(2), atol=1e-14)

    def test_residual_oracle_random(self, rng):
        a = random_stable(rng, 10)
        g = rng.standard_normal((10, 3))
        w = g @ g.T
        p = lyapunov(a, g)
        resid = np.linalg.norm(a @ p + p @ a.T + w) / np.linalg.norm(w)
        assert resid <= 1e-10

    def test_symmetry_and_residual_properties(self, rng):
        for n in (4, 7, 12):
            a = random_stable(rng, n, margin=0.2)
            g = rng.standard_normal((n, n))
            w = g @ g.T
            p = lyapunov(a, g)
            assert np.linalg.norm(p - p.T) <= 1e-12 * np.linalg.norm(p)
            resid = np.linalg.norm(a @ p + p @ a.T + w) / np.linalg.norm(w)
            assert resid <= 1e-10
            # W PSD and A stable means P is PSD
            assert np.linalg.eigvalsh(p).min() >= -1e-10 * np.linalg.norm(p)

    def test_complex_spectrum(self, rng):
        # lightly damped oscillators exercise the 2x2 Schur blocks
        blocks = [np.array([[-0.01, w], [-w, -0.01]]) for w in (1.0, 3.0, 7.0)]
        import scipy.linalg
        a = scipy.linalg.block_diag(*blocks)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        a = q @ a @ q.T
        g = rng.standard_normal((6, 1))
        w = g @ g.T
        p = lyapunov(a, g)
        resid = np.linalg.norm(a @ p + p @ a.T + w) / np.linalg.norm(w)
        assert resid <= 1e-10

    def test_unstable_rejected(self):
        with pytest.raises(linalg.UnstableSystem):
            lyapunov([[1.0]], [[1.0]])

    def test_marginal_rejected(self):
        with pytest.raises(linalg.UnstableSystem):
            lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_zero_rhs(self):
        p = lyapunov(np.diag([-1.0, -2.0]), np.zeros((2, 2)))
        np.testing.assert_allclose(p, np.zeros((2, 2)), atol=1e-15)

    @pytest.mark.parametrize("make_a", [
        lambda rng: random_stable(rng, 4), lambda rng: random_stable(rng, 7),
        lambda rng: random_stable(rng, 12), lightly_damped_oscillators],
        ids=["n4", "n7", "n12", "lightly_damped"])
    def test_matches_scipy(self, rng, make_a):
        a = make_a(rng)
        g = rng.standard_normal((a.shape[0], 2))
        w = g @ g.T
        ref = scipy.linalg.solve_continuous_lyapunov(a, -w)
        p = lyapunov(a, g)
        assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_near_singular_eigenvalue_sum(self):
        # T_11 + T_11 = -2e-20: dtrsyl perturbs it and reports info = 1
        with pytest.raises(linalg.SingularBlock):
            lyapunov(np.diag([-1e-20, -1.0]), np.eye(2))

    def test_backward_error_contract_enforced(self, rng, monkeypatch):
        a = random_stable(rng, 5)
        monkeypatch.setattr(linalg, "LYAP_BACKWARD_TOL", 0.0)
        with pytest.raises(linalg.LyapunovResidual):
            lyapunov(a, np.eye(5))

    def test_rejects_factor_of_another_row_count(self, rng, monkeypatch):
        a = random_stable(rng, 5)
        calls = record_dtrsyl(monkeypatch)
        with pytest.raises(ValueError, match="shape mismatch"):
            lyapunov(a, np.ones((4, 1)))
        assert calls == []

    def test_wide_factor(self, rng):
        # G may have more columns than rows
        a = random_stable(rng, 9)
        g = rng.standard_normal((9, 12))
        ref = scipy.linalg.solve_continuous_lyapunov(a, -g @ g.T)
        p = lyapunov(a, g)
        assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_rejects_factor_of_another_order(self, rng, monkeypatch):
        a = random_stable(rng, 5)
        calls = record_dtrsyl(monkeypatch)
        with pytest.raises(ValueError, match="order 4"):
            linalg.solve_lyapunov(a, np.eye(5),
                                  schur=linalg.real_schur(a[:4, :4]))
        assert calls == []

    def test_unstable_factor_rejected(self):
        a = np.array([[0.5, 1.0], [0.0, -1.0]])
        with pytest.raises(linalg.UnstableSystem):
            linalg.solve_lyapunov(a, np.eye(2), schur=linalg.real_schur(a))

    @pytest.mark.parametrize("transposed, arrays", [(False, 4.5), (True, 6.5)])
    def test_peak_allocation(self, transposed, arrays):
        # across both passes only P, Y, the residual and one product are
        # n x n, plus the reversed Q and T that transposed() makes for the
        # A^T solve: 4.21 and 6.22 n x n arrays measured here (the
        # near-marginal preset takes the correction pass)
        sys_ = build_system(get_preset("small_stiff_ex5_in4").params, 100)
        schur = sys_.schur
        a, g = (sys_.a.T, sys_.c.T) if transposed else (sys_.a, sys_.b)
        tracemalloc.start()
        try:
            linalg.solve_lyapunov(
                a, g, schur=schur.transposed() if transposed else schur)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * sys_.a.nbytes


class TestTransposedFactor:
    """SchurForm.transposed(): Q J and J T^T J, J the order reversal."""

    @pytest.fixture
    def schur(self, rng):
        # order 12: 2x2 blocks on rows (1, 2), (5, 6) and (9, 10), the
        # one on (5, 6) across the midpoint 6; 1x1 blocks elsewhere
        n = 12
        t = np.triu(rng.standard_normal((n, n)))
        np.fill_diagonal(t, -rng.uniform(0.5, 2.0, n))
        for i in (1, 5, 9):
            b, c = rng.uniform(0.5, 2.0, 2)
            t[i:i + 2, i:i + 2] = [[t[i, i], b], [-c, t[i, i]]]
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return linalg.SchurForm(q=q, t=t, eigenvalues=loop_eigenvalues(t))

    def test_factors_a_transposed(self, schur):
        a = schur.q @ schur.t @ schur.q.T
        rev = schur.transposed()
        qr, tr = rev.q, rev.t
        assert np.linalg.norm(qr @ tr @ qr.T - a.T) <= (
            1e-14 * np.linalg.norm(a))
        # upper quasi-triangular, with each standardized block
        # [[a, b], [c, a]], b c < 0, at its mirrored rows
        assert not np.any(np.tril(tr, -2))
        starts = np.flatnonzero(np.diagonal(tr, -1))
        np.testing.assert_array_equal(starts, [1, 5, 9])
        assert np.all(tr[starts, starts] == tr[starts + 1, starts + 1])
        assert np.all(tr[starts, starts + 1] * tr[starts + 1, starts] < 0)
        # the same eigenvalues, in reverse order (a pair's sign of Im
        # first, as in T)
        np.testing.assert_array_equal(rev.eigenvalues,
                                      np.conj(schur.eigenvalues[::-1]))

    def test_read_only_fortran_copies(self, schur):
        rev = schur.transposed()
        for arr in (rev.q, rev.t):
            assert arr.flags.f_contiguous and not arr.flags.writeable
            assert not np.shares_memory(arr, schur.q)
            assert not np.shares_memory(arr, schur.t)
        # made on each call, not kept
        assert schur.transposed() is not rev

    def test_involution(self, schur):
        back = schur.transposed().transposed()
        np.testing.assert_array_equal(back.q, schur.q)
        np.testing.assert_array_equal(back.t, schur.t)

    def test_same_spectrum(self, schur):
        rev = schur.transposed()
        np.testing.assert_array_equal(np.sort(rev.eigenvalues),
                                      np.sort(schur.eigenvalues))


class TestRecursiveLyapunov:
    """Orders above the dtrsyl leaf take the recursive blocked path."""

    @pytest.mark.parametrize("n", [70, 129, 200])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_scipy(self, rng, n, transposed):
        # a shifted Gaussian matrix: most eigenvalues are complex pairs;
        # A^T is solved on the reversed factor of A
        a = random_stable(rng, n)
        g = rng.standard_normal((n, 2))
        w = g @ g.T
        schur = linalg.real_schur(a)
        if transposed:
            a, schur = a.T, schur.transposed()
        ref = scipy.linalg.solve_continuous_lyapunov(a, -w)
        p = linalg.solve_lyapunov(a, g, schur=schur)
        assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_split_outside_2x2_block(self, rng, monkeypatch, transposed):
        # 2x2 blocks on rows (0, 1), (2, 3), ...: the midpoint 65 of
        # order 130 falls inside the block on rows (64, 65), in T and in
        # the reversed factor that A^T is solved on
        n = 130
        t = paired_blocks(rng, n)
        g = rng.standard_normal((n, n))
        c = g @ g.T
        calls = record_dtrsyl(monkeypatch)
        if transposed:
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a = q @ t @ q.T
            schur = linalg.SchurForm(q=q, t=t,
                                     eigenvalues=loop_eigenvalues(t))
            y = linalg.solve_lyapunov(a.T, g, schur=schur.transposed())
            resid = a.T @ y + y @ a + c
        else:
            y = c.copy()
            linalg._trlyap(t, y)
            resid = t @ y + y @ t.T - c
        # every block dtrsyl sees starts and ends between 2x2 blocks,
        # and the top-level split sits after the block on rows (64, 65)
        rows = {diagonal_rows(block, block.base) for call in calls
                for block in call}
        assert all(start % 2 == 0 and stop % 2 == 0 for start, stop in rows)
        assert (66, 130) in rows
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(c)

    @pytest.mark.parametrize("where", [0, -1])
    def test_near_singular_eigenvalue_sum(self, where):
        eigs = -np.linspace(1.0, 2.0, 100)
        eigs[where] = -1e-20
        with pytest.raises(linalg.SingularBlock):
            lyapunov(np.diag(eigs), np.eye(100))


class TestRecursiveSylvester:
    """A X + X B^T = C, the one equation the Lyapunov couplings solve."""

    @pytest.mark.parametrize("m, n", [(130, 150), (150, 130)])
    def test_matches_scipy(self, rng, monkeypatch, m, n):
        # both midpoints, 65 and 75, fall inside 2x2 blocks
        a, b = paired_blocks(rng, m), paired_blocks(rng, n)
        c = rng.standard_normal((m, n))
        calls = record_dtrsyl(monkeypatch)
        x = c.copy()
        linalg._trsylv(a, b, x)
        ref = scipy.linalg.solve_sylvester(a, b.T, c)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        # no leaf is larger than _TRSYL_LEAF or splits a 2x2 block
        assert len(calls) > 1
        for block in (block for call in calls for block in call):
            start, stop = diagonal_rows(block, a if np.shares_memory(block, a)
                                        else b)
            assert start % 2 == 0 and stop % 2 == 0
            assert stop - start <= linalg._TRSYL_LEAF


class TestModalFactor:
    def test_reconstruction_and_solve(self, rng):
        # two real eigenvalues and three pairs; A V = V D measured
        # 8.4e-16 of max|A|
        a = random_stable(rng, 8)
        form = linalg.modal_factor(a)
        assert form.n_real == 2
        assert form.v.dtype == float and form.v.shape == (8, 8)
        resid = a @ form.v - form.v @ modal_blocks(form)
        assert np.abs(resid).max() <= 1e-14 * np.abs(a).max()
        b = rng.standard_normal((8, 2))
        np.testing.assert_allclose(form.solve(b), np.linalg.solve(form.v, b),
                                   rtol=1e-12, atol=1e-14)

    def test_condition_estimate(self, rng):
        # dgecon estimates the 1-norm condition number from below, to
        # within a small factor
        form = linalg.modal_factor(random_stable(rng, 12))
        exact = np.linalg.cond(form.v, 1)
        assert exact / 3.0 <= form.cond <= exact * (1.0 + 1e-12)

    def test_pair_view_evolves_as_exponential(self, rng):
        # y = V^-1 x of x(t) = e^(tA) x0: each pair's y_j + i y_(j+1)
        # is e^(lambda t) times its value at t = 0 (measured 1.1e-13
        # relative at t = 20)
        a = lightly_damped_oscillators(rng)
        form = linalg.modal_factor(a)
        assert form.n_real == 0
        x0 = rng.standard_normal(6)
        lam = form.eigenvalues[::2]
        np.testing.assert_array_less(0.0, lam.imag)
        z0 = form.solve(x0).view(complex)
        for t in (0.5, 3.0, 20.0):
            z = form.solve(scipy.linalg.expm(t * a) @ x0).view(complex)
            np.testing.assert_allclose(z, np.exp(t * lam) * z0, rtol=1e-12)

    @pytest.mark.parametrize("split", [0.0, 1e-9])
    def test_defective_refused(self, split):
        # a Jordan block, exact or split by 1e-9
        a = -np.eye(6) + np.diag(np.ones(5), 1) + np.diag(split * np.arange(6))
        with pytest.raises(linalg.IllConditionedModes):
            linalg.modal_factor(a)

    def test_read_only(self, rng):
        form = linalg.modal_factor(random_stable(rng, 4))
        for arr in (form.eigenvalues, form.v, form.lu, form.piv):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("name", ["exp_stab_Ex1", "exp_stability2"])
    def test_energy_presets_well_conditioned(self, name):
        form = build_system(PRESETS[name].params, 100).etdrk4.modes
        assert form.cond <= 1e5
