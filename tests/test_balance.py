import numpy as np
import pytest

from cablemass import balance, linalg, signals
from cablemass.balance import (PlateauSplit, RankDeficient, SingularShift,
                               error_bound, gramians, hankel_values, reduce,
                               square_root_transform, transfer_function)
from cablemass.cli import get_preset
from cablemass.model import DimensionMismatch, build_system
from conftest import (EXAMPLE1, lyapunov, modal_blocks, record_dtrsyl,
                      record_real_schur, schur_system)


@pytest.fixture(scope="module")
def example1_n20():
    sys = build_system(EXAMPLE1, 20)
    p, q = gramians(sys)
    return sys, p, q


def random_full_rank_system(seed=7, n=10):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a -= (np.linalg.eigvals(a).real.max() + 0.8) * np.eye(n)
    b = rng.standard_normal((n, 1))
    c = rng.standard_normal((2, n))
    return schur_system(a, b=b, c=c, nl_state_index=0,
                        nl_target_index=n - 1, nl_coeff=0.0)


class TestGramians:
    def test_scalar_system(self):
        sys = schur_system([[-1.0]], b=np.array([[1.0]]),
                           c=np.array([[1.0]]))
        p, q = gramians(sys)
        np.testing.assert_allclose(p, [[0.5]], atol=1e-14)
        np.testing.assert_allclose(q, [[0.5]], atol=1e-14)

    def test_unforced_controllability(self):
        sys = schur_system(np.diag([-1.0, -2.0]), b=np.zeros((2, 1)),
                           c=np.array([[1.0, 1.0]]))
        p, _ = gramians(sys)
        np.testing.assert_allclose(p, np.zeros((2, 2)), atol=1e-15)

    def test_residual_oracle_example1(self, example1_n20):
        sys, p, q = example1_n20
        bbt = sys.b @ sys.b.T
        ctc = sys.c.T @ sys.c
        assert np.linalg.norm(sys.a @ p + p @ sys.a.T + bbt) \
            <= 1e-10 * np.linalg.norm(bbt)
        assert np.linalg.norm(sys.a.T @ q + q @ sys.a + ctc) \
            <= 1e-10 * np.linalg.norm(ctc)
        for gram in (p, q):
            assert np.linalg.norm(gram - gram.T) <= 1e-12 * np.linalg.norm(gram)
            assert np.linalg.eigvalsh(gram).min() >= -1e-10 * np.linalg.norm(gram)

    def test_unstable_rejected(self):
        sys = schur_system([[1.0]], b=np.array([[1.0]]),
                           c=np.array([[1.0]]))
        with pytest.raises(linalg.UnstableSystem):
            gramians(sys)

    def test_shares_the_system_factor(self, monkeypatch):
        sys = build_system(EXAMPLE1, 10)
        calls = record_real_schur(monkeypatch)
        solves = []
        real_solve = linalg.solve_lyapunov

        def recording(a, g, *, schur):
            solves.append((a, schur))
            return real_solve(a, g, schur=schur)

        monkeypatch.setattr(linalg, "solve_lyapunov", recording)
        gramians(sys)
        # both Gramians together factor A once
        assert calls == [20]
        # P on sys.schur; Q for A^T on the reversed factor
        (a_p, schur_p), (a_q, schur_q) = solves
        assert a_p is sys.a and schur_p is sys.schur
        assert np.shares_memory(a_q, sys.a) and np.array_equal(a_q, sys.a.T)
        np.testing.assert_array_equal(schur_q.q, sys.schur.q[:, ::-1])
        signals.resolve_input(signals.input_preset("input2"), sys)
        assert calls == [20]

    def test_shared_schur_matches_separate_solves(self, example1_n20):
        sys, p, q = example1_n20
        p_ref = lyapunov(sys.a, sys.b)
        q_ref = lyapunov(sys.a.T, sys.c.T)
        assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
        assert np.linalg.norm(q - q_ref) <= 1e-10 * np.linalg.norm(q_ref)

    def test_near_marginal_backward_error(self):
        # spectral abscissa about -7e-10: the residual relative to ||W|| is
        # about 9 for P, so only the backward error is a meaningful contract
        sys = build_system(get_preset("small_stiff_ex5_in4").params, 100)
        p, q = gramians(sys)
        for a, gram, w in ((sys.a, p, sys.b @ sys.b.T),
                           (sys.a.T, q, sys.c.T @ sys.c)):
            resid = np.linalg.norm(a @ gram + gram @ a.T + w)
            scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(gram) \
                + np.linalg.norm(w)
            assert resid <= 1e-12 * scale

    def test_recursive_solver_taken(self, monkeypatch):
        # at 400 states no dtrsyl call may see the whole Schur factor
        sys = build_system(get_preset("small_damp_ex5_in4").params, 200)
        calls = record_dtrsyl(monkeypatch)
        p, q = gramians(sys)
        assert calls and max(max(len(a), len(b)) for a, b in calls) < 400
        for a, gram, w in ((sys.a, p, sys.b @ sys.b.T),
                           (sys.a.T, q, sys.c.T @ sys.c)):
            resid = np.linalg.norm(a @ gram + gram @ a.T + w)
            scale = 2.0 * np.linalg.norm(a) * np.linalg.norm(gram) \
                + np.linalg.norm(w)
            assert resid <= 1e-12 * scale


class TestHankelValues:
    def test_identity_pair(self):
        np.testing.assert_allclose(hankel_values(np.eye(2), np.eye(2)),
                                   [1.0, 1.0], atol=1e-14)

    def test_diagonal_pair(self):
        hsv = hankel_values(np.diag([4.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(hsv, [2.0, 1.0], atol=1e-14)

    def test_eigenvalue_oracle(self, rng):
        g1 = rng.standard_normal((8, 8))
        g2 = rng.standard_normal((8, 8))
        p = g1 @ g1.T
        q = g2 @ g2.T
        hsv = hankel_values(p, q)
        pq_eigs = np.sort(np.linalg.eigvals(p @ q).real)[::-1]
        np.testing.assert_allclose(hsv, np.sqrt(np.maximum(pq_eigs, 0.0)),
                                   atol=1e-9)

    def test_not_psd(self):
        with pytest.raises(linalg.NotPsd):
            hankel_values(np.diag([1.0, -1.0]), np.eye(2))


class TestSquareRootTransform:
    def test_already_balanced_selects_coordinates(self):
        sigma = np.diag([4.0, 2.0, 1.0])
        bal = square_root_transform(sigma, sigma, 2)
        np.testing.assert_allclose(np.abs(bal.tr),
                                   [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                                   atol=1e-12)
        np.testing.assert_allclose(bal.sr @ bal.tr, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(bal.hsv, [4.0, 2.0, 1.0], atol=1e-12)

    def test_full_rank_balances(self):
        sys = random_full_rank_system()
        p = lyapunov(sys.a, sys.b)
        q = lyapunov(sys.a.T, sys.c.T)
        hsv = hankel_values(p, q)
        bal = square_root_transform(p, q, len(hsv))
        np.testing.assert_allclose(bal.sr @ p @ bal.sr.T, np.diag(hsv),
                                   atol=1e-8 * hsv[0])
        np.testing.assert_allclose(bal.tr.T @ q @ bal.tr, np.diag(hsv),
                                   atol=1e-8 * hsv[0])

    def test_r1_continuation(self):
        bal = square_root_transform(np.diag([4.0, 1.0]), np.eye(2), 1)
        assert bal.hsv[0] == pytest.approx(2.0)
        assert bal.tr.shape == (2, 1)
        np.testing.assert_allclose(bal.sr @ bal.tr, [[1.0]], atol=1e-12)

    def test_sr_tr_identity_all_orders(self, example1_n20):
        _, p, q = example1_n20
        for r in range(1, 11):
            bal = square_root_transform(p, q, r)
            assert np.linalg.norm(bal.sr @ bal.tr - np.eye(r)) <= 1e-10

    def test_hsv_consistent_with_hankel_values(self, example1_n20):
        _, p, q = example1_n20
        hsv = hankel_values(p, q)
        bal = square_root_transform(p, q, 6)
        np.testing.assert_allclose(bal.hsv, hsv[:len(bal.hsv)], atol=1e-9)

    def test_plateau_refused(self):
        with pytest.raises(PlateauSplit):
            square_root_transform(np.eye(2), np.eye(2), 1)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            square_root_transform(np.diag([4.0, 0.0]), np.eye(2), 2)
        with pytest.raises(RankDeficient):
            square_root_transform(np.zeros((2, 2)), np.eye(2), 1)


class TestReduce:
    def test_matrices_reproducible(self, example1_n20):
        sys, p, q = example1_n20
        bal = square_root_transform(p, q, 4)
        red = reduce(sys, bal)
        np.testing.assert_allclose(red.ar, bal.sr @ sys.a @ bal.tr, atol=1e-12)
        np.testing.assert_allclose(red.br, bal.sr @ sys.b, atol=1e-12)
        np.testing.assert_allclose(red.cr, sys.c @ bal.tr, atol=1e-12)
        np.testing.assert_allclose(red.nl_in_weights,
                                   bal.tr[sys.nl_state_index, :], atol=0)
        np.testing.assert_allclose(red.nl_out_weights,
                                   bal.sr[:, sys.nl_target_index], atol=0)
        assert red.nl_coeff == sys.nl_coeff

    def test_modes_factored_once_and_lazily(self, monkeypatch):
        # the balancing never factors into modes: each model's ETDRK4
        # table factors its A once, on first use, into read-only arrays
        shapes = []
        real = linalg.modal_factor

        def recording(a):
            shapes.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(linalg, "modal_factor", recording)
        sys = build_system(EXAMPLE1, 20)
        p, q = gramians(sys)
        red = reduce(sys, square_root_transform(p, q, 4))
        assert shapes == [] and "etdrk4" not in vars(red)
        modes = red.etdrk4.modes
        assert red.etdrk4.modes is modes and shapes == [(4, 4)]
        sys.etdrk4, sys.etdrk4
        assert shapes == [(4, 4), (40, 40)]
        for arr in (red.ar, modes.eigenvalues, modes.v, modes.lu, modes.piv):
            assert not arr.flags.writeable
        # A_r V = V D, measured 2.6e-16 of ||A_r||
        v = modes.v
        rel = np.linalg.norm(red.ar @ v - v @ modal_blocks(modes))
        assert rel <= 3e-15 * np.linalg.norm(red.ar)

    def test_reduced_arrays_read_only(self, example1_n20):
        # the ETDRK4 table is derived from them once and kept
        sys, p, q = example1_n20
        red = reduce(sys, square_root_transform(p, q, 4))
        for arr in (red.ar, red.br, red.cr, red.nl_in_weights,
                    red.nl_out_weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_reduced_matrix_stable(self, example1_n20):
        sys, p, q = example1_n20
        red = reduce(sys, square_root_transform(p, q, 4))
        assert linalg.eigenvalues(red.ar).real.max() < 0.0

    def test_dimension_mismatch(self, example1_n20):
        sys, p, q = example1_n20
        bal = square_root_transform(p, q, 4)
        other = build_system(EXAMPLE1, 12)
        with pytest.raises(DimensionMismatch):
            reduce(other, bal)


class TestErrorBound:
    def test_no_truncation(self):
        assert error_bound([2.0, 1.0, 0.5], 3) == 0.0

    def test_arithmetic(self):
        assert error_bound([2.0, 1.0, 0.5], 1) == pytest.approx(3.0)

    def test_monotone_in_r(self, example1_n20):
        _, p, q = example1_n20
        hsv = hankel_values(p, q)
        bounds = [error_bound(hsv, r) for r in range(len(hsv) + 1)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(b1 > b2 for b1, b2 in zip(bounds[:10], bounds[1:11]))


class TestTransferFunction:
    def test_scalar_dc_gain(self):
        g = transfer_function([[-1.0]], [[1.0]], [[1.0]], 0.0)
        np.testing.assert_allclose(g, [[1.0]], atol=1e-14)

    def test_strictly_proper_decay(self, example1_n20):
        sys, _, _ = example1_n20
        g = transfer_function(sys.a, sys.b, sys.c, 1e6j)
        assert np.linalg.norm(g) <= 1e-4

    def test_similarity_invariance(self):
        sys = random_full_rank_system()
        p = lyapunov(sys.a, sys.b)
        q = lyapunov(sys.a.T, sys.c.T)
        hsv = hankel_values(p, q)
        red = reduce(sys, square_root_transform(p, q, len(hsv)))
        for w in np.logspace(-2, 3, 20):
            g = transfer_function(sys.a, sys.b, sys.c, 1j * w)
            gr = transfer_function(red.ar, red.br, red.cr, 1j * w)
            assert np.linalg.norm(g - gr) <= 1e-8 * np.linalg.norm(g)

    def test_singular_shift(self):
        with pytest.raises(SingularShift):
            transfer_function([[-1.0]], [[1.0]], [[1.0]], -1.0)


class TestFrequencyGridBound:
    def test_grid_error_below_bound(self, example1_n20):
        sys, p, q = example1_n20
        hsv = hankel_values(p, q)
        omegas = np.logspace(-2, 2, 50)
        gfull = [transfer_function(sys.a, sys.b, sys.c, 1j * w)
                 for w in omegas]
        for r in (1, 2, 4, 6, 8):
            red = reduce(sys, square_root_transform(p, q, r))
            worst = max(
                np.linalg.norm(gfull[i] - transfer_function(
                    red.ar, red.br, red.cr, 1j * w), 2)
                for i, w in enumerate(omegas))
            assert worst <= error_bound(hsv, r) + 1e-6
