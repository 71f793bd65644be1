import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cablemass import linalg, model, ode
from cablemass.cli import PRESETS
from cablemass.model import (GridTooCoarse, InvalidParams, PhysicalParams,
                             build_system, eval_nonlinearity, fom_jacobian,
                             fom_rhs, make_grid, quadratic_forms,
                             sample_initial_data)
from conftest import (EXAMPLE1, EXAMPLE2_SMALL, EXAMPLE3, dense_forms,
                      modal_blocks)


class TestPhysicalParams:
    def test_defaults_are_fixed_parameters(self):
        p = PhysicalParams()
        assert (p.l, p.m0, p.ml, p.k3, p.beta) == (1.0, 1.0, 1.5, 1.0, 1.0)

    @pytest.mark.parametrize("field,value", [
        ("m0", -1.0), ("ml", 0.0), ("l", -2.0), ("k0", 0.0), ("kl", -0.5),
        ("beta", 0.0), ("gamma", -0.1), ("alpha", -1e-9), ("k3", -1.0),
    ])
    def test_sign_violations(self, field, value):
        with pytest.raises(InvalidParams) as err:
            PhysicalParams(**{field: value})
        assert err.value.field == field

    def test_zero_cubic_allowed(self):
        PhysicalParams(k3=0.0)  # the linear variant


class TestGrid:
    def test_endpoints_exact(self):
        grid = make_grid(2.5, 11)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.5
        assert grid.h == pytest.approx(0.25)

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            make_grid(1.0, 2)


def loop_rows_from_forms(params, n):
    """Reference: A assembled row by row from the dense energy forms.

    Row i of each velocity block is row i of K_V or D_sig2 over
    -(M_H)_ii, over the form's three diagonals only.
    """
    m_h, k_v, d_sig2 = dense_forms(quadratic_forms(params, n))
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    for i in range(n):
        for j in range(max(i - 1, 0), min(i + 2, n)):
            a[n + i, j] = -k_v[i, j] / m_h[i, i]
            a[n + i, n + j] = -d_sig2[i, j] / m_h[i, i]
    return a


def centered_rows(params, n):
    """The centered second-order differences of the interior rows."""
    h = params.l / (n - 1)
    b2, g = params.beta**2, params.gamma
    a = np.zeros((2 * n, 2 * n))
    for i in range(1, n - 1):
        a[n + i, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) * b2 / h**2
        a[n + i, n + i - 1:n + i + 2] = (np.array([1.0, -2.0, 1.0]) * g / h**2
                                         - [0.0, params.alpha, 0.0])
    return a


class TestBuildSystem:
    @pytest.mark.parametrize("params", [EXAMPLE1, EXAMPLE2_SMALL, EXAMPLE3,
                                        PhysicalParams(l=2.5, beta=0.7)],
                             ids=["example1", "example2", "example3", "l2.5"])
    @pytest.mark.parametrize("n", [3, 4, 20, 101])
    def test_interior_rows_match_loop(self, params, n):
        # bitwise, signed zeros included, against the forms; the interior
        # rows are the centered differences up to rounding
        a = build_system(params, n).a
        ref = loop_rows_from_forms(params, n)
        assert a.tobytes() == ref.tobytes()
        rows = np.r_[n + 1:2 * n - 1]
        scale = np.abs(a[rows]).max()
        np.testing.assert_allclose(a[rows], centered_rows(params, n)[rows],
                                   rtol=0.0, atol=1e-14 * scale)

    def test_interior_stencil_n3(self):
        # n=3, l=1: h=1/2, beta^2/h^2 = 4
        sys = build_system(PhysicalParams(gamma=0.0), 3)
        np.testing.assert_allclose(sys.a[4, :3], [4.0, -8.0, 4.0])

    def test_left_boundary_stencil_n3(self):
        # h = 1/2: the mass m0 + h/2 = 1.25 carries -(k0 + 1/h) d1 + d2/h,
        # and the row reaches no third node
        sys = build_system(PhysicalParams(k0=1.0, gamma=0.0), 3)
        np.testing.assert_allclose(sys.a[3, :3], [-3.0 / 1.25, 2.0 / 1.25, 0.0])
        assert sys.a[3, 2] == 0.0 and sys.a[3, 5] == 0.0

    def test_boundary_rows_general(self):
        # frozen from the lumped boundary masses with h=1/2: m0 + h/2 =
        # 2.25 and ml + h/2 = 1.75 carry the boundary rows of K_V and
        # D_sig2 (beta^2/h = 2, gamma/h = 0.6, alpha h/2 = 0.05)
        p = PhysicalParams(m0=2.0, ml=1.5, k0=0.7, kl=2.0, beta=1.0,
                           gamma=0.3, alpha=0.2, alpha0=0.25, alphal=0.4)
        sys = build_system(p, 3)
        np.testing.assert_allclose(
            sys.a[3, :3], [-(2.0 + 0.7) / 2.25, 2.0 / 2.25, 0.0])
        np.testing.assert_allclose(
            sys.a[3, 3:], [-(0.6 + 0.05 + 0.25) / 2.25, 0.6 / 2.25, 0.0])
        np.testing.assert_allclose(
            sys.a[5, :3][::-1], [-(2.0 + 2.0) / 1.75, 2.0 / 1.75, 0.0])
        np.testing.assert_allclose(
            sys.a[5, 3:][::-1], [-(0.6 + 0.05 + 0.4) / 1.75, 0.6 / 1.75, 0.0])
        assert sys.a[3, 2] == sys.a[3, 5] == sys.a[5, 0] == sys.a[5, 3] == 0.0

    @pytest.mark.parametrize("n", [3, 50, 200])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_energy_is_a_lyapunov_function(self, name, n):
        # with H = blkdiag(K_V, M_H), sym(H A) = blkdiag(0, -D_sig2) up to
        # rounding on the forms' three diagonals, at most 6 entries a row,
        # so its largest eigenvalue is at most 6 times that rounding
        params = PRESETS[name].params
        sys = build_system(params, n)
        m_h, k_v, d_sig2 = dense_forms(quadratic_forms(params, n))
        h = scipy.linalg.block_diag(k_v, m_h)
        ha = h @ sys.a
        sym = 0.5 * (ha + ha.T)
        expected = scipy.linalg.block_diag(np.zeros((n, n)), -d_sig2)
        tol = 4.0 * np.finfo(float).eps * np.abs(ha).max()
        assert np.abs(sym - expected).max() <= tol
        assert np.linalg.eigvalsh(sym).max() <= 6.0 * tol

    def test_block_structure(self):
        sys = build_system(EXAMPLE1, 12)
        np.testing.assert_array_equal(sys.a[:12, :12], np.zeros((12, 12)))
        np.testing.assert_array_equal(sys.a[:12, 12:], np.eye(12))

    def test_input_and_output_maps(self):
        # the input column is e_1 / (M_H)_11: h = 1/4, m0 + h/2 = 2.125
        p = PhysicalParams(m0=2.0)
        sys = build_system(p, 5)
        expected_b = np.zeros((10, 1))
        expected_b[5, 0] = 1.0 / dense_forms(quadratic_forms(p, 5))[0][0, 0]
        assert sys.b.tobytes() == expected_b.tobytes()
        assert sys.b[5, 0] == pytest.approx(1.0 / 2.125)
        assert sys.c.shape == (2, 10)
        assert sys.c[0, 4] == 1.0 and sys.c[1, 9] == 1.0
        assert np.count_nonzero(sys.c) == 2

    def test_nonlinearity_descriptor(self):
        # -k3 / (M_H)_nn: h = 1/6, ml + h/2 = 19/12
        p = PhysicalParams(k3=2.0, ml=1.5)
        sys = build_system(p, 7)
        m_h = dense_forms(quadratic_forms(p, 7))[0]
        assert sys.nl_coeff == -2.0 / m_h[-1, -1]
        assert sys.nl_coeff == pytest.approx(-24.0 / 19.0)
        assert sys.nl_state_index == 6
        assert sys.nl_target_index == 13

    def test_cached_inputs_read_only(self):
        # schur and modes are derived from A once and kept, and the
        # ETDRK4 table from A, b and c
        sys = build_system(EXAMPLE1, 5)
        for arr in (sys.a, sys.b, sys.c):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        with pytest.raises(ValueError):
            sys.schur.q[0, 0] = 1.0
        with pytest.raises(ValueError):
            sys.schur.t[0, 0] = 1.0

    def test_schur_factored_once(self):
        sys = build_system(EXAMPLE1, 5)
        assert sys.schur is sys.schur
        rel = np.linalg.norm(sys.schur.q @ sys.schur.t @ sys.schur.q.T - sys.a)
        assert rel <= 1e-12 * np.linalg.norm(sys.a)

    def test_modes_factored_once_and_lazily(self, monkeypatch):
        # only the ETDRK4 runs need the modal factor: the system's table
        # factors A once, on first use, and the Schur factor never does
        shapes = []
        real = linalg.modal_factor

        def recording(a):
            shapes.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(linalg, "modal_factor", recording)
        sys = build_system(EXAMPLE1, 5)
        sys.schur
        assert shapes == [] and "etdrk4" not in vars(sys)
        modes = sys.etdrk4.modes
        assert sys.etdrk4.modes is modes and shapes == [(10, 10)]
        # A V = V D, measured 4.5e-16 of ||A||
        v = modes.v
        rel = np.linalg.norm(sys.a @ v - v @ modal_blocks(modes))
        assert rel <= 5e-15 * np.linalg.norm(sys.a)

    def test_too_few_nodes(self):
        with pytest.raises(GridTooCoarse):
            build_system(EXAMPLE1, 2)

    @pytest.mark.parametrize("params", [EXAMPLE1, EXAMPLE2_SMALL, EXAMPLE3],
                             ids=["example1", "example2", "example3"])
    def test_damped_systems_stable_n100(self, params):
        sys = build_system(params, 100)
        assert linalg.eigenvalues(sys.a).real.max() < 0.0


class TestNonlinearity:
    def test_zero_state(self):
        sys = build_system(EXAMPLE1, 10)
        np.testing.assert_array_equal(eval_nonlinearity(sys, np.zeros(20)),
                                      np.zeros(20))

    def test_cubic_value(self):
        # -k3 d_n^3 / (ml + h/2) with h = 1/3: -8 / (5/3)
        sys = build_system(PhysicalParams(k3=1.0, ml=1.5), 4)
        x = np.zeros(8)
        x[3] = 2.0  # d_n
        out = eval_nonlinearity(sys, x)
        assert out[7] == pytest.approx(-24.0 / 5.0)
        assert np.count_nonzero(out) == 1

    def test_linear_variant_identically_zero(self, rng):
        sys = build_system(PhysicalParams(k3=0.0), 6)
        for _ in range(5):
            x = rng.standard_normal(12)
            np.testing.assert_array_equal(eval_nonlinearity(sys, x),
                                          np.zeros(12))

    def test_dimension_mismatch(self):
        sys = build_system(EXAMPLE1, 5)
        with pytest.raises(model.DimensionMismatch):
            eval_nonlinearity(sys, np.zeros(11))


class TestFomRhs:
    def test_equilibrium(self):
        sys = build_system(EXAMPLE1, 6)
        np.testing.assert_array_equal(fom_rhs(sys, np.zeros(12), 0.0),
                                      np.zeros(12))

    def test_input_column(self):
        # 1 / (m0 + h/2) with h = 1/5
        sys = build_system(PhysicalParams(m0=4.0), 6)
        out = fom_rhs(sys, np.zeros(12), 1.0)
        expected = np.zeros(12)
        expected[6] = 1.0 / 4.1
        np.testing.assert_allclose(out, expected)

    def test_matrix_multiply_oracle_linear(self, rng):
        sys = build_system(PhysicalParams(k3=0.0, gamma=0.05, alphal=0.1), 8)
        x = rng.standard_normal(16)
        u = rng.standard_normal()
        expected = sys.a @ x + sys.b[:, 0] * u
        np.testing.assert_allclose(fom_rhs(sys, x, u), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 50, 200])
    def test_matches_linear_part_plus_nonlinearity(self, n, rng):
        sys = build_system(PhysicalParams(k3=2.0, gamma=0.1, alphal=0.1), n)
        x = rng.standard_normal(2 * n)
        u = rng.standard_normal()
        expected = sys.a @ x + sys.b[:, 0] * u + eval_nonlinearity(sys, x)
        out = fom_rhs(sys, x, u)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_linearity_property(self, rng):
        sys = build_system(PhysicalParams(k3=0.0, gamma=0.1, alphal=0.1), 8)
        x1, x2 = rng.standard_normal((2, 16))
        lhs = fom_rhs(sys, x1 + x2, 0.0)
        rhs_sum = fom_rhs(sys, x1, 0.0) + fom_rhs(sys, x2, 0.0)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs_sum) <= 1e-12 * scale

    def test_jacobian_matches_finite_differences(self, rng):
        sys = build_system(EXAMPLE1, 5)
        x = rng.standard_normal(10)
        jac = fom_jacobian(sys, x)
        eps = 1e-6
        fd = np.empty((10, 10))
        for j in range(10):
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            fd[:, j] = (fom_rhs(sys, xp, 0.0) - fom_rhs(sys, xm, 0.0)) / (2 * eps)
        np.testing.assert_allclose(jac, fd, atol=1e-5)


def backward_error(w, z, b):
    """||W z - b|| / (||W|| ||z|| + ||b||), all in the 1-norm."""
    return (np.linalg.norm(w @ z - b, 1)
            / (np.linalg.norm(w, 1) * np.linalg.norm(z, 1)
               + np.linalg.norm(b, 1)))


class TestSecondOrderJacobian:
    """The FOM's state Jacobian and the Rosenbrock solve with it."""

    # n = 3 is the smallest grid, where the two boundary rows share a node
    @pytest.mark.parametrize("n", [3, 50, 400])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_velocity_blocks_tridiagonal(self, name, n):
        # the velocity blocks are -M_H^-1 K_V and -M_H^-1 D_sig2, exactly
        # (the dense quotient has -0.0 where A keeps +0.0), with nothing
        # off their three diagonals, in A and in the Jacobian at a
        # nonzero state
        params = PRESETS[name].params
        sys = build_system(params, n)
        m_h, k_v, d_sig2 = dense_forms(quadratic_forms(params, n))
        mass = np.diagonal(m_h)[:, None]
        assert np.array_equal(sys.a[n:, :n], -k_v / mass)
        assert np.array_equal(sys.a[n:, n:], -d_sig2 / mass)
        jac = fom_jacobian(sys, np.ones(2 * n))
        for m in (sys.a, jac):
            for block in (m[n:, :n], m[n:, n:]):
                assert not np.triu(block, 2).any()
                assert not np.tril(block, -2).any()

    @pytest.mark.parametrize("n", [3, 50])
    def test_dense_form_exact(self, n, rng):
        # A with 3 k d_n^2 added at (v_n, d_n), bitwise
        sys = build_system(EXAMPLE1, n)
        x = rng.standard_normal(2 * n)
        expected = sys.a.copy()
        expected[2 * n - 1, n - 1] += 3.0 * sys.nl_coeff * x[n - 1] ** 2
        assert fom_jacobian(sys, x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [3, 50])
    def test_solve_matches_dense(self, n, rng):
        sys = build_system(EXAMPLE1, n)
        x = rng.standard_normal(2 * n)
        b = rng.standard_normal(2 * n)
        hd = 1e-3  # h d for a step h of about 3.4e-3
        solve = ode._factor(fom_jacobian(sys, x), hd, 0.0)
        w = np.eye(2 * n) - hd * fom_jacobian(sys, x)
        ref = np.linalg.solve(w, b)
        assert np.linalg.norm(solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("hd", [1e-6, 1e-3, 0.1, 1.0, 30.0])
    @pytest.mark.parametrize("n", [3, 100, 400])
    @pytest.mark.parametrize("name", ["small_stiff_ex5_in4", "exp_stab_Ex1",
                                      "small_damp_ex5_in4"])
    def test_solve_backward_stable(self, name, n, hd, rng):
        sys = build_system(PRESETS[name].params, n)
        x = rng.standard_normal(2 * n)
        b = rng.standard_normal(2 * n)
        jac = fom_jacobian(sys, x)
        z = ode._factor(jac, hd, 0.0)(b)
        w = np.eye(2 * n) - hd * jac
        assert backward_error(w, z, b) <= 1e-14

    def test_solve_keeps_its_input(self, rng):
        sys = build_system(EXAMPLE1, 10)
        b = rng.standard_normal(20)
        kept = b.copy()
        ode._factor(fom_jacobian(sys, np.ones(20)), 0.1, 0.0)(b)
        np.testing.assert_array_equal(b, kept)

    def test_singular(self):
        # K = 16 I, G = 0: at hd = 0.25 the Schur complement I - hd^2 K is 0
        n, hd = 4, 0.25
        jac = np.block([[np.zeros((n, n)), np.eye(n)],
                        [16.0 * np.eye(n), np.zeros((n, n))]])
        assert np.linalg.matrix_rank(np.eye(2 * n) - hd * jac) < 2 * n
        assert ode._factor(jac, hd, 0.0) is None

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_nonfinite_jacobian(self, delta):
        # the cubic entry not finite
        sys = build_system(EXAMPLE1, 10)
        jac = fom_jacobian(sys, np.zeros(20))
        jac[sys.nl_target_index, sys.nl_state_index] = delta
        with pytest.raises(ode.NonFiniteState):
            ode._factor(jac, 0.1, 0.0)


def transfer_tridiagonal(sys, s):
    """C (s I - A)^-1 B, solved with A's velocity blocks as three bands.

    With K = A[n:, :n] and G = A[n:, n:], d = (s^2 I - s G - K)^-1 b_v
    and v = s d; only the three diagonals of K and G are read, so the
    result is right only if no row of A reaches a third node.
    """
    n = sys.n
    k, g = sys.a[n:, :n], sys.a[n:, n:]
    bands = np.zeros((3, n), dtype=complex)
    bands[0, 1:] = -(s * np.diagonal(g, 1) + np.diagonal(k, 1))
    bands[1] = s * s - s * np.diagonal(g) - np.diagonal(k)
    bands[2, :-1] = -(s * np.diagonal(g, -1) + np.diagonal(k, -1))
    d = scipy.linalg.solve_banded((1, 1), bands, sys.b[n:, 0].astype(complex))
    return sys.c[:, :n] @ d + sys.c[:, n:] @ (s * d)


class TestConvergence:
    """Second-order convergence of the FOM's transfer function."""

    @pytest.mark.parametrize("name", ["exp_stab_Ex1", "exp_stability2",
                                      "small_damp_ex5_in4",
                                      "small_stiff_ex5_in4"])
    def test_transfer_function_second_order(self, name):
        # the error is the largest over the frequencies, which omega = 1
        # or 5 sets: at omega = 0.1 the linear elements are nearly exact
        # (the static response is linear in x), and the error there, 2e-10
        # to 6e-8 of |G| at n = 100 and 200, meets the rounding of the
        # n = 1600 reference on the softly sprung presets
        params = PRESETS[name].params
        points = 1j * np.array([0.1, 1.0, 5.0])
        ref = build_system(params, 1600)
        g_ref = np.array([transfer_tridiagonal(ref, s) for s in points])
        del ref
        errors = []
        for n in (25, 50, 100, 200):
            sys = build_system(params, n)
            for block in (sys.a[n:, :n], sys.a[n:, n:]):
                assert not np.triu(block, 2).any()
                assert not np.tril(block, -2).any()
            g = np.array([transfer_tridiagonal(sys, s) for s in points])
            errors.append(np.abs(g - g_ref).max())
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios

    def test_banded_solve_matches_dense(self):
        sys = build_system(PRESETS["exp_stability2"].params, 25)
        for s in 1j * np.array([0.1, 1.0, 5.0]):
            dense = sys.c @ np.linalg.solve(s * np.eye(50) - sys.a, sys.b[:, 0])
            np.testing.assert_allclose(transfer_tridiagonal(sys, s), dense,
                                       rtol=1e-10)


class TestInitialData:
    def test_zero_functions(self):
        x0 = sample_initial_data(EXAMPLE1, 7, lambda x: 0.0, lambda x: 0.0)
        np.testing.assert_array_equal(x0, np.zeros(14))

    def test_linear_profile(self):
        x0 = sample_initial_data(PhysicalParams(), 3, lambda x: x, lambda x: 0.0)
        np.testing.assert_allclose(x0[:3], [0.0, 0.5, 1.0])

    def test_endpoint_values(self):
        x0 = sample_initial_data(
            PhysicalParams(), 100,
            pos=lambda x: np.exp(x) * np.sin(1.0 - x), vel=np.cos)
        assert x0[0] == pytest.approx(0.8414709848078965, abs=1e-14)
        assert x0[99] == pytest.approx(0.0, abs=1e-14)
        assert x0[100] == pytest.approx(1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sample_initial_data(PhysicalParams(), 5,
                                lambda x: np.inf if x == 0.5 else x,
                                lambda x: 0.0)


class TestQuadraticForms:
    def test_no_damping_gives_zero_form(self):
        d_sig2 = dense_forms(quadratic_forms(PhysicalParams(), 9))[2]
        np.testing.assert_array_equal(d_sig2, np.zeros((9, 9)))

    def test_constant_vector_v_form(self):
        k_v = dense_forms(quadratic_forms(PhysicalParams(k0=1.0, kl=1.0),
                                          17))[1]
        c = 1.7
        w = np.full(17, c)
        assert w @ k_v @ w == pytest.approx(2.0 * c**2)

    def test_symmetric_psd(self):
        # symmetric by construction: each form stores one off-diagonal
        for mat in dense_forms(quadratic_forms(EXAMPLE2_SMALL, 15)):
            assert np.linalg.eigvalsh(mat).min() >= -1e-12 * max(
                np.linalg.norm(mat), 1.0)

    def test_no_dense_form_built(self):
        # five bands of at most 400 floats: no 400 x 400 matrix (1.28 MB)
        params = PRESETS["exp_stab_Ex1"].params
        tracemalloc.start()
        try:
            model.quadratic_forms(params, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_example2_h_elliptic(self):
        # viscous damping everywhere: damping form coercive in the mass form
        m_h, _, d_sig2 = dense_forms(quadratic_forms(EXAMPLE2_SMALL, 40))
        gen = scipy.linalg.eigh(d_sig2, m_h, eigvals_only=True)
        assert gen.min() > 0.0
