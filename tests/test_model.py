from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_array

from cablemass import linalg, model, ode
from cablemass.cli import PRESETS
from cablemass.model import (GridTooCoarse, InvalidParams, PhysicalParams,
                             build_system, eval_nonlinearity, fom_jacobian,
                             fom_rhs, make_grid, quadratic_forms,
                             sample_initial_data)
from conftest import EXAMPLE1, EXAMPLE2_SMALL, EXAMPLE3


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


def loop_interior_rows(params, n):
    """Reference: the interior stencil of A assembled row by row."""
    h = params.l / (n - 1)
    b2, g = params.beta**2, params.gamma
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    for i in range(1, n - 1):
        row = n + i
        a[row, i - 1] += b2 / h**2
        a[row, i] += -2.0 * b2 / h**2
        a[row, i + 1] += b2 / h**2
        a[row, n + i - 1] += g / h**2
        a[row, n + i] += -2.0 * g / h**2 - params.alpha
        a[row, n + i + 1] += g / h**2
    return a


class TestBuildSystem:
    @pytest.mark.parametrize("params", [EXAMPLE1, EXAMPLE2_SMALL, EXAMPLE3,
                                        PhysicalParams(l=2.5, beta=0.7)],
                             ids=["example1", "example2", "example3", "l2.5"])
    @pytest.mark.parametrize("n", [3, 4, 20, 101])
    def test_interior_rows_match_loop(self, params, n):
        # bitwise, signed zeros included: gamma = 0 gives -0.0 coefficients
        a = build_system(params, n).a
        ref = loop_interior_rows(params, n)
        rows = np.r_[0:n, n + 1:2 * n - 1]
        assert a[rows].tobytes() == ref[rows].tobytes()

    def test_interior_stencil_n3(self):
        # n=3, l=1: h=1/2, beta^2/h^2 = 4
        sys = build_system(PhysicalParams(gamma=0.0), 3)
        np.testing.assert_allclose(sys.a[4, :3], [4.0, -8.0, 4.0])

    def test_left_boundary_stencil_n3(self):
        # 2h = 1: coefficients (-k0 - 3, 4, -1) / m0
        sys = build_system(PhysicalParams(k0=1.0, gamma=0.0), 3)
        np.testing.assert_allclose(sys.a[3, :3], [-4.0, 4.0, -1.0])

    def test_boundary_rows_general(self):
        # frozen from the one-sided stencil formulas with h=1/2
        p = PhysicalParams(m0=2.0, ml=1.5, k0=0.7, kl=2.0, beta=1.0,
                           gamma=0.3, alpha=0.2, alpha0=0.25, alphal=0.4)
        sys = build_system(p, 3)
        two_h_m0 = 2.0 * 0.5 * 2.0
        np.testing.assert_allclose(
            sys.a[3, :3],
            [-0.7 / 2.0 - 3.0 / two_h_m0, 4.0 / two_h_m0, -1.0 / two_h_m0])
        np.testing.assert_allclose(
            sys.a[3, 3:],
            [-3.0 * 0.3 / two_h_m0 - 0.25 / 2.0,
             4.0 * 0.3 / two_h_m0, -0.3 / two_h_m0])
        two_h_ml = 2.0 * 0.5 * 1.5
        np.testing.assert_allclose(
            sys.a[5, :3][::-1],
            [-2.0 / 1.5 - 3.0 / two_h_ml, 4.0 / two_h_ml, -1.0 / two_h_ml])
        np.testing.assert_allclose(
            sys.a[5, 3:][::-1],
            [-0.4 / 1.5 - 3.0 * 0.3 / two_h_ml,
             4.0 * 0.3 / two_h_ml, -0.3 / two_h_ml])

    def test_block_structure(self):
        sys = build_system(EXAMPLE1, 12)
        np.testing.assert_array_equal(sys.a[:12, :12], np.zeros((12, 12)))
        np.testing.assert_array_equal(sys.a[:12, 12:], np.eye(12))

    def test_input_and_output_maps(self):
        p = PhysicalParams(m0=2.0)
        sys = build_system(p, 5)
        expected_b = np.zeros((10, 1))
        expected_b[5, 0] = 0.5
        np.testing.assert_array_equal(sys.b, expected_b)
        assert sys.c.shape == (2, 10)
        assert sys.c[0, 4] == 1.0 and sys.c[1, 9] == 1.0
        assert np.count_nonzero(sys.c) == 2

    def test_nonlinearity_descriptor(self):
        sys = build_system(PhysicalParams(k3=2.0, ml=1.5), 7)
        assert sys.nl_coeff == pytest.approx(-2.0 / 1.5)
        assert sys.nl_state_index == 6
        assert sys.nl_target_index == 13

    def test_cached_inputs_read_only(self):
        # a_second_order, a_matvec and schur are derived from A once and kept
        sys = build_system(EXAMPLE1, 5)
        with pytest.raises(ValueError):
            sys.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            sys.schur.q[0, 0] = 1.0
        with pytest.raises(ValueError):
            sys.schur.t[0, 0] = 1.0

    def test_schur_factored_once(self):
        sys = build_system(EXAMPLE1, 5)
        assert sys.schur is sys.schur
        rel = np.linalg.norm(sys.schur.q @ sys.schur.t @ sys.schur.q.T - sys.a)
        assert rel <= 1e-12 * np.linalg.norm(sys.a)

    def test_modes_factored_once_and_lazily(self):
        # only the ETDRK4 runs need the modal factor
        sys = build_system(EXAMPLE1, 5)
        sys.schur, sys.a_second_order, sys.a_matvec
        assert "modes" not in vars(sys)
        assert sys.modes is sys.modes
        v, lam = sys.modes.v, sys.modes.eigenvalues
        rel = np.linalg.norm(v @ np.diag(lam) @ np.linalg.inv(v) - sys.a)
        assert rel <= 1e-12 * np.linalg.norm(sys.a)

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
        sys = build_system(PhysicalParams(k3=1.0, ml=1.5), 4)
        x = np.zeros(8)
        x[3] = 2.0  # d_n
        out = eval_nonlinearity(sys, x)
        assert out[7] == pytest.approx(-16.0 / 3.0)
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
        sys = build_system(PhysicalParams(m0=4.0), 6)
        out = fom_rhs(sys, np.zeros(12), 1.0)
        expected = np.zeros(12)
        expected[6] = 0.25
        np.testing.assert_allclose(out, expected)

    def test_matrix_multiply_oracle_linear(self, rng):
        sys = build_system(PhysicalParams(k3=0.0, gamma=0.05, alphal=0.1), 8)
        x = rng.standard_normal(16)
        u = rng.standard_normal()
        expected = sys.a @ x + sys.b[:, 0] * u
        np.testing.assert_allclose(fom_rhs(sys, x, u), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 50, 200])
    def test_sparse_product_matches_dense(self, n, rng):
        sys = build_system(PhysicalParams(k3=2.0, gamma=0.1, alphal=0.1), n)
        x = rng.standard_normal(2 * n)
        u = rng.standard_normal()
        expected = sys.a @ x + sys.b[:, 0] * u + eval_nonlinearity(sys, x)
        out = fom_rhs(sys, x, u)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [3, 50, 100, 400])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_kernel_bitwise_equal_to_sparse_product(self, preset, n, rng):
        # fom_rhs calls the kernel behind csr_array(A) @ x: the same
        # result, bit for bit, also for a strided state
        sys = build_system(PRESETS[preset].params, n)
        x = rng.standard_normal(4 * n)[::2]
        u = rng.standard_normal()
        expected = csr_array(sys.a) @ x + sys.b[:, 0] * u
        expected[sys.nl_target_index] += \
            sys.nl_coeff * x[sys.nl_state_index] ** 3
        assert fom_rhs(sys, x, u).tobytes() == expected.tobytes()

    def test_sparse_a_built_lazily(self):
        sys = build_system(EXAMPLE1, 10)
        assert "a_matvec" not in vars(sys)
        fom_rhs(sys, np.zeros(20), 0.0)
        assert sys.a_matvec is vars(sys)["a_matvec"]
        # the kept kernel applies A, column by column
        columns = []
        for e in np.eye(20):
            columns.append(np.zeros(20))
            sys.a_matvec(e, columns[-1])
        np.testing.assert_array_equal(np.column_stack(columns), sys.a)

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
        jac = fom_jacobian(sys, x).dense()
        eps = 1e-6
        fd = np.empty((10, 10))
        for j in range(10):
            xp, xm = x.copy(), x.copy()
            xp[j] += eps
            xm[j] -= eps
            fd[:, j] = (fom_rhs(sys, xp, 0.0) - fom_rhs(sys, xm, 0.0)) / (2 * eps)
        np.testing.assert_allclose(jac, fd, atol=1e-5)


def dense_jacobian(sys, x):
    """A plus the cubic entry, assembled on the [d; v] ordering."""
    jac = sys.a.copy()
    jac[sys.nl_target_index, sys.nl_state_index] += (
        3.0 * sys.nl_coeff * x[sys.nl_state_index] ** 2)
    return jac


def velocity_row_combination(sys):
    """P: h/(2 m0) times velocity row 1 onto row 0, h/(2 ml) times row n-2
    onto row n-1, built from the parameters rather than the stored band."""
    n, h = sys.n, sys.grid.h
    p = np.eye(n)
    p[0, 1] = h / (2.0 * sys.params.m0)
    p[n - 1, n - 2] = h / (2.0 * sys.params.ml)
    return p


def unband(ab):
    """The dense tridiagonal matrix of a (3, n) LAPACK band."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def backward_error(w, z, b):
    """||W z - b|| / (||W|| ||z|| + ||b||), all in the 1-norm."""
    return (np.linalg.norm(w @ z - b, 1)
            / (np.linalg.norm(w, 1) * np.linalg.norm(z, 1)
               + np.linalg.norm(b, 1)))


class TestSecondOrderJacobian:
    # n = 3 is the smallest grid, where the two boundary stencils overlap
    @pytest.mark.parametrize("n", [3, 50, 400])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_velocity_blocks_tridiagonal(self, name, n):
        sys = build_system(PRESETS[name].params, n)
        p = velocity_row_combination(sys)
        structured = sys.a_second_order
        for block, band in ((sys.a[n:, :n], structured.pk),
                            (sys.a[n:, n:], structured.pg)):
            pm = p @ block
            tol = 4.0 * np.finfo(float).eps * np.abs(block).max()
            # everything off the three diagonals cancels to rounding ...
            assert np.abs(np.triu(pm, 2)).max(initial=0.0) <= tol
            assert np.abs(np.tril(pm, -2)).max(initial=0.0) <= tol
            # ... and the band holds the three diagonals that remain
            np.testing.assert_allclose(unband(band),
                                       np.triu(np.tril(pm, 1), -1),
                                       rtol=0.0, atol=tol)
        np.testing.assert_array_equal(unband(structured.p), p)

    @pytest.mark.parametrize("n", [3, 50])
    def test_dense_form_exact(self, n, rng):
        sys = build_system(EXAMPLE1, n)
        x = rng.standard_normal(2 * n)
        np.testing.assert_array_equal(fom_jacobian(sys, x).dense(),
                                      dense_jacobian(sys, x))

    @pytest.mark.parametrize("n", [3, 50])
    def test_solve_matches_dense(self, n, rng):
        sys = build_system(EXAMPLE1, n)
        x = rng.standard_normal(2 * n)
        b = rng.standard_normal(2 * n)
        hd = 1e-3  # h d for a step h of about 3.4e-3
        solve = ode._factor(fom_jacobian(sys, x), hd, 0.0)
        ref = np.linalg.solve(np.eye(2 * n) - hd * dense_jacobian(sys, x), b)
        assert np.linalg.norm(solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("hd", [1e-6, 1e-3, 0.1, 1.0, 30.0])
    @pytest.mark.parametrize("n", [3, 100, 400])
    @pytest.mark.parametrize("name", ["small_stiff_ex5_in4", "exp_stab_Ex1",
                                      "small_damp_ex5_in4"])
    def test_solve_backward_stable(self, name, n, hd, rng):
        sys = build_system(PRESETS[name].params, n)
        x = rng.standard_normal(2 * n)
        b = rng.standard_normal(2 * n)
        z = ode._factor(fom_jacobian(sys, x), hd, 0.0)(b)
        w = np.eye(2 * n) - hd * dense_jacobian(sys, x)
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
        band = np.zeros((3, n), order="F")
        band[1] = 16.0
        eye = np.zeros((3, n), order="F")
        eye[1] = 1.0
        linear = np.block([[np.zeros((n, n)), np.eye(n)],
                           [16.0 * np.eye(n), np.zeros((n, n))]])
        jac = ode.SecondOrderJacobian(linear=linear, p=eye, pk=band,
                                      pg=np.zeros((3, n), order="F"))
        assert np.linalg.matrix_rank(np.eye(2 * n) - hd * jac.dense()) < 2 * n
        assert ode._factor(jac, hd, 0.0) is None

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_nonfinite_jacobian(self, delta):
        sys = build_system(EXAMPLE1, 10)
        jac = replace(sys.a_second_order, delta=delta)
        with pytest.raises(ode.NonFiniteState):
            ode._factor(jac, 0.1, 0.0)

    def test_built_lazily(self):
        sys = build_system(EXAMPLE1, 10)
        assert "a_second_order" not in vars(sys)
        jac = fom_jacobian(sys, np.zeros(20))
        assert sys.a_second_order is vars(sys)["a_second_order"]
        # a step shares the system's pieces; only delta is its own
        assert jac.pk is sys.a_second_order.pk
        assert jac.pg is sys.a_second_order.pg


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
        forms = quadratic_forms(PhysicalParams(), 9)
        np.testing.assert_array_equal(forms.d_sig2, np.zeros((9, 9)))

    def test_constant_vector_v_form(self):
        forms = quadratic_forms(PhysicalParams(k0=1.0, kl=1.0), 17)
        c = 1.7
        w = np.full(17, c)
        assert w @ forms.k_v @ w == pytest.approx(2.0 * c**2)

    def test_symmetric_psd(self):
        forms = quadratic_forms(EXAMPLE2_SMALL, 15)
        for mat in (forms.m_h, forms.k_v, forms.d_sig2):
            assert np.linalg.norm(mat - mat.T) <= 1e-12 * max(
                np.linalg.norm(mat), 1.0)
            assert np.linalg.eigvalsh(mat).min() >= -1e-12 * max(
                np.linalg.norm(mat), 1.0)

    def test_example2_h_elliptic(self):
        # viscous damping everywhere: damping form coercive in the mass form
        forms = quadratic_forms(EXAMPLE2_SMALL, 40)
        gen = scipy.linalg.eigh(forms.d_sig2, forms.m_h, eigvals_only=True)
        assert gen.min() > 0.0
