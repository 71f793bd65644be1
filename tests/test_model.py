import numpy as np
import pytest
import scipy.linalg

from cablemass import linalg, model, ode
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
        # a_band, a_csr and schur are derived from A once and kept
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

    def test_sparse_a_built_lazily(self):
        sys = build_system(EXAMPLE1, 10)
        assert "a_csr" not in vars(sys)
        fom_rhs(sys, np.zeros(20), 0.0)
        assert sys.a_csr is vars(sys)["a_csr"]
        np.testing.assert_array_equal(sys.a_csr.toarray(), sys.a)

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


class TestBandedJacobian:
    # n = 3 is the smallest grid, where the two boundary stencils overlap
    @pytest.mark.parametrize("n", [3, 50])
    def test_band_widths(self, n, rng):
        sys = build_system(EXAMPLE1, n)
        band = fom_jacobian(sys, rng.standard_normal(2 * n))
        assert (band.kl, band.ku) == (5, 4)
        assert band.ab.shape == (10, 2 * n)
        # the outermost diagonals are occupied, so neither width can shrink
        assert np.count_nonzero(band.ab[0]) > 0
        assert np.count_nonzero(band.ab[-1]) > 0
        # and every nonzero of A lies inside the band
        assert np.count_nonzero(sys.a_band.ab) == np.count_nonzero(sys.a)

    @pytest.mark.parametrize("n", [3, 50])
    def test_dense_form_exact(self, n, rng):
        sys = build_system(EXAMPLE1, n)
        x = rng.standard_normal(2 * n)
        np.testing.assert_array_equal(fom_jacobian(sys, x).dense(),
                                      dense_jacobian(sys, x))

    @pytest.mark.parametrize("n", [3, 50])
    def test_banded_solve_matches_dense(self, n, rng):
        sys = build_system(EXAMPLE1, n)
        x = rng.standard_normal(2 * n)
        b = rng.standard_normal(2 * n)
        hd = 1e-3  # h d for a step h of about 3.4e-3
        solve = ode._factor(fom_jacobian(sys, x), hd, 0.0)
        ref = np.linalg.solve(np.eye(2 * n) - hd * dense_jacobian(sys, x), b)
        assert np.linalg.norm(solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_band_built_lazily(self):
        sys = build_system(EXAMPLE1, 10)
        assert "a_band" not in vars(sys)
        fom_jacobian(sys, np.zeros(20))
        assert sys.a_band is vars(sys)["a_band"]


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
