import contextlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cablemass import ode
from cablemass.model import PhysicalParams, build_system, fom_jacobian, fom_rhs
from cablemass.signals import square_wave
from conftest import linear_derivatives, node_sampled

def decay(t, x):
    return -x


DECAY = linear_derivatives(-1.0)  # decay's exact J and df/dt


def run(rhs, x0, t0, tf, t_eval=(), **kwargs):
    """ode.integrate with the queries t_eval, none by default."""
    q = np.asarray(t_eval, dtype=float)
    return ode.integrate(rhs, x0, t0, tf, t_eval=q,
                         out=np.empty((q.size, np.size(x0))), **kwargs)


def step_ends(rhs, x0, t0, tf, *, jacobian, **kwargs):
    """t0 and the end of every accepted step of a run.

    integrate evaluates the Jacobian once at the start of each step.
    """
    starts = []

    def logged(t, x):
        starts.append(t)
        return jacobian(t, x)

    run(rhs, x0, t0, tf, jacobian=logged, **kwargs)
    return np.array([*starts, tf])


def fixed_steps(rhs, jac, dfdt, x0, h, n):
    """n Ros2(3) attempts of size h from t = 0, each accepted."""
    y = np.asarray(x0, dtype=float)
    f = rhs(0.0, y)
    stats = ode.IntegratorStats()
    for i in range(n):
        t = i * h
        solve = ode._factor(jac(t, y), h * ode._D, t)
        y, f, _ = ode._stages(rhs, t, y, f, dfdt(t, y), h, solve, stats)
    return y


# a forced Duffing oscillator: nonlinear and non-autonomous, so the stage
# times and the df/dt terms all enter the error
def duffing(t, x):
    return np.array([x[1], -x[0] - 0.5 * x[1] - x[0] ** 3 + math.cos(2.0 * t)])


def duffing_jacobian(t, x):
    return np.array([[0.0, 1.0], [-1.0 - 3.0 * x[0] ** 2, -0.5]])


def duffing_dfdt(t, x):
    return np.array([0.0, -2.0 * math.sin(2.0 * t)])


@contextlib.contextmanager
def raises_quietly(error, match=None):
    """pytest.raises(error), with any RuntimeWarning turned into a failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=match):
            yield


class TestIntegrate:
    def test_scalar_exponential(self):
        rtol = 1e-3
        end = run(decay, np.array([1.0]), 0.0, 1.0,
                  rtol=rtol, atol=1e-8, **DECAY).end_state
        assert abs(end[0] - math.exp(-1.0)) <= 10.0 * rtol

    def test_stiff_diagonal(self):
        # fast mode decays instantly; steps must not collapse
        a = np.diag([-1.0, -1000.0])
        rtol = 1e-5
        result = run(lambda t, x: a @ x, np.array([1.0, 1.0]), 0.0, 1.0,
                     rtol=rtol, atol=1e-10, **linear_derivatives(a))
        exact = np.array([math.exp(-1.0), math.exp(-1000.0)])
        assert np.all(np.abs(result.end_state - exact) <= 10.0 * rtol)
        assert result.stats.n_steps < 2000  # no creep through the fast layer

    def test_harmonic_oscillator_energy(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        end = run(lambda t, x: a @ x, np.array([1.0, 0.0]), 0.0,
                  2.0 * math.pi, rtol=1e-6, atol=1e-9,
                  **linear_derivatives(a)).end_state
        energy = 0.5 * np.sum(end ** 2)
        assert abs(energy - 0.5) <= 1e-3

    def test_tolerance_convergence(self):
        # halving rtol must pay off by at least 1.5x on the terminal error
        errors = []
        for k in range(4):
            rtol = 1e-3 * 2.0 ** (-k)
            end = run(decay, np.array([1.0]), 0.0, 1.0,
                      rtol=rtol, atol=1e-14, **DECAY).end_state
            errors.append(abs(end[0] - math.exp(-1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 1.5

    def test_square_wave_forcing(self):
        rtol = 1e-4

        def rhs(t, x):
            return -x + 0.1 * square_wave(0.2 * math.pi * t)

        # df/dt is 0 between the jumps, and J the decay's
        end = run(rhs, np.array([0.0]), 0.0, 30.0,
                  rtol=rtol, atol=1e-9, **DECAY).end_state
        ref = run(rhs, np.array([0.0]), 0.0, 30.0,
                  rtol=1e-10, atol=1e-14, **DECAY).end_state
        assert abs(end[0] - ref[0]) <= 100.0 * rtol

    def test_nonautonomous_forcing(self):
        # x' = -x + sin t has closed form through (sin t - cos t)/2 + c e^-t
        def rhs(t, x):
            return -x + np.array([math.sin(t)])

        end = run(rhs, np.array([0.5]), 0.0, 2.0, rtol=1e-6, atol=1e-10,
                  jacobian=lambda t, x: [[-1.0]],
                  dfdt=lambda t, x: np.array([math.cos(t)])).end_state
        t = 2.0
        exact = 0.5 * (math.sin(t) - math.cos(t)) + math.exp(-t)
        assert abs(end[0] - exact) <= 1e-4

    def test_trajectory_contract(self):
        derivatives = linear_derivatives(-np.eye(2))
        times = step_ends(decay, np.array([1.0, 2.0]), 0.5, 3.5,
                          rtol=1e-4, atol=1e-8, **derivatives)
        result = run(decay, np.array([1.0, 2.0]), 0.5, 3.5, times,
                     rtol=1e-4, atol=1e-8, **derivatives)
        assert times[0] == 0.5
        assert times[-1] == 3.5
        assert np.all(np.diff(times) > 0.0)
        assert np.all(np.isfinite(result.states))
        assert result.stats.n_steps == len(times) - 1
        assert result.stats.n_lu == (result.stats.n_steps
                                     + result.stats.n_rejected)

    def test_fixed_step_second_order(self):
        # powers of two: the steps end on tf exactly
        x0, tf = np.array([1.0, 0.0]), 4.0
        ref = solve_ivp(duffing, (0.0, tf), x0, method="DOP853",
                        rtol=1e-13, atol=1e-15).y[:, -1]
        steps = [2.0 ** -k for k in range(2, 8)]
        errors = [np.abs(fixed_steps(duffing, duffing_jacobian, duffing_dfdt,
                                     x0, h, round(tf / h)) - ref).max()
                  for h in steps]
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.5

    def test_blowup_detected(self):
        with raises_quietly((ode.NonFiniteState, ode.StepSizeUnderflow)):
            run(lambda t, x: x ** 2, np.array([1.0]), 0.0, 2.0,
                rtol=1e-6, atol=1e-9,
                jacobian=lambda t, x: [[2.0 * x[0]]],
                dfdt=lambda t, x: np.zeros(1))

    def test_unresolvable_jump_underflows(self):
        # no step across a jump of 1e12 meets atol 1e-9 above hmin
        def rhs(t, x):
            return np.array([0.0 if t < 1.0 / 3.0 else 1e12])

        with raises_quietly(ode.StepSizeUnderflow):
            run(rhs, np.array([0.0]), 0.0, 1.0, rtol=1e-6, atol=1e-9,
                jacobian=lambda t, x: [[0.0]],
                dfdt=lambda t, x: np.zeros(1))

    def test_nonfinite_stage_dense(self):
        # a NaN inside a step is a rejected step, not a LAPACK ValueError;
        # the steps shrink onto t = 0.3 until they underflow
        def rhs(t, x):
            return np.array([np.nan]) if t > 0.3 else -x

        with raises_quietly(ode.NonFiniteState, match="blew up"):
            run(rhs, np.array([1.0]), 0.0, 1.0, **DECAY)

    def test_nonfinite_stage_banded(self):
        sys = build_system(PhysicalParams(gamma=0.1, alphal=0.1), 4)

        def rhs(t, x):
            out = fom_rhs(sys, x, 1.0)
            return out * np.nan if t > 0.3 else out

        with raises_quietly(ode.NonFiniteState, match="blew up"):
            run(rhs, np.zeros(8), 0.0, 1.0,
                jacobian=lambda t, x: fom_jacobian(sys, x),
                dfdt=lambda t, x: np.zeros(8))

    def test_derivatives_required(self):
        with pytest.raises(TypeError, match="jacobian.*dfdt"):
            ode.integrate(decay, np.array([1.0]), 0.0, 1.0)

    def test_queries_required(self):
        with pytest.raises(TypeError, match="t_eval.*out"):
            ode.integrate(decay, np.array([1.0]), 0.0, 1.0, **DECAY)

    def test_bad_span(self):
        with pytest.raises(ValueError):
            run(decay, np.array([1.0]), 1.0, 1.0, **DECAY)

    def test_bad_initial_state(self):
        with pytest.raises(ValueError):
            run(decay, np.array([np.nan]), 0.0, 1.0, **DECAY)

    @pytest.mark.parametrize("name,value", [
        ("rtol", 0.0), ("rtol", math.nan), ("rtol", math.inf),
        ("atol", -1e-9), ("atol", math.nan), ("atol", math.inf)])
    def test_bad_tolerances(self, name, value):
        with pytest.raises(ValueError, match="rtol and atol"):
            run(decay, np.array([1.0]), 0.0, 1.0, **DECAY, **{name: value})


class TestTimeDerivative:
    """The exact df/dt a caller passes: its cost and its finiteness check."""

    A = np.array([[-0.05, 1.0], [-4.0, -0.05]])
    B = np.array([0.0, 1.0])
    W = 3.0

    def _forced(self):
        # lightly damped oscillator driven by sin(3t)
        def rhs(t, x):
            return self.A @ x + self.B * math.sin(self.W * t)

        def dfdt(t, x):
            return self.B * (self.W * math.cos(self.W * t))

        return run(rhs, np.array([1.0, 0.0]), 0.0, 20.0, rtol=1e-6,
                   atol=1e-9, jacobian=lambda t, x: self.A, dfdt=dfdt)

    def test_two_rhs_calls_per_attempt(self):
        stats = self._forced().stats
        assert stats.n_rejected > 0
        # f0 and the start-step probe, then two stages per attempt
        assert stats.n_rhs == 2 + 2 * (stats.n_steps + stats.n_rejected)

    def test_nonfinite_dfdt(self):
        with pytest.raises(ode.NonFiniteState):
            run(decay, np.array([1.0]), 0.0, 1.0,
                jacobian=lambda t, x: [[-1.0]],
                dfdt=lambda t, x: np.array([math.nan]))


class TestDenseFactor:
    # the identity must land on the diagonal whatever the memory layout
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("r", [1, 2, 8])
    def test_solve_matches_numpy(self, r, order, rng):
        jac = np.asarray(rng.standard_normal((r, r)) - 2.0 * np.eye(r),
                         order=order)
        b = rng.standard_normal(r)
        hd = 0.1
        solve = ode._factor(jac, hd, 0.0)
        ref = np.linalg.solve(np.eye(r) - hd * jac, b)
        assert np.linalg.norm(solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_exactly_singular(self):
        hd = 0.25
        jac = np.eye(2) / hd  # W = I - hd*J = 0
        assert ode.lu_factor(np.eye(2) - hd * jac) is None
        assert ode._factor(jac, hd, 0.0) is None

    def test_solve_takes_scipy_tuple_form(self, rng):
        w = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal(4)
        lu, piv = ode.lu_factor(w.copy())
        assert lu.shape == (4, 4)  # what a tracer reads as args[0][0].shape
        np.testing.assert_allclose(ode.lu_solve((lu, piv), b),
                                   np.linalg.solve(w, b), rtol=1e-12)

    def test_nonfinite_iteration_matrix(self):
        with pytest.raises(ode.NonFiniteState):
            ode._factor(np.array([[np.inf]]), 0.1, 0.0)


class TestSample:
    """The dense output ``integrate`` writes at its query times."""

    def test_stored_node_exact(self):
        # a query at a step end returns the state the next step starts
        # from (integrate passes it to the Jacobian), bitwise
        starts, nodes = [], []

        def logged(t, x):
            starts.append(t)
            nodes.append(np.array(x))
            return DECAY["jacobian"](t, x)

        kwargs = dict(rtol=1e-3, atol=1e-8, dfdt=DECAY["dfdt"])
        run(decay, np.array([1.0]), 0.0, 1.0, jacobian=logged, **kwargs)
        assert len(starts) >= 5
        states = run(decay, np.array([1.0]), 0.0, 1.0, starts,
                     jacobian=DECAY["jacobian"], **kwargs).states
        for state, node in zip(states, nodes):
            assert_bitwise(state, node)

    def test_midpoint_oracle(self):
        rtol = 1e-5
        out = run(decay, np.array([1.0]), 0.0, 1.0, [0.5],
                  rtol=rtol, atol=1e-12, **DECAY).states
        assert abs(out[0, 0] - math.exp(-0.5)) <= 10.0 * rtol

    def test_empty_query(self):
        out = run(decay, np.array([1.0, 1.0]), 0.0, 1.0, [],
                  **linear_derivatives(-np.eye(2))).states
        assert out.shape == (0, 2)

    def test_endpoints(self):
        # a query at t0 returns x0, one at tf the end state, bitwise;
        # alone or sharing a step with other queries
        x0 = np.array([1.0, -2.0])
        for q in ([0.0, 1.0], np.linspace(0.0, 1.0, 101)):
            result = run(decay, x0, 0.0, 1.0, q,
                         **linear_derivatives(-np.eye(2)))
            assert_bitwise(result.states[0], x0)
            assert_bitwise(result.states[-1], result.end_state)

    def test_vector_states(self):
        a = np.array([[0.0, 1.0], [-4.0, 0.0]])
        grid = np.linspace(0.0, 2.0, 41)
        states = run(lambda t, x: a @ x, np.array([1.0, 0.0]), 0.0, 2.0,
                     grid, rtol=1e-7, atol=1e-11,
                     **linear_derivatives(a)).states
        exact = np.cos(2.0 * grid)
        np.testing.assert_allclose(states[:, 0], exact, atol=2e-5)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestStreamedSamples:
    """The samples integrate writes as it goes, against its nodes.

    ``node_sampled`` records the accepted nodes of a run without queries
    and interpolates them afterwards.
    """

    A = np.array([[0.0, 1.0], [-4.0, -0.1]])

    def _run(self, q=(), **kwargs):
        return run(lambda t, x: self.A @ x, np.array([1.0, 0.0]), 0.0, 3.0,
                   q, rtol=1e-5, atol=1e-9, **linear_derivatives(self.A),
                   **kwargs)

    def _nodes(self, q, **kwargs):
        q = np.asarray(q, dtype=float)
        return node_sampled(lambda t, x: self.A @ x, np.array([1.0, 0.0]),
                            0.0, 3.0, q, np.empty((q.size, 2)), rtol=1e-5,
                            atol=1e-9, **linear_derivatives(self.A),
                            **kwargs)

    def test_bitwise_equal_to_sample(self):
        times = step_ends(lambda t, x: self.A @ x, np.array([1.0, 0.0]),
                          0.0, 3.0, rtol=1e-5, atol=1e-9,
                          **linear_derivatives(self.A))
        # t0, tf, every node, and several queries inside each step
        q = np.unique(np.concatenate([
            times, np.linspace(0.0, 3.0, 7 * len(times))]))
        streamed = self._run(q)
        reference = self._nodes(q)
        assert_bitwise(streamed.states, reference.states)
        assert_bitwise(streamed.end_state, reference.end_state)
        assert streamed.stats == reference.stats

    @pytest.mark.parametrize("q", [[], [1.5], [0.0, 0.0, 3.0, 3.0],
                                   [0.1, 0.1000001, 2.9]])
    def test_sparse_and_repeated_queries(self, q):
        # most steps cover no query; a repeated query is written twice
        assert_bitwise(self._run(q).states, self._nodes(q).states)

    @pytest.mark.parametrize("q", [[-0.1], [3.0000001], [1.0, 0.5],
                                   [0.5, math.nan]])
    def test_out_of_range(self, q):
        with pytest.raises(ode.OutOfRange):
            self._run(q)

    def test_queries_keep_the_steps(self):
        # the steps, and so the counters and the end state, are the same
        # for no, sparse, repeated and dense queries
        runs = [self._run(q)
                for q in ([], [1.5], [0.0, 0.0, 3.0, 3.0],
                          np.linspace(0.0, 3.0, 3001))]
        for other in runs[1:]:
            assert other.stats == runs[0].stats
            assert_bitwise(other.end_state, runs[0].end_state)

    def test_writes_into_out(self):
        q = np.linspace(0.0, 3.0, 11)
        out = np.full((11, 2), np.nan)
        streamed = ode.integrate(lambda t, x: self.A @ x,
                                 np.array([1.0, 0.0]), 0.0, 3.0, rtol=1e-5,
                                 atol=1e-9, **linear_derivatives(self.A),
                                 t_eval=q, out=out)
        assert streamed.states is out
        assert_bitwise(out, self._nodes(q).states)

    def test_bad_out(self):
        with pytest.raises(ValueError, match="shape"):
            ode.integrate(lambda t, x: self.A @ x, np.array([1.0, 0.0]),
                          0.0, 3.0, **linear_derivatives(self.A),
                          t_eval=[0.0, 1.0], out=np.empty((3, 2)))


class TestEtdWeights:
    """ETDRK4's phi-function coefficients against 50-digit references."""

    @staticmethod
    def reference(z):
        with mpmath.workdps(50):
            z = mpmath.mpc(z)
            if z == 0:
                return [0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]
            e = mpmath.exp(z)
            return [complex(v) for v in (
                (mpmath.exp(z / 2) - 1) / z,
                (-4 - z + e * (4 - 3 * z + z**2)) / z**3,
                (2 + z + e * (z - 2)) / z**3,
                (-4 - 3 * z - z**2 + e * (4 - z)) / z**3)]

    @pytest.mark.parametrize("z", [
        0.0, 1e-8, -1e-8, 1e-8j, 1e-8 * np.exp(2j),
        # |z| near 1, where the contour and the closed forms meet
        1.0, -1.0, 1j, -1j, 0.999, 1.001, -0.999, -1.001j, np.exp(2.1j),
        0.999 * np.exp(-0.7j), 1.001 * np.exp(2.5j),
        -4000.0 * 0.05, -3.0, 5j, 30j, 0.5j,
        -0.01 + 5j, -1e-3 + 1j, -1e-3 + 0.5j, -0.01 + 30j])
    def test_matches_50_digits(self, z):
        got = ode.etd_weights(np.array([z]))
        for value, ref in zip(got, self.reference(z)):
            assert abs(value[0] - ref) <= 1e-13 * abs(ref)

    def test_keeps_shape(self):
        z = np.array([[0.0, -1.0], [2j, -200.0]])
        for value in ode.etd_weights(z):
            assert value.shape == (2, 2)


class TestCubicEtdrk4:
    """The fixed-step kernel on y' = lambda y + g (Re row . y)^3."""

    @staticmethod
    def exact(t, y0=1.0):
        # y' = -y - y^3: 1/y^2 + 1 grows like e^(2t)
        return y0 * math.exp(-t) / math.sqrt(1.0 + y0**2
                                             * (1.0 - math.exp(-2.0 * t)))

    def run(self, h, tf=2.0):
        kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                  np.array([-1.0]), h)
        y = np.array([1.0 + 0j])
        for _ in range(round(tf / h)):
            y = kernel.step(y)
        return y[0]

    def test_fourth_order(self):
        errors = [abs(self.run(h) - self.exact(2.0))
                  for h in (0.5, 0.25, 0.125, 0.0625)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_linear_part_exact(self, rng):
        # without the cubic term a step multiplies by e^(h lambda)
        lam = -rng.uniform(0.0, 5.0, 6) + 1j * rng.uniform(-50.0, 50.0, 6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        kernel = ode.cubic_etdrk4(lam, np.ones(6), np.zeros(6), 0.3)
        np.testing.assert_allclose(kernel.step(y), np.exp(0.3 * lam) * y,
                                   rtol=1e-15)

    def test_constant_input_exact(self, rng):
        # y' = lambda y + bm u with u constant: h (f1 + 4 f2 + f3) is
        # h phi_1, so a step is exact
        lam = -rng.uniform(0.0, 5.0, 6) + 1j * rng.uniform(-50.0, 50.0, 6)
        bm = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h, u = 0.3, 0.7
        kernel = ode.cubic_etdrk4(lam, np.ones(6), np.zeros(6), h, bm)
        e = np.exp(h * lam)
        np.testing.assert_allclose(kernel.step(y, u, u, u),
                                   e * y + (e - 1.0) / lam * bm * u,
                                   rtol=1e-14)

    def test_smooth_input_fourth_order(self):
        # y' = -y - y^3 + u(t) with u chosen so that y = sin(t) / 2
        def u(t):
            y = 0.5 * math.sin(t)
            return 0.5 * math.cos(t) + y + y**3

        errors = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                      np.array([-1.0]), h, np.array([1.0]))
            y = np.array([0j])
            for i in range(round(2.0 / h)):
                y = kernel.step(y, u(i * h), u((i + 0.5) * h), u((i + 1) * h))
            errors.append(abs(y[0] - 0.5 * math.sin(2.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_zero_input_is_unforced(self, rng):
        # with an input column and u = 0 a step is the unforced one
        lam = -rng.uniform(0.0, 5.0, 6) + 1j * rng.uniform(-50.0, 50.0, 6)
        row, g, bm, y = (rng.standard_normal(6) + 1j * rng.standard_normal(6)
                         for _ in range(4))
        unforced = ode.cubic_etdrk4(lam, row, g, 0.3)
        forced = ode.cubic_etdrk4(lam, row, g, 0.3, bm)
        np.testing.assert_allclose(forced.step(y), unforced.step(y),
                                   rtol=1e-14)

    def test_overflowing_stage_raises(self):
        kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                  np.array([-1.0]), 0.5)
        with raises_quietly(ode.NonFiniteState):
            kernel.step(np.array([1e120 + 0j]))
