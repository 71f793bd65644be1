import contextlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cablemass import ode
from cablemass.model import PhysicalParams, build_system, fom_jacobian, fom_rhs
from cablemass.signals import square_wave
from conftest import linear_derivatives

BOTH = (ode.ROS23, ode.RODAS4)
METHODS = pytest.mark.parametrize("method", BOTH, ids=lambda m: m.name)


def decay(t, x):
    return -x


DECAY = linear_derivatives(-1.0)  # decay's exact J and df/dt


def fixed_steps(rhs, jac, dfdt, x0, h, n, method):
    """n attempts of size h from t = 0, each accepted: no error control."""
    y = np.asarray(x0, dtype=float)
    f = rhs(0.0, y)
    stats = ode.IntegratorStats()
    for i in range(n):
        t = i * h
        solve = ode._factor(jac(t, y), h * method.gamma, t)
        y, f, _ = method.stages(rhs, t, y, f, dfdt(t, y), h, solve, stats)
    return y


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
        traj = ode.integrate(decay, np.array([1.0]), 0.0, 1.0,
                             rtol=rtol, atol=1e-8, **DECAY)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 10.0 * rtol

    def test_stiff_diagonal(self):
        # fast mode decays instantly; steps must not collapse
        a = np.diag([-1.0, -1000.0])
        rtol = 1e-5
        traj = ode.integrate(lambda t, x: a @ x, np.array([1.0, 1.0]),
                             0.0, 1.0, rtol=rtol, atol=1e-10,
                             **linear_derivatives(a))
        exact = np.array([math.exp(-1.0), math.exp(-1000.0)])
        assert np.all(np.abs(traj.states[-1] - exact) <= 10.0 * rtol)
        assert traj.stats.n_steps < 2000  # no creep through the fast layer

    def test_harmonic_oscillator_energy(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        traj = ode.integrate(lambda t, x: a @ x, np.array([1.0, 0.0]),
                             0.0, 2.0 * math.pi, rtol=1e-6, atol=1e-9,
                             **linear_derivatives(a))
        energy = 0.5 * np.sum(traj.states[-1] ** 2)
        assert abs(energy - 0.5) <= 1e-3

    def test_tolerance_convergence(self):
        # halving rtol must pay off by at least 1.5x on the terminal error
        errors = []
        for k in range(4):
            rtol = 1e-3 * 2.0 ** (-k)
            traj = ode.integrate(decay, np.array([1.0]), 0.0, 1.0,
                                 rtol=rtol, atol=1e-14, **DECAY)
            errors.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 1.5

    def test_square_wave_forcing(self):
        rtol = 1e-4

        def rhs(t, x):
            return -x + 0.1 * square_wave(0.2 * math.pi * t)

        # df/dt is 0 between the jumps, and J the decay's
        traj = ode.integrate(rhs, np.array([0.0]), 0.0, 30.0,
                             rtol=rtol, atol=1e-9, **DECAY)
        ref = ode.integrate(rhs, np.array([0.0]), 0.0, 30.0,
                            rtol=1e-10, atol=1e-14, **DECAY)
        assert abs(traj.states[-1, 0] - ref.states[-1, 0]) <= 100.0 * rtol

    def test_nonautonomous_forcing(self):
        # x' = -x + sin t has closed form through (sin t - cos t)/2 + c e^-t
        def rhs(t, x):
            return -x + np.array([math.sin(t)])

        traj = ode.integrate(rhs, np.array([0.5]), 0.0, 2.0,
                             rtol=1e-6, atol=1e-10,
                             jacobian=lambda t, x: [[-1.0]],
                             dfdt=lambda t, x: np.array([math.cos(t)]))
        t = 2.0
        exact = 0.5 * (math.sin(t) - math.cos(t)) + math.exp(-t)
        assert abs(traj.states[-1, 0] - exact) <= 1e-4

    def test_trajectory_contract(self):
        traj = ode.integrate(decay, np.array([1.0, 2.0]), 0.5, 3.5,
                             rtol=1e-4, atol=1e-8,
                             **linear_derivatives(-np.eye(2)))
        assert traj.times[0] == 0.5
        assert traj.times[-1] == 3.5
        assert np.all(np.diff(traj.times) > 0.0)
        assert np.all(np.isfinite(traj.states))
        assert traj.stats.n_steps == len(traj.times) - 1
        assert traj.stats.n_lu == traj.stats.n_steps + traj.stats.n_rejected

    def test_blowup_detected(self):
        for method in BOTH:
            with raises_quietly((ode.NonFiniteState, ode.StepSizeUnderflow)):
                ode.integrate(lambda t, x: x ** 2, np.array([1.0]), 0.0,
                              2.0, rtol=1e-6, atol=1e-9,
                              jacobian=lambda t, x: [[2.0 * x[0]]],
                              dfdt=lambda t, x: np.zeros(1), method=method)

    @METHODS
    def test_unresolvable_jump_underflows(self, method):
        # no step across a jump of 1e12 meets atol 1e-9 above hmin
        def rhs(t, x):
            return np.array([0.0 if t < 1.0 / 3.0 else 1e12])

        with raises_quietly(ode.StepSizeUnderflow):
            ode.integrate(rhs, np.array([0.0]), 0.0, 1.0, rtol=1e-6,
                          atol=1e-9, jacobian=lambda t, x: [[0.0]],
                          dfdt=lambda t, x: np.zeros(1), method=method)

    def test_nonfinite_stage_dense(self):
        # a NaN inside a step is a rejected step, not a LAPACK ValueError;
        # the steps shrink onto t = 0.3 until they underflow
        def rhs(t, x):
            return np.array([np.nan]) if t > 0.3 else -x

        for method in BOTH:
            with raises_quietly(ode.NonFiniteState, match="blew up"):
                ode.integrate(rhs, np.array([1.0]), 0.0, 1.0, **DECAY,
                              method=method)

    def test_nonfinite_stage_banded(self):
        sys = build_system(PhysicalParams(gamma=0.1, alphal=0.1), 4)

        def rhs(t, x):
            out = fom_rhs(sys, x, 1.0)
            return out * np.nan if t > 0.3 else out

        for method in BOTH:
            with raises_quietly(ode.NonFiniteState, match="blew up"):
                ode.integrate(rhs, np.zeros(8), 0.0, 1.0,
                              jacobian=lambda t, x: fom_jacobian(sys, x),
                              dfdt=lambda t, x: np.zeros(8), method=method)

    def test_derivatives_required(self):
        with pytest.raises(TypeError, match="jacobian.*dfdt"):
            ode.integrate(decay, np.array([1.0]), 0.0, 1.0)

    def test_bad_span(self):
        with pytest.raises(ValueError):
            ode.integrate(decay, np.array([1.0]), 1.0, 1.0, **DECAY)

    def test_bad_initial_state(self):
        with pytest.raises(ValueError):
            ode.integrate(decay, np.array([np.nan]), 0.0, 1.0, **DECAY)

    @pytest.mark.parametrize("name,value", [
        ("rtol", 0.0), ("rtol", math.nan), ("rtol", math.inf),
        ("atol", -1e-9), ("atol", math.nan), ("atol", math.inf)])
    def test_bad_tolerances(self, name, value):
        with pytest.raises(ValueError, match="rtol and atol"):
            ode.integrate(decay, np.array([1.0]), 0.0, 1.0, **DECAY,
                          **{name: value})

    @pytest.mark.parametrize("max_step", [0.0, -0.1, math.nan])
    def test_bad_max_step(self, max_step):
        with pytest.raises(ValueError, match="max_step"):
            ode.integrate(decay, np.array([1.0]), 0.0, 1.0, **DECAY,
                          max_step=max_step)

    @METHODS
    def test_max_step_caps_and_ends_on_tf(self, method):
        # 0.3 does not divide 2: the capped steps split the rest evenly
        # instead of leaving a last step below the underflow limit
        traj = ode.integrate(decay, np.array([1.0]), 0.0, 2.0, rtol=1e-2,
                             atol=1e-4, **DECAY, max_step=0.3, method=method)
        steps = np.diff(traj.times)
        assert steps.max() <= 0.3
        assert traj.times[-1] == 2.0
        np.testing.assert_allclose(steps[-4:], steps[-1], rtol=1e-12)
        assert steps[-1] > 0.25


class TestRodas4:
    """Order, L-stability and cost of the fourth-order method."""

    # a forced Duffing oscillator: nonlinear and non-autonomous, so the
    # stage times c_i and the df/dt weights d_i all enter the error
    @staticmethod
    def rhs(t, x):
        return np.array([x[1], -x[0] - 0.5 * x[1] - x[0] ** 3
                         + math.cos(2.0 * t)])

    @staticmethod
    def jac(t, x):
        return np.array([[0.0, 1.0], [-1.0 - 3.0 * x[0] ** 2, -0.5]])

    @staticmethod
    def dfdt(t, x):
        return np.array([0.0, -2.0 * math.sin(2.0 * t)])

    def _fixed_step_slope(self, method):
        # powers of two: the steps end on tf exactly
        x0, tf = np.array([1.0, 0.0]), 4.0
        ref = solve_ivp(self.rhs, (0.0, tf), x0, method="DOP853",
                        rtol=1e-13, atol=1e-15).y[:, -1]
        steps = [2.0 ** -k for k in range(2, 8)]
        errors = []
        for h in steps:
            end = fixed_steps(self.rhs, self.jac, self.dfdt, x0, h,
                              round(tf / h), method)
            errors.append(np.abs(end - ref).max())
        return np.polyfit(np.log(steps), np.log(errors), 1)[0]

    def test_fourth_order(self):
        assert self._fixed_step_slope(ode.RODAS4) >= 4.0
        # the same problem tells the 2(3) pair's order apart
        assert 1.8 <= self._fixed_step_slope(ode.ROS23) <= 2.5

    def test_steps_grow_like_rtol_to_the_quarter(self):
        # the controller's -1/4 exponent: 100x tighter, ~100^(1/4) x steps
        x0 = np.array([1.0, 0.0])
        counts = [ode.integrate(self.rhs, x0, 0.0, 4.0, rtol=rtol,
                                atol=rtol * 1e-3, jacobian=self.jac,
                                dfdt=self.dfdt,
                                method=ode.RODAS4).stats.n_steps
                  for rtol in (1e-5, 1e-7, 1e-9)]
        for coarse, fine in zip(counts, counts[1:]):
            assert 2.0 <= fine / coarse <= 5.0

    def test_l_stable(self):
        # one step of h = 1 with h lambda = -1e8 damps by at least 1e6
        stiff = linear_derivatives(-1e8)
        end = fixed_steps(lambda t, x: -1e8 * x, stiff["jacobian"],
                          stiff["dfdt"], np.array([1.0]), 1.0, 1, ode.RODAS4)
        assert abs(end[0]) <= 1e-6

    def test_six_rhs_calls_per_attempt(self):
        stats = ode.integrate(self.rhs, np.array([1.0, 0.0]), 0.0, 4.0,
                              rtol=1e-6, atol=1e-9, jacobian=self.jac,
                              dfdt=self.dfdt, method=ode.RODAS4).stats
        attempts = stats.n_steps + stats.n_rejected
        # f0 and the start-step probe, then six per attempt, one LU each
        assert stats.n_rhs == 2 + 6 * attempts
        assert stats.n_lu == attempts


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

        return ode.integrate(rhs, np.array([1.0, 0.0]), 0.0, 20.0,
                             rtol=1e-6, atol=1e-9,
                             jacobian=lambda t, x: self.A, dfdt=dfdt)

    def test_two_rhs_calls_per_attempt(self):
        stats = self._forced().stats
        assert stats.n_rejected > 0
        # f0 and the start-step probe, then two stages per attempt
        assert stats.n_rhs == 2 + 2 * (stats.n_steps + stats.n_rejected)

    def test_nonfinite_dfdt(self):
        with pytest.raises(ode.NonFiniteState):
            ode.integrate(decay, np.array([1.0]), 0.0, 1.0,
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
    def test_stored_node_exact(self):
        traj = ode.integrate(decay, np.array([1.0]), 0.0, 1.0,
                             rtol=1e-4, atol=1e-8, **DECAY)
        k = len(traj.times) // 2
        out = ode.sample(traj, [traj.times[k]])
        assert out[0, 0] == traj.states[k, 0]

    def test_midpoint_oracle(self):
        rtol = 1e-5
        traj = ode.integrate(decay, np.array([1.0]), 0.0, 1.0,
                             rtol=rtol, atol=1e-12, **DECAY)
        value = ode.sample(traj, [0.5])[0, 0]
        assert abs(value - math.exp(-0.5)) <= 10.0 * rtol

    def test_empty_query(self):
        traj = ode.integrate(decay, np.array([1.0, 1.0]), 0.0, 1.0,
                             **linear_derivatives(-np.eye(2)))
        out = ode.sample(traj, [])
        assert out.shape == (0, 2)

    def test_endpoints(self):
        traj = ode.integrate(decay, np.array([1.0]), 0.0, 1.0, **DECAY)
        out = ode.sample(traj, [0.0, 1.0])
        assert out[0, 0] == traj.states[0, 0]
        assert out[1, 0] == traj.states[-1, 0]

    def test_out_of_range(self):
        traj = ode.integrate(decay, np.array([1.0]), 0.0, 1.0, **DECAY)
        with pytest.raises(ode.OutOfRange):
            ode.sample(traj, [1.000001])
        with pytest.raises(ode.OutOfRange):
            ode.sample(traj, [-0.1])

    def test_vector_states(self):
        a = np.array([[0.0, 1.0], [-4.0, 0.0]])
        traj = ode.integrate(lambda t, x: a @ x, np.array([1.0, 0.0]),
                             0.0, 2.0, rtol=1e-7, atol=1e-11,
                             **linear_derivatives(a))
        grid = np.linspace(0.0, 2.0, 41)
        states = ode.sample(traj, grid)
        exact = np.cos(2.0 * grid)
        np.testing.assert_allclose(states[:, 0], exact, atol=2e-5)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestStreamedSamples:
    """integrate(t_eval=...) against sample(integrate(...), t_eval)."""

    A = np.array([[0.0, 1.0], [-4.0, -0.1]])

    def _run(self, **kwargs):
        return ode.integrate(lambda t, x: self.A @ x, np.array([1.0, 0.0]),
                             0.0, 3.0, rtol=1e-5, atol=1e-9,
                             **linear_derivatives(self.A), **kwargs)

    def _stream(self, q):
        return self._run(t_eval=q, out=np.empty((len(q), 2)))

    def test_bitwise_equal_to_sample(self):
        nodes = self._run()
        # t0, tf, every node, and several queries inside each step
        q = np.unique(np.concatenate([
            nodes.times, np.linspace(0.0, 3.0, 7 * len(nodes.times))]))
        streamed = self._stream(q)
        assert_bitwise(streamed.states, ode.sample(nodes, q))
        # a query at a node returns the stored state
        at_nodes = streamed.states[np.searchsorted(q, nodes.times)]
        np.testing.assert_array_equal(at_nodes, nodes.states)
        assert_bitwise(streamed.end_state, nodes.states[-1])
        assert streamed.stats == nodes.stats

    @pytest.mark.parametrize("q", [[], [1.5], [0.0, 0.0, 3.0, 3.0],
                                   [0.1, 0.1000001, 2.9]])
    def test_sparse_and_repeated_queries(self, q):
        # most steps cover no query; a repeated query is written twice
        nodes = self._run()
        streamed = self._stream(q)
        assert_bitwise(streamed.states, ode.sample(nodes, q).reshape(-1, 2))
        assert_bitwise(streamed.end_state, nodes.states[-1])

    @pytest.mark.parametrize("q", [[-0.1], [3.0000001], [1.0, 0.5],
                                   [0.5, math.nan]])
    def test_out_of_range(self, q):
        with pytest.raises(ode.OutOfRange):
            self._stream(q)

    def test_rodas4_bitwise_equal_to_sample(self):
        nodes = self._run(method=ode.RODAS4)
        q = np.linspace(0.0, 3.0, 301)
        streamed = self._run(t_eval=q, out=np.empty((301, 2)),
                             method=ode.RODAS4)
        assert_bitwise(streamed.states, ode.sample(nodes, q))
        assert streamed.stats == nodes.stats

    def test_writes_into_out(self):
        q = np.linspace(0.0, 3.0, 11)
        out = np.full((11, 2), np.nan)
        streamed = self._run(t_eval=q, out=out)
        assert streamed.states is out
        assert_bitwise(out, ode.sample(self._run(), q))

    def test_bad_out(self):
        with pytest.raises(ValueError, match="shape"):
            self._run(t_eval=[0.0, 1.0], out=np.empty((3, 2)))
        with pytest.raises(ValueError, match="together"):
            self._run(out=np.empty((2, 2)))
        with pytest.raises(ValueError, match="together"):
            self._run(t_eval=[0.0, 1.0])
