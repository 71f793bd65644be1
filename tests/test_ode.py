import contextlib
import itertools
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg.blas import dgemv

from cablemass import ode
from cablemass.cli import get_preset
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


def forced_terms(kernel, inputs):
    """The input terms of a run of one kernel, one (u0, uh, u1) per step."""
    n = len(inputs)
    return ode.input_terms(inputs, [kernel], np.zeros(n, dtype=int))


def kernel_steps(kernel, y, out=None, k=1, inputs=None):
    """k steps of kernel per row of out from y, by one ``Etdrk4Run``.

    out defaults to one row: one step.  inputs holds each step's
    (u0, uh, u1), or is None for the zero input, which then takes no
    part.  Returns the run's end state.
    """
    out = np.empty((1, np.size(y))) if out is None else out
    run = ode.Etdrk4Run(y, None if inputs is None
                        else forced_terms(kernel, inputs))
    run.advance(kernel, out, k)
    return run.state()


def stage_cubes(stage, s1, p, r, d2=0.0, d3=0.0, d4=0.0, d5=0.0):
    """The cubes c1, c4, c5 of a step's stage scalars s1 ... s5."""
    a21, a31, a32, a41, a42, a51, a52, a54 = stage
    c1 = s1 * s1 * s1
    s = p + a21 * c1 + d2
    c2 = s * s * s
    s = p + a31 * c1 + a32 * c2 + d3
    c3 = s * s * s
    s = r + a41 * c1 + a42 * (c2 + c3) + d4
    c4 = s * s * s
    s = p + a51 * c1 + a52 * (c2 + c3) + a54 * c4 + d5
    return c1, c4, s * s * s


def allocating_advance(kernel, y, out, k, terms=None):
    """``Etdrk4Run.advance`` of one kernel, with allocating numpy expressions.

    The reference for the allocation-free step loop: each step builds
    its weights as a tuple, makes fresh arrays for the update and reads
    the stage scalars back by .tolist().  terms is the run's input terms
    (``ode.input_terms``), read as the run reads them, or None for the
    zero input.  Returns the last state.
    """
    nw = 3 if terms is None else 6
    terms = itertools.repeat((0.0,) * 7) if terms is None else terms
    dim, n_real = y.size, kernel.e_real.size
    w = kernel.w[:nw]
    dense = None if kernel.dense is None else kernel.dense[:, :dim + nw]
    s1, p, r = np.dot(kernel.rows, y).tolist()
    for i in range(len(out)):
        for _ in range(k):
            d2, d3, d4, d5, u0, u1, uh = next(terms)
            c1, c4, c5 = stage_cubes(kernel.stage, s1, p, r, d2, d3, d4, d5)
            weights = (c1, c4, c5, u0, u1, uh)[:nw]
            if dense is None:
                y = np.concatenate([
                    kernel.e_real * y[:n_real],
                    (kernel.e_pairs * y[n_real:].view(complex)).view(float)])
                # y + w^T weights by the same BLAS call, into a new array
                y = dgemv(1.0, w.T, np.array(weights), 1.0, y)
                s1, p, r = np.dot(kernel.rows, y).tolist()
            else:
                to = np.dot(dense, np.concatenate([y, weights]))
                y = to[:dim]
                s1, p, r = to[dim:].tolist()
        out[i] = y
    return y


def complex_kernel(lam, row, g, h, bm):
    """The ETDRK4 step in the complex representation: every mode, complex.

    y' = diag(lam) y + bm u + g (Re row . y)^3 over all modes of A,
    conjugate pairs twice, with complex e, rows and w, and each stage
    coefficient written out from the phi-functions (``etd_weights``).
    The reference the folded kernels are checked against.
    """
    z = h * np.asarray(lam, dtype=complex)
    a21, a31, a32, a41, a42, a51, a52, a54, b1, b4, b5 = ode.etd_weights(z)
    half, e = np.exp(0.5 * z), np.exp(z)
    a = np.array([a21, a31, a32, a41, a42, a51, a52, a54])
    return SimpleNamespace(
        e=e, rows=np.array([row, row * half, row * e]),
        w=h * np.array([b1 * g, b4 * g, b5 * g, b1 * bm, b4 * bm, b5 * bm]),
        stage=((h * a * g) @ row).real.tolist(),
        stage_bm=((h * a * bm) @ row).real.tolist())


def complex_advance(kernel, y, out, k, inputs=None):
    """Steps of a ``complex_kernel``, the input terms formed step by step."""
    inputs = (itertools.repeat((0.0, 0.0, 0.0)) if inputs is None
              else iter(inputs))
    b21, b31, b32, b41, b42, b51, b52, b54 = kernel.stage_bm
    s1, p, r = np.dot(kernel.rows, y).real.tolist()
    for i in range(len(out)):
        for _ in range(k):
            u0, uh, u1 = next(inputs)
            c1, c4, c5 = stage_cubes(
                kernel.stage, s1, p, r, b21 * u0, b31 * u0 + b32 * uh,
                b41 * u0 + 2.0 * b42 * uh,
                b51 * u0 + 2.0 * b52 * uh + b54 * u1)
            weights = (c1, c4, c5, u0, u1, uh)
            y = kernel.e * y + np.dot(weights, kernel.w)
            s1, p, r = np.dot(kernel.rows, y).real.tolist()
        out[i] = y
    return y


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

    def test_nonfinite_stage_fom(self):
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


def scheme_coefficients(phi):
    """The step's coefficients from phi(j, c) = phi_j(c z), as etd_weights
    orders them: Hochbruck and Ostermann's (2005) a21 ... a54, b1, b4, b5.
    """
    a52 = (phi(2, 0.5) / 2 - phi(3, 1) + phi(2, 1) / 4 - phi(3, 0.5) / 2)
    a54 = phi(2, 0.5) / 4 - a52
    return [phi(1, 0.5) / 2, phi(1, 0.5) / 2 - phi(2, 0.5), phi(2, 0.5),
            phi(1, 1) - 2 * phi(2, 1), phi(2, 1),
            phi(1, 0.5) / 2 - 2 * a52 - a54, a52, a54,
            phi(1, 1) - 3 * phi(2, 1) + 4 * phi(3, 1),
            4 * phi(3, 1) - phi(2, 1), 4 * phi(2, 1) - 8 * phi(3, 1)]


class TestEtdWeights:
    """The stiff-order-4 step's coefficients against 50-digit references."""

    @staticmethod
    def reference(z):
        with mpmath.workdps(50):
            z = mpmath.mpc(z)

            def phi(j, c):
                x = c * z
                if x == 0:
                    return mpmath.mpf(1) / mpmath.factorial(j)
                return (mpmath.exp(x) - sum(x**i / mpmath.factorial(i)
                                            for i in range(j))) / x**j

            return [complex(v) for v in scheme_coefficients(phi)]

    @pytest.mark.parametrize("z", [
        0.0, 1e-8, -1e-8, 1e-8j, 1e-8 * np.exp(2j),
        # |z| near 1 and 2; the series and the closed forms meet at 2
        1.0, -1.0, 1j, -1j, 0.999, 1.001, -0.999, -1.001j, np.exp(2.1j),
        0.999 * np.exp(-0.7j), 1.001 * np.exp(2.5j),
        2.0, -2.0, 2j, 1.999, -2.001, 2.0 * np.exp(2.1j),
        1.999 * np.exp(-0.7j), 2.001 * np.exp(2.5j),
        -4000.0 * 0.05, -3.0, 5j, 30j, 0.5j,
        -0.01 + 5j, -1e-3 + 1j, -1e-3 + 0.5j, -1e-3 + 2j, -0.01 + 30j])
    def test_matches_50_digits(self, z):
        got = ode.etd_weights(np.array([z]))
        for value, ref in zip(got, self.reference(z)):
            assert abs(value[0] - ref) <= 1e-13 * abs(ref)

    def test_classical_limit(self):
        # at z = 0 the step is classical RK4 with c = (0, 1/2, 1/2, 1, 1/2):
        # a31, a41 and a54 are O(z), exactly 0 there, as the series gives
        got = [value[0] for value in ode.etd_weights(np.zeros(1))]
        assert got == [0.5, 0.0, 0.5, 0.0, 0.5, 0.25, 0.125, 0.0,
                       1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]

    def test_taylor_table_is_exact(self):
        # each entry is the exact rational combination of the phi_k(c z)
        # coefficients c^j / (j + k)!, rounded once
        for j, row in enumerate(ode._TAYLOR.tolist()):
            exact = scheme_coefficients(lambda k, c: Fraction(c) ** j
                                        / math.factorial(j + k))
            assert row == [float(v) for v in exact]

    def test_taylor_branch_matches_50_digits(self):
        # seeded points inside the disc |z| < 2, where the series is
        # summed: 200 uniform in area and 40 in the annulus next to the seam
        rng = np.random.default_rng(20260421)
        radius = 2.0 * np.concatenate([np.sqrt(rng.uniform(0.0, 1.0, 200)),
                                       rng.uniform(0.95, 1.0, 40)])
        z = radius * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 240))
        assert (np.abs(z) < 2.0).all()
        self.check(z)

    def test_seam_matches_50_digits(self):
        # |z| = 2 -+ 1e-12: the series just inside, the closed forms just
        # outside
        theta = 2.0 * math.pi * (np.arange(24) + 0.25) / 24
        for radius in (2.0 - 1e-12, 2.0 + 1e-12):
            self.check(radius * np.exp(1j * theta))

    def check(self, z):
        got = ode.etd_weights(z)
        for i, zi in enumerate(z.tolist()):
            for value, ref in zip(got, self.reference(zi)):
                assert abs(value[i] - ref) <= 1e-13 * abs(ref), zi

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
                                  np.array([-1.0]), h, np.zeros(1))
        y = np.array([1.0])
        for _ in range(round(tf / h)):
            y = kernel_steps(kernel, y)
        return y[0]

    def test_fourth_order(self):
        # the first halving from h = 0.5 reads 11.3, before the error is
        # in its asymptotic regime; from h = 0.25 on it reads 15.4-16.6
        errors = [abs(self.run(h) - self.exact(2.0))
                  for h in (0.25, 0.125, 0.0625, 0.03125)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_linear_part_exact(self, rng):
        # without the cubic term a step multiplies by e^(h lambda); six
        # pair modes, a state of 12 reals
        lam = -rng.uniform(0.0, 5.0, 6) + 1j * rng.uniform(-50.0, 50.0, 6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        kernel = ode.cubic_etdrk4(lam, np.ones(6), np.zeros(6), 0.3,
                                  np.zeros(6))
        np.testing.assert_allclose(
            kernel_steps(kernel, y.view(float)).view(complex),
            np.exp(0.3 * lam) * y, rtol=1e-15)

    def test_constant_input_exact(self, rng):
        # y' = lambda y + bm u with u constant: h (b1 + b4 + b5) is
        # h phi_1, so a step is exact
        lam = -rng.uniform(0.0, 5.0, 6) + 1j * rng.uniform(-50.0, 50.0, 6)
        bm = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h, u = 0.3, 0.7
        kernel = ode.cubic_etdrk4(lam, np.ones(6), np.zeros(6), h, bm)
        e = np.exp(h * lam)
        np.testing.assert_allclose(
            kernel_steps(kernel, y.view(float),
                         inputs=[(u, u, u)]).view(complex),
            e * y + (e - 1.0) / lam * bm * u, rtol=1e-14)

    def test_smooth_input_fourth_order(self):
        # y' = -y - y^3 + u(t) with u chosen so that y = sin(t) / 2
        def u(t):
            y = 0.5 * math.sin(t)
            return 0.5 * math.cos(t) + y + y**3

        errors = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                      np.array([-1.0]), h, np.array([1.0]))
            y = np.array([0.0])
            for i in range(round(2.0 / h)):
                y = kernel_steps(kernel, y, inputs=[
                    (u(i * h), u((i + 0.5) * h), u((i + 1) * h))])
            errors.append(abs(y[0] - 0.5 * math.sin(2.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0

    def test_zero_input_is_unforced(self, rng, monkeypatch):
        # with an input column and u = 0 a step is the one without an
        # input column; without inputs the input rows take no part.  Both
        # forms: the dense step of this small kernel, and the diagonal
        # update of one above _DENSE_DIM
        lam, row, g, _, bm = TestStepForms.coefficients(rng, 2, 4)
        y = rng.standard_normal(10)
        for dense_dim in (ode._DENSE_DIM, 0):
            monkeypatch.setattr(ode, "_DENSE_DIM", dense_dim)
            unforced = ode.cubic_etdrk4(lam, row, g, 0.3, np.zeros(6))
            forced = ode.cubic_etdrk4(lam, row, g, 0.3, 10.0 * bm)
            assert (forced.dense is None) == (dense_dim == 0)
            zero = [(0.0, 0.0, 0.0)]
            np.testing.assert_allclose(
                kernel_steps(forced, y, inputs=zero),
                kernel_steps(unforced, y, inputs=zero), rtol=1e-14)
            assert_bitwise(kernel_steps(forced, y), kernel_steps(unforced, y))

    def test_overflowing_stage_raises(self):
        kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                  np.array([-1.0]), 0.5, np.zeros(1))
        with raises_quietly(ode.NonFiniteState):
            kernel_steps(kernel, np.array([1e120]))

    def test_coefficients_read_only(self, rng):
        # a table hands one kernel to every run of its step size
        kernel = ode.cubic_etdrk4(*TestStepForms.coefficients(rng, 2, 3))
        for arr in (kernel.e_real, kernel.e_pairs, kernel.rows, kernel.w,
                    kernel.dense):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("n_real, n_pairs", [(3, 0), (0, 3), (2, 3)],
                             ids=["real", "pairs", "mixed"])
    def test_state_layout(self, rng, n_real, n_pairs):
        # one float per real mode and two per pair mode, the real modes
        # first; an empty part has empty coefficients
        kernel = ode.cubic_etdrk4(*TestStepForms.coefficients(
            rng, n_real, n_pairs))
        dim = n_real + 2 * n_pairs
        assert kernel.e_real.shape == (n_real,)
        assert kernel.e_real.dtype == float
        assert kernel.e_pairs.shape == (n_pairs,)
        assert kernel.rows.shape == (3, dim) and kernel.rows.dtype == float
        assert kernel.w.shape == (6, dim) and kernel.w.dtype == float
        assert kernel.dense.shape == (dim + 3, dim + 6)

    def test_real_modes_come_first(self):
        with pytest.raises(ValueError, match="first"):
            ode.cubic_etdrk4(np.array([-1.0 + 1.0j, -2.0]), np.ones(2),
                             np.ones(2), 0.1, np.ones(2))


class TestAdvance:
    """Many ETDRK4 steps in one ``Etdrk4Run.advance``, against one per run.

    The kernels have 6 pair modes: a state of 12 reals.
    """

    @staticmethod
    def kernel(rng, forced):
        lam = -rng.uniform(0.5, 5.0, 6) + 1j * rng.uniform(-20.0, 20.0, 6)
        row, g, bm = (rng.standard_normal(6) + 1j * rng.standard_normal(6)
                      for _ in range(3))
        return ode.cubic_etdrk4(lam, row, 0.1 * g, 0.3,
                                bm if forced else np.zeros(6))

    @staticmethod
    def state(rng):
        return (0.5 * (rng.standard_normal(6)
                       + 1j * rng.standard_normal(6))).view(float)

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_repeated_steps(self, rng, k, forced):
        kernel = self.kernel(rng, forced)
        y0 = self.state(rng)
        inputs = rng.standard_normal((5 * k, 3)).tolist() if forced else None
        out = np.full((5, 12), np.nan)
        end = kernel_steps(kernel, y0, out, k, inputs)
        y = y0
        for i in range(5 * k):
            y = kernel_steps(kernel, y,
                             inputs=inputs[i:i + 1] if forced else None)
            if i % k == k - 1:
                np.testing.assert_allclose(out[i // k].view(complex),
                                           y.view(complex), rtol=1e-15)
        assert_bitwise(end, out[-1])

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_fills_exactly_its_rows(self, rng, k, forced):
        # three rows of a five-row array, and the terms of 3k steps of a
        # longer stream
        kernel = self.kernel(rng, forced)
        y0 = self.state(rng)
        out = np.full((5, 12), np.nan)
        inputs = rng.standard_normal((3 * k + 1, 3))
        terms = forced_terms(kernel, inputs) if forced else None
        ode.Etdrk4Run(y0, terms).advance(kernel, out[:3], k)
        assert np.isfinite(out[:3]).all()
        assert np.isnan(out[3:]).all()
        if forced:
            assert len(list(terms)) == 1

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_overflow_partway_raises(self, k, forced):
        # y' = -y + y^3 (+ 1) from 1.5 blows up near t = 0.29: the steps
        # of h = 0.05 overflow a stage a few rows into a 50-row stretch
        kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                  np.array([1.0]), 0.05,
                                  np.array([1.0]) if forced else np.zeros(1))
        out = np.full((50, 1), np.nan)
        inputs = [(1.0, 1.0, 1.0)] * (50 * k) if forced else None
        with raises_quietly(ode.NonFiniteState):
            kernel_steps(kernel, np.array([1.5]), out, k, inputs)
        assert np.isfinite(out[0]).all()
        assert np.isnan(out[-1]).all()

    @pytest.mark.parametrize("forced", [False, True])
    def test_empty_out_returns_y(self, rng, forced):
        kernel = self.kernel(rng, forced)
        y = self.state(rng)
        terms = forced_terms(kernel, [(1.0, 1.0, 1.0)]) if forced else None
        run = ode.Etdrk4Run(y, terms)
        run.advance(kernel, np.empty((0, 12)), 2)
        assert_bitwise(run.state(), y)
        if forced:
            assert len(list(terms)) == 1

    @staticmethod
    def kernels(rng, forced, sizes):
        """Kernels of one 6-mode system, one per step size."""
        lam = -rng.uniform(0.5, 5.0, 6) + 1j * rng.uniform(-20.0, 20.0, 6)
        row, g, bm = (rng.standard_normal(6) + 1j * rng.standard_normal(6)
                      for _ in range(3))
        return [ode.cubic_etdrk4(lam, row, 0.1 * g, h,
                                 bm if forced else np.zeros(6))
                for h in sizes]

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_allocating_reference(self, rng, k, forced):
        # bitwise: the same operations on the same values, in place
        kernel = self.kernel(rng, forced)
        y0 = self.state(rng)
        inputs = rng.standard_normal((5 * k, 3)).tolist() if forced else None
        outs = [np.full((5, 12), np.nan) for _ in range(2)]
        end = kernel_steps(kernel, y0, outs[0], k, inputs)
        ref = allocating_advance(kernel, y0, outs[1], k,
                                 forced_terms(kernel, inputs) if forced
                                 else None)
        assert_bitwise(outs[0], outs[1])
        assert_bitwise(end, ref)

    @pytest.mark.parametrize("n_real, n_pairs", [(4, 0), (0, 4), (2, 3)],
                             ids=["real", "pairs", "mixed"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_parts_match_allocating_reference(self, rng, forced, n_real,
                                              n_pairs):
        # an all-real and an all-pairs system, whose update skips the
        # empty part, and one of both
        lam, row, g, h, bm = TestStepForms.coefficients(rng, n_real, n_pairs)
        kernel = ode.cubic_etdrk4(lam, row, g, h,
                                  bm if forced else np.zeros(n_real + n_pairs))
        dim = n_real + 2 * n_pairs
        y0 = 0.5 * rng.standard_normal(dim)
        inputs = rng.standard_normal((20, 3)).tolist() if forced else None
        outs = [np.full((10, dim), np.nan) for _ in range(2)]
        kernel_steps(kernel, y0, outs[0], 2, inputs)
        allocating_advance(kernel, y0, outs[1], 2,
                           forced_terms(kernel, inputs) if forced else None)
        assert_bitwise(outs[0], outs[1])

    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_kernel_switches_match_call_per_piece(self, rng, k, forced):
        # as at square-wave jumps: whole intervals of one step size, each
        # jump's interval in two pieces of their own sizes, one input
        # stream and one state through all of them; the input terms are
        # formed once for the whole run, each step's with its kernel
        kernels = self.kernels(rng, forced, (0.3, 0.1, 0.2))
        plan = [(0, 3), (1, 1), (2, 1), (0, 2), (1, 1), (2, 1), (0, 1)]
        rows = sum(count for _, count in plan)
        y0 = self.state(rng)
        stream = rng.standard_normal((rows * k, 3))
        which = np.repeat([i for i, count in plan for _ in range(count)], k)
        terms = [ode.input_terms(stream, kernels, which) if forced else None
                 for _ in range(2)]
        outs = [np.full((rows, 12), np.nan) for _ in range(2)]
        steps = ode.Etdrk4Run(y0, terms[0])
        y, i = y0, 0
        for index, count in plan:
            steps.advance(kernels[index], outs[0][i:i + count], k)
            y = allocating_advance(kernels[index], y, outs[1][i:i + count], k,
                                   terms[1])
            i += count
        assert_bitwise(outs[0], outs[1])
        assert_bitwise(steps.state(), y)

    @pytest.mark.parametrize("forced", [False, True])
    def test_state_belongs_to_caller(self, rng, forced):
        # a run writes neither its y0 nor, later, the state it returned
        kernel, other = self.kernels(rng, forced, (0.3, 0.1))
        y = self.state(rng)
        y_kept = y.copy()
        out = np.empty((3, 12))
        inputs = ([(0.5, 0.5, 0.5)] * 6) if forced else None
        end = kernel_steps(kernel, y, out, 2, inputs)
        assert not np.shares_memory(end, out)
        end_kept = end.copy()
        for model_kernel in (kernel, other, kernel):
            kernel_steps(model_kernel, end, out, 2, inputs)
            kernel_steps(model_kernel, y, out, 2, inputs)
        assert_bitwise(y, y_kept)
        assert_bitwise(end, end_kept)
        assert_bitwise(kernel_steps(kernel, y, out, 2, inputs), end_kept)

    def test_run_keeps_state_before_failing_step(self):
        # y' = -y + y^3 from 1.5 blows up near t = 0.29; the run's state
        # stays the last row written
        kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                  np.array([1.0]), 0.05, np.zeros(1))
        steps = ode.Etdrk4Run(np.array([1.5]))
        out = np.full((50, 1), np.nan)
        with raises_quietly(ode.NonFiniteState):
            steps.advance(kernel, out, 1)
        last = np.flatnonzero(np.isfinite(out[:, 0]))[-1]
        assert_bitwise(steps.state(), out[last])


class TestAdvanceDiagonal(TestAdvance):
    """The same on the diagonal update, which kernels above _DENSE_DIM take.

    TestAdvance's kernels have 12 reals of state and 1, so they step
    densely.
    """

    @pytest.fixture(autouse=True)
    def diagonal(self, monkeypatch):
        monkeypatch.setattr(ode, "_DENSE_DIM", 0)


class TestStepRows:
    """One step from each row of a block, against the run's step.

    step_rows takes the diagonal form for every kernel, so against a
    dense kernel's run it meets the other form.
    """

    @pytest.mark.parametrize("diagonal", [False, True],
                             ids=["dense", "diagonal"])
    @pytest.mark.parametrize("forced", [False, True],
                             ids=["unforced", "forced"])
    def test_block_of_one_matches_run(self, rng, monkeypatch, forced,
                                      diagonal):
        if diagonal:
            monkeypatch.setattr(ode, "_DENSE_DIM", 0)
        lam, row, g, h, bm = TestStepForms.coefficients(rng, 2, 3, h=0.3)
        kernel = ode.cubic_etdrk4(lam, row, g, h, bm)
        assert (kernel.dense is None) == diagonal
        for _ in range(20):
            y = rng.standard_normal(8)
            u = rng.standard_normal(3)
            if forced:
                want = kernel_steps(kernel, y, inputs=[u])
                got = kernel.step_rows(y[None], u[None])
            else:
                want = kernel_steps(kernel, y)
                got = kernel.step_rows(y[None], np.zeros((1, 3)))
            assert got.shape == (1, 8)
            assert np.abs(got[0] - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("forced", [False, True])
    def test_rows_are_independent(self, rng, forced):
        # each row of a block steps as it would alone
        kernel = ode.cubic_etdrk4(*TestStepForms.coefficients(rng, 2, 3))
        ys = rng.standard_normal((7, 8))
        inputs = rng.standard_normal((7, 3)) if forced else np.zeros((7, 3))
        block = kernel.step_rows(ys, inputs)
        for i in range(7):
            alone = kernel.step_rows(ys[i:i + 1], inputs[i:i + 1])
            np.testing.assert_allclose(block[i], alone[0], rtol=1e-15,
                                       atol=1e-15 * np.abs(alone).max())

    def test_overflow_raises(self):
        kernel = ode.cubic_etdrk4(np.array([-1.0]), np.array([1.0]),
                                  np.array([-1.0]), 0.5, np.zeros(1))
        with raises_quietly(ode.NonFiniteState):
            kernel.step_rows(np.array([[0.5], [1e120]]), np.zeros((2, 3)))


class TestInputTerms:
    """A forced run's input terms, formed ahead for each step's kernel."""

    def test_per_step_products(self, rng):
        # (d2, d3, d4, d5) of each step from its kernel's input map, then
        # its (u0, u1, uh), as the stage arithmetic reads them
        kernels = TestAdvance.kernels(rng, True, (0.3, 0.1, 0.2))
        which = rng.integers(0, 3, 40)
        u = rng.standard_normal((40, 3))
        terms = list(ode.input_terms(u, kernels, which))
        assert len(terms) == 40
        for (u0, uh, u1), i, got in zip(u.tolist(), which.tolist(), terms):
            m = kernels[i].input_map.tolist()
            want = [u0 * m[0][j] + uh * m[1][j] + u1 * m[2][j]
                    for j in range(4)]
            np.testing.assert_allclose(got[:4], want, rtol=1e-15,
                                       atol=1e-15 * max(map(abs, want)))
            assert got[4:] == (u0, u1, uh)

    def test_input_map_layout(self, rng):
        # u0 enters every stage, uh stages 3 to 5 (twice in 4 and 5, for
        # the two stages at the midpoint), u1 only stage 5
        kernel = TestAdvance.kernel(rng, True)
        m = kernel.input_map
        assert m.shape == (3, 4) and not m.flags.writeable
        assert m[1, 0] == m[2, 0] == m[2, 1] == m[2, 2] == 0.0
        assert (m[0] != 0.0).all() and (m[1, 1:] != 0.0).all()


class TestStepForms:
    """The dense step matrix against the diagonal update of one kernel."""

    @staticmethod
    def coefficients(rng, n_real, n_pairs, h=0.05):
        """cubic_etdrk4's arguments for n_real real and n_pairs pair modes."""
        lam = np.concatenate([-rng.uniform(0.05, 2.0, n_real),
                              -rng.uniform(0.05, 2.0, n_pairs)
                              + 1j * rng.uniform(1.0, 20.0, n_pairs)])
        row, g, bm = (np.concatenate([
            rng.standard_normal(n_real),
            rng.standard_normal(n_pairs) + 1j * rng.standard_normal(n_pairs)])
            for _ in range(3))
        return lam, row, 0.1 * g, h, bm

    @pytest.mark.parametrize("m", [1, 2, ode._DENSE_DIM // 2])
    def test_forms_agree(self, rng, monkeypatch, m):
        # m pair modes
        self.check_forms_agree(rng, monkeypatch, 0, m)

    @pytest.mark.parametrize("n_real, n_pairs", [
        (1, 0), (1, 1), (ode._DENSE_DIM, 0),
        (ode._DENSE_DIM // 2, ode._DENSE_DIM // 4)])
    def test_forms_agree_real_modes(self, rng, monkeypatch, n_real, n_pairs):
        # unscaled, s(y) over 64 real modes overflows within 200 steps;
        # row over sqrt(dim) keeps it of order one at every dimension
        dim = n_real + 2 * n_pairs
        self.check_forms_agree(rng, monkeypatch, n_real, n_pairs,
                               row_scale=1.0 / math.sqrt(dim))

    def check_forms_agree(self, rng, monkeypatch, n_real, n_pairs,
                          row_scale=1.0):
        # 200 forced steps: the two sum the same terms in another order
        dim = n_real + 2 * n_pairs
        lam, row, g, h, bm = self.coefficients(rng, n_real, n_pairs)
        args = lam, row_scale * row, g, h, bm
        dense = ode.cubic_etdrk4(*args)
        monkeypatch.setattr(ode, "_DENSE_DIM", 0)
        diagonal = ode.cubic_etdrk4(*args)
        assert dense.dense.shape == (dim + 3, dim + 6)
        assert diagonal.dense is None
        y0 = 0.5 * rng.standard_normal(dim)
        inputs = rng.standard_normal((200, 3)).tolist()
        outs = [np.full((200, dim), np.nan) for _ in range(2)]
        ends = [kernel_steps(kernel, y0, out, 1, inputs)
                for kernel, out in zip((dense, diagonal), outs)]
        scale = np.abs(outs[1]).max()
        assert np.abs(outs[0] - outs[1]).max() <= 1e-13 * scale
        assert_bitwise(ends[0], outs[0][-1])

    def test_dense_only_up_to_its_dimension(self, rng):
        # the dimension counts reals of state: two per pair mode
        dim = ode._DENSE_DIM
        for n_real, n_pairs, dense in ((dim, 0, True), (dim + 1, 0, False),
                                       (0, dim // 2, True),
                                       (1, dim // 2, False)):
            kernel = ode.cubic_etdrk4(*self.coefficients(rng, n_real, n_pairs))
            assert (kernel.dense is not None) == dense


class TestRealModes:
    """Folded runs on a system's table against the complex representation.

    The table keeps each real eigenvalue once and one mode per conjugate
    pair, weighted 2; the reference steps every mode of A in complex
    arithmetic (``complex_kernel``).  exp_stab_Ex1 has 24 real
    eigenvalues of 40 at n = 20, small_damp_ex5_in4 none.
    """

    @staticmethod
    def reference(sys_, h):
        modes = sys_.modes
        target = np.zeros(2 * sys_.n)
        target[sys_.nl_target_index] = sys_.nl_coeff
        bm, gm = modes.solve(np.column_stack([sys_.b[:, 0], target])).T
        return complex_kernel(modes.eigenvalues,
                              modes.v[sys_.nl_state_index], gm, h, bm)

    @pytest.mark.parametrize("diagonal", [False, True],
                             ids=["dense", "diagonal"])
    @pytest.mark.parametrize("forced", [False, True],
                             ids=["unforced", "forced"])
    @pytest.mark.parametrize("name", ["exp_stab_Ex1", "small_damp_ex5_in4"])
    def test_matches_complex_reference(self, monkeypatch, name, forced,
                                       diagonal):
        if diagonal:
            monkeypatch.setattr(ode, "_DENSE_DIM", 0)
        sys_ = build_system(get_preset(name).params, 20)
        table, modes = sys_.etdrk4, sys_.modes
        kernel = table.kernel(0.05)
        assert (kernel.dense is None) == diagonal
        assert table.dim == 40
        assert table.n_real == (24 if name == "exp_stab_Ex1" else 0)
        if forced:
            # a square wave of amplitude 2 from rest, held over each step
            x0 = np.zeros(40)
            inputs = [(u, u, u) for u in (2.0 * np.sign(
                np.sin(0.05 * np.arange(400) + 0.01))).tolist()]
        else:
            # the energy study's initial data
            grid = np.linspace(0.0, 1.0, 20)
            x0 = np.concatenate([np.exp(grid) * np.sin(1.0 - grid),
                                 np.cos(grid)])
            inputs = None
        samples = np.full((200, 40), np.nan)
        ode.Etdrk4Run(table.modal_state(x0), inputs and forced_terms(
            kernel, inputs)).advance(kernel, samples, 2)
        ref = np.full((200, 40), np.nan, dtype=complex)
        complex_advance(self.reference(sys_, 0.05), modes.solve(x0), ref, 2,
                        inputs)
        for fold, unfolded in ((table.out_map, sys_.c @ modes.v),
                               (table.state_map, modes.v)):
            got = samples @ fold
            want = (ref @ unfolded.T).real
            assert np.abs(want).max() > 0.1
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_modal_state_round_trip(self):
        # a real x, folded onto the table's modes and sampled back
        # through its real modal basis, is x
        sys_ = build_system(get_preset("exp_stab_Ex1").params, 20)
        table = sys_.etdrk4
        x = np.linspace(-1.0, 1.0, 40)
        y = table.modal_state(x)
        assert y.shape == (40,) and y.dtype == float
        np.testing.assert_allclose(y @ table.state_map, x, atol=1e-12)
        for arr in (table.lam, table.row, table.gm, table.bm, table.out_map,
                    table.state_map):
            assert not arr.flags.writeable
