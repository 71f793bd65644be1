"""Forced full-order and reduced-order runs, by ETDRK4 on the modal factor.

The projected nonlinearity S_r F(T_r a) needs only the right-mass
displacement row of T_r and the cubic-force column of S_r:

    [S_r F(T_r a)]_i = nl_coeff * psi_i * (sum_j phi_j a_j)^3,

so the reduced model's cubic term costs O(r) regardless of the full
order.

Both models read x' = A x + b u(t) + g (v . x)^3: a constant linear
part, the input column b, and a cubic term read through one functional
v and written along one column g (the FOM's nl_state_index and
nl_target_index, the ROM's nl_in_weights and nl_out_weights).  In the
eigenvector coordinates y = V^-1 x of A (``StateSpaceSystem.modes``,
``ReducedSystem.modes``) e^(hA) is diagonal, and fixed-step ETDRK4
(``ode.cubic_etdrk4``) integrates the linear part exactly, so A's stiff
and nearly undamped modes do not set the step; the cubic term and the
input do.  A step costs O(dim).

Every step ends on a grid sample or on one of the input's breakpoints
(the square wave's jumps): each interval between them takes k steps of
its length / k, with the square wave held at its value on that
interval, so no step crosses a jump.  A smooth input is read at every
stage time of a run in one ``eval_input`` call.  Runs are made at
k = 1, 2, 4, ... (``ode.step_doubling``); each is compared with the run
before it at every sample, and the first whose estimate passes rtol and
atol is kept.  Each sample is projected to the outputs as it is made,
so a run holds samples x outputs numbers, not samples x states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .balance import ReducedSystem
from .model import DimensionMismatch, StateSpaceSystem
# Not called here any more: perfbench's tracer still patches these names
# (its sites ("cablemass.rom", "fom_rhs") and ("cablemass.rom",
# "fom_jacobian")), so they stay importable until the benchmark drops them.
from .model import fom_jacobian, fom_rhs  # noqa: F401
from .signals import PIECEWISE_CONSTANT, InputSpec, breakpoints, eval_input

# ETDRK4 steps (every run, every k tried) a forced run may take.
_STEP_BUDGET = 1_000_000
# Samples projected from modal coordinates to the outputs at a time.
_SAMPLE_BLOCK = 64


@dataclass(frozen=True)
class Etdrk4Stats:
    """How a forced run was integrated.

    The kept run took steps_per_sample ETDRK4 steps per sample
    interval, each of size step (an interval cut by an input jump takes
    as many steps per piece, each of the piece's length over
    steps_per_sample).  error_estimate is the largest difference of an
    output sample from the run at twice the step, over 15; n_steps
    counts the steps of every run made; cond_v is the estimated
    condition number of the model's eigenvector matrix.
    """

    step: float
    steps_per_sample: int
    n_steps: int
    error_estimate: float
    cond_v: float


@dataclass(frozen=True, eq=False)
class OutputSeries:
    """Output samples y(t) on a uniform grid, and how they were integrated."""

    times: np.ndarray
    values: np.ndarray
    stats: Etdrk4Stats


def _check_reduced_state(red: ReducedSystem, a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (red.r,):
        raise DimensionMismatch(f"reduced state must have shape ({red.r},), "
                                f"got {a.shape}")
    return a


def _cubic(red: ReducedSystem, a: np.ndarray) -> np.ndarray:
    s = red.nl_in_weights @ a
    return (red.nl_coeff * s**3) * red.nl_out_weights


def rom_nonlinear(red: ReducedSystem, a) -> np.ndarray:
    """Projected cubic term, evaluated in O(r)."""
    return _cubic(red, _check_reduced_state(red, a))


def rom_rhs(red: ReducedSystem, a, u: float) -> np.ndarray:
    """Right-hand side A_r a + B_r u + S_r F(T_r a)."""
    a = _check_reduced_state(red, a)
    return red.ar @ a + red.br[:, 0] * u + _cubic(red, a)


def rom_jacobian(red: ReducedSystem, a) -> np.ndarray:
    """Reduced state Jacobian: A_r plus the rank-one cubic derivative."""
    a = _check_reduced_state(red, a)
    s = red.nl_in_weights @ a
    return red.ar + (3.0 * red.nl_coeff * s**2) * np.outer(
        red.nl_out_weights, red.nl_in_weights)


def _intervals(spec: InputSpec, grid: np.ndarray, interval: float):
    """The intervals a run steps over, between grid times and input jumps.

    Returns (starts, lengths, paths).  Interval j starts at starts[j]
    and has length lengths[j]; one between two grid times has the
    nominal sample interval as its length, so all of them share one
    step size.  paths holds, for each grid time after the first, the
    intervals that lead to it from the grid time before, one entry each:
    None for a whole sample interval, else the piece's length (two
    pieces where a jump falls in between).
    """
    knots = np.union1d(grid, breakpoints(spec, grid[0], grid[-1]))
    on_grid = np.isin(knots, grid)
    lengths = np.diff(knots)
    whole = on_grid[:-1] & on_grid[1:]
    lengths[whole] = interval
    paths, path = [], []
    for length, is_whole, ends_on_sample in zip(
            lengths.tolist(), whole.tolist(), on_grid[1:].tolist()):
        path.append(None if is_whole else length)
        if ends_on_sample:
            paths.append(tuple(path))
            path = []
    return knots[:-1], lengths, paths


def _stage_inputs(spec: InputSpec, starts, lengths, k: int) -> list:
    """The input at the start, middle and end of every step of a run.

    One [u0, uh, u1] per step, the k steps of each interval in turn.  A
    piecewise-constant input is held at its value at the interval's
    midpoint; a smooth one is read at every stage time, in one call.
    """
    if spec.kind in PIECEWISE_CONSTANT:
        held = eval_input(spec, starts + 0.5 * lengths)
        return np.repeat(held, 3 * k).reshape(-1, 3).tolist()
    times = starts[:, None] + (lengths / (2 * k))[:, None] \
        * np.arange(2 * k + 1)
    u = eval_input(spec, times)
    return np.stack([u[:, :-1:2], u[:, 1::2], u[:, 2::2]],
                    axis=-1).reshape(-1, 3).tolist()


def _simulate(modes, b, g, row, c, spec: InputSpec, t0: float, tf: float,
              rtol: float, atol: float, sample_count: int) -> OutputSeries:
    """Outputs c x of x' = A x + b u(t) + g (row_x . x)^3 from x(t0) = 0.

    modes is A's modal factor, and row = row_x V is the cubic term's
    functional in modal coordinates.  Each run writes its outputs over
    those of the run before, _SAMPLE_BLOCK samples at a time (one GEMM
    with c V each), after measuring the difference.
    """
    if not tf > t0:
        raise ValueError(f"need tf > t0, got [{t0}, {tf}]")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be finite and positive, "
                         f"got {rtol}, {atol}")
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    grid = np.linspace(t0, tf, sample_count)
    interval = (tf - t0) / (sample_count - 1)
    starts, lengths, paths = _intervals(spec, grid, interval)
    bm, gm = modes.solve(np.column_stack([b, g])).T
    # Re(c V y) = Re(cV) Re y - Im(cV) Im y: one real GEMM of a block of
    # samples, read with their real and imaginary parts interleaved
    cv = c @ modes.v
    m = cv.shape[1]
    real_cv = np.empty((2 * m, cv.shape[0]))
    real_cv[0::2] = cv.real.T
    real_cv[1::2] = -cv.imag.T
    values = np.zeros((sample_count, cv.shape[0]))
    block = np.empty((min(_SAMPLE_BLOCK, len(paths)), m), dtype=complex)

    def kernel(h):
        return ode.cubic_etdrk4(modes.eigenvalues, row, gm, h, bm).step

    def run(k, compare):
        # the sample interval's coefficients serve every whole interval;
        # each piece cut by a jump is met once, so its own are made there
        whole = kernel(interval / k)
        inputs = iter(_stage_inputs(spec, starts, lengths, k))
        y = np.zeros(m, dtype=complex)
        diff = np.zeros(cv.shape[0])
        scale = np.zeros(cv.shape[0])
        for first in range(1, sample_count, _SAMPLE_BLOCK):
            rows = min(_SAMPLE_BLOCK, sample_count - first)
            for i in range(rows):
                for piece in paths[first - 1 + i]:
                    step = whole if piece is None else kernel(piece / k)
                    for _ in range(k):
                        y = step(y, *next(inputs))
                block[i] = y
            out = block[:rows].view(float) @ real_cv
            if not np.isfinite(out).all():
                raise ode.NonFiniteState("ETDRK4 sample not finite")
            kept = values[first:first + rows]
            if compare:
                np.maximum(diff, np.abs(out - kept).max(axis=0), out=diff)
            np.maximum(scale, np.abs(out).max(axis=0), out=scale)
            kept[...] = out
        if not compare:
            return math.inf, False
        est = diff / 15.0  # 2^4 - 1: Richardson for a fourth-order method
        return float(est.max()), bool((est <= rtol * scale + atol).all())

    k, n_steps, est = ode.step_doubling(run, len(starts), _STEP_BUDGET)
    stats = Etdrk4Stats(step=interval / k, steps_per_sample=k,
                        n_steps=n_steps, error_estimate=est,
                        cond_v=modes.cond)
    return OutputSeries(times=grid, values=values, stats=stats)


def simulate_rom(red: ReducedSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the nonlinear ROM from a(t0) = 0; return y_r = C_r a.

    The outputs at each sample of the kept run are checked against the
    run at twice its step to rtol * max |y_r| + atol per channel.

    Raises
    ------
    linalg.IllConditionedModes
        When A_r is too close to defective for its modal factor.
    ode.StepBudget
        When no run within _STEP_BUDGET steps passes the check.
    """
    modes = red.modes
    return _simulate(modes, red.br[:, 0], red.nl_coeff * red.nl_out_weights,
                     red.nl_in_weights @ modes.v, red.cr, spec, t0, tf, rtol,
                     atol, sample_count)


def simulate_fom(sys: StateSpaceSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the full-order model from x(t0) = 0; return y = C x.

    Checked and raising as ``simulate_rom``, on A's modal factor.
    """
    modes = sys.modes
    target = np.zeros(2 * sys.n)
    target[sys.nl_target_index] = sys.nl_coeff
    return _simulate(modes, sys.b[:, 0], target,
                     modes.v[sys.nl_state_index], sys.c, spec, t0, tf, rtol,
                     atol, sample_count)
