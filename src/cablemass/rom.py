"""Sampled full-order and reduced-order runs, by ETDRK4 on the modal factor.

The projected nonlinearity S_r F(T_r a) needs only the right-mass
displacement row of T_r and the cubic-force column of S_r:

    [S_r F(T_r a)]_i = nl_coeff * psi_i * (sum_j phi_j a_j)^3,

so the reduced model's cubic term costs O(r) regardless of the full
order.

Both models read x' = A x + b u(t) + g (v . x)^3: a constant linear
part, the input column b, and a cubic term read through one functional
v and written along one column g (the FOM's nl_state_index and
nl_target_index, the ROM's nl_in_weights and nl_out_weights).  In the
real eigenvector coordinates y = V^-1 x of A (``sys.etdrk4.modes``,
which each model's table factors) e^(hA) is block-diagonal, and
fixed-step ETDRK4 (``ode.CubicEtdrk4``) integrates the linear part
exactly, so A's stiff and nearly undamped modes do not set the step;
the cubic term and the input do.  V has a real column per real
eigenvalue and two per conjugate pair (Re v and -Im v), so a state is
exactly dim reals.  A step costs O(dim), and a model of at most
``ode._DENSE_DIM`` reals of state (every ROM here) steps by one real
(dim + 3) x (dim + 6) matrix-vector product instead: O(dim^2)
arithmetic, but one call where the O(dim) update takes three or four,
and at such sizes the calls cost more than the arithmetic.  The
batched side steps below take the O(dim) update for every model.

Every step ends on a grid sample or on one of the input's breakpoints
(the square wave's jumps): each interval between them takes k steps of
its length / k, with the square wave held at its value on that
interval, so no step crosses a jump.  These intervals depend on the
jump times and the grid only, so they are built once per jump set and
grid.  A run keeps one ``ode.Etdrk4Run``, its state, input terms and
buffers: a stretch of whole sample intervals is stepped by one
``Etdrk4Run.advance`` call, and so is each piece that a jump cuts, with
that piece's kernel.  A smooth input is read at every stage time of a
run in one ``eval_input`` call.  Each block of samples is projected to
the outputs as it is made, by one real GEMM with the table's output
map, so a run holds samples x outputs numbers, not samples x states.

The runs follow ``ode.step_doubling``.  A coarse first run steps the
grid's every second time, one step per two sample intervals, and gives
each odd sample by a side step of one interval from the even sample
before it (``ode.CubicEtdrk4.step_rows``: one batched step per block;
an interval a jump cuts is stepped piece by piece), and sample 1 by two
steps of half an interval, as a side step from the initial state would
be the run at k = 1's own first step.  Then runs are made at
k = 1, 2, 4, ...; each is compared with the run before it at every
sample, and the first whose estimate passes rtol and atol is kept.  So
the run at k = 1, checked against the coarse run, is kept where it
passes, at half the sequential steps of a run at k = 2 checked against
one at k = 1.  When the coarse run blows up, it is dropped and the run
at k = 1 only seeds the check of the run at k = 2.  The energy study
(``analysis.energy_decay``) is this loop's unforced case from a given
state, sampling the state itself, through the table's real modal basis,
in the energy norm.

A step's coefficients depend on h and the model only, not on the input
or the initial state, so each model keeps them in one ``ode.Etdrk4Table``
(``StateSpaceSystem.etdrk4``, ``ReducedSystem.etdrk4``), with the modal
vectors and the real sampling maps every run uses: a step size is
built once for all of the model's runs and queries, and a query that
differs from an earlier one only in the input's amplitude builds none.
A coefficient set holds 10 dim reals, 80 dim bytes (64 KB at n = 400,
dim 800), and a table keeps at most ``ode._TABLE_SETS`` (128) of them,
the oldest dropped first: at most 8.4 MB at n = 400, beside the modal
factor's real V and its LU, 2 dim^2 reals (10.3 MB).  A set of at most
``ode._DENSE_DIM`` reals of state also holds its dense step matrix,
about 37 KB at dim 64.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ode
from .balance import ReducedSystem
from .model import DimensionMismatch, StateSpaceSystem
# Not called here any more: perfbench's tracer still patches these names
# (its sites ("cablemass.rom", "fom_rhs") and ("cablemass.rom",
# "fom_jacobian")), so they stay importable until the benchmark drops them.
from .model import fom_jacobian, fom_rhs  # noqa: F401
from .signals import PIECEWISE_CONSTANT, InputSpec, breakpoints, eval_input

# ETDRK4 steps (every run, every k tried, the coarse first run's coarse
# steps and side steps included) a sampled run may take.
_STEP_BUDGET = 1_000_000
# Samples a run steps and projects from modal to real coordinates at a
# time; the coarse first run steps as many even samples at a time and
# makes the odd ones after them by side steps, in one batched call.  At
# 128 the energy study at n = 100 peaks at 2.6 MB (tracemalloc), of
# which 1.6 MB are its sampled states; at 256, at 3.4 MB.
_SAMPLE_BLOCK = 128
# Interval sets (one per jump set and grid) that _intervals keeps, the
# least recently used dropped first.  A query uses two, its grid's and
# the coarse first run's every second time (4 in a benchmark ``online``
# pass).  A square-wave set of 1000 samples holds 35-40 KB (tracemalloc;
# 50-300 s) and its coarse run's 18-22 KB, so the cache at most 0.32 MB.
_INTERVAL_SETS = 8


@dataclass(frozen=True)
class Etdrk4Stats:
    """How a sampled run (forced, or the energy study's) was integrated.

    The kept run took steps_per_sample ETDRK4 steps per sample
    interval, each of size step (an interval cut by an input jump takes
    as many steps per piece, each of the piece's length over
    steps_per_sample).  error_estimate is the largest difference of a
    sample from the run at twice the step (for steps_per_sample 1, the
    coarse first run), over 15, in the caller's norm (per output, or
    the energy norm); n_steps counts the steps of every run made, the
    coarse first run's coarse steps and side steps included; cond_v is
    the estimated condition number of the model's eigenvector matrix.
    sets_built counts the ETDRK4 coefficient sets (one per step size)
    the call added to the model's table, 0 when the table held them all.
    """

    step: float
    steps_per_sample: int
    n_steps: int
    error_estimate: float
    cond_v: float
    sets_built: int


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


class _Intervals(NamedTuple):
    """The intervals a run steps over (``_intervals``), read-only.

    Interval j starts at starts[j] and has length lengths[j]; one
    between two grid times has the nominal sample interval as its
    length, so all of them share one step size.  Path i, the intervals
    from grid time i to grid time i + 1, is intervals first[i] to
    first[i + 1]: one whole sample interval where whole[i], else the
    pieces that the jumps in between cut it into.  cuts lists the paths
    that are not whole, and pieces[m] the piece lengths of path cuts[m].
    sizes are the distinct lengths, and which[j] the index in sizes of
    lengths[j]: the step sizes of a run.
    """

    starts: np.ndarray
    lengths: np.ndarray
    whole: np.ndarray
    cuts: tuple
    pieces: tuple
    first: np.ndarray
    sizes: np.ndarray
    which: np.ndarray


def _intervals(spec: InputSpec, grid: np.ndarray, interval: float,
               stride: int = 1) -> _Intervals:
    """The intervals a run steps over, between grid times and input jumps.

    grid is a uniform grid np.linspace(t0, tf, count), as
    ``_sample_grid`` makes, and the run samples its every stride-th time
    (grid[::2] for the coarse first run), interval apart.  Those times
    are taken from the grid itself, bitwise, so a jump on one of them
    cuts nothing.  The result depends on the input's jump times, t0, tf,
    count and stride only, not on the input's amplitude, so it is built
    once per jump set and grid and kept.
    """
    t0, t_last = grid[0], grid[::stride][-1]
    return _grid_intervals(tuple(breakpoints(spec, t0, t_last).tolist()),
                           float(t0), float(grid[-1]), grid.size,
                           float(interval), stride)


@lru_cache(maxsize=_INTERVAL_SETS)
def _grid_intervals(jumps: tuple, t0: float, tf: float, count: int,
                    interval: float, stride: int) -> _Intervals:
    """``_intervals`` of np.linspace(t0, tf, count)[::stride] and jumps.

    np.linspace puts a grid time up to an ulp of tf off its exact value
    (5.000000000000002 for 5), so a jump within 4 ulps of tf of a grid
    time is taken onto it, where it would cut a piece that short.
    """
    grid = np.linspace(t0, tf, count)[::stride]
    jumps = np.array(jumps, dtype=float)
    j = np.clip(np.searchsorted(grid, jumps), 1, grid.size - 1)
    near = np.where(jumps - grid[j - 1] < grid[j] - jumps, grid[j - 1],
                    grid[j])
    snap = np.abs(near - jumps) <= 4.0 * np.spacing(max(abs(t0), abs(tf)))
    knots = np.union1d(grid, np.where(snap, near, jumps))
    first = np.searchsorted(knots, grid)
    whole = np.diff(first) == 1
    lengths = np.diff(knots)
    lengths[first[:-1][whole]] = interval
    cuts = tuple(np.flatnonzero(~whole).tolist())
    sizes, which = np.unique(lengths, return_inverse=True)
    out = _Intervals(
        starts=knots[:-1], lengths=lengths, whole=whole, cuts=cuts,
        pieces=tuple(tuple(lengths[first[i]:first[i + 1]].tolist())
                     for i in cuts),
        first=first, sizes=sizes, which=which)
    for arr in (out.starts, out.lengths, out.whole, out.first, out.sizes,
                out.which):
        arr.flags.writeable = False
    return out


def _stage_inputs(spec: InputSpec, starts, lengths, k: int) -> np.ndarray:
    """The input at the start, middle and end of every step of a run.

    One row [u0, uh, u1] per step, the k steps of each interval in turn.
    A piecewise-constant input is held at its value at the interval's
    midpoint; a smooth one is read at every stage time, in one call.
    """
    if spec.kind in PIECEWISE_CONSTANT:
        held = eval_input(spec, starts + 0.5 * lengths)
        return np.repeat(held, 3 * k).reshape(-1, 3)
    times = starts[:, None] + (lengths / (2 * k))[:, None] \
        * np.arange(2 * k + 1)
    u = eval_input(spec, times)
    return np.stack([u[:, :-1:2], u[:, 1::2], u[:, 2::2]],
                    axis=-1).reshape(-1, 3)


def _sample_grid(t0: float, tf: float, rtol: float, atol: float,
                 sample_count: int) -> np.ndarray:
    """The grid of a sampled run, after checking the run's settings.

    Every run is checked here before any work: a finite t0 < tf, finite
    positive rtol and atol and an integral sample_count of two or more
    (a numpy integer too), else ValueError.
    """
    if not (math.isfinite(t0) and math.isfinite(tf) and t0 < tf):
        raise ValueError(f"need finite t0 < tf, got [{t0}, {tf}]")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be finite and positive, "
                         f"got {rtol}, {atol}")
    if not isinstance(sample_count, numbers.Integral) or sample_count < 2:
        raise ValueError(f"sample_count must be an integer >= 2, got "
                         f"{sample_count!r}")
    return np.linspace(t0, tf, sample_count)


def _simulate(table: ode.Etdrk4Table, spec: InputSpec, grid: np.ndarray,
              rtol: float, atol: float, y0: np.ndarray, first: np.ndarray,
              sample_map: np.ndarray, norm) -> OutputSeries:
    """Samples of x' = A x + b u(t) + g (row_x . x)^3 on grid from state y0.

    table is a ``StateSpaceSystem``'s or a ``ReducedSystem``'s
    ``etdrk4``: it gives the steps and cond(V) (``table.modes.cond``), and
    y0 is a state of its real modal coordinates.  The first sample is the
    caller's, each later one y @ sample_map, with sample_map one of the
    table's real sampling maps (``out_map`` for the outputs, ``state_map``
    for the state).  The coarse first run writes every sample: the even
    ones by steps of two sample intervals, and each odd one by one step of
    one interval from the even sample before it, the side steps of a block
    all made in one ``CubicEtdrk4.step_rows`` call.  Each later run
    writes its samples over those of the run before, _SAMPLE_BLOCK at a
    time, after measuring the difference in norm: per channel (np.abs)
    or one number per sample.  It passes where that over 15 is at most
    rtol * scale + atol, scale the largest norm of a sample, the
    first's included.
    """
    interval = (grid[-1] - grid[0]) / (grid.size - 1)
    fine = _intervals(spec, grid, interval)
    built = table.built
    values = np.empty((grid.size, first.size))
    values[0] = first
    block = np.empty((min(_SAMPLE_BLOCK, grid.size - 1), y0.size))
    # the k = 1 inputs, which the side steps share with the run at k = 1
    inputs_1 = _stage_inputs(spec, fine.starts, fine.lengths, 1)
    # the coarse run: n_coarse intervals of two sample intervals, then
    # the side steps from the n_side even samples before an odd one; its
    # steps are one per coarse interval and one per piece of a side step,
    # those to sample 1 twice (two halves each)
    n_coarse, n_side = (grid.size - 1) // 2, grid.size // 2
    coarse = _intervals(spec, grid, 2.0 * interval, 2) if n_coarse else None
    pieces = fine.first[1:2 * n_side:2] - fine.first[:2 * n_side:2]
    first_steps = ((len(coarse.starts) if n_coarse else 0)
                   + int(pieces.sum() + pieces[0]))

    def start(intervals, k):
        # one state and one input stream through every kernel of the
        # run; the table builds each step size once for all runs and
        # queries of the system; the zero input forms no terms (Etdrk4Run)
        kernels = [table.kernel(size / k) for size in intervals.sizes.tolist()]
        if spec.kind == "zero":
            return ode.Etdrk4Run(y0)
        inputs = (inputs_1 if intervals is fine and k == 1 else
                  _stage_inputs(spec, intervals.starts, intervals.lengths, k))
        return ode.Etdrk4Run(y0, ode.input_terms(
            inputs, kernels, np.repeat(intervals.which, k)))

    def step_paths(steps, intervals, i0, out, k, whole):
        # the paths i0, i0 + 1, ... into the rows of out: the sample
        # interval's kernel serves each stretch of whole intervals, and
        # a piece cut by a jump takes the kernel of its length
        i, cuts = i0, intervals.cuts
        lo, hi = bisect_left(cuts, i0), bisect_left(cuts, i0 + len(out))
        for cut, pieces in zip(cuts[lo:hi], intervals.pieces[lo:hi]):
            steps.advance(whole, out[i - i0:cut - i0], k)
            # every piece writes the row; the last one ends on it
            for piece in pieces:
                steps.advance(table.kernel(piece / k),
                              out[cut - i0:cut - i0 + 1], k)
            i = cut + 1
        steps.advance(whole, out[i - i0:], k)

    def one_path(y, p, k):
        # fine path p from state y, k steps per interval: a new row
        a, b = fine.first[p], fine.first[p + 1]
        kernels = [table.kernel(piece / k)
                   for piece in fine.lengths[a:b].tolist()]
        inputs = (inputs_1[a:b] if k == 1 else _stage_inputs(
            spec, fine.starts[a:b], fine.lengths[a:b], k))
        steps = ode.Etdrk4Run(y, ode.input_terms(
            inputs, kernels, np.repeat(np.arange(b - a), k)))
        out = np.empty((1, y.size))
        for kernel in kernels:
            steps.advance(kernel, out, k)
        return out

    def side_steps(evens, j0):
        # from the even samples 2 j0, 2 j0 + 2, ... one step of one sample
        # interval each to the odd sample after it: one batched step for
        # the whole intervals, and the pieces of a cut one in turn
        paths = slice(2 * j0, 2 * (j0 + len(evens)), 2)
        whole, firsts = fine.whole[paths], fine.first[paths]
        side = table.kernel(interval).step_rows
        if whole.all():
            # indexing every row instead: FOM query, energy_decay +3-4 %
            return side(evens, inputs_1[firsts])
        rows = np.flatnonzero(whole)
        odd = np.empty_like(evens)
        odd[rows] = side(evens[rows], inputs_1[firsts[rows]])
        for i in np.flatnonzero(~whole).tolist():
            odd[i] = one_path(evens[i], 2 * (j0 + i), 1)
        return odd

    def sample(states):
        out = states @ sample_map
        if not np.isfinite(out).all():
            raise ode.NonFiniteState("ETDRK4 sample not finite")
        return out

    def coarse_run():
        # every sample, seeding the check of the run at k = 1: rows 1...
        # of evens receive the even samples of a block, row 0 holds the
        # one before them.  The side step to sample 1 would start from
        # y0, as the run at k = 1 does, and leave that sample unchecked:
        # it takes two steps of half the interval instead
        if n_coarse:
            steps = start(coarse, 1)
            big = table.kernel(2.0 * interval)
        values[1] = sample(one_path(y0, 0, 2))
        evens = np.empty((_SAMPLE_BLOCK + 1, y0.size))
        evens[0] = y0
        for j0 in range(0, n_side, _SAMPLE_BLOCK):
            n_even = max(0, min(j0 + _SAMPLE_BLOCK, n_coarse) - j0)
            n_odd = min(j0 + _SAMPLE_BLOCK, n_side) - j0
            if n_even:
                step_paths(steps, coarse, j0, evens[1:1 + n_even], 1, big)
            lo = 1 if j0 == 0 else 0
            if n_odd > lo:
                values[2 * (j0 + lo) + 1:2 * (j0 + n_odd):2] = sample(
                    side_steps(evens[lo:n_odd], j0 + lo))
            values[2 * j0 + 2:2 * (j0 + n_even) + 1:2] = sample(
                evens[1:1 + n_even])
            evens[0] = evens[n_even]

    def run(k, compare):
        steps = start(fine, k)
        whole = table.kernel(interval / k)
        if compare:
            scale = norm(first)
            diff = np.zeros_like(scale)
        for i0 in range(1, grid.size, _SAMPLE_BLOCK):
            rows = min(_SAMPLE_BLOCK, grid.size - i0)
            step_paths(steps, fine, i0 - 1, block[:rows], k, whole)
            out = sample(block[:rows])
            kept = values[i0:i0 + rows]
            if compare:
                moved = norm(out - kept)
                if k == 1 and i0 == 1:
                    # sample 1, one step against two of half its length:
                    # the one step's error is 16/15 of their difference
                    moved[0] *= 16.0
                diff = np.maximum(diff, moved.max(axis=0))
                scale = np.maximum(scale, norm(out).max(axis=0))
            kept[...] = out
        if not compare:
            # nothing to check against: the run only seeds the next one
            return math.inf, False
        est = diff / 15.0  # 2^4 - 1: Richardson for a fourth-order method
        return float(est.max()), bool((est <= rtol * scale + atol).all())

    k, n_steps, est = ode.step_doubling((first_steps, coarse_run), run,
                                        len(fine.starts), _STEP_BUDGET)
    stats = Etdrk4Stats(step=interval / k, steps_per_sample=k,
                        n_steps=n_steps, error_estimate=est,
                        cond_v=table.modes.cond,
                        sets_built=table.built - built)
    return OutputSeries(times=grid, values=values, stats=stats)


def _forced(system, spec: InputSpec, t0: float, tf: float, rtol: float,
            atol: float, sample_count: int) -> OutputSeries:
    """Outputs c x of a run from x(t0) = 0, checked per channel."""
    grid = _sample_grid(t0, tf, rtol, atol, sample_count)
    table = system.etdrk4
    return _simulate(table, spec, grid, rtol, atol, np.zeros(table.dim),
                     np.zeros(table.out_map.shape[1]), table.out_map, np.abs)


def simulate_rom(red: ReducedSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the nonlinear ROM from a(t0) = 0; return y_r = C_r a.

    The outputs at each sample of the kept run are checked against the
    run at twice its step (for the run at k = 1, the coarse first run)
    to rtol * max |y_r| + atol per channel.

    Raises
    ------
    linalg.IllConditionedModes
        When A_r is too close to defective for its modal factor.
    ode.StepBudget
        When no run within _STEP_BUDGET steps passes the check.
    """
    return _forced(red, spec, t0, tf, rtol, atol, sample_count)


def simulate_fom(sys: StateSpaceSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the full-order model from x(t0) = 0; return y = C x.

    Checked and raising as ``simulate_rom``, on A's modal factor.
    """
    return _forced(sys, spec, t0, tf, rtol, atol, sample_count)
