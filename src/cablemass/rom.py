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
eigenvector coordinates y = V^-1 x of A (``StateSpaceSystem.modes``,
``ReducedSystem.modes``) e^(hA) is diagonal, and fixed-step ETDRK4
(``ode.CubicEtdrk4``) integrates the linear part exactly, so A's stiff
and nearly undamped modes do not set the step; the cubic term and the
input do.  The coordinates are real: each real eigenvalue is one real
mode and each conjugate pair one complex mode weighted 2, so a state is
exactly dim reals.  A step costs O(dim), and a model of at most
``ode._DENSE_DIM`` reals of state (every ROM here) steps by one real
(dim + 3) x (dim + 6) matrix-vector product instead: O(dim^2)
arithmetic, but one call where the O(dim) update takes three or four,
and at such sizes the calls cost more than the arithmetic.

Every step ends on a grid sample or on one of the input's breakpoints
(the square wave's jumps): each interval between them takes k steps of
its length / k, with the square wave held at its value on that
interval, so no step crosses a jump.  These intervals depend on the
jump times and the grid only, so they are built once per jump set and
grid.  A run keeps one ``ode.Etdrk4Run``, its state, input stream and
buffers: a stretch of whole sample intervals is stepped by one
``Etdrk4Run.advance`` call, and so is each piece that a jump cuts, with
that piece's kernel.  A smooth input is read at every stage time of a
run in one ``eval_input`` call.  Runs are made at
k = 1, 2, 4, ... (``ode.step_doubling``); each is compared with the run
before it at every sample, and the first whose estimate passes rtol and
atol is kept.  Each block of samples is projected to the outputs as it
is made, by one real GEMM with the table's output map, so a run holds
samples x outputs numbers, not samples x states.  The energy study
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
the oldest dropped first: at most 8 MB at n = 400.  A set of at most
``ode._DENSE_DIM`` reals of state also holds its dense step matrix,
about 37 KB at dim 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from . import ode
from .balance import ReducedSystem
from .model import DimensionMismatch, StateSpaceSystem
# Not called here any more: perfbench's tracer still patches these names
# (its sites ("cablemass.rom", "fom_rhs") and ("cablemass.rom",
# "fom_jacobian")), so they stay importable until the benchmark drops them.
from .model import fom_jacobian, fom_rhs  # noqa: F401
from .signals import PIECEWISE_CONSTANT, InputSpec, breakpoints, eval_input

# ETDRK4 steps (every run, every k tried) a sampled run may take.
_STEP_BUDGET = 1_000_000
# Samples projected from modal to real coordinates at a time.
_SAMPLE_BLOCK = 64
# Interval sets (one per jump set and grid) that _intervals keeps, the
# least recently used dropped first.  A set of 1000 samples holds about
# 85 KB (tracemalloc), so the cache at most 0.7 MB.
_INTERVAL_SETS = 8


@dataclass(frozen=True)
class Etdrk4Stats:
    """How a sampled run (forced, or the energy study's) was integrated.

    The kept run took steps_per_sample ETDRK4 steps per sample
    interval, each of size step (an interval cut by an input jump takes
    as many steps per piece, each of the piece's length over
    steps_per_sample).  error_estimate is the largest difference of a
    sample from the run at twice the step, over 15, in the caller's
    norm (per output, or the energy norm); n_steps counts the steps of
    every run made; cond_v is the estimated condition number of the
    model's eigenvector matrix.  sets_built counts the ETDRK4
    coefficient sets (one per step size) the call added to the model's
    table, 0 when the table held them all.
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


def _intervals(spec: InputSpec, grid: np.ndarray, interval: float):
    """The intervals a run steps over, between grid times and input jumps.

    Returns (starts, lengths, paths).  Interval j starts at starts[j]
    and has length lengths[j]; one between two grid times has the
    nominal sample interval as its length, so all of them share one
    step size.  paths holds, for each grid time after the first, the
    intervals that lead to it from the grid time before, one entry each:
    None for a whole sample interval, else the piece's length (two
    pieces where a jump falls in between).

    grid is a uniform grid np.linspace(t0, tf, count), as
    ``_sample_grid`` makes.  The result depends on the input's jump
    times, t0, tf and count only, not on the input's amplitude, so it
    is built once per jump set and grid and kept; its arrays are
    read-only.
    """
    t0, tf = grid[0], grid[-1]
    return _grid_intervals(tuple(breakpoints(spec, t0, tf).tolist()),
                           float(t0), float(tf), grid.size, float(interval))


@lru_cache(maxsize=_INTERVAL_SETS)
def _grid_intervals(jumps: tuple, t0: float, tf: float, count: int,
                    interval: float):
    """``_intervals`` of the grid np.linspace(t0, tf, count) and jumps."""
    grid = np.linspace(t0, tf, count)
    knots = np.union1d(grid, jumps)
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
    starts = knots[:-1]
    for arr in (starts, lengths):
        arr.flags.writeable = False
    return starts, lengths, tuple(paths)


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


def _sample_grid(t0: float, tf: float, rtol: float, atol: float,
                 sample_count: int) -> np.ndarray:
    """The grid of a sampled run, after checking the run's settings.

    Every run is checked here before any work: a finite t0 < tf, finite
    positive rtol and atol and two samples or more, else ValueError.
    """
    if not (math.isfinite(t0) and math.isfinite(tf) and t0 < tf):
        raise ValueError(f"need finite t0 < tf, got [{t0}, {tf}]")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be finite and positive, "
                         f"got {rtol}, {atol}")
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    return np.linspace(t0, tf, sample_count)


def _simulate(system, spec: InputSpec, grid: np.ndarray, rtol: float,
              atol: float, y0: np.ndarray, first: np.ndarray,
              sample_map: np.ndarray, norm) -> OutputSeries:
    """Samples of x' = A x + b u(t) + g (row_x . x)^3 on grid from state y0.

    system is a ``StateSpaceSystem`` or a ``ReducedSystem``; its
    ``etdrk4`` table gives the steps, and y0 is a state of the table's
    real modal coordinates.  The first sample is the caller's, each
    later one y @ sample_map, with sample_map one of the table's real
    sampling maps (``out_map`` for the outputs, ``state_map`` for the
    state).  Each run writes its samples over those of the run before,
    _SAMPLE_BLOCK at a time, after measuring the difference in norm: per
    channel (np.abs) or one number per sample.  It passes where that
    over 15 is at most rtol * scale + atol, scale the largest norm of a
    sample, the first's included.
    """
    interval = (grid[-1] - grid[0]) / (grid.size - 1)
    starts, lengths, paths = _intervals(spec, grid, interval)
    table = system.etdrk4
    built = table.built
    values = np.empty((grid.size, first.size))
    values[0] = first
    block = np.empty((min(_SAMPLE_BLOCK, len(paths)), y0.size))

    def run(k, compare):
        # the sample interval's steps serve every whole interval and a
        # piece cut by a jump takes those of its length; the table builds
        # each step size once for all runs and queries of the system
        whole = table.kernel(interval / k)
        # one state and one input stream through every kernel of the run;
        # the zero input takes no part
        steps = ode.Etdrk4Run(
            y0, None if spec.kind == "zero"
            else _stage_inputs(spec, starts, lengths, k))
        if compare:
            scale = norm(first)
            diff = np.zeros_like(scale)
        for start in range(1, grid.size, _SAMPLE_BLOCK):
            rows = min(_SAMPLE_BLOCK, grid.size - start)
            i = 0
            for pieces, same in groupby(paths[start - 1:start - 1 + rows]):
                count = sum(1 for _ in same)
                if pieces == (None,):
                    steps.advance(whole, block[i:i + count], k)
                else:
                    # every piece writes the row; the last one ends on it
                    for j in range(i, i + count):
                        for piece in pieces:
                            steps.advance(table.kernel(piece / k),
                                          block[j:j + 1], k)
                i += count
            out = block[:rows] @ sample_map
            if not np.isfinite(out).all():
                raise ode.NonFiniteState("ETDRK4 sample not finite")
            kept = values[start:start + rows]
            if compare:
                diff = np.maximum(diff, norm(out - kept).max(axis=0))
                scale = np.maximum(scale, norm(out).max(axis=0))
            kept[...] = out
        if not compare:
            # nothing to check against: the run only seeds the next one
            return math.inf, False
        est = diff / 15.0  # 2^4 - 1: Richardson for a fourth-order method
        return float(est.max()), bool((est <= rtol * scale + atol).all())

    k, n_steps, est = ode.step_doubling(run, len(starts), _STEP_BUDGET)
    stats = Etdrk4Stats(step=interval / k, steps_per_sample=k,
                        n_steps=n_steps, error_estimate=est,
                        cond_v=system.modes.cond,
                        sets_built=table.built - built)
    return OutputSeries(times=grid, values=values, stats=stats)


def _forced(system, spec: InputSpec, t0: float, tf: float, rtol: float,
            atol: float, sample_count: int) -> OutputSeries:
    """Outputs c x of a run from x(t0) = 0, checked per channel."""
    grid = _sample_grid(t0, tf, rtol, atol, sample_count)
    table = system.etdrk4
    return _simulate(system, spec, grid, rtol, atol, np.zeros(table.dim),
                     np.zeros(table.out_map.shape[1]), table.out_map, np.abs)


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
    return _forced(red, spec, t0, tf, rtol, atol, sample_count)


def simulate_fom(sys: StateSpaceSystem, spec: InputSpec, t0: float = 0.0,
                 tf: float = 100.0, rtol: float = 1e-3, atol: float = 1e-6,
                 sample_count: int = 1000) -> OutputSeries:
    """Integrate the full-order model from x(t0) = 0; return y = C x.

    Checked and raising as ``simulate_rom``, on A's modal factor.
    """
    return _forced(sys, spec, t0, tf, rtol, atol, sample_count)
