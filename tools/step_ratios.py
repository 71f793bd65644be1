"""Measure the ETDRK4 step's order on a preset: fixed-k runs, halving the step.

    python tools/step_ratios.py PRESET N fom|rom

Builds the preset's full-order model at N nodes (and, for ``rom``, its
reduced model of the preset's order r), then makes the preset's forced
run on [0, tf] with the 1000-sample grid at k = 1, 2, 4, ..., 32 steps
per sample interval, each run on its own, unchecked.  It prints the
largest output difference between the runs at k and 2k, and the ratio
of each difference to the next: 16 per halving for a step of order 4,
in the asymptotic range and above roundoff.  Run it with one BLAS
thread (OPENBLAS_NUM_THREADS=1) for figures that repeat bitwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cablemass import balance, model, ode, rom, signals  # noqa: E402
from cablemass.cli import get_preset  # noqa: E402

KS = (1, 2, 4, 8, 16, 32)


def fixed_k_outputs(simulate, system, spec, tf: float, k: int) -> np.ndarray:
    """The outputs of the run at k steps per sample interval alone."""
    real = ode.step_doubling

    def only_k(first, run, steps_per_k, budget):
        run(k, False)
        return k, 0, 0.0

    ode.step_doubling = only_k
    try:
        return simulate(system, spec, 0.0, tf).values
    finally:
        ode.step_doubling = real


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset")
    parser.add_argument("n", type=int)
    parser.add_argument("model", choices=("fom", "rom"))
    args = parser.parse_args(argv)
    preset = get_preset(args.preset)
    sys_ = model.build_system(preset.params, args.n)
    spec = signals.resolve_input(signals.input_preset(preset.input_name),
                                 sys_)
    if args.model == "fom":
        system, simulate = sys_, rom.simulate_fom
    else:
        p, q = balance.gramians(sys_)
        bal = balance.square_root_transform(p, q, preset.r)
        system, simulate = balance.reduce(sys_, bal), rom.simulate_rom
    runs = [fixed_k_outputs(simulate, system, spec, preset.tf, k) for k in KS]
    diffs = [float(np.abs(fine - coarse).max())
             for coarse, fine in zip(runs, runs[1:])]
    print(f"{args.preset} {args.model.upper()} n={args.n}: largest output "
          f"difference per halving")
    for k, diff in zip(KS, diffs):
        print(f"  k={k:>2} -> {2 * k:>2}: {diff:.3e}")
    ratios = [coarse / fine for coarse, fine in zip(diffs, diffs[1:])]
    print("  ratios: " + ", ".join(f"{r:.1f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
