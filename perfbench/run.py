"""cablemass benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload offline|online|energy --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mb).  ``--trace 1`` reports the per-layer metrics: it runs
untraced passes, then one pass with every layer boundary wrapped in a
span, prints a self-time table, and writes the spans to
``.perfbench-out/``.  The last stdout line is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# One BLAS thread (the machine has two cores), fixed before numpy loads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-ups timed back to back before the first pass.
SETUP_REPEATS = 2
# Interval of the set-up samples taken while the passes run, and the
# largest share of the run they may take.
SETUP_INTERVAL_S = 0.5
SETUP_SHARE = 0.02


# Per-layer metrics (reported with --trace 1) and their units.
PER_LAYER_UNITS = {
    "linalg.lyap_calls": "count", "linalg.lyap_s": "s",
    "linalg.schur_s": "s", "linalg.eig_s": "s", "linalg.psd_factor_s": "s",
    "linalg.svd_s": "s", "linalg.lyap_resid_rel_max": "1",
    "linalg.lyap_backward_err_max": "1",
    "balance.gramians_s": "s", "balance.sqrt_s": "s",
    "balance.reduce_s": "s", "balance.hankel_rank": "count",
    "balance.srtr_err_max": "1", "balance.bound_violations": "count",
    "model.build_s": "s", "model.rhs_calls": "count", "model.rhs_s": "s",
    "model.jac_calls": "count", "model.jac_s": "s",
    "ode.fom_steps": "count", "ode.fom_rejected": "count",
    "ode.rom_steps": "count", "ode.rom_rejected": "count",
    "ode.lu_calls": "count", "ode.rhs_calls": "count",
    "ode.reject_ratio": "1", "ode.integrate_self_s": "s", "ode.lu_s": "s",
    "ode.step_us_fom": "us", "ode.step_us_rom": "us", "ode.sample_s": "s",
    "ode.lu_gflop_computed": "GFLOP", "ode.lu_gflops": "GFLOP/s",
    "rom.queries": "count", "rom.rhs_s": "s", "rom.jac_s": "s",
    "rom.step_us": "us", "rom.speedup": "1", "rom.rel_l2_max": "1",
    "signals.eval_calls": "count", "signals.eval_s": "s",
    "signals.resolve_s": "s",
    "analysis.energy_decay_s": "s", "analysis.energy_eval_s": "s",
    "analysis.output_error_s": "s", "analysis.decay_rate": "1/s",
    "analysis.fit_r2": "1",
    "cli.write_s": "s", "cli.bytes_written": "B",
    "fom_sim_s": "s", "rom_sim_s": "s",
    "check_fail_frac": "1", "check_attempted": "count",
    "proc.import_s": "s", "proc.cpu_s": "s", "proc.cpu_util": "1",
    "trace.overhead_s": "s", "trace.wall_s": "s",
    **{f"self.{layer}_s": "s" for layer in tracing.LAYERS},
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline", "online", "energy"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import cablemass from ROOT/src only; exit non-zero when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cablemass
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cablemass from {src}: {exc}")
    if Path(cablemass.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: cablemass was not imported from {src}")
    import workloads
    return workloads


def _timed_passes(wl, state, out_dir, seconds, excluded=lambda: 0.0):
    """Repeat the pass until `seconds` have elapsed (at least once).

    `excluded()` reads a running total of seconds spent inside passes on
    work that is not the pass (set-up samples); it is subtracted.
    """
    times = []
    start = time.perf_counter()
    while True:
        t0, x0 = time.perf_counter(), excluded()
        results = wl.run_pass(state, out_dir)
        times.append(time.perf_counter() - t0 - (excluded() - x0))
        if time.perf_counter() - start >= seconds:
            return times, results


def _bytes_in(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir())


def _layer_metrics(tracer, setup_root, pass_root):
    """Per-layer metrics over the traced set-up plus the traced pass."""
    spans = tracer.descendants(setup_root) + tracer.descendants(pass_root)
    tot = tracer.totals(spans)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def incl(*names):
        return sum(tot.get(n, {}).get("incl_s", 0.0) for n in names)

    ode = {"fom": dict(steps=0, rejected=0, time=0.0),
           "rom": dict(steps=0, rejected=0, time=0.0)}
    rhs_calls = lu_calls = 0
    flop = 0.0
    for i in spans:
        info = tracer.info.get(i)
        if info is None:
            continue
        if tracer.names[i] == "ode.integrate":
            parent = tracer.parents[i]
            kind = "rom" if tracer.names[parent] == "rom.simulate_rom" else "fom"
            ode[kind]["steps"] += info["steps"]
            ode[kind]["rejected"] += info["rejected"]
            ode[kind]["time"] += tracer.duration(i)
            rhs_calls += info["rhs"]
            lu_calls += info["lu"]
        else:
            flop += info["flop"]
    steps = ode["fom"]["steps"] + ode["rom"]["steps"]
    rejected = ode["fom"]["rejected"] + ode["rom"]["rejected"]
    lu_s = incl("ode.lu_factor", "ode.lu_solve")
    rom_layer_s = incl("rom.rom_rhs", "rom.rom_jacobian")

    def per_step_us(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    return {
        "linalg.lyap_calls": calls("linalg.solve_lyapunov"),
        "linalg.lyap_s": incl("linalg.solve_lyapunov"),
        "linalg.schur_s": incl("linalg.real_schur"),
        "linalg.eig_s": incl("linalg.eigenvalues"),
        "linalg.psd_factor_s": incl("linalg.psd_factor"),
        "linalg.svd_s": incl("linalg.svd"),
        "balance.gramians_s": incl("balance.gramians"),
        "balance.sqrt_s": incl("balance.square_root_transform"),
        "balance.reduce_s": incl("balance.reduce"),
        "model.build_s": incl("model.build_system", "model.quadratic_forms",
                              "model.sample_initial_data"),
        "model.rhs_calls": calls("model.fom_rhs"),
        "model.rhs_s": incl("model.fom_rhs"),
        "model.jac_calls": calls("model.fom_jacobian"),
        "model.jac_s": incl("model.fom_jacobian"),
        "ode.fom_steps": ode["fom"]["steps"],
        "ode.fom_rejected": ode["fom"]["rejected"],
        "ode.rom_steps": ode["rom"]["steps"],
        "ode.rom_rejected": ode["rom"]["rejected"],
        "ode.lu_calls": lu_calls,
        "ode.rhs_calls": rhs_calls,
        "ode.reject_ratio": rejected / (steps + rejected) if steps else 0.0,
        "ode.integrate_self_s": tot.get("ode.integrate", {}).get("self_s", 0.0),
        "ode.lu_s": lu_s,
        "ode.step_us_fom": per_step_us(ode["fom"]["time"], ode["fom"]["steps"]),
        "ode.step_us_rom": per_step_us(ode["rom"]["time"], ode["rom"]["steps"]),
        "ode.sample_s": incl("ode.sample"),
        "ode.lu_gflop_computed": flop / 1e9,
        "ode.lu_gflops": flop / 1e9 / lu_s if lu_s else 0.0,
        "rom.queries": calls("rom.simulate_rom"),
        "rom.rhs_s": incl("rom.rom_rhs"),
        "rom.jac_s": incl("rom.rom_jacobian"),
        "rom.step_us": per_step_us(rom_layer_s, ode["rom"]["steps"]),
        "signals.eval_calls": calls("signals.eval_input"),
        "signals.eval_s": incl("signals.eval_input"),
        "signals.resolve_s": incl("signals.resolve_input"),
        "analysis.energy_decay_s": incl("analysis.energy_decay"),
        "analysis.energy_eval_s": incl("analysis.compute_energy"),
        "analysis.output_error_s": incl("analysis.output_error"),
        "cli.write_s": sum(row["incl_s"] for name, row in tot.items()
                           if name.startswith("cli.")),
    }


def _print_self_table(tracer, roots):
    print(f"{'layer':<10}" + "".join(f"{label:>12}" for label, _ in roots))
    tables = [tracer.layer_self(root) for _, root in roots]
    for layer in tables[0]:
        print(f"{layer:<10}" + "".join(f"{t[layer]:>12.4f}" for t in tables))
    print(f"{'total':<10}" + "".join(
        f"{tracer.duration(root):>12.4f}" for _, root in roots))


def _untraced_run(wl, inputs, out_dir, seconds):
    """SETUP_REPEATS set-ups, then passes for `seconds`.

    While the passes run, a timer takes one more set-up sample every
    SETUP_INTERVAL_S, as long as set-up sampling stays within SETUP_SHARE
    of the elapsed time (so online's ROM builds are not repeated).
    Samples spread evenly over the run follow the machine's speed drift
    the way the pass time does; samples taken back to back do not.
    """
    setup_times = []
    in_passes = [0.0]
    start = time.perf_counter()

    def sample_setup():
        t0 = time.perf_counter()
        state = wl.setup(inputs)
        setup_times.append(time.perf_counter() - t0)
        return state

    def on_alarm(signum, frame):
        t0 = time.perf_counter()
        if sum(setup_times) <= SETUP_SHARE * (t0 - start):
            sample_setup()
        in_passes[0] += time.perf_counter() - t0

    for _ in range(SETUP_REPEATS):
        state = sample_setup()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SETUP_INTERVAL_S, SETUP_INTERVAL_S)
    try:
        times, results = _timed_passes(wl, state, out_dir, seconds,
                                       lambda: in_passes[0])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, results


def _traced_run(wl, workloads, args, out_dir, t_start, import_s):
    """Traced set-up, untraced passes for `seconds`, then one traced pass."""
    inputs = wl.make_inputs(args.seed)
    tracer = tracing.Tracer()
    with tracer.patched():
        with tracer.span("bench.setup") as setup_root:
            state = wl.setup(inputs)
    times, results = _timed_passes(wl, state, out_dir, args.seconds)
    checks = workloads.checks(args.workload, results)
    traced_dir = Path(out_dir) / "traced"
    traced_dir.mkdir()
    with tracer.patched():
        with tracer.span("bench.pass") as pass_root:
            traced = wl.run_pass(state, str(traced_dir))
    checks += workloads.checks(args.workload, traced)
    traced_wall = tracer.duration(pass_root)

    _print_self_table(tracer, [("setup", setup_root), ("pass", pass_root)])
    tracer.dump(OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json")
    layer = _layer_metrics(tracer, setup_root, pass_root)
    layer.update(workloads.diagnostics(args.workload, results))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = usage.ru_utime + usage.ru_stime
    failed = sum(not ok for _, ok in checks)
    layer.update({
        "fom_sim_s": results.get("fom_sim_s", 0.0),
        "rom_sim_s": results.get("rom_sim_s", 0.0),
        "cli.bytes_written": _bytes_in(traced_dir),
        "proc.import_s": import_s,
        "proc.cpu_s": cpu_s,
        "proc.cpu_util": cpu_s / (time.perf_counter() - t_start),
        "trace.overhead_s": traced_wall - statistics.median(times),
        "trace.wall_s": traced_wall,
        "check_fail_frac": failed / len(checks),
        "check_attempted": len(checks),
    })
    layer.update({f"self.{name}_s": value for name, value
                  in tracer.layer_self(pass_root).items()})
    metrics = {name: (layer[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    return metrics, checks


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    t_start = time.perf_counter()
    workloads = _import_program()
    import_s = time.perf_counter() - t_start

    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out_dir:
        if args.trace:
            metrics, checks = _traced_run(wl, workloads, args, out_dir,
                                          t_start, import_s)
        else:
            metrics, results = _untraced_run(
                wl, wl.make_inputs(args.seed), out_dir, args.seconds)
            checks = workloads.checks(args.workload, results)

    for name, ok in checks:
        if not ok:
            print(f"CHECK FAILED: {name}")
    failed = sum(not ok for _, ok in checks)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
