"""Compare the CLI artifacts of two source trees, CSV by CSV and log line by line.

    python tools/artifact_diff.py OLD_TREE NEW_TREE [--json PATH]

Each tree is a checkout of this repository (the old one can be a
``git worktree`` of the parent commit).  For each tree the script runs
the CLI from that tree's ``src/``: ``compare`` on every preset at
n = 100, ``energy`` on the two energy presets at n = 100 and 200, and
``energy`` on the coarse grids where a boundary closure that does not
dissipate the energy shows first (``exp_stability2`` at n = 50,
``exp_stab_Ex1`` at n = 10), 44 CSVs in all.  Every run is its own subprocess with one BLAS thread
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1):
the artifacts depend on the BLAS thread count, so only runs at equal
counts can be byte-identical.

Per CSV it reports "identical" when the bytes agree, else, per column,
the largest absolute move and that move over the column's largest
magnitude in the old tree; a cell that is NaN on one side only moved by
infinity.  Where the row count changed it gives both counts and the
moves over the rows both files have.  It lists every log line that
changed, and writes the whole report as JSON (default
``artifact_diff.json``).  The exit status is 0 when every CSV and log
line is identical, 1 when any moved, and 2 when a run fails (no report
is written then).
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("exp_stab_Ex1", "exp_stability2", "small_damp_ex1_in2",
           "small_damp_ex5_in4", "small_stiff_ex2_in1", "small_stiff_ex1_in4",
           "small_stiff_ex5_in4", "small_all_ex3_in2", "small_all_ex3_in4")
ENERGY_PRESETS = ("exp_stab_Ex1", "exp_stability2")
# energy runs: each energy preset at n = 100 and 200, and the coarse grids
# where a boundary closure that does not dissipate the energy shows first
ENERGY_GRIDS = ([(p, n) for p in ENERGY_PRESETS for n in (100, 200)]
                + [("exp_stability2", 50), ("exp_stab_Ex1", 10)])
# (run name, CLI arguments): every run writes into out/<run name>
RUNS = tuple([(f"compare_{p}_n100", ("compare", "--preset", p, "--n", "100"))
              for p in PRESETS]
             + [(f"energy_{p}_n{n}", ("energy", "--preset", p, "--n", str(n)))
                for p, n in ENERGY_GRIDS])
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(tree: Path, work: Path, name: str, args,
            threads: int = 1) -> list[str]:
    """Run the CLI of tree once into work/out/name; return its log lines.

    The run gets ``threads`` BLAS threads, one unless asked otherwise.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("CABLEMASS_")}
    env.update({key: str(threads) for key in BLAS_ENV})
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run(
        [sys.executable, "-m", "cablemass.cli", *args, "--out",
         os.path.join("out", name)],
        cwd=work, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout.splitlines()


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _move(a: float, b: float) -> float:
    """|b - a|: 0 where both are NaN, infinite where one only is."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return abs(b - a)


def diff_csv(old: Path, new: Path) -> dict:
    """"identical", or per column the largest absolute and relative move.

    When the row count changed (a Hankel rank in hsv.csv, say), the
    result also holds both counts, as "rows": [old, new] data rows, and
    "shape_changed"; the columns are then compared over the rows both
    files have.  A changed header or row width gives the counts only.
    """
    if old.read_bytes() == new.read_bytes():
        return {"identical": True}
    with old.open(newline="") as f:
        old_rows = list(csv.reader(f))
    with new.open(newline="") as f:
        new_rows = list(csv.reader(f))
    result = {"identical": False}
    shape = {"shape_changed": True,
             "rows": [len(old_rows) - 1, len(new_rows) - 1]}
    if (old_rows[:1] != new_rows[:1]
            or any(len(a) != len(b) for a, b in zip(old_rows, new_rows))):
        return {**result, **shape}
    if len(old_rows) != len(new_rows):
        result.update(shape)
    columns = {}
    for j, label in enumerate(old_rows[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old_rows[1:], new_rows[1:])]
        values = [(_number(a), _number(b)) for a, b in pairs]
        if any(a is None or b is None for a, b in values):
            columns[label] = {"text_changed": sum(a != b for a, b in pairs)}
            continue
        moved = max((_move(a, b) for a, b in values), default=0.0)
        scale = max((abs(a) for a, _ in values if not math.isnan(a)),
                    default=0.0)
        columns[label] = {
            "max_abs": moved,
            "max_rel": moved / scale if scale else (0.0 if moved == 0.0
                                                    else math.inf)}
    result["columns"] = columns
    return result


def diff_lines(old: list[str], new: list[str]) -> list[dict]:
    """The log lines that changed, as {"old": [...], "new": [...]} blocks."""
    matcher = difflib.SequenceMatcher(a=old, b=new, autojunk=False)
    return [{"old": old[i1:i2], "new": new[j1:j2]}
            for tag, i1, i2, j1, j2 in matcher.get_opcodes()
            if tag != "equal"]


def compare_trees(old: Path, new: Path) -> dict:
    """Run every CLI run in both trees; the report, keyed by run name."""
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"old": old, "new": new}
        works = {side: Path(tmp) / side for side in trees}
        for work in works.values():
            work.mkdir()
        for name, args in RUNS:
            logs = {side: run_cli(trees[side], works[side], name, args)
                    for side in trees}
            dirs = {side: works[side] / "out" / name for side in trees}
            csvs = {side: {p.name for p in dirs[side].glob("*.csv")}
                    for side in trees}
            report[name] = {
                "args": list(args),
                "csv": {c: diff_csv(dirs["old"] / c, dirs["new"] / c)
                        for c in sorted(csvs["old"] & csvs["new"])},
                "csv_only_old": sorted(csvs["old"] - csvs["new"]),
                "csv_only_new": sorted(csvs["new"] - csvs["old"]),
                "log_changes": diff_lines(logs["old"], logs["new"])}
    return report


def summary(report: dict) -> tuple[list[str], bool]:
    """Report lines, and whether every CSV and log line is identical."""
    lines = []
    n_csv = n_same = n_log = 0
    for name, run in report.items():
        for csv_name, result in run["csv"].items():
            n_csv += 1
            n_same += result["identical"]
            if result.get("shape_changed"):
                old_rows, new_rows = result["rows"]
                lines.append(f"{name}/{csv_name}: shape changed, {old_rows} "
                             f"rows -> {new_rows}"
                             + (", columns over the common rows"
                                if "columns" in result else ""))
            for label, move in result.get("columns", {}).items():
                if move.get("text_changed"):
                    lines.append(f"{name}/{csv_name} {label}: "
                                 f"{move['text_changed']} entries changed")
                elif move.get("max_abs"):
                    lines.append(f"{name}/{csv_name} {label}: max abs "
                                 f"{move['max_abs']:.3g}, max rel "
                                 f"{move['max_rel']:.3g}")
        for side in ("csv_only_old", "csv_only_new"):
            if run[side]:
                lines.append(f"{name}: {side.replace('_', ' ')}: "
                             f"{', '.join(run[side])}")
        for change in run["log_changes"]:
            n_log += len(change["old"]) + len(change["new"])
            lines += [f"{name} log -{line}" for line in change["old"]]
            lines += [f"{name} log +{line}" for line in change["new"]]
    same = (n_same == n_csv and n_log == 0
            and not any(run["csv_only_old"] or run["csv_only_new"]
                        for run in report.values()))
    lines.insert(0, f"{n_same} of {n_csv} CSVs byte-identical, "
                    f"{n_log} log lines changed")
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the old source tree")
    parser.add_argument("new", type=Path, help="the new source tree")
    parser.add_argument("--json", type=Path, default=Path("artifact_diff.json"),
                        help="where the report is written")
    args = parser.parse_args(argv)
    try:
        report = compare_trees(args.old.resolve(), args.new.resolve())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    args.json.write_text(json.dumps(report, indent=1) + "\n")
    lines, same = summary(report)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
