import importlib.util
import math
from pathlib import Path

import pytest

from cablemass import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)


def write(path, text):
    path.write_text(text)
    return path


def test_identical_bytes(tmp_path):
    text = "t,y\n0,1.5\n1,2.5\n"
    old = write(tmp_path / "old.csv", text)
    new = write(tmp_path / "new.csv", text)
    assert artifact_diff.diff_csv(old, new) == {"identical": True}


def test_column_moves(tmp_path):
    # the moves are taken per column, relative to the old column's
    # largest magnitude; a text column counts its changed entries
    old = write(tmp_path / "old.csv", "t,y,label\n0,-4,a\n1,2,b\n2,0,c\n")
    new = write(tmp_path / "new.csv", "t,y,label\n0,-4,a\n1,2.5,b\n2,0,d\n")
    moves = artifact_diff.diff_csv(old, new)["columns"]
    assert moves["t"] == {"max_abs": 0.0, "max_rel": 0.0}
    assert moves["y"] == {"max_abs": 0.5, "max_rel": 0.125}
    assert moves["label"] == {"text_changed": 1}
    zero = write(tmp_path / "zero.csv", "t,y,label\n0,0,a\n1,0,b\n2,0,c\n")
    assert math.isinf(
        artifact_diff.diff_csv(zero, new)["columns"]["y"]["max_rel"])


def test_nan_moves(tmp_path):
    # a bound that goes 0 -> nan (or back) moved by infinity, wherever
    # its row sits; nan on both sides did not move
    rows = "index,sigma,bound\n1,2.0,0.5\n2,0.25,{}\n3,0.125,nan\n"
    old = write(tmp_path / "old.csv", rows.format("0"))
    new = write(tmp_path / "new.csv", rows.format("nan"))
    for a, b in ((old, new), (new, old)):
        moves = artifact_diff.diff_csv(a, b)["columns"]
        assert moves["bound"] == {"max_abs": math.inf, "max_rel": math.inf}
        assert moves["sigma"] == {"max_abs": 0.0, "max_rel": 0.0}


def test_shape_change(tmp_path):
    old = write(tmp_path / "old.csv", "t,y\n0,1\n")
    new = write(tmp_path / "new.csv", "t,y\n0,1\n1,2\n")
    zero = {"max_abs": 0.0, "max_rel": 0.0}
    assert artifact_diff.diff_csv(old, new) == {
        "identical": False, "shape_changed": True, "rows": [1, 2],
        "columns": {"t": zero, "y": zero}}
    # a changed header gives the counts only
    other = write(tmp_path / "other.csv", "t,z\n0,1\n")
    assert artifact_diff.diff_csv(old, other) == {
        "identical": False, "shape_changed": True, "rows": [1, 1]}


def test_rank_change_reads_moves(tmp_path):
    # a Hankel rank that drops from 4 to 3 in hsv.csv: both row counts,
    # and the moves of the three values both files have
    old = write(tmp_path / "old.csv", "k,sigma,bound\n1,2.0,1.5\n2,0.5,0.5"
                                      "\n3,0.25,0.25\n4,1e-13,2e-13\n")
    new = write(tmp_path / "new.csv", "k,sigma,bound\n1,2.0,1.5\n2,0.5,0.5"
                                      "\n3,0.125,0.25\n")
    result = artifact_diff.diff_csv(old, new)
    assert result["rows"] == [4, 3] and result["shape_changed"]
    assert result["columns"]["sigma"] == {"max_abs": 0.125,
                                          "max_rel": 0.0625}
    report = {"compare": {"csv": {"hsv.csv": result}, "csv_only_old": [],
                          "csv_only_new": [], "log_changes": []}}
    lines, same = artifact_diff.summary(report)
    assert not same
    assert lines[1:] == [
        "compare/hsv.csv: shape changed, 4 rows -> 3, columns over the "
        "common rows",
        "compare/hsv.csv sigma: max abs 0.125, max rel 0.0625"]


def test_changed_log_lines_and_summary():
    old = ["preset: p", "FOM integrator ETDRK4: h=0.1", "wrote outputs"]
    new = ["preset: p", "FOM integrator ETDRK4: h=0.05", "wrote outputs"]
    changes = artifact_diff.diff_lines(old, new)
    assert changes == [{"old": [old[1]], "new": [new[1]]}]
    report = {"run": {"csv": {"a.csv": {"identical": True}},
                      "csv_only_old": [], "csv_only_new": [],
                      "log_changes": changes}}
    lines, same = artifact_diff.summary(report)
    assert not same
    assert lines[0] == "1 of 1 CSVs byte-identical, 2 log lines changed"
    report["run"]["log_changes"] = []
    assert artifact_diff.summary(report) == (
        ["1 of 1 CSVs byte-identical, 0 log lines changed"], True)


def test_failed_run_exits_2(tmp_path, capsys):
    # a run that fails is not a moved artifact: exit 2, and no report
    broken = tmp_path / "broken"
    package = broken / "src" / "cablemass"
    package.mkdir(parents=True)
    write(package / "__init__.py", "raise ImportError('broken tree')\n")
    report = tmp_path / "report.json"
    assert artifact_diff.main([str(broken), str(broken),
                               "--json", str(report)]) == 2
    assert "broken tree" in capsys.readouterr().err
    assert not report.exists()


def test_runs():
    # compare on every preset at n = 100, energy on the two unforced
    # presets at n = 100 and 200 and on the coarse grids exp_stability2
    # n = 50 and exp_stab_Ex1 n = 10: 9 x 4 CSVs and 6 energy.csv
    assert artifact_diff.PRESETS == tuple(cli.PRESETS)
    assert set(artifact_diff.ENERGY_PRESETS) == {
        name for name, preset in cli.PRESETS.items()
        if preset.input_name == "zero"}
    commands = [args[0] for _, args in artifact_diff.RUNS]
    assert commands.count("compare") == 9 and commands.count("energy") == 6
    assert len({name for name, _ in artifact_diff.RUNS}) == 15
    assert ("energy_exp_stability2_n50", ("energy", "--preset",
            "exp_stability2", "--n", "50")) in artifact_diff.RUNS
    assert ("energy_exp_stab_Ex1_n10", ("energy", "--preset", "exp_stab_Ex1",
            "--n", "10")) in artifact_diff.RUNS


# The BLAS-thread contract: compare's artifacts at one and at two BLAS
# threads, per preset, CSV and column, the largest move allowed over the
# column's largest magnitude; a column not named may not move at all, and
# neither may a log line.  OpenBLAS splits its products differently at
# different thread counts, so the two round differently.  Measured with
# OpenBLAS 0.3.31 on a 2-core x86-64 machine, where eigs.csv and the log
# lines were byte-identical: hsv.csv moved by at most 1.1e-14; the ROM
# outputs by at most 4.5e-13; the FOM outputs by 4.1e-12 at
# small_damp_ex1_in2 and by 1.0e-7 at the near-marginal
# small_stiff_ex5_in4 (spectral abscissa -6.8e-10), and with them
# error.csv by 5.7e-11 and 1.0e-8.  Each bound is about ten times that.
_HSV = {"sigma": 1e-13, "bound": 1e-13}
THREAD_MOVES = {
    "small_damp_ex1_in2": {
        "hsv.csv": _HSV,
        "outputs.csv": {"y1_fom": 1e-10, "y2_fom": 1e-10,
                        "y1_rom": 1e-11, "y2_rom": 1e-11},
        "error.csv": {"rel_l2": 1e-9, "rel_linf": 1e-9}},
    "small_stiff_ex5_in4": {
        "hsv.csv": _HSV,
        "outputs.csv": {"y1_fom": 1e-6, "y2_fom": 1e-6,
                        "y1_rom": 1e-11, "y2_rom": 1e-11},
        "error.csv": {"rel_l2": 1e-7, "rel_linf": 1e-7}},
}


@pytest.mark.parametrize("preset", sorted(THREAD_MOVES))
def test_blas_thread_contract(preset, tmp_path):
    args = ("compare", "--preset", preset, "--n", "100")
    logs, outs = [], []
    for threads in (1, 2):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        logs.append(artifact_diff.run_cli(TOOL.parent.parent, work, preset,
                                          args, threads=threads))
        outs.append(work / "out" / preset)
    assert logs[0] == logs[1]
    names = [sorted(p.name for p in out.glob("*.csv")) for out in outs]
    assert names[0] == names[1] == ["eigs.csv", "error.csv", "hsv.csv",
                                    "outputs.csv"]
    for name in names[0]:
        result = artifact_diff.diff_csv(outs[0] / name, outs[1] / name)
        if result["identical"]:
            continue
        assert "shape_changed" not in result, name
        allowed = THREAD_MOVES[preset].get(name, {})
        for label, move in result["columns"].items():
            assert not move.get("text_changed"), (name, label)
            assert move.get("max_rel", 0.0) <= allowed.get(label, 0.0), \
                (name, label, move)
