"""Self-test of the cablemass benchmark.

    python3 -m pytest perfbench/tests -q

Checks that a seed fixes the generated inputs, that the integrator and
Hankel-rank counts of a traced pass repeat exactly, and that the result
line and BENCHMARK.json agree with each other.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts that must repeat exactly for one seed.
EXACT = ("ode.fom_steps", "ode.fom_rejected", "ode.rom_steps",
         "ode.rom_rejected", "ode.lu_calls", "ode.rhs_calls",
         "ode.reject_ratio", "model.rhs_calls", "model.jac_calls",
         "rom.queries", "signals.eval_calls", "linalg.lyap_calls",
         "balance.hankel_rank", "balance.bound_violations")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_perturbation_keeps_signs():
    for seed in range(20):
        for case in workloads.offline_inputs(seed)["cases"]:
            base = workloads.cli.get_preset(case["preset"]).params
            for field in workloads.PERTURBED:
                old, new = getattr(base, field), getattr(case["params"], field)
                assert (old == 0.0) == (new == 0.0)
                assert abs(new - old) <= workloads.PERTURB * old


def _traced_counts(name, inputs, tmp_path):
    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracer.patched():
        with tracer.span("bench.setup") as setup_root:
            state = wl.setup(inputs)
        with tracer.span("bench.pass") as pass_root:
            results = wl.run_pass(state, str(tmp_path))
    assert all(ok for _, ok in workloads.checks(name, results))
    layer = run._layer_metrics(tracer, setup_root, pass_root)
    layer.update(workloads.diagnostics(name, results))
    self_total = sum(tracer.layer_self(pass_root).values())
    assert self_total == pytest.approx(tracer.duration(pass_root), rel=1e-9)
    return {key: layer[key] for key in EXACT}


def test_counts_repeat_offline(tmp_path):
    inputs = workloads.offline_inputs(3)
    for case in inputs["cases"]:
        case["n"] = 30  # small grids keep the test fast; same code path
    first = _traced_counts("offline", inputs, tmp_path)
    assert first == _traced_counts("offline", inputs, tmp_path)
    assert first["balance.hankel_rank"] > 0
    assert first["linalg.lyap_calls"] == 4


def test_counts_repeat_online(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ONLINE_N", 30)
    monkeypatch.setattr(workloads, "ONLINE_FINE_N", 40)
    inputs = workloads.online_inputs(3)
    first = _traced_counts("online", inputs, tmp_path)
    assert first == _traced_counts("online", inputs, tmp_path)
    assert first["ode.fom_steps"] > 0 and first["ode.rom_steps"] > 0
    assert first["rom.queries"] == 2 * (1 + len(workloads.QUERY_AMPS))


def test_counts_repeat_energy(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ENERGY_N", 20)
    inputs = workloads.energy_inputs(3)
    first = _traced_counts("energy", inputs, tmp_path)
    assert first == _traced_counts("energy", inputs, tmp_path)
    assert first["ode.fom_steps"] > 0 and first["ode.rom_steps"] == 0


def test_benchmark_json_lists_reported_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(
        run.PER_LAYER_UNITS.values())
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "energy",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "energy", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
