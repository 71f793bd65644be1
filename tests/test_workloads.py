"""One untraced pass of each benchmark workload meets its own checks.

``perfbench/workloads.py`` drives the library the way the benchmark
does: set-up, one timed pass that writes its CSVs, and the pass/fail
contract checks.  A library change that breaks what it uses (a field of
a result, a function's name) fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # registered while it runs: its dataclasses look their module up
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["offline", "online", "energy"])
def test_pass_meets_its_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workload.make_inputs(0))
    results = workload.run_pass(state, str(tmp_path))
    checks = workloads.checks(name, results)
    assert checks
    assert [label for label, ok in checks if not ok] == []
    assert any(tmp_path.iterdir())


def test_step_forms(workloads, tmp_path):
    # online's ROM queries step with the dense sets of small models, and
    # its FOMs and the energy study with the diagonal update of large
    # ones (ode._DENSE_DIM), so the benchmark times both forms
    def forms(system):
        sets = system.etdrk4._sets.values()
        assert sets
        return {kernel.dense is not None for kernel in sets}

    online = workloads.WORKLOADS["online"]
    state = online.setup(online.make_inputs(0))
    online.run_pass(state, str(tmp_path))
    roms = [entry["red"] for entry in state["roms"].values()]
    assert sorted(red.r for red in roms) == [4, 8]
    assert all(forms(red) == {True} for red in roms)
    foms = state["systems"]
    assert sorted({n for _, n in foms}) == [100, 200]
    assert all(forms(system) == {False} for system in foms.values())
    energy = workloads.WORKLOADS["energy"]
    state = energy.setup(energy.make_inputs(0))
    energy.run_pass(state, str(tmp_path))
    assert forms(state["sys"]) == {False}
