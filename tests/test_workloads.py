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
