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


def test_real_modal_states(workloads, tmp_path, monkeypatch):
    # the FOMs of online and energy step states of exactly 2n reals: every
    # run starts from one, and every coefficient set holds its vectors in
    # that layout, one float per real mode and two per pair mode
    from cablemass import ode

    starts = []

    class RecordingRun(ode.Etdrk4Run):
        def __init__(self, y0, inputs=None):
            starts.append(y0)
            super().__init__(y0, inputs)

    monkeypatch.setattr(ode, "Etdrk4Run", RecordingRun)

    def check(system, dim):
        table = system.etdrk4
        assert table.dim == dim
        assert table.n_real + 2 * (table.lam.size - table.n_real) == dim
        assert table._sets
        for kernel in table._sets.values():
            assert kernel.e_real.dtype == float
            assert kernel.e_real.size + 2 * kernel.e_pairs.size == dim
            assert kernel.rows.shape == (3, dim) and kernel.rows.dtype == float
            assert kernel.w.shape == (6, dim) and kernel.w.dtype == float

    online = workloads.WORKLOADS["online"]
    state = online.setup(online.make_inputs(0))
    online.run_pass(state, str(tmp_path))
    for (_, n), system in state["systems"].items():
        check(system, 2 * n)
    for entry in state["roms"].values():
        check(entry["red"], entry["red"].r)
    dims = {2 * n for _, n in state["systems"]} | {
        entry["red"].r for entry in state["roms"].values()}
    assert starts and all(y0.dtype == float and y0.ndim == 1
                          and y0.size in dims for y0 in starts)

    starts.clear()
    energy = workloads.WORKLOADS["energy"]
    state = energy.setup(energy.make_inputs(0))
    energy.run_pass(state, str(tmp_path))
    dim = 2 * state["sys"].n
    check(state["sys"], dim)
    assert state["sys"].etdrk4.state_map.shape == (dim, dim)
    assert starts and all(y0.dtype == float and y0.shape == (dim,)
                          for y0 in starts)
