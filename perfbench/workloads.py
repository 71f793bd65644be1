"""The benchmark workloads: generated inputs, set-up, timed pass, checks.

Every workload is three functions over plain data:

* ``make_inputs(seed)`` draws the only values the program receives:
  perturbed preset coefficients, input amplitudes and initial-data
  amplitudes.  The same seed gives the same inputs.
* ``setup(inputs)`` assembles systems, warms LAPACK up and (``online``)
  builds the ROMs.  It is timed as ``setup_s``.
* ``run_pass(state, out_dir)`` is the timed part, repeated for the run's
  ``--seconds``; its median is ``wall_s``.

``checks`` turns a pass's results into named pass/fail contract checks,
and ``diagnostics`` computes the untimed quality numbers (Lyapunov
residuals, the sampled H-infinity error against the a-priori bound).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from cablemass import analysis, balance, cli, linalg, model, rom, signals

# Preset coefficients the seed perturbs (relative, uniform in +-PERTURB).
# Zero coefficients stay zero and positive ones stay positive.
PERTURBED = ("gamma", "alpha", "alpha0", "alphal", "k0", "kl")
PERTURB = 0.03
# Relative jitter of the amplitude grids below.
AMP_JITTER = 0.05

OFFLINE_CASES = (("small_stiff_ex5_in4", 100), ("small_damp_ex5_in4", 200))
# online: ROMs of these presets are built at ONLINE_N; FOMs run at ONLINE_N
# for each preset and at ONLINE_FINE_N for the first (the grid check).
ONLINE_ROMS = ("small_damp_ex5_in4", "small_damp_ex1_in2")
ONLINE_N, ONLINE_FINE_N = 100, 200
# ROM query amplitudes besides the FOM's own, as multiples of 1.
QUERY_AMPS = (0.5, 0.75, 1.25, 1.5, 2.0)
ENERGY_PRESET, ENERGY_N = "exp_stab_Ex1", 100
ENERGY_AMPS = (0.5, 1.0, 1.5)
# Integrator settings of the CLI: experiment defaults, and the tighter
# tolerances of the energy study.
RTOL, ATOL = 1e-3, 1e-6
ENERGY_RTOL, ENERGY_ATOL = 1e-6, 1e-9
SAMPLES = 1000

# Contract thresholds of the correctness checks.
LYAP_BACKWARD_MAX = 1e-12
SRTR_MAX = 1e-6
ROM_REL_L2_MAX = 2e-2
GRID_REL_L2_MAX = 1e-2
ENERGY_RISE_MAX = 1e-6
# Frequency grid of the sampled H-infinity error (rad/s).
HINF_GRID = np.logspace(-3.0, 3.0, 400)


def _perturb(params: model.PhysicalParams, rng) -> model.PhysicalParams:
    return replace(params, **{
        f: getattr(params, f) * (1.0 + rng.uniform(-PERTURB, PERTURB))
        for f in PERTURBED})


def _jittered(bases, rng) -> list[float]:
    return [b * (1.0 + rng.uniform(-AMP_JITTER, AMP_JITTER)) for b in bases]


# ---- offline: FOM -> spectrum -> Gramians -> projection -> ROM --------------

def offline_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for name, n in OFFLINE_CASES:
        preset = cli.get_preset(name)
        cases.append({"preset": name, "n": n, "r": preset.r,
                      "params": _perturb(preset.params, rng)})
    return {"cases": cases}


def offline_setup(inputs: dict) -> dict:
    systems = [model.build_system(c["params"], c["n"]) for c in inputs["cases"]]
    linalg.eigenvalues(np.eye(2))  # first-call LAPACK warm-up
    return {"inputs": inputs, "systems": systems}


def offline_pass(state: dict, out_dir: str) -> dict:
    results = []
    for case, sys_ in zip(state["inputs"]["cases"], state["systems"]):
        eigs = linalg.eigenvalues(sys_.a)
        p, q = balance.gramians(sys_)
        bal = balance.square_root_transform(p, q, case["r"])
        red = balance.reduce(sys_, bal)
        stem = os.path.join(out_dir, f"{case['preset']}_n{case['n']}")
        cli.write_eigs_csv(stem + "_eigs.csv", eigs)
        cli.write_hsv_csv(stem + "_hsv.csv", bal.hsv)
        results.append({"label": f"{case['preset']}@{case['n']}", "sys": sys_,
                        "bal": bal, "red": red})
    return {"balanced": results}


# ---- online: ROMs in set-up; FOMs and a ROM query batch timed ---------------

def _online_foms() -> list[tuple[str, int]]:
    return ([(name, ONLINE_N) for name in ONLINE_ROMS]
            + [(ONLINE_ROMS[0], ONLINE_FINE_N)])


def online_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = {name: _perturb(cli.get_preset(name).params, rng)
              for name in ONLINE_ROMS}
    scale = {name: float(rng.uniform(0.9, 1.1)) for name in ONLINE_ROMS}
    queries = {name: [scale[name]] + _jittered(QUERY_AMPS, rng)
               for name in ONLINE_ROMS}
    return {"params": params, "scale": scale, "queries": queries}


def online_setup(inputs: dict) -> dict:
    systems = {(name, n): model.build_system(inputs["params"][name], n)
               for name, n in _online_foms()}
    linalg.eigenvalues(np.eye(2))  # first-call LAPACK warm-up
    specs, roms = {}, {}
    for name in ONLINE_ROMS:
        preset = cli.get_preset(name)
        sys_ = systems[(name, ONLINE_N)]
        specs[name] = signals.resolve_input(
            signals.input_preset(preset.input_name), sys_)
        p, q = balance.gramians(sys_)
        bal = balance.square_root_transform(p, q, preset.r)
        roms[name] = {"label": f"{name}@{ONLINE_N}", "sys": sys_, "bal": bal,
                      "red": balance.reduce(sys_, bal)}
    return {"inputs": inputs, "systems": systems, "specs": specs,
            "roms": roms}


def online_pass(state: dict, out_dir: str) -> dict:
    inputs = state["inputs"]
    fom_s = rom_s = 0.0
    foms, fom_time = {}, {}
    for name, n in _online_foms():
        spec = replace(state["specs"][name], scale=inputs["scale"][name])
        t0 = time.perf_counter()
        foms[(name, n)] = rom.simulate_fom(
            state["systems"][(name, n)], spec, 0.0, cli.get_preset(name).tf,
            rtol=RTOL, atol=ATOL, sample_count=SAMPLES)
        fom_time[(name, n)] = time.perf_counter() - t0
        fom_s += fom_time[(name, n)]
    roms, rom_time = {}, {}
    for name in ONLINE_ROMS:
        red = state["roms"][name]["red"]
        roms[name] = []
        for scale in inputs["queries"][name]:
            spec = replace(state["specs"][name], scale=scale)
            t0 = time.perf_counter()
            roms[name].append(rom.simulate_rom(
                red, spec, 0.0, cli.get_preset(name).tf, rtol=RTOL,
                atol=ATOL, sample_count=SAMPLES))
            dt = time.perf_counter() - t0
            rom_s += dt
            rom_time.setdefault(name, dt)  # the query matched to the FOM
    errors = {}
    for name in ONLINE_ROMS:
        fom_y, rom_y = foms[(name, ONLINE_N)], roms[name][0]
        errors[name] = analysis.output_error(fom_y, rom_y)
        stem = os.path.join(out_dir, name)
        cli.write_outputs_csv(stem + "_outputs.csv", fom_y, rom_y)
        cli.write_error_csv(stem + "_error.csv", errors[name])
    fine = ONLINE_ROMS[0]
    grid = analysis.output_error(foms[(fine, ONLINE_FINE_N)],
                                 foms[(fine, ONLINE_N)])
    speedup = (sum(fom_time[(name, ONLINE_N)] for name in ONLINE_ROMS)
               / sum(rom_time.values()))
    return {"foms": foms, "roms": roms, "errors": errors, "grid": grid,
            "fom_sim_s": fom_s, "rom_sim_s": rom_s, "speedup": speedup,
            "balanced": list(state["roms"].values())}


# ---- energy: unforced FOM energy decay at the CLI's tight tolerances --------

def energy_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"params": _perturb(cli.get_preset(ENERGY_PRESET).params, rng),
            "amplitudes": _jittered(ENERGY_AMPS, rng)}


def energy_setup(inputs: dict) -> dict:
    params, n = inputs["params"], ENERGY_N
    sys_ = model.build_system(params, n)
    forms = model.quadratic_forms(params, n)
    # the CLI's energy-study initial data: position e^x sin(1-x), velocity cos x
    x0 = model.sample_initial_data(
        params, n, pos=lambda x: np.exp(x) * np.sin(1.0 - x), vel=np.cos)
    linalg.eigenvalues(np.eye(2))  # first-call LAPACK warm-up
    return {"inputs": inputs, "sys": sys_, "forms": forms, "x0": x0}


def energy_pass(state: dict, out_dir: str) -> dict:
    tf = cli.get_preset(ENERGY_PRESET).tf
    reports = []
    for i, amp in enumerate(state["inputs"]["amplitudes"]):
        report = analysis.energy_decay(
            state["sys"], state["forms"], amp * state["x0"], tf,
            rtol=ENERGY_RTOL, atol=ENERGY_ATOL, sample_count=SAMPLES)
        cli.write_energy_csv(os.path.join(out_dir, f"energy_{i}.csv"), report)
        reports.append(report)
    return {"reports": reports}


# ---- contract checks and untimed diagnostics --------------------------------

def lyapunov_errors(a, p, w) -> tuple[float, float]:
    """Residual of A P + P A^T + W relative to ||W||, and as backward error."""
    resid = np.linalg.norm(a @ p + p @ a.T + w)
    rel = resid / np.linalg.norm(w)
    backward = resid / (2.0 * np.linalg.norm(a) * np.linalg.norm(p)
                        + np.linalg.norm(w))
    return float(rel), float(backward)


def _gramian_errors(entry) -> list[tuple[float, float]]:
    sys_, bal = entry["sys"], entry["bal"]
    return [lyapunov_errors(sys_.a, bal.p, sys_.b @ sys_.b.T),
            lyapunov_errors(sys_.a.T, bal.q, sys_.c.T @ sys_.c)]


def _srtr_error(bal) -> float:
    return float(np.max(np.abs(bal.sr @ bal.tr - np.eye(bal.r))))


def _balance_checks(entry) -> list[tuple[str, bool]]:
    label, bal = entry["label"], entry["bal"]
    out = [(f"{label}: Lyapunov backward error {i}",
            backward <= LYAP_BACKWARD_MAX)
           for i, (_, backward) in enumerate(_gramian_errors(entry))]
    hsv = bal.hsv
    out.append((f"{label}: |S_r T_r - I| small", _srtr_error(bal) <= SRTR_MAX))
    out.append((f"{label}: A_r stable",
                float(np.linalg.eigvals(entry["red"].ar).real.max()) < 0.0))
    out.append((f"{label}: HSVs positive and nonincreasing",
                bool(np.all(hsv > 0.0) and np.all(np.diff(hsv) <= 0.0))))
    return out


def _finite(series) -> bool:
    return bool(np.all(np.isfinite(series.values)))


def checks(workload: str, results: dict) -> list[tuple[str, bool]]:
    """Named pass/fail results of the contracts a pass must meet."""
    if workload == "offline":
        return [c for entry in results["balanced"]
                for c in _balance_checks(entry)]
    if workload == "online":
        out = [(f"FOM {name}@{n} finite", _finite(y))
               for (name, n), y in results["foms"].items()]
        out += [(f"ROM {name} query {i} finite", _finite(y))
                for name, ys in results["roms"].items()
                for i, y in enumerate(ys)]
        out += [(f"ROM vs FOM {name} rel L2", err.rel_l2 <= ROM_REL_L2_MAX)
                for name, err in results["errors"].items()]
        out.append((f"FOM n={ONLINE_N} vs n={ONLINE_FINE_N} rel L2",
                    results["grid"].rel_l2 <= GRID_REL_L2_MAX))
        return out
    out = []
    for i, rep in enumerate(results["reports"]):
        out.append((f"energy {i} finite", bool(np.all(np.isfinite(rep.e)))))
        out.append((f"energy {i} nonincreasing",
                    float(np.max(np.diff(rep.e))) <= ENERGY_RISE_MAX * rep.e[0]))
        out.append((f"energy {i} decay rate < 0", rep.fitted_rate < 0.0))
    return out


def sampled_hinf_error(entry) -> float:
    """max over HINF_GRID of ||G(iw) - G_r(iw)||_2."""
    sys_, red = entry["sys"], entry["red"]
    return max(float(np.linalg.norm(
        balance.transfer_function(sys_.a, sys_.b, sys_.c, 1j * w)
        - balance.transfer_function(red.ar, red.br, red.cr, 1j * w), 2))
        for w in HINF_GRID)


def diagnostics(workload: str, results: dict) -> dict:
    """Untimed quality numbers; reported, never gated."""
    out = {"linalg.lyap_resid_rel_max": 0.0,
           "linalg.lyap_backward_err_max": 0.0, "balance.hankel_rank": 0,
           "balance.srtr_err_max": 0.0, "balance.bound_violations": 0,
           "rom.rel_l2_max": 0.0, "rom.speedup": 0.0,
           "analysis.decay_rate": 0.0, "analysis.fit_r2": 0.0}
    balanced = results.get("balanced", [])
    if balanced:
        errs = [e for entry in balanced for e in _gramian_errors(entry)]
        out["linalg.lyap_resid_rel_max"] = max(rel for rel, _ in errs)
        out["linalg.lyap_backward_err_max"] = max(bw for _, bw in errs)
        out["balance.hankel_rank"] = min(e["bal"].hsv.size for e in balanced)
        out["balance.srtr_err_max"] = max(_srtr_error(e["bal"])
                                          for e in balanced)
        out["balance.bound_violations"] = sum(
            balance.error_bound(e["bal"].hsv, e["bal"].r)
            < sampled_hinf_error(e) for e in balanced)
    if workload == "online":
        out["rom.rel_l2_max"] = max(e.rel_l2 for e in results["errors"].values())
        out["rom.speedup"] = results["speedup"]
    if workload == "energy":
        out["analysis.decay_rate"] = float(np.median(
            [r.fitted_rate for r in results["reports"]]))
        out["analysis.fit_r2"] = min(r.fit_r2 for r in results["reports"])
    return out


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], dict]
    setup: Callable[[dict], dict]
    run_pass: Callable[[dict, str], dict]


WORKLOADS = {
    "offline": Workload(offline_inputs, offline_setup, offline_pass),
    "online": Workload(online_inputs, online_setup, online_pass),
    "energy": Workload(energy_inputs, energy_setup, energy_pass),
}
