"""In-memory span tracing of the cablemass layers, applied from outside.

Each traced function is replaced, for the duration of a ``Tracer.patched``
block, at every place it is looked up (for example ``model.fom_rhs`` is
also reached as ``rom.fom_rhs`` and ``analysis.fom_rhs``, and scipy's
``lu_factor`` as ``ode.lu_factor``).  A span records its name, start,
end and parent; spans stay in memory until ``dump`` writes them out.
The self time of a span is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name): every lookup site of a traced function.
SITES = (
    ("cablemass.model", "build_system", "model.build_system"),
    ("cablemass.model", "quadratic_forms", "model.quadratic_forms"),
    ("cablemass.model", "sample_initial_data", "model.sample_initial_data"),
    ("cablemass.rom", "fom_rhs", "model.fom_rhs"),
    ("cablemass.analysis", "fom_rhs", "model.fom_rhs"),
    ("cablemass.rom", "fom_jacobian", "model.fom_jacobian"),
    ("cablemass.analysis", "fom_jacobian", "model.fom_jacobian"),
    ("cablemass.linalg", "solve_lyapunov", "linalg.solve_lyapunov"),
    ("cablemass.linalg", "real_schur", "linalg.real_schur"),
    ("cablemass.linalg", "eigenvalues", "linalg.eigenvalues"),
    ("cablemass.linalg", "psd_factor", "linalg.psd_factor"),
    ("cablemass.linalg", "svd", "linalg.svd"),
    ("cablemass.balance", "gramians", "balance.gramians"),
    ("cablemass.balance", "square_root_transform",
     "balance.square_root_transform"),
    ("cablemass.balance", "reduce", "balance.reduce"),
    ("cablemass.ode", "integrate", "ode.integrate"),
    ("cablemass.ode", "sample", "ode.sample"),
    ("cablemass.ode", "lu_factor", "ode.lu_factor"),
    ("cablemass.ode", "lu_solve", "ode.lu_solve"),
    ("cablemass.rom", "simulate_fom", "rom.simulate_fom"),
    ("cablemass.rom", "simulate_rom", "rom.simulate_rom"),
    ("cablemass.rom", "rom_rhs", "rom.rom_rhs"),
    ("cablemass.rom", "rom_jacobian", "rom.rom_jacobian"),
    ("cablemass.rom", "rom_nonlinear", "rom.rom_nonlinear"),
    ("cablemass.rom", "eval_input", "signals.eval_input"),
    ("cablemass.signals", "eval_input", "signals.eval_input"),
    ("cablemass.signals", "resolve_input", "signals.resolve_input"),
    ("cablemass.analysis", "energy_decay", "analysis.energy_decay"),
    ("cablemass.analysis", "compute_energy", "analysis.compute_energy"),
    ("cablemass.analysis", "output_error", "analysis.output_error"),
    ("cablemass.cli", "write_eigs_csv", "cli.write_eigs_csv"),
    ("cablemass.cli", "write_hsv_csv", "cli.write_hsv_csv"),
    ("cablemass.cli", "write_outputs_csv", "cli.write_outputs_csv"),
    ("cablemass.cli", "write_error_csv", "cli.write_error_csv"),
    ("cablemass.cli", "write_energy_csv", "cli.write_energy_csv"),
)

LAYERS = ("model", "linalg", "balance", "ode", "rom", "signals", "analysis",
          "cli", "bench")


def _lu_factor_info(args, result):
    m = args[0].shape[0]
    return {"flop": 2.0 * m**3 / 3.0}


def _lu_solve_info(args, result):
    m = args[0][0].shape[0]
    return {"flop": 2.0 * m**2}


def _integrate_info(args, result):
    s = result.stats
    return {"steps": s.n_steps, "rejected": s.n_rejected, "rhs": s.n_rhs,
            "lu": s.n_lu}


# Extra facts a span keeps about its call, computed from arguments/result.
_INFO = {
    "ode.lu_factor": _lu_factor_info,
    "ode.lu_solve": _lu_solve_info,
    "ode.integrate": _integrate_info,
}


class Tracer:
    """Records nested spans; one list entry per span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.info[idx] = info(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every site in SITES through a span while the block runs."""
        saved = []
        try:
            for mod_name, attr, span_name in SITES:
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(span_name, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    # ---- analysis of the recorded spans -------------------------------

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        self_t = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self_t[parent] -= self.duration(i)
        return self_t

    def descendants(self, root: int) -> list[int]:
        """Indices of root and every span nested under it."""
        inside = {root}
        for i in range(root + 1, len(self.names)):
            if self.parents[i] in inside:
                inside.add(i)
        return sorted(inside)

    def totals(self, indices) -> dict[str, dict]:
        """Per span name over `indices`: call count, inclusive and self seconds."""
        self_t = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i in indices:
            row = out[self.names[i]]
            row["calls"] += 1
            row["incl_s"] += self.duration(i)
            row["self_s"] += self_t[i]
        return dict(out)

    def layer_self(self, root: int) -> dict[str, float]:
        """Self seconds per layer over root's subtree; sums to root's span.

        Spans opened by the benchmark itself (``bench.*``) form the
        ``bench`` layer, i.e. the time no library call covers.
        """
        self_t = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for i in self.descendants(root):
            out[self.names[i].split(".", 1)[0]] += self_t[i]
        return out

    def dump(self, path) -> None:
        """Write every span as [name id, start, end, parent] plus a name table."""
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[ids[self.names[i]], round(self.starts[i] - t0, 9),
                  round(self.ends[i] - t0, 9), self.parents[i]]
                 for i in range(len(self.names))]
        info = {str(i): row for i, row in self.info.items()}
        with open(path, "w") as handle:
            json.dump({"names": names, "spans": spans, "info": info}, handle,
                      separators=(",", ":"))
