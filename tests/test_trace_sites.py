"""The benchmark's tracer patches library functions by name; keep them there.

``perfbench/tracing.py`` lists every (module, attribute) it wraps under
``--trace 1``, and reads ``.stats`` off whatever ``ode.integrate`` returns.
A rename in the library, or a result without those counters, would
otherwise surface only as an error in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cablemass import balance, ode
from cablemass.model import build_system
from conftest import EXAMPLE1, linear_derivatives

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves():
    missing = [f"{mod_name}.{attr}"
               for mod_name, attr, _ in _load_tracing().SITES
               if not callable(getattr(importlib.import_module(mod_name),
                                       attr, None))]
    assert missing == []


def test_integrate_result_carries_traced_stats():
    # the tracer reads result.stats of every ode.integrate call
    info = _load_tracing()._INFO["ode.integrate"]
    result = ode.integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0,
                           **linear_derivatives(-1.0),
                           t_eval=np.linspace(0.0, 1.0, 5),
                           out=np.empty((5, 1)))
    s = result.stats
    assert info((), result) == {"steps": s.n_steps, "rejected": s.n_rejected,
                                "rhs": s.n_rhs, "lu": s.n_lu}
    assert s.n_steps > 0 and s.n_rhs > 0 and s.n_lu > 0


def test_gramians_trace_two_solves_on_the_cached_factor():
    # both Gramians reach the traced linalg.solve_lyapunov, on sys.schur
    # and its reversed copy, which the untraced reference call has
    # already factored
    sys = build_system(EXAMPLE1, 40)
    p_ref, q_ref = balance.gramians(sys)
    tracer = _load_tracing().Tracer()
    with tracer.patched():
        p, q = balance.gramians(sys)
    names = tracer.names
    (root,) = [i for i, name in enumerate(names) if name == "balance.gramians"]
    assert [names[i] for i, parent in enumerate(tracer.parents)
            if parent == root] == ["linalg.solve_lyapunov"] * 2
    assert "linalg.real_schur" not in names
    assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)
