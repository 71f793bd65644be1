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

from cablemass import ode
from conftest import linear_derivatives

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
    # the tracer reads result.stats of every ode.integrate call, with and
    # without t_eval
    info = _load_tracing()._INFO["ode.integrate"]
    for kwargs in ({}, {"t_eval": np.linspace(0.0, 1.0, 5),
                        "out": np.empty((5, 1))}):
        result = ode.integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0,
                               **linear_derivatives(-1.0), **kwargs)
        s = result.stats
        assert info((), result) == {"steps": s.n_steps,
                                    "rejected": s.n_rejected,
                                    "rhs": s.n_rhs, "lu": s.n_lu}
        assert s.n_steps > 0 and s.n_rhs > 0 and s.n_lu > 0
