"""The benchmark's tracer patches library functions by name; keep them there.

``perfbench/tracing.py`` lists every (module, attribute) it wraps under
``--trace 1``.  A rename in the library would otherwise surface only as an
AttributeError in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
