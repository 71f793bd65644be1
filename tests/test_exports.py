import math
import os
import re
import subprocess
import sys
from pathlib import Path

import cablemass

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_fresh(code, cwd):
    """Run code in a fresh interpreter that imports cablemass from src/."""
    src = str(Path(cablemass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_export_resolves():
    missing = [name for name in cablemass.__all__
               if not hasattr(cablemass, name)]
    assert missing == []
    assert len(set(cablemass.__all__)) == len(cablemass.__all__)


def test_star_import(tmp_path):
    # a fresh interpreter, so no earlier import has filled the namespace
    code = ("from cablemass import *\n"
            "import cablemass\n"
            "missing = [n for n in cablemass.__all__ if n not in globals()]\n"
            "assert not missing, missing\n")
    run = _run_fresh(code, tmp_path)
    assert run.returncode == 0, run.stderr


def test_readme_library_example_runs(tmp_path):
    # the README's "Library use" block, verbatim; it prints one error
    block = re.search(r"## Library use\s*```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    run = _run_fresh(block, tmp_path)
    assert run.returncode == 0, run.stderr
    assert math.isfinite(float(run.stdout))
