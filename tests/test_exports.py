import os
import subprocess
import sys
from pathlib import Path

import cablemass


def test_every_export_resolves():
    missing = [name for name in cablemass.__all__
               if not hasattr(cablemass, name)]
    assert missing == []
    assert len(set(cablemass.__all__)) == len(cablemass.__all__)


def test_star_import(tmp_path):
    # a fresh interpreter, so no earlier import has filled the namespace
    src = str(Path(cablemass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("from cablemass import *\n"
            "import cablemass\n"
            "missing = [n for n in cablemass.__all__ if n not in globals()]\n"
            "assert not missing, missing\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
