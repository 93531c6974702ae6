"""anumrad runs on numpy and the standard library alone: pyproject.toml
declares numpy as its only dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # scipy offers a generalized eig that the level-set check could reach
    # for; importing every module of the package must not load it.
    code = "import sys, anumrad, anumrad.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
