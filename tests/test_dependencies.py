"""The package's only third-party import is numpy, as pyproject.toml declares."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import sys
before = set(sys.modules)
import ncalg, ncalg.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_import_adds_only_ncalg_and_numpy():
    # a fresh interpreter, so nothing the test run imported hides a dependency
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["ncalg", "numpy"]


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
