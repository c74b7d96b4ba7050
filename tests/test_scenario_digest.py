"""Every CLI report matches the committed scenario digest.

tests/data/scenario_digest.txt holds the output of tools/scenario_digest.py
(per scenario, algebra, seed 0-3 and format: the exit code and the sha256 of
the report) after a header naming numpy's version, its BLAS build and the
CPU features numpy reports. The hashes cover full-precision floats, whose
last bits may change with any of those (a DYNAMIC_ARCH OpenBLAS picks its
kernels by CPU), so they are compared only where the header matches the
running build; the exit codes are compared everywhere. A change that alters
a report on purpose regenerates the file, from the repository root:

    python tests/test_scenario_digest.py > tests/data/scenario_digest.txt
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "scenario_digest.txt"


def fingerprint() -> list[str]:
    """The header lines: numpy's version, its BLAS build and the CPU features it dispatches to."""
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return [f"# numpy {np.__version__}",
            f"# blas {blas.get('openblas configuration') or blas['name'] + ' ' + blas['version']}",
            f"# cpu {' '.join(simd['baseline'] + simd['found'])}"]


def run_digest() -> list[str]:
    spec = importlib.util.spec_from_file_location("scenario_digest", ROOT / "tools" / "scenario_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return out.getvalue().splitlines()


def first_difference(expected: list[str], actual: list[str], field: int):
    """The first (scenario, algebra, seed, format) whose field (0: exit code, 1: sha256) differs, or None."""
    want, got = ({tuple(f[:4]): f[4:] for f in map(str.split, lines)} for lines in (expected, actual))
    for key in [*want, *(k for k in got if k not in want)]:
        a, b = want.get(key), got.get(key)
        if a is None or b is None or a[field] != b[field]:
            return key, a and a[field], b and b[field]
    return None


@pytest.fixture(scope="module")
def digest():
    lines = FIXTURE.read_text().splitlines()
    return [line for line in lines if line.startswith("#")], [line for line in lines if not line.startswith("#")], \
        run_digest()


def test_exit_codes_match_the_fixture(digest):
    _, expected, actual = digest
    assert expected
    assert first_difference(expected, actual, 0) is None


def test_reports_match_the_fixture_on_its_build(digest):
    header, expected, actual = digest
    if header != fingerprint():
        pytest.skip(f"fixture built on {header}, running on {fingerprint()}")
    assert first_difference(expected, actual, 1) is None


if __name__ == "__main__":
    print("\n".join(fingerprint() + run_digest()))
