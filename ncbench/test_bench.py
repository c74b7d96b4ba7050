"""Self-tests of the benchmark: oracle, case generation, trace counts.

Run from the root of a checkout:  python3 -m pytest -q ncbench/test_bench.py
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cases as C  # noqa: E402
import oracle  # noqa: E402
import refalg as R  # noqa: E402
import run  # noqa: E402

I, J, K = np.eye(4)[1], np.eye(4)[2], np.eye(4)[3]


def _check(fn, args, answer):
    case = {"id": "t", "fn": fn, "args": args}
    return oracle.check(case, oracle.expect(case), None, answer)[0]


def _hand_rc(a, b):
    """a rc b by the definition, one Hamilton product at a time."""
    out = np.zeros((a.shape[0], b.shape[1], 4))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += R.hprod(a[i, k], b[k, j])
    return out


def test_hamilton_rules():
    assert np.array_equal(R.hprod(I, J), K)
    assert np.array_equal(R.hprod(J, I), -K)
    assert np.array_equal(R.hprod(K, K), -np.eye(4)[0])


def test_oracle_accepts_i_times_j_and_rejects_a_perturbed_answer():
    args = (("mat", "quaternion", I.reshape(1, 1, 4)), ("mat", "quaternion", J.reshape(1, 1, 4)))
    assert _check("biring.rc_mul", args, K.reshape(1, 1, 4)) == "certified"
    assert _check("biring.rc_mul", args, -K.reshape(1, 1, 4)) == "wrong"


def test_oracle_accepts_rho_homomorphism_and_rejects_a_perturbed_answer():
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-1, 1, (3, 3, 4)), rng.uniform(-1, 1, (3, 3, 4))
    prod = _hand_rc(a, b)
    assert np.allclose(R.rho(prod), R.rho(a) @ R.rho(b), atol=1e-14)
    args = (("mat", "quaternion", a), ("mat", "quaternion", b))
    assert _check("biring.rc_mul", args, prod) == "certified"
    bad = prod.copy()
    bad[1, 2, 3] += 1e-9
    assert _check("biring.rc_mul", args, bad) == "wrong"
    # cr product by transpose duality: (a cr b)[i][j] = sum_k a[k][j] b[i][k]
    cr = np.einsum("kjp,ikq,pqs->ijs", a, b, R.table(4))
    assert _check("biring.cr_mul", args, cr) == "certified"


def test_oracle_exponential_of_a_right_angle():
    x = ("el", "quaternion", (math.pi / 2) * I)  # e^{i pi/2} = i
    assert _check("series.exp_el", (x,), I) == "certified"
    assert _check("series.exp_el", (x,), I + 1e-9) == "wrong"


def test_oracle_expects_typed_errors_on_singular_input():
    a = np.zeros((2, 2, 4))
    a[0, 0, 0] = a[0, 1, 0] = a[1, 0, 0] = a[1, 1, 0] = 1.0
    case = {"id": "t", "fn": "biring.rc_inv", "args": (("mat", "quaternion", a),)}
    e = oracle.expect(case)
    assert oracle.check(case, e, "SingularMatrixError", None)[0] == "certified"
    assert oracle.check(case, e, None, np.zeros((2, 2, 4)))[0] == "wrong"


def test_pivot_growth_defect_is_bounded_by_the_growth():
    # an orthogonal real 4 x 4 matrix (cond2 = 1) with a_33 near 0.002: the
    # unpivoted Schur inverse pivots on that entry first
    case = C.generate("linalg-regular", 1365311757)[141]
    assert case["fn"] == "biring.cr_inv" and case["size"] == "real-n4-kappa1e+00"
    e = oracle.expect(case)
    assert e.kappa < 1.01 and e.growth > 10 * oracle.MIN_AMPLIFICATION
    for factor, defect in ((3.0, "inverse-pivot-growth"), (2.0 * e.growth, None)):
        answer = e.ref.copy()
        answer[0, 0, 0] += factor * e.tol
        status, ratio = oracle.check(case, e, None, answer)
        assert status == "wrong"
        assert oracle.known_defect(case, e, status, None, ratio) == defect
    # a matrix without pivot growth gets no such allowance
    well = {"id": "t", "fn": "biring.rc_inv", "args": (("mat", "real", np.eye(4)[:, :, None]),)}
    e = oracle.expect(well)
    answer = e.ref.copy()
    answer[0, 0, 0] += 3.0 * e.tol
    status, ratio = oracle.check(well, e, None, answer)
    assert status == "wrong" and oracle.known_defect(well, e, status, None, ratio) is None


def test_series_cancellation_defect_is_bounded_by_the_amplification():
    # sin of a norm-30 quaternion: the Taylor terms reach e^30, the answer about e^24
    case = C.generate("series-scale", 2046250336)[83]
    assert case["fn"] == "series.sin_el" and case["size"] == "norm30-re-0.6"
    e = oracle.expect(case)
    assert oracle.MIN_AMPLIFICATION < e.amplification < oracle.CANCELLATION
    for factor, defect in ((2.0, "series-cancellation"), (2.0 * e.amplification, None)):
        answer = e.ref.copy()
        answer[0] += factor * e.tol
        status, ratio = oracle.check(case, e, None, answer)
        assert status == "wrong"
        assert oracle.known_defect(case, e, status, None, ratio) == defect


def _digest(workload, seed):
    return hashlib.sha256(pickle.dumps(C.generate(workload, seed))).hexdigest()


@pytest.mark.parametrize("workload", C.WORKLOADS)
def test_cases_repeat_for_a_seed(workload):
    assert _digest(workload, 11) == _digest(workload, 11)
    assert _digest(workload, 11) != _digest(workload, 12)
    code = f"import sys; sys.path.insert(0, {HERE!r}); import test_bench as t; print(t._digest({workload!r}, 11))"
    for hashseed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONHASHSEED=hashseed)).stdout.strip()
        assert out == _digest(workload, 11)


def test_traced_call_counts_repeat():
    first = run.spawn(ROOT, "series-scale", 3, 0, 1)
    second = run.spawn(ROOT, "series-scale", 3, 0, 1)
    counts = [r["traced"][0][1]["calls"] for r in (first, second)]
    assert counts[0] == counts[1]
    # spans see calls made through names re-imported into other modules
    assert counts[0]["biring.rc_mul"] > 0 and counts[0]["diffeq.curve.closed-form"] > 0
    assert counts[0]["series.mexp_rc"] > 0 and counts[0]["kernels.rk4_linear"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "ncbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "ncbench/run.py", "--workload", "scenarios", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
