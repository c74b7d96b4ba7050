"""Print the best per-call time of the series maps and of curve evaluation.

One line per call, in microseconds: the least over REPEATS rounds of the
mean of NUMBER calls. The rows are the single calls that the benchmark's
series-scale workload makes (exp_el, sinh_el, mexp_rc on a 4 x 4
quaternion matrix, quasiexp of order 2, and one curve(t) of a closed-form
and of an RK4 curve of a quaternion system of size n = 2 and 4), then one
values call on 11 times of each curve at n = 2, as the
ode-forms-cross-check scenario makes them. A checkout without
SolutionCurve.values prints "n/a" there. The inputs are fixed by seed.
BLAS is pinned to one thread, and ncalg is imported from PYTHONPATH when it
is there, else from this checkout's src. Run from the repository root:

    python tools/series_times.py
    PYTHONPATH=../other/src python tools/series_times.py

Timings on a shared host drift, so compare two checkouts by interleaving
runs of this script, not by one run of each.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from ncalg import series  # noqa: E402
from ncalg.algebra import make_algebra, random_element  # noqa: E402
from ncalg.biring import random_matrix  # noqa: E402
from ncalg.diffeq import LinearOde, OdeForm, closed_form_solution, rk4_integrate  # noqa: E402

REPEATS = 7
NUMBER = 200
RK4_STEPS = 1000


def best_us(call) -> float:
    call()
    return min(timeit.repeat(call, number=NUMBER, repeat=REPEATS)) / NUMBER * 1e6


def cases():
    alg = make_algebra("quaternion")
    rng = np.random.default_rng(0)
    x = random_element(alg, rng)
    x = x * (2.0 / x.norm())
    small = x * 0.25
    cs = [random_element(alg, rng) for _ in range(2)]
    mat = random_matrix(alg, 4, 4, rng, scale=0.5)
    yield "exp_el", lambda: series.exp_el(x)
    yield "sinh_el", lambda: series.sinh_el(x)
    yield "mexp_rc (4x4)", lambda: series.mexp_rc(mat)
    yield "quasiexp order 2", lambda: series.quasiexp(cs, small)
    curves = {}
    for n in (2, 4):
        ode = LinearOde(random_matrix(alg, n, n, rng, scale=0.5), OdeForm.RC_LEFT,
                        tuple(random_element(alg, rng) for _ in range(n)))
        curves[n] = closed_form_solution(ode), rk4_integrate(ode, 1.0, RK4_STEPS)
        for curve in curves[n]:
            yield f"{curve.provenance} curve(t), n = {n}", lambda curve=curve: curve(0.5)
    ts = np.linspace(0.0, 1.0, 11)
    for curve in curves[2]:
        values = getattr(curve, "values", None)
        yield f"{curve.provenance} values(11 times), n = 2", None if values is None else (lambda f=values: f(ts))


def main() -> None:
    for name, call in cases():
        print(f"{name:<34} {best_us(call):9.1f} us" if call else f"{name:<34} {'n/a':>9}")


if __name__ == "__main__":
    main()
