"""Print the best per-call time of the series maps and of curve evaluation.

One line per call, in microseconds: the least over REPEATS rounds of the
mean of NUMBER calls, or of as many as fit in BUDGET_S seconds when one
call takes longer than BUDGET_S / NUMBER. The rows are the single calls that the benchmark's
series-scale workload makes (exp_el, sinh_el, mexp_rc on a 4 x 4
quaternion matrix, quasiexp of order 2, and one curve(t) of a closed-form
and of an RK4 curve of a quaternion system of size n = 2 and 4), then one
values call on 11 times of each curve at n = 2, as the
ode-forms-cross-check scenario made them per system. The next rows time
the stacked element exponentials against the same rows as single calls,
as the exponent-law and Euler scenarios make them: exp_el of 24
quaternions, one by one and in one _exp_els call, and cosh_el and sinh_el
of 12, one by one and in one _pairs call. The last two rows read the
states of 12 quaternion systems like those of ode-forms-cross-check (size
2, three per product form) as that scenario needs them: closed-form
states at its 11 grid times and 9 residual probe times, and RK4 states of
10 000 steps to t = 1 at the grid times; first with one closed-form and
one RK4 values call per system, then with one _closed_form_states and one
_rk4_states call for all 12. A checkout without SolutionCurve.values,
without _exp_els and _pairs, or without the multi-system state helpers
prints "n/a" there. The inputs are fixed by seed.
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

from ncalg import diffeq, series  # noqa: E402
from ncalg.algebra import Element, make_algebra, random_element  # noqa: E402
from ncalg.biring import random_matrix  # noqa: E402
from ncalg.diffeq import LinearOde, OdeForm, closed_form_solution, rk4_integrate  # noqa: E402

REPEATS = 7
NUMBER = 200
BUDGET_S = 0.05
RK4_STEPS = 1000


def best_us(call) -> float:
    number = max(1, min(NUMBER, int(BUDGET_S / timeit.timeit(call, number=1))))
    return min(timeit.repeat(call, number=number, repeat=REPEATS)) / number * 1e6


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
    row_rng = np.random.default_rng(1)
    rows = np.array([random_element(alg, row_rng).coeffs for _ in range(24)])
    els = [Element(alg, row) for row in rows]
    exp_els, pairs = getattr(series, "_exp_els", None), getattr(series, "_pairs", None)
    yield "exp_el x 24", lambda: [series.exp_el(x) for x in els]
    yield "_exp_els(24 rows)", None if exp_els is None else (lambda: exp_els(alg, rows))
    yield "cosh_el + sinh_el x 12", lambda: [(series.cosh_el(x), series.sinh_el(x)) for x in els[:12]]
    yield "_pairs(12 rows)", None if pairs is None else (lambda: pairs(alg, rows[:12], 1.0))
    ode_rng = np.random.default_rng(2)
    odes = [LinearOde(random_matrix(alg, 2, 2, ode_rng, scale=0.5), form,
                      tuple(random_element(alg, ode_rng) for _ in range(2))) for form in OdeForm for _ in range(3)]
    hs = [(t, diffeq._fd_step(t)) for t in (0.0, 0.5, 1.0)]
    times = np.concatenate([ts, [u for t, h in hs for u in (t + h, t - h, t)]])

    def per_system():
        return [(closed_form_solution(o).values(times), rk4_integrate(o, 1.0, 10_000).values(ts)) for o in odes]

    yield "12 systems' states, per system", per_system if hasattr(curves[2][0], "values") else None
    closed_states, rk4_states = (getattr(diffeq, name, None) for name in ("_closed_form_states", "_rk4_states"))

    def stacked():
        m = np.stack([o.real_matrix() for o in odes])
        x0 = np.array([[x.coeffs for x in o.init] for o in odes]).reshape(len(odes), -1)
        return closed_states(m, x0, times), rk4_states(m, x0, ts, 1.0 / 10_000)

    yield "12 systems' states, stacked", None if closed_states is None else stacked


def main() -> None:
    for name, call in cases():
        print(f"{name:<34} {best_us(call):9.1f} us" if call else f"{name:<34} {'n/a':>9}")


if __name__ == "__main__":
    main()
