"""Print the best per-call time of every row of one table of ncalg calls, or compare two checkouts.

Run from the repository root, with TABLE one of elements, scenarios,
series, products, inverse or forms:

    python tools/times.py TABLE
    PYTHONPATH=../other/src python tools/times.py TABLE
    python tools/times.py TABLE ../other/src

The tables and their rows:

elements
    The one-value calls that every layer builds on, over H: the public
    Element constructor on a coefficient list, x + y, x * y, conj, norm,
    close, inv and x / y of two random elements, exp_el of x and exp_at
    of x at t = 2, then the BiMatrix constructor on a 2 x 2 array and
    rc_mul of that matrix by itself.
scenarios
    Every CLI scenario through ``cli.run_scenario`` with the default
    options (seed 0, quaternions), then ``total``, one call that runs them
    all in turn.
series
    The single calls of the benchmark's series-scale workload: exp_el,
    sinh_el, cosh_el, sin_el and cos_el of an H element of norm 2, exp_el
    of it times 15, at the workload's largest norm, 30, mexp_rc and mexp_cr
    on a 4 x 4 H matrix, quasiexp of order 1 at that norm 2 and of order 2
    at norm 1/2, both on the complex slice, and of order 3 at norm 1/2, the subset
    lattice, quasiexp_at at t = 2, the call the workload repeats, and
    curve(t) of a closed-form and of an RK4 curve (1000 steps to t = 1) of
    an H system of size n = 2 and 4.
    Then one values call on 11 times of each curve at n = 2; exp_el of 24
    H elements, one call each and in one series._exp_els call; cosh_el and
    sinh_el of 12, one call each and in one series._slice call of the
    pair on their coefficient lists, which is what series._pairs makes (the
    row keeps its name; a checkout whose _slice takes an array prints
    AttributeError there). Next, the
    states of 12 H systems of size 2, three per product form, as
    ode-forms-cross-check reads them: closed form at 11 grid times on
    [0, 1] and at diffeq._probe_times of 0, 0.5 and 1, RK4 (10 000 steps
    to t = 1) at the grid times; first with one values call per curve, then
    with one diffeq._closed_form_states and one diffeq._rk4_states call for
    all 12. Then series._expm itself on one 8 x 8 matrix at 1-norm 1e-5,
    0.3 and 3; series._expm_grid on those 12 systems' real matrices and
    the 16 distinct nonzero ones of those closed-form times (0.5 and 1
    are grid and probe times both), the grid that
    diffeq._closed_form_states exponentiates in one call; and one
    _kernels.rk4_linear call on the 120-member stack that
    diffeq._rk4_states powers: the 12 systems at the 10 nonzero grid
    times, 10 000 steps to t = 1.
products
    rc_mul and cr_mul of two random H matrices, and rc_pow and cr_pow of
    one to the power 3, as in the benchmark's linalg-regular workload, at
    n = 2, 8 and 16.
inverse
    rc_inv over H at n = 1, 2, 4, 8 and 16 of a random matrix (coefficients
    uniform on [-1, 1]), of U diag(sigma) V with unitary U and V and sigma
    from 1 down to 1e-8, so cond2(rho) = 1e8, and of an outer product u v
    of rank 1, whose SingularMatrixError is its answer and is timed too (at
    n = 1 the conditioned matrix is a unit and the outer product a product
    of two elements, both regular). solve_rc at the same n on the random
    and the conditioned matrix with a random right-hand side. rc_rank at
    n = 2, 3 and 4 on three rank-deficient kinds whose greedy minor searches
    take different paths: an outer product, a random matrix whose last
    column repeats its first, and one whose last row is zero. All but the
    random matrix come from the benchmark's builders in ncbench/cases.py
    (_conditioned, _deficient and DEFICIENT_FAMILIES), the matrices of its
    linalg workloads. Then the calls that invert 1 x 1 matrices, on inputs
    of their own seed: quasidet_rc (0, 0) of a random 2 x 2 matrix, whose
    interior is 1 x 1; left_dependency and bordered_quasidet (at the first
    row and column outside the selector) of a 3 x 3 outer product of rank
    1, on the rank and selector of its rc_rank, whose major minor and
    bordered interior are 1 x 1; and one biring._inverse call on the 200
    1 x 1 interiors of 50 random 2 x 2 matrices at all four (i, j), the
    stack that the quasidet-2x2 scenario inverts over H. Last, one
    biring._solve call on the 20 3 x 3 H systems that
    solve-quaternion-system solves at seed 0, drawn on that seed, and on
    the same stack with its last matrix a rank-1 outer product. Then, on
    inputs of their own seed, rc_inv and solve_rc over R and over C at
    n = 4 on a random matrix and on one from _conditioned with
    cond2(rho) = 1e8, the real-n4 and complex-n4 matrices of linalg-regular,
    with a random right-hand side.
forms
    integrability_check on D(x^k), the form h -> sum of x^i h x^(k-1-i)
    over H, for k = 4, 6, 8, 9, 10 and 12.

Every row prints the least over REPEATS rounds of the mean of as many calls
as fit in BUDGET_S seconds, at most NUMBER, in microseconds; one untimed
call first warms caches and sizes the rounds. Beside it the row prints the
minor page faults per call over all the timed calls, read from
getrusage(RUSAGE_SELF), which counts this process alone: a call whose
working set the allocator hands back to the OS faults it in again each
time. A row whose setup or call raises prints the exception's type name
instead, as does one whose name the checkout lacks, since the tool
imports only ncalg's modules and looks each timed name up in its row's
setup. The inputs are fixed by seed and
drawn in row order; a checkout that cannot build them fails the table. BLAS is pinned to one thread, and ncalg is
imported from PYTHONPATH when it is set, else from this checkout's src.

Given the src directory of a second checkout, the tool runs ROUNDS rounds,
each timing the table in both checkouts, each in a fresh interpreter, in an
order that alternates from round to round. Per row it prints the median
time of each checkout, the median over the rounds of the ratio this /
other, and the median faults per call of each checkout. Timings on a
shared host drift, so separate whole runs of two checkouts cannot be
compared; the two times of one round are taken seconds apart.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import cmath  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from functools import cache, partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.append(str(SRC))

# modules only: the names a row times are looked up when its setup runs, so
# a checkout that lacks one fails that row, not the table
from ncalg import _kernels, algebra, biring, cli, diffeq, series, tensor  # noqa: E402

# the benchmark's case builders, which import its reference algebra, refalg, by name
sys.path.append(str(SRC.parent / "ncbench"))
import cases  # noqa: E402

REPEATS = 7
NUMBER = 200
BUDGET_S = 0.05
ROUNDS = 7
H = algebra.make_algebra("quaternion")


def elements():
    rng = np.random.default_rng(0)
    x, y = (algebra.random_element(H, rng) for _ in range(2))
    a = biring.random_matrix(H, 2, 2, rng)
    yield "Element(...)", lambda: partial(algebra.Element, H, x.coeffs.tolist())
    yield "x + y", lambda: partial(operator.add, x, y)
    yield "x * y", lambda: partial(operator.mul, x, y)
    yield "conj", lambda: x.conj
    yield "norm", lambda: x.norm
    yield "close", lambda: partial(x.close, y)
    yield "inv", lambda: x.inv
    yield "x / y", lambda: partial(operator.truediv, x, y)
    yield "exp_el", lambda: partial(series.exp_el, x)
    yield "exp_at, t = 2", lambda: partial(series.exp_at, x, 2.0)
    yield "BiMatrix(...) (2x2)", lambda: partial(biring.BiMatrix, H, a.data)
    yield "rc_mul (2x2)", lambda: partial(biring.rc_mul, a, a)


def scenarios():
    names = sorted(cli.SCENARIOS)
    for name in names:
        yield name, lambda name=name: partial(cli.run_scenario, name, cli.Options())
    yield "total", lambda: lambda: [cli.run_scenario(name, cli.Options()) for name in names]


def series_rows():
    rng = np.random.default_rng(0)
    x = algebra.random_element(H, rng)
    x = x * (2.0 / x.norm())
    cs = [algebra.random_element(H, rng) for _ in range(2)]
    c3 = algebra.random_element(H, np.random.default_rng(4))  # its own seed, so later rows keep their inputs
    mat = biring.random_matrix(H, 4, 4, rng, scale=0.5)
    for name in ("exp_el", "sinh_el", "cosh_el", "sin_el", "cos_el"):
        yield name, lambda name=name: partial(getattr(series, name), x)
    yield "exp_el, norm 30", lambda: partial(series.exp_el, x * 15.0)
    yield "mexp_rc (4x4)", lambda: partial(series.mexp_rc, mat)
    yield "mexp_cr (4x4)", lambda: partial(series.mexp_cr, mat)
    yield "quasiexp order 1", lambda: partial(series.quasiexp, cs[:1], x)
    yield "quasiexp order 2", lambda: partial(series.quasiexp, cs, x * 0.25)
    yield "quasiexp order 3", lambda: partial(series.quasiexp, [*cs, c3], x * 0.25)
    yield "quasiexp_at, t = 2", lambda: partial(series.quasiexp_at, cs[0], cs[1], 2.0)
    curves = {"closed-form": lambda ode: diffeq.closed_form_solution(ode),
              "rk4": lambda ode: diffeq.rk4_integrate(ode, 1.0, 1000)}
    odes = {n: diffeq.LinearOde(biring.random_matrix(H, n, n, rng, scale=0.5), diffeq.OdeForm.RC_LEFT,
                                tuple(algebra.random_element(H, rng) for _ in range(n))) for n in (2, 4)}
    for n, ode in odes.items():
        for kind, curve in curves.items():
            yield f"{kind} curve(t), n = {n}", lambda curve=curve, ode=ode: partial(curve(ode), 0.5)
    ts = np.linspace(0.0, 1.0, 11)
    for kind, curve in curves.items():
        yield f"{kind} values(11 times), n = 2", lambda curve=curve: partial(curve(odes[2]).values, ts)
    row_rng = np.random.default_rng(1)
    rows = np.array([algebra.random_element(H, row_rng).coeffs for _ in range(24)])
    els = [algebra.Element(H, row) for row in rows]
    yield "exp_el x 24", lambda: lambda: [series.exp_el(x) for x in els]
    yield "_exp_els(24 rows)", lambda: partial(series._exp_els, rows)
    yield "cosh_el + sinh_el x 12", lambda: lambda: [(series.cosh_el(x), series.sinh_el(x)) for x in els[:12]]
    yield "_pairs(12 rows)", lambda: partial(series._slice, (cmath.cosh, cmath.sinh), rows[:12].tolist())
    ode_rng = np.random.default_rng(2)
    systems = [diffeq.LinearOde(biring.random_matrix(H, 2, 2, ode_rng, scale=0.5), form,
                                tuple(algebra.random_element(H, ode_rng) for _ in range(2)))
               for form in diffeq.OdeForm for _ in range(3)]

    def probe_times():
        return np.concatenate([ts, diffeq._probe_times((0.0, 0.5, 1.0))])

    def per_system(times):
        return [(diffeq.closed_form_solution(o).values(times), diffeq.rk4_integrate(o, 1.0, 10_000).values(ts))
                for o in systems]

    def stacked(times):
        m = np.stack([o.real_matrix() for o in systems])
        x0 = np.array([[x.coeffs for x in o.init] for o in systems]).reshape(len(systems), -1)
        return diffeq._closed_form_states(m, x0, times), diffeq._rk4_states(m, x0, ts, 1.0 / 10_000)

    yield "12 systems' states, per system", lambda: partial(per_system, probe_times())
    yield "12 systems' states, stacked", lambda: partial(stacked, probe_times())
    unit = np.random.default_rng(3).standard_normal((8, 8))
    unit /= np.abs(unit).sum(axis=0).max()
    for norm in (1e-5, 0.3, 3.0):
        yield f"_expm (8x8), 1-norm {norm:g}", lambda norm=norm: partial(series._expm, unit * norm)

    def exponential_grid():
        times = probe_times()
        return np.stack([o.real_matrix() for o in systems]), np.unique(times[times != 0.0])

    def rk4_stack():
        m = np.stack([o.real_matrix() for o in systems])
        x0 = np.array([[x.coeffs for x in o.init] for o in systems]).reshape(len(systems), -1)
        moving = ts[ts != 0.0]
        steps = np.tile([diffeq._rk4_steps(t, 1.0 / 10_000) for t in moving.tolist()], len(systems))
        return (np.repeat(m, len(moving), axis=0), np.repeat(x0, len(moving), axis=0), np.tile(moving, len(systems)),
                steps)

    yield "_expm_grid (12 systems x 16 times)", lambda: partial(series._expm_grid, *exponential_grid())
    yield "rk4_linear (120-member stack)", lambda: partial(_kernels.rk4_linear, *rk4_stack())


def products():
    rng = np.random.default_rng(0)
    for n in (2, 8, 16):
        a, b = (biring.random_matrix(H, n, n, rng) for _ in range(2))
        for name in ("rc_mul", "cr_mul"):
            yield f"{name}, n = {n}", lambda name=name, a=a, b=b: partial(getattr(biring, name), a, b)
        for name in ("rc_pow", "cr_pow"):
            yield f"{name} 3, n = {n}", lambda name=name, a=a: partial(getattr(biring, name), a, 3)


def matrices(n: int, rng) -> dict[str, biring.BiMatrix]:
    """The inverse rows' matrices of size n, drawn by the benchmark's own builders but the random one."""
    return {"random": biring.random_matrix(H, n, n, rng),
            "cond-1e8": biring.BiMatrix(H, cases._conditioned(rng, n, H.dim, 1e8)),
            "outer": biring.BiMatrix(H, cases._deficient(rng, n, "outer"))}


def rank_deficient(n: int, rng) -> dict[str, biring.BiMatrix]:
    return {family: biring.BiMatrix(H, cases._deficient(rng, n, family)) for family in cases.DEFICIENT_FAMILIES}


def inverse(a: biring.BiMatrix) -> None:
    try:
        biring.rc_inv(a)
    except biring.SingularMatrixError:  # the outer product's answer
        pass


def inverse_rows():
    """The matrices of each n are drawn together, when the first of their rows is set up."""
    rng = np.random.default_rng(0)
    for routine, sizes, kinds, draw, call in (
            ("rc_inv", (1, 2, 4, 8, 16), ("random", "cond-1e8", "outer"), matrices,
             lambda a, n: partial(inverse, a)),
            ("solve_rc", (1, 2, 4, 8, 16), ("random", "cond-1e8"), matrices,
             lambda a, n: partial(biring.solve_rc, a, [algebra.random_element(H, rng) for _ in range(n)])),
            ("rc_rank", (2, 3, 4), ("outer", "dup-column", "zero-row"), rank_deficient,
             lambda a, n: partial(biring.rc_rank, a))):
        for n in sizes:
            drawn = cache(partial(draw, n, rng))
            for kind in kinds:
                yield f"{routine} {kind}, n = {n}", lambda n=n, k=kind, drawn=drawn, call=call: call(drawn()[k], n)
    # the 1 x 1 inverses, on their own seed, so the rows above keep their inputs
    own = np.random.default_rng(5)
    a = biring.random_matrix(H, 2, 2, own)
    outer = biring.BiMatrix(H, cases._deficient(own, 3, "outer"))
    interiors = own.uniform(-1.0, 1.0, (50, 2, 2, H.dim))[:, ::-1, ::-1].reshape(200, 1, 1, H.dim)

    def minor():
        """The outer product's rank, its selector and the first row and column outside it."""
        k, sel = biring.rc_rank(outer)
        return k, sel, min(set(range(3)) - set(sel.rows)), min(set(range(3)) - set(sel.cols))

    yield "quasidet_rc random, n = 2", lambda: partial(biring.quasidet_rc, a, 0, 0)
    yield "left_dependency outer, n = 3", lambda: partial(biring.left_dependency, outer, *minor()[:2])
    yield "bordered_quasidet outer, n = 3", lambda: partial(biring.bordered_quasidet, outer, *minor()[1:])
    yield "_inverse (200 1x1 members)", lambda: partial(biring._inverse, H.table, interiors)
    draws = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 12, H.dim))
    systems, rhs = draws[:, :9].reshape(20, 3, 3, H.dim), draws[:, 9:]
    singular = systems.copy()
    singular[-1] = cases._deficient(np.random.default_rng(6), 3, "outer")
    yield "_solve (20 members, 3 x 3)", lambda: partial(biring._solve, H.table, systems, rhs)
    yield "_solve (20 members, one singular)", lambda: partial(biring._solve, H.table, singular, rhs)
    # the real-n4 and complex-n4 matrices of linalg-regular, on their own seed
    own = np.random.default_rng(7)
    for tag in ("real", "complex"):
        alg = algebra.make_algebra(tag)
        drawn = {"random": biring.random_matrix(alg, 4, 4, own),
                 "cond-1e8": biring.BiMatrix(alg, cases._conditioned(own, 4, alg.dim, 1e8))}
        b = [algebra.random_element(alg, own) for _ in range(4)]
        for kind, a in drawn.items():
            yield f"rc_inv {tag} {kind}, n = 4", lambda a=a: partial(inverse, a)
            yield f"solve_rc {tag} {kind}, n = 4", lambda a=a, b=b: partial(biring.solve_rc, a, b)


def forms():
    for k in (4, 6, 8, 9, 10, 12):
        yield f"k = {k}", lambda k=k: partial(diffeq.integrability_check,
                                              tensor.poly_derivative(tensor.TensorPolynomial([tensor.ones_tensor(H, k)])))


TABLES = {"elements": elements, "scenarios": scenarios, "series": series_rows, "products": products,
          "inverse": inverse_rows, "forms": forms}


def best(setup) -> list[float] | str:
    """[best per-call time in microseconds, minor page faults per timed call], or the name of what the row raised."""
    try:
        call = setup()
        number = max(1, min(NUMBER, int(BUDGET_S / timeit.timeit(call, number=1))))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        us = min(timeit.repeat(call, number=number, repeat=REPEATS)) / number * 1e6
        return [us, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / (number * REPEATS)]
    except Exception as exc:  # a refusal is a result here, named by its type
        return type(exc).__name__


def times(table: str) -> dict[str, list[float] | str]:
    return {label: best(setup) for label, setup in TABLES[table]()}


def times_of(table: str, src: Path) -> dict[str, list[float] | str]:
    """times(table) in a fresh interpreter that imports ncalg from src; its stderr passes through."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, __file__, table, "--json"], env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(run.stdout)


def cell(value, unit: str = "") -> str:
    """A time in microseconds or a fault count, or the name of what a row raised."""
    return f"{value:11.1f}{unit}" if isinstance(value, float) else f"{value:>11}"


def summary(side: list, field: int) -> float | str:
    """The median of one field of one checkout's rounds, or the first failure, '-' where the row is missing."""
    failed = [v for v in side if not isinstance(v, list)]
    return failed[0] or "-" if failed else statistics.median(v[field] for v in side)


def compare(table: str, other: Path) -> None:
    if not (other / "ncalg").is_dir():  # else the fallback import would time this checkout twice
        raise SystemExit(f"no ncalg package in {other}")
    runs = {SRC: [], other: []}
    for r in range(ROUNDS):
        for src in ((SRC, other) if r % 2 == 0 else (other, SRC)):
            runs[src].append(times_of(table, src))
    labels = list(dict.fromkeys([*runs[SRC][0], *runs[other][0]]))
    print(f"{'':<36} {'this us':>11} {'other us':>11} {'this/other':>10} {'this flt':>11} {'other flt':>11}")
    for label in labels:
        this, that = ([run.get(label) for run in runs[src]] for src in (SRC, other))
        mine, theirs = summary(this, 0), summary(that, 0)
        timed = isinstance(mine, float) and isinstance(theirs, float)
        ratio = f"{statistics.median(a[0] / b[0] for a, b in zip(this, that)):10.3f}" if timed else ""
        print(f"{label:<36} {cell(mine)} {cell(theirs)} {ratio:>10} {cell(summary(this, 1))} {cell(summary(that, 1))}")


def main(argv: list[str]) -> None:
    if not argv or argv[0] not in TABLES or len(argv) > 2:
        raise SystemExit(f"usage: python tools/times.py {{{','.join(TABLES)}}} [OTHER_SRC]")
    if argv[1:] == ["--json"]:
        print(json.dumps(times(argv[0])))
    elif argv[1:]:
        compare(argv[0], Path(argv[1]).resolve())
    else:
        for label, value in times(argv[0]).items():
            shown = cell(value) if isinstance(value, str) else f"{cell(value[0], ' us')} {cell(value[1], ' faults')}"
            print(f"{label:<36} {shown}")


if __name__ == "__main__":
    main(sys.argv[1:])
