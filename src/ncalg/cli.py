"""Batch driver: named scenarios over the worked examples, with reports.

Usage:
    ncalg list
    ncalg run <scenario> [--seed N] [--algebra TAG]
                         [--format {text,json}]

Exit code is 0 iff the scenario's verdict is true, so the driver doubles as
a test harness: 1 is a false verdict, 2 a usage error or unknown scenario,
and 3 a typed numeric error (an exponential that cannot be accurate, a
singular matrix, an undefined quasideterminant, algebra misuse, a zero
element inverted), reported as data instead of a traceback.
Reports are deterministic for a fixed seed and options. Each scenario is a
draw of its inputs from the seed and a check of them. Six draw
(quasidet-2x2, solve-quaternion-system, rank-demo, exp-properties,
quasiexp-demo, ode-forms-cross-check); the other ten draw nothing, so the
seed does not change their reports. Only the six form scenarios
(integrability-*, exact-*, separable-712) read --algebra; the other ten fix
the algebra of their statement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels, biring
from .algebra import (
    CLOSE_RTOL,
    AlgebraDesc,
    AlgebraError,
    NotInvertibleError,
    _frobenius_rows,
    _mul_rows,
    _norm,
    close,
    inv_stack,
    make_algebra,
)
from .diffeq import (
    OdeForm,
    _closed_form_states,
    _elliptic_family_states,
    _fd_judge,
    _fd_step,
    _judge_states,
    _probe_times,
    _read_residual,
    _real_matrices,
    _rk4_states,
    _rk4_step_target,
    elliptic_ode,
    elliptic_two_exp_curve,
    exactness_check,
    implicit_solution_check,
    integrability_check,
    rk4_integrate,
)
from .report import Report, worst
from .series import SeriesBudgetError, _directional, _exp_els, _pairs
from .tensor import X, Y, TensorPolynomial, monomial

WITNESS_FLOOR = 1e-3  # a refusal the scenarios expect must clear this
IDENTITY_RTOL = 1e-10  # relative: see _identities


@dataclass
class Options:
    seed: int = 0
    algebra: str = "quaternion"


@dataclass
class Scenario:
    """A named check of the paper's statements.

    draw(alg, rng) gives the inputs as named coefficient arrays, each with
    the algebra's coefficients on its last axis, and check(alg, inputs)
    judges them; a scenario without a draw gets no inputs. algebra names
    the one algebra the statement fixes, and None takes --algebra's.
    """

    name: str
    description: str
    anchor: str
    check: Callable[[AlgebraDesc, dict], Report]
    draw: Callable[[AlgebraDesc, np.random.Generator], dict] | None = None
    algebra: str | None = None


# ---------------------------------------------------------------------------
# scenario draws and checks

_ALGEBRAS = tuple(map(make_algebra, ("real", "complex", "quaternion")))


def _norms(c):  # of each coefficient vector, the rule the printed gaps keep
    return np.sqrt((c ** 2).sum(axis=-1))


def _draw_quasidet_2x2(alg, rng) -> dict:
    inputs = {}
    for each in _ALGEBRAS:  # all three in turn, whichever alg is asked for
        a = rng.uniform(-1.0, 1.0, (50, 2, 2, each.dim))  # the draws of 50 random_matrix calls
        # keep every closed-form pivot well away from zero
        inputs[each.tag] = a[_norms(a).min(axis=(1, 2)) >= 1e-2]
    return inputs


def _scn_quasidet_2x2(_, inputs) -> Report:
    gaps, holds = [], True
    checked = 0
    for alg in _ALGEBRAS:
        a = inputs[alg.tag]
        # one stacked inverse and one stacked quasideterminant call; each
        # member has the bits, and the failure, of its own rc_inv call
        invs, failed = biring._inverse(alg.table, a)
        a, invs = np.delete(a, failed, axis=0), np.delete(invs, failed, axis=0)
        rows, cols = np.divmod(np.arange(4 * len(a)) % 4, 2)
        quasi = biring._quasidets(alg.table, a.repeat(4, axis=0), rows, cols).reshape(a.shape)
        checked += len(a)
        # a_ij - a_{i,1-j} a_{1-i,1-j}^-1 a_{1-i,j} for all four (i, j) of every matrix at once
        term = _mul_rows(alg, _mul_rows(alg, a[:, :, ::-1], inv_stack(a[:, ::-1, ::-1])[0]), a[:, ::-1])
        closed, invs = a - term, invs.swapaxes(1, 2)
        inverse = inv_stack(closed)[0]
        # each gap is judged relative to the terms its closed form sums, or to the
        # two inverse entries it compares, the rule of algebra.close
        sizes = (_norms(a) + _norms(term), _norms(invs) + _norms(inverse))
        for got, want, size in zip((quasi, invs), (closed, inverse), sizes):
            gap = _norms(got - want)
            gaps += gap.ravel().tolist()
            holds = holds and bool((gap <= CLOSE_RTOL * size).all())
    resid = worst(gaps)
    return Report(verdict=holds and resid < math.inf, residual=resid, metrics={"matrices": checked})


def _draw_solve_system(alg, rng) -> dict:
    # the draws of 20 rounds of one random_matrix(alg, 3, 3) and three random_element calls
    draws = rng.uniform(-1.0, 1.0, (20, 12, alg.dim))
    return {"a": draws[:, :9].reshape(20, 3, 3, alg.dim), "b": draws[:, 9:]}


def _scn_solve_system(alg, inputs) -> Report:
    a, b = inputs["a"], inputs["b"]
    # one stacked solve; each system has the bits, and the error, of its own solve_rc call
    x, failed = biring._solve(alg.table, a, b)
    if failed:
        raise next(iter(failed.values()))
    diff = _kernels.rc_contract(alg.table, a, x[:, :, None]) - b[:, :, None]
    resid = worst(np.abs(diff).max(axis=(1, 2, 3)).tolist())
    return Report(verdict=resid <= 1e-8, residual=resid)


def _draw_rank_demo(alg, rng) -> dict:
    # the draws of 10 rounds of three u and three v elements; entry (i, j) of
    # matrix t is u_i * v_j, with the bits of that Element product
    u, v = rng.uniform(-1.0, 1.0, (10, 2, 3, alg.dim)).swapaxes(0, 1)
    return {"a": _mul_rows(alg, u[:, :, None], v[:, None])}


def _scn_rank_demo(alg, inputs) -> Report:
    a = inputs["a"]
    # one stacked rank search, one gather of every bordered minor of every
    # matrix, and all their quasideterminants in one stacked call
    ranked = biring._rank_search(alg.table, a)
    ranks_ok = all(k == 1 for k, _ in ranked)
    border = [(t, sel, p, r) for t, (_, sel) in enumerate(ranked) for p in range(3) if p not in sel.rows
              for r in range(3) if r not in sel.cols]
    minors, rows, cols = biring._bordered_minors(a, *zip(*border))
    quasi = biring._quasidets(alg.table, minors, rows, cols)
    resid = worst(_frobenius_rows(quasi).tolist())
    return Report(verdict=ranks_ok and resid <= 1e-8, residual=resid,
                  metrics={"ranks_all_one": ranks_ok})


def _poly(alg, *words: tuple[int, ...]) -> TensorPolynomial:
    """The sum of the unit-coefficient words with these gap labels."""
    return TensorPolynomial([monomial(alg, labels) for labels in words])


def _expect_refusal(alg, inner: Report, expected: str, condition: str | None = None) -> Report:
    """Over R and C the check must pass; over H it must refuse clearly.

    A clear refusal has a residual, or the metric of the named condition,
    above WITNESS_FLOOR.
    """
    if alg.tag in ("real", "complex"):
        return inner
    size = inner.residual if condition is None else inner.metrics[condition]
    refused = (not inner.verdict) and size > WITNESS_FLOOR
    return Report(verdict=refused, residual=inner.residual, witness=inner.witness,
                  metrics=dict(inner.metrics, expected=expected))


def _scn_integrability_x2(alg, _) -> Report:
    return integrability_check(_poly(alg, (X, 0), (0, X)))


def _scn_integrability_3xx(alg, _) -> Report:
    inner = integrability_check(TensorPolynomial([monomial(alg, (X, 0, X), 3.0)]))
    return _expect_refusal(alg, inner, "not integrable")


def _scn_exact_723(alg, _) -> Report:
    # dx + dx y, x dy + dy, and the potential x + x y + y
    m, n, u = _poly(alg, (0,), (0, Y)), _poly(alg, (X, 0), (0,)), _poly(alg, (X,), (X, Y), (Y,))
    ex = exactness_check(m, n)
    sol = implicit_solution_check(u, m, n)
    return Report(verdict=ex.verdict and sol.verdict,
                  residual=worst((ex.residual, sol.residual)),
                  metrics={"exactness": ex.to_data(), "solution": sol.to_data()})


def _scn_exact_724(alg, _) -> Report:
    # 3 x x dx + dx y and x dy: over H the x-part's symmetry fails
    m = TensorPolynomial([monomial(alg, (X, X, 0), 3.0), monomial(alg, (0, Y))])
    ex = exactness_check(m, _poly(alg, (X, 0)))
    return _expect_refusal(alg, ex, "not exact", "sym_x")


def _scn_exact_725(alg, _) -> Report:
    # dx y and dy x pass both symmetry conditions over H; the order-sensitive
    # cross condition is what must fail
    ex = exactness_check(_poly(alg, (0, Y)), _poly(alg, (0, X)))
    return _expect_refusal(alg, ex, "not exact", "cross")


def _scn_separable_712(alg, _) -> Report:
    # dx x + x dx and dy y + y dy, with the potential x x + y y
    m, n, u = _poly(alg, (0, X), (X, 0)), _poly(alg, (0, Y), (Y, 0)), _poly(alg, (X, X), (Y, Y))
    return implicit_solution_check(u, m, n)


def _identities(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, bool]:
    """The worst gap |lhs - rhs| over the rows of two (k, d) coefficient arrays, and whether every identity holds.

    Row i of lhs and of rhs are the two sides of one identity. It holds
    when they are close under algebra.close with IDENTITY_RTOL, so the
    verdict does not change with the scale of its sides; the gap itself is
    what the report prints. The norms of every lhs, rhs and lhs - rhs come
    from one _frobenius_rows call, each with the bits of the Element.norm
    that the gap and algebra.close take; a side whose norms reach 2^1000
    or are not finite goes to algebra.close itself, which rescales it.
    """
    na, nb, gaps = _frobenius_rows(np.concatenate((lhs, rhs, lhs - rhs))).reshape(3, len(lhs)).tolist()
    holds = all(gap <= IDENTITY_RTOL * (p + q) if p + q < 2.0 ** 1000 else close(a, b, IDENTITY_RTOL)
                for p, q, gap, a, b in zip(na, nb, gaps, lhs, rhs))
    return worst(gaps), holds


def _draw_exp_properties(alg, rng) -> dict:
    # the draws of 10 rounds of random_element and uniform(-2, 2), which is twice
    # uniform(-1, 1), exactly; then of 10 pairs of random_element calls
    drawn = rng.uniform(-1.0, 1.0, (10, alg.dim + 1))
    c, x = rng.uniform(-1.0, 1.0, (10, 2, alg.dim)).swapaxes(0, 1)
    # b, a real multiple of a, commutes with it
    return {"a": drawn[:, :-1], "b": drawn[:, :-1] * (2.0 * drawn[:, -1:]), "c": c, "x": x}


def _scn_exp_properties(alg, inputs) -> Report:
    a, b, c, x = inputs["a"], inputs["b"], inputs["c"], inputs["x"]
    i, j = np.eye(alg.dim)[1:3]
    # all 53 exponentials in one stacked call, each with the bits of its exp_el: a + b,
    # a and b per commuting pair, x c and c x per swap pair, then i + j, i and j; every
    # product has the bits of its Element product
    args = np.concatenate((np.stack((a + b, a, b), axis=1).reshape(-1, alg.dim),
                           np.stack((_mul_rows(alg, x, c), _mul_rows(alg, c, x)), axis=1).reshape(-1, alg.dim),
                           (i + j, i, j)))
    exps = _exp_els(args)
    commuting, swapped, (e_ij, e_i, e_j) = exps[:30].reshape(10, 3, -1), exps[30:50].reshape(10, 2, -1), exps[50:]
    # commuting pairs multiply, and the side-swap identity c e^{xc} = e^{cx} c holds
    lhs = np.concatenate((commuting[:, 0], _mul_rows(alg, c, swapped[:, 0])))
    rhs = np.concatenate((_mul_rows(alg, commuting[:, 1], commuting[:, 2]), _mul_rows(alg, swapped[:, 1], c)))
    resid, holds = _identities(lhs, rhs)
    gap = _norm(e_ij - _mul_rows(alg, e_i, e_j))
    return Report(verdict=holds and gap > 1e-3, residual=resid,
                  metrics={"noncommuting_gap": gap, "pairs_checked": 20})


def _draw_quasiexp_demo(alg, rng) -> dict:
    # the draws of 5 rounds of two random_element calls, c then x
    c, x = rng.uniform(-1.0, 1.0, (5, 2, alg.dim)).swapaxes(0, 1)
    return {"c": c, "x": x}


def _scn_quasiexp_demo(alg, inputs) -> Report:
    c, x = inputs["c"], inputs["x"]
    # dy/dx o 1 = y for y = quasiexp([c], .), probed by central differences along the unit: the rows
    # x + s 1 and x + (-s) 1 have the bits of their Element sums, and each y is one _directional call
    unit = np.eye(alg.dim)[:1]
    steps = _fd_step(_frobenius_rows(x))
    rows = np.concatenate((x + steps[:, None] * unit, x + (-steps[:, None]) * unit, x, np.zeros_like(x)))
    ys = np.array([_directional(ci, r) for ci, r in zip(c.tolist() * 4, rows.tolist())]).reshape(4, len(x), alg.dim)
    # one judge for the five probes; the gaps e[c]^0 - c are normed in its call
    report, zero_gaps = _fd_judge(x, unit.repeat(len(x), axis=0), steps, *ys[:3], more=ys[3] - c)
    at_zero = worst(zero_gaps)
    return Report(verdict=report.verdict and at_zero <= 1e-12, residual=report.residual,
                  metrics={"value_at_zero_gap": at_zero})


def _euler_gap(alg, fs: np.ndarray) -> tuple[float, bool]:
    """sinh and cosh of t f against the halves of e^{tf} -+ e^{-tf}, and their commutators with f, for each row f of fs.

    fs is an (m, d) array of directions. The 8 m exponentials take one
    stacked call and the 4 m (cosh, sinh) pairs another; every product has
    the bits of its Element product and every half those of 0.5 * Element.
    Returns the worst gap over all directions and whether every identity
    holds.
    """
    tf = (fs[:, None] * np.array((0.1, 0.5, 1.0, 2.0))[:, None]).reshape(-1, alg.dim)
    f = fs.repeat(4, axis=0)
    ep, em = _exp_els(np.concatenate((tf, -tf))).reshape(2, len(tf), alg.dim)
    cosh, sinh = _pairs(tf)
    lhs = np.concatenate((sinh, cosh, _mul_rows(alg, sinh, f), _mul_rows(alg, cosh, f)))
    rhs = np.concatenate(((ep - em) * 0.5, (ep + em) * 0.5, _mul_rows(alg, f, sinh), _mul_rows(alg, f, cosh)))
    return _identities(lhs, rhs)


def _scn_euler_hyperbolic(alg, _) -> Report:
    resid, holds = _euler_gap(alg, np.ones((1, 1)))
    return Report(verdict=holds, residual=resid)


def _scn_euler_quaternion(alg, _) -> Report:
    i, j, k = np.eye(alg.dim)[1:]
    resid, holds = _euler_gap(alg, np.array((i, (i + j) * (1 / np.sqrt(2)), 2 * k)))
    return Report(verdict=holds, residual=resid)


def _scn_elliptic_nonunique(alg, _) -> Report:
    ode = elliptic_ode(alg)
    ts = (0.0, 0.5, 1.0, 2.0)
    init = np.array([x.coeffs for x in ode.init])
    r_rk, at_rk = _read_residual(ode, rk4_integrate(ode, 2.0, 20000), ts)
    r_two, at_two = _read_residual(ode, elliptic_two_exp_curve(alg), ts)
    init_gap = worst(_frobenius_rows(at_two[0] - init).tolist())
    diff_at_1 = worst(_frobenius_rows(at_rk[2] - at_two[2]).tolist())
    # both curves solve the system and share the initial value; they are in
    # fact the same function, so the advertised difference never materializes
    verdict = r_rk.verdict and r_two.verdict and init_gap == 0.0 and diff_at_1 > 0.1
    return Report(
        verdict=verdict,
        residual=worst((r_rk.residual, r_two.residual)),
        metrics={
            "rk4_residual": r_rk.residual,
            "two_exp_residual": r_two.residual,
            "init_gap": init_gap,
            "difference_at_t1": diff_at_1,
            "note": "curves coincide: e^{bt} = cos t + b sin t collapses the combination",
        },
    )


def _scn_elliptic_family(alg, _) -> Report:
    ode = elliptic_ode(alg)
    ts = (0.0, 0.5, 1.0, 2.0)
    init = np.array([x.coeffs for x in ode.init])
    # the curves of C = 0, 1 and i: their states at every probe time from one
    # stack of exponentials, and their residuals from one judge
    cs = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    states = _elliptic_family_states(cs, np.array(_probe_times(ts)))
    reports = _judge_states(alg, ode.real_matrix()[None].repeat(3, axis=0), states, ts, "three-exponential-family")
    init_gap = worst(_frobenius_rows(states[:, 2] - init).ravel().tolist())
    return Report(verdict=all(r.verdict for r in reports) and init_gap <= 1e-12,
                  residual=worst(r.residual for r in reports), metrics={"init_gap": init_gap})


def _draw_ode_forms(alg, rng) -> dict:
    # three systems per form, each the draws of random_matrix(alg, 2, 2, rng,
    # scale=0.5) and two random_element calls: uniform(-0.5, 0.5) is half of
    # uniform(-1, 1), exactly
    draws = rng.uniform(-1.0, 1.0, (len(OdeForm), 3, 6, alg.dim))
    return {"a": 0.5 * draws[:, :, :4].reshape(len(OdeForm), 3, 2, 2, alg.dim), "x0": draws[:, :, 4:]}


def _scn_ode_forms(alg, inputs) -> Report:
    m = np.concatenate([_real_matrices(alg, c, form) for c, form in zip(inputs["a"], OdeForm)])
    x0 = inputs["x0"].reshape(len(m), 2 * alg.dim)
    ts, checks = np.linspace(0.0, 1.0, 11), (0.0, 0.5, 1.0)
    # every system's states at the grid and at the residual's probes, from one
    # exponential grid and one stacked RK4 power, and every residual from one judge
    closed = _closed_form_states(m, x0, np.concatenate([ts, _probe_times(checks)]))
    closed = closed.reshape(len(m), -1, 2, alg.dim)
    rk = _rk4_states(m, x0, ts, _rk4_step_target(1.0, 10_000)).reshape(len(m), len(ts), 2, alg.dim)
    gaps = _frobenius_rows(closed[:, :len(ts)] - rk).ravel().tolist()
    reports = _judge_states(alg, m, closed[:, len(ts):], checks, "closed-form")
    worst_gap = worst(gaps)
    verdict = worst_gap <= 1e-6 and all(r.verdict for r in reports)
    return Report(verdict=verdict, residual=worst_gap,
                  metrics={"closed_form_residual": worst(r.residual for r in reports)})


SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario("quasidet-2x2", "2x2 quasideterminants match their closed forms and the inverse entries",
             "2x2 quasideterminant closed forms", _scn_quasidet_2x2, _draw_quasidet_2x2, algebra="quaternion"),
    Scenario("solve-quaternion-system", "random quaternion systems solved via the rc-inverse",
             "nonsingular rc linear systems", _scn_solve_system, _draw_solve_system, algebra="quaternion"),
    Scenario("rank-demo", "bordered quasideterminants vanish on rank-deficient matrices",
             "rank via major minors", _scn_rank_demo, _draw_rank_demo, algebra="quaternion"),
    Scenario("integrability-x2", "the form behind y = x^2 has a symmetric derivative",
             "integrability of x dx + dx x", _scn_integrability_x2),
    Scenario("integrability-3xx", "3 x dx x is integrable over C but not over H (witness reported)",
             "integrability of 3 x dx x", _scn_integrability_3xx),
    Scenario("exact-723", "dx + dx.y + x.dy + dy = 0 is exact; x + xy + y = C solves it",
             "exact equation with potential x + xy + y", _scn_exact_723),
    Scenario("exact-724", "cubic-in-x form fails the own-variable symmetry condition",
             "inexact equation, symmetry failure", _scn_exact_724),
    Scenario("exact-725", "dx.y + dy.x fails the order-sensitive cross condition",
             "inexact equation, order-sensitive failure", _scn_exact_725),
    Scenario("separable-712", "x^2 + y^2 = C solves the separated-variable equation",
             "separated variables with potential x^2 + y^2", _scn_separable_712),
    Scenario("exp-properties", "e^{a+b} = e^a e^b if a and b commute; a e^{xa} = e^{ax} a",
             "exponent product and side-swap laws", _scn_exp_properties, _draw_exp_properties, algebra="quaternion"),
    Scenario("quasiexp-demo", "quasiexponent satisfies dy/dx o 1 = y and e[c]^0 = c",
             "quasiexponent fixed-point equation", _scn_quasiexp_demo, _draw_quasiexp_demo, algebra="quaternion"),
    Scenario("euler-hyperbolic", "sinh/cosh split of the real exponent",
             "hyperbolic Euler split", _scn_euler_hyperbolic, algebra="real"),
    Scenario("euler-quaternion", "sinh/cosh split of e^{ft} for quaternion f",
             "quaternion Euler split", _scn_euler_quaternion, algebra="quaternion"),
    Scenario("elliptic-nonunique", "rk4 curve vs the two-exponential curve for x''= -x",
             "elliptic initial-value problem, constructed second curve", _scn_elliptic_nonunique, algebra="quaternion"),
    Scenario("elliptic-family", "three-exponential family solves the elliptic system for C in {0,1,i}",
             "elliptic three-exponential family", _scn_elliptic_family, algebra="quaternion"),
    Scenario("ode-forms-cross-check", "closed forms of all four product forms match RK4",
             "four linear system forms vs RK4", _scn_ode_forms, _draw_ode_forms, algebra="quaternion"),
)}


# ---------------------------------------------------------------------------
# driver


def list_scenarios() -> str:
    lines = []
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        lines.append(f"{name:26s} {s.description}  [{s.anchor}]")
    return "\n".join(lines)


def run_scenario(name: str, options: Options) -> tuple[Report, dict]:
    if name not in SCENARIOS:
        raise KeyError(name)
    s = SCENARIOS[name]
    alg = make_algebra(s.algebra or options.algebra)
    report = s.check(alg, s.draw(alg, np.random.default_rng(options.seed)) if s.draw else {})
    payload = {
        "scenario": s.name,
        "anchor": s.anchor,
        "verdict": bool(report.verdict),
        "metrics": dict(report.metrics, residual=report.residual),
        "witness": report.witness,
        "seed": options.seed,
    }
    return report, payload


def _seed(text: str) -> int:
    # numpy seeds are non-negative; a negative one would end in a traceback
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncalg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered scenarios")
    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario")
    defaults = Options()
    run.add_argument("--seed", type=_seed, default=defaults.seed)
    run.add_argument("--algebra", default=defaults.algebra,
                     choices=[alg.tag for alg in _ALGEBRAS])
    run.add_argument("--format", dest="fmt", default="text", choices=["text", "json"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(list_scenarios())
        return 0
    options = Options(seed=args.seed, algebra=args.algebra)
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario: {args.scenario!r}", file=sys.stderr)
        print("available scenarios:", file=sys.stderr)
        print(list_scenarios(), file=sys.stderr)
        return 2
    try:
        report, payload = run_scenario(args.scenario, options)
    except (SeriesBudgetError, biring.SingularMatrixError, biring.QuasideterminantUndefinedError,
            AlgebraError, NotInvertibleError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if args.fmt == "json":
            print(json.dumps({"scenario": args.scenario, "seed": args.seed, "error": error},
                             sort_keys=True))
        else:
            print(f"error : {error['type']}: {error['message']}")
        return 3
    if args.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"scenario : {payload['scenario']}")
        print(f"anchor   : {payload['anchor']}")
        print(f"verdict  : {'PASS' if payload['verdict'] else 'FAIL'}")
        for key, value in sorted(payload["metrics"].items()):
            print(f"  {key} = {value}")
        if payload["witness"]:
            print(f"  witness = {payload['witness']}")
    return 0 if payload["verdict"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
