import json
import math

import numpy as np
import pytest

from ncalg import _kernels, biring, cli, diffeq, tensor
from ncalg.algebra import (AlgebraError, Element, NotInvertibleError, basis, inv_stack, make_algebra, one,
                           random_element, zero)
from ncalg.biring import (BiMatrix, QuasideterminantUndefinedError, SingularMatrixError, bordered_quasidet,
                          quasidets_rc, random_matrix, rc_inv, rc_mul, rc_rank, solve_rc)
from ncalg.cli import SCENARIOS, Options, Scenario, list_scenarios, main, run_scenario
from ncalg.diffeq import (LinearOde, OdeForm, closed_form_solution, elliptic_family, elliptic_ode,
                          elliptic_two_exp_curve, rk4_integrate, solution_residual)
from ncalg.report import Report, worst
from ncalg.series import SeriesBudgetError, cosh_el, exp_el, sinh_el

from conftest import is_plain

REQUIRED = [
    "quasidet-2x2",
    "solve-quaternion-system",
    "rank-demo",
    "integrability-x2",
    "integrability-3xx",
    "exact-723",
    "exact-724",
    "exact-725",
    "separable-712",
    "exp-properties",
    "quasiexp-demo",
    "euler-hyperbolic",
    "euler-quaternion",
    "elliptic-nonunique",
    "elliptic-family",
    "ode-forms-cross-check",
]


class TestRegistry:
    def test_required_scenarios_present(self):
        for name in REQUIRED:
            assert name in SCENARIOS

    def test_at_least_fifteen(self):
        assert len(SCENARIOS) >= 15

    def test_listing_mentions_names_and_anchors(self):
        text = list_scenarios()
        assert "euler-hyperbolic" in text
        assert "elliptic-nonunique" in text
        for s in SCENARIOS.values():
            assert s.anchor in text


class TestRunScenario:
    def test_euler_hyperbolic_passes(self):
        report, payload = run_scenario("euler-hyperbolic", Options())
        assert report.verdict
        assert payload["scenario"] == "euler-hyperbolic"
        assert payload["metrics"]["residual"] <= 1e-10

    def test_integrability_3xx_quaternion_reports_witness(self):
        report, payload = run_scenario("integrability-3xx", Options(algebra="quaternion"))
        assert report.verdict  # the expected refusal is reproduced
        assert payload["witness"] is not None
        assert payload["metrics"]["expected"] == "not integrable"

    def test_integrability_3xx_complex_is_integrable(self):
        report, _ = run_scenario("integrability-3xx", Options(algebra="complex"))
        assert report.verdict

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_scenario("nonexistent", Options())

    @pytest.mark.parametrize(
        "name, algebra",
        [pytest.param(name, Options.algebra, id=name) for name in
         ["quasidet-2x2", "solve-quaternion-system", "rank-demo", "integrability-x2",
          "exact-723", "exact-724", "exact-725", "separable-712", "exp-properties",
          "quasiexp-demo", "euler-quaternion", "elliptic-family", "ode-forms-cross-check"]]
        + [pytest.param(name, alg, id=f"{name}-{alg}")
           for name in ("integrability-x2", "exact-724", "exact-725") for alg in ("real", "complex")],
    )
    def test_scenario_verdicts(self, name, algebra):
        report, payload = run_scenario(name, Options(algebra=algebra))
        assert report.verdict, payload["metrics"]

    def test_elliptic_nonunique_reports_coincident_curves(self):
        # both curves solve the system and share the initial value, and they
        # are the same function, so the difference metric sits at zero and
        # the scenario honestly fails its advertised claim
        report, payload = run_scenario("elliptic-nonunique", Options())
        m = payload["metrics"]
        assert m["rk4_residual"] <= 1e-6
        assert m["two_exp_residual"] <= 1e-6
        assert m["init_gap"] == 0.0
        assert m["difference_at_t1"] <= 1e-12
        assert not report.verdict


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "euler-hyperbolic" in out

    def test_run_exit_code_and_text(self, capsys):
        code = main(["run", "euler-hyperbolic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_unknown_scenario_exit(self, capsys):
        code = main(["run", "nonexistent"])
        err = capsys.readouterr().err
        assert code == 2
        assert "euler-hyperbolic" in err  # the listing is printed

    def test_json_deterministic(self, capsys):
        assert main(["run", "integrability-x2", "--format", "json", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "integrability-x2", "--format", "json", "--seed", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert set(payload) == {"scenario", "anchor", "verdict", "metrics", "witness", "seed"}

    def test_options_are_honoured(self, capsys):
        code = main(["run", "integrability-3xx", "--algebra", "complex"])
        capsys.readouterr()
        assert code == 0

    def test_negative_seed_is_a_usage_error(self, capsys):
        # refused here, before numpy's seeding would raise mid-run
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "quasidet-2x2", "--seed", "-1", "--algebra", "quaternion"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err


# exit codes of `ncalg run <scenario> --algebra <tag> --seed 0`, ordered real, complex,
# quaternion; elliptic-nonunique reports its coincident curves as a FAIL
EXIT_CODES = {
    "quasidet-2x2": (0, 0, 0),
    "solve-quaternion-system": (0, 0, 0),
    "rank-demo": (0, 0, 0),
    "integrability-x2": (0, 0, 0),
    "integrability-3xx": (0, 0, 0),
    "exact-723": (0, 0, 0),
    "exact-724": (0, 0, 0),
    "exact-725": (0, 0, 0),
    "separable-712": (0, 0, 0),
    "exp-properties": (0, 0, 0),
    "quasiexp-demo": (0, 0, 0),
    "euler-hyperbolic": (0, 0, 0),
    "euler-quaternion": (0, 0, 0),
    "elliptic-nonunique": (1, 1, 1),
    "elliptic-family": (0, 0, 0),
    "ode-forms-cross-check": (0, 0, 0),
}


def test_every_scenario_exit_code(capsys):
    assert sorted(EXIT_CODES) == sorted(SCENARIOS)
    got = {name: tuple(main(["run", name, "--algebra", tag, "--seed", "0"])
                       for tag in ("real", "complex", "quaternion"))
           for name in EXIT_CODES}
    capsys.readouterr()
    assert got == EXIT_CODES


@pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_payload_metrics_and_witness_are_plain_data(name, tag):
    # the payload is serialized as it comes: no numpy value may reach it
    _, payload = run_scenario(name, Options(seed=0, algebra=tag))
    assert is_plain(payload["metrics"]) and is_plain(payload["witness"])


FORM_SCENARIOS = ("integrability-x2", "integrability-3xx", "exact-723", "exact-724", "exact-725",
                  "separable-712")


class TestFormScenarios:
    """The form checks judge symbolic polynomials: no probe, no seed, no evaluation."""

    @pytest.mark.parametrize("tag", ["real", "complex", "quaternion"])
    @pytest.mark.parametrize("name", FORM_SCENARIOS)
    def test_json_is_the_same_for_every_seed(self, capsys, name, tag):
        outputs = set()
        for seed in range(4):
            main(["run", name, "--algebra", tag, "--seed", str(seed), "--format", "json"])
            outputs.add(capsys.readouterr().out.replace(f'"seed": {seed}', '"seed": 0'))
        assert len(outputs) == 1

    def test_verdicts_need_no_evaluation(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a form check evaluated a tensor")

        monkeypatch.setattr(tensor, "eval_args", refuse)
        got = {name: tuple(main(["run", name, "--algebra", tag]) for tag in ("real", "complex", "quaternion"))
               for name in FORM_SCENARIOS}
        capsys.readouterr()
        assert got == {name: EXIT_CODES[name] for name in FORM_SCENARIOS}

    def test_probes_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "integrability-x2", "--probes", "8"])
        assert exit_info.value.code == 2
        assert "--probes" in capsys.readouterr().err


class TestExactnessWitness:
    """A refuted exactness check's witness gives the failing condition and its largest entry."""

    def test_724_witness_is_the_symmetry_failure(self):
        report, payload = run_scenario("exact-724", Options(seed=0, algebra="quaternion"))
        assert payload["witness"]["condition"] == "sym_x"
        assert payload["witness"]["violation"] == report.residual == report.metrics["sym_x"]

    def test_725_witness_is_the_cross_failure(self):
        report, payload = run_scenario("exact-725", Options(seed=0, algebra="quaternion"))
        assert payload["witness"]["condition"] == "cross"
        assert payload["witness"]["violation"] == report.residual == report.metrics["cross"]


TYPED_ERRORS = (SeriesBudgetError, SingularMatrixError, QuasideterminantUndefinedError, AlgebraError,
                NotInvertibleError)


class TestTypedErrors:
    # the json cases keep the bare error name as their id
    @pytest.mark.parametrize("exc, fmt", [
        *(pytest.param(e, "json", id=e.__name__) for e in TYPED_ERRORS),
        *(pytest.param(e, "text", id=f"{e.__name__}-text") for e in TYPED_ERRORS),
    ])
    def test_every_typed_error_exits_3(self, capsys, monkeypatch, exc, fmt):
        def runner(opt):
            raise exc("raised by the scenario")

        monkeypatch.setitem(SCENARIOS, "raises", Scenario("raises", "", "", runner))
        assert main(["run", "raises", "--format", fmt, "--seed", "5"]) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if fmt == "json":
            assert json.loads(captured.out) == {
                "scenario": "raises", "seed": 5,
                "error": {"type": exc.__name__, "message": "raised by the scenario"}}
        else:
            assert captured.out.splitlines() == [f"error : {exc.__name__}: raised by the scenario"]

    def test_key_error_inside_a_scenario_is_not_an_unknown_name(self, capsys, monkeypatch):
        # exit 2 means the name is not registered; a runner's own KeyError propagates
        def runner(opt):
            return {}["missing"]

        monkeypatch.setitem(SCENARIOS, "raises", Scenario("raises", "", "", runner))
        with pytest.raises(KeyError):
            main(["run", "raises"])
        assert "unknown scenario" not in capsys.readouterr().err


class TestNaNResiduals:
    """A NaN from the library refutes a scenario; `max` would have dropped it."""

    @staticmethod
    def _nan_quasidets(monkeypatch):
        # both scenarios take their quasideterminants from stacked _quasidets calls
        monkeypatch.setattr(biring, "_quasidets",
                            lambda table, data, rows, cols: np.full((len(rows), table.shape[0]), np.nan))

    def test_nan_quasideterminants_fail(self, monkeypatch):
        self._nan_quasidets(monkeypatch)
        report, _ = run_scenario("quasidet-2x2", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)

    def test_nan_bordered_quasideterminants_fail(self, monkeypatch):
        self._nan_quasidets(monkeypatch)
        report, _ = run_scenario("rank-demo", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)

    def test_nan_solution_fails(self, monkeypatch):
        # the scenario solves its 20 systems in one stacked call
        monkeypatch.setattr(biring, "_solve", lambda table, data, rhs: (np.full(rhs.shape, np.nan), {}))
        report, _ = run_scenario("solve-quaternion-system", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)

    def test_nan_rk4_curve_fails_the_cross_check(self, monkeypatch):
        # an unstable RK4 starts at x(0) and overflows to NaN after it, so the
        # first gap is 0 and every later one NaN; the scenario reads every
        # system's RK4 states from one _rk4_states call
        def nan_states(m, x0, ts, h):
            return np.where((np.asarray(ts) == 0.0)[None, :, None], x0[:, None], np.nan)

        monkeypatch.setattr(cli, "_rk4_states", nan_states)
        report, _ = run_scenario("ode-forms-cross-check", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)


# ---------------------------------------------------------------------------
# the stacked quasideterminant scenarios against the per-matrix loops they replaced


def _per_matrix_quasidet_2x2(opt):
    """quasidet-2x2 as one rc_inv and one quasidets_rc call per matrix."""
    rng = np.random.default_rng(opt.seed)
    gaps = []
    checked = 0
    for tag in ("real", "complex", "quaternion"):
        alg = make_algebra(tag)
        mats, quasi, invs = [], [], []
        for _ in range(50):
            a = random_matrix(alg, 2, 2, rng)
            if np.sqrt((a.data ** 2).sum(axis=2)).min() < 1e-2:
                continue
            try:
                inv = rc_inv(a)
            except SingularMatrixError:
                continue
            mats.append(a.data)
            quasi.append(quasidets_rc(a).data)
            invs.append(inv.data)
        checked += len(mats)
        a, quasi, invs = (np.reshape(m, (-1, 2, 2, alg.dim)) for m in (mats, quasi, invs))

        def mul(x, y):
            return _kernels.rc_contract(alg.table, x[..., None, None, :], y[..., None, None, :])[..., 0, 0, :]

        closed = a - mul(mul(a[:, :, ::-1], inv_stack(alg, a[:, ::-1, ::-1])[0]), a[:, ::-1])
        for got, want in ((quasi, closed), (invs.swapaxes(1, 2), inv_stack(alg, closed)[0])):
            gaps += np.sqrt(((got - want) ** 2).sum(axis=-1)).ravel().tolist()
    resid = worst(gaps)
    return Report(verdict=resid <= 1e-9, residual=resid, metrics={"matrices": checked})


def _per_matrix_rank_demo(opt):
    """rank-demo as one bordered_quasidet call per bordered minor."""
    alg = make_algebra("quaternion")
    rng = np.random.default_rng(opt.seed)
    gaps = []
    ranks_ok = True
    for _ in range(10):
        u = [random_element(alg, rng) for _ in range(3)]
        v = [random_element(alg, rng) for _ in range(3)]
        a = BiMatrix.from_elements([[u[i] * v[j] for j in range(3)] for i in range(3)])
        k, sel = rc_rank(a)
        ranks_ok = ranks_ok and k == 1
        for p in range(3):
            for r in range(3):
                if p not in sel.rows and r not in sel.cols:
                    gaps.append(bordered_quasidet(a, sel, p, r).norm())
    resid = worst(gaps)
    return Report(verdict=ranks_ok and resid <= 1e-8, residual=resid, metrics={"ranks_all_one": ranks_ok})


def _per_call_solve_system(opt):
    """solve-quaternion-system as one solve_rc and one rc_mul call per system."""
    alg = make_algebra("quaternion")
    rng = np.random.default_rng(opt.seed)
    gaps = []
    for _ in range(20):
        a = random_matrix(alg, 3, 3, rng)
        b = [random_element(alg, rng) for _ in range(3)]
        x = solve_rc(a, b)
        col = BiMatrix.from_elements([[e] for e in x])
        diff = rc_mul(a, col) - BiMatrix.from_elements([[e] for e in b])
        gaps.append(float(np.abs(diff.data).max()))
    resid = worst(gaps)
    return Report(verdict=resid <= 1e-8, residual=resid)


def _bordered_minor(data, sel, p, r):
    """The minor of one (m, n, d) matrix bordered by row p and column r, and the position of (p, r) in it."""
    rows = sorted(sel.rows + (p,))
    cols = sorted(sel.cols + (r,))
    return data[np.ix_(rows, cols)], rows.index(p), cols.index(r)


def _per_call_rank_demo(opt):
    """rank-demo as one rc_rank and one stacked bordered-minor call per matrix of Element products."""
    alg = make_algebra("quaternion")
    rng = np.random.default_rng(opt.seed)
    gaps = []
    ranks_ok = True
    for _ in range(10):
        u = [random_element(alg, rng) for _ in range(3)]
        v = [random_element(alg, rng) for _ in range(3)]
        a = BiMatrix.from_elements([[u[i] * v[j] for j in range(3)] for i in range(3)])
        k, sel = rc_rank(a)
        ranks_ok = ranks_ok and k == 1
        border = [_bordered_minor(a.data, sel, p, r) for p in range(3) if p not in sel.rows
                  for r in range(3) if r not in sel.cols]
        minors, rows, cols = zip(*border)
        quasi = biring._quasidets(alg.table, np.stack(minors), np.array(rows), np.array(cols))
        gaps += [Element._trusted(alg, q).norm() for q in quasi]
    resid = worst(gaps)
    return Report(verdict=ranks_ok and resid <= 1e-8, residual=resid, metrics={"ranks_all_one": ranks_ok})


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name, reference", [("solve-quaternion-system", _per_call_solve_system),
                                             ("rank-demo", _per_call_rank_demo)])
def test_stacked_solve_and_rank_scenarios_match_their_per_call_loops(name, reference, seed):
    got, _ = run_scenario(name, Options(seed=seed))
    assert repr(got) == repr(reference(Options(seed=seed)))
    assert got.verdict


def test_solve_scenario_raises_the_first_failed_system(monkeypatch):
    """A failed system ends the scenario in its own typed error, the first in draw order."""
    def solve(table, data, rhs):
        return np.zeros(rhs.shape), {3: AlgebraError("right-hand side is not finite"),
                                      7: SingularMatrixError("rc-singular")}

    monkeypatch.setattr(biring, "_solve", solve)
    with pytest.raises(AlgebraError, match="right-hand side"):
        run_scenario("solve-quaternion-system", Options(seed=0))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name, reference", [("quasidet-2x2", _per_matrix_quasidet_2x2),
                                             ("rank-demo", _per_matrix_rank_demo)])
def test_stacked_scenarios_match_their_per_matrix_loops(name, reference, seed):
    """The reports are equal, residual bits included (json writes the shortest exact repr)."""
    got, _ = run_scenario(name, Options(seed=seed))
    want = reference(Options(seed=seed))
    assert json.dumps(got.to_data()) == json.dumps(want.to_data())
    assert got.verdict


@pytest.mark.parametrize("seed", [1171915987, 2070104270])
def test_quasidet_2x2_judges_its_gaps_relative_to_their_sizes(capsys, seed):
    # 1171915987 draws a real member with cond_2 1.4e4, whose inverse entries
    # differ by 1.98e-9; 2070104270 one with cond_2 9.5e5, whose entries of
    # 6.3e5 differ by 9.2e-6: rounding, above an absolute 1e-9
    report, _ = run_scenario("quasidet-2x2", Options(seed=seed))
    assert report.verdict and report.residual > 1e-9
    assert main(["run", "quasidet-2x2", "--seed", str(seed)]) == 0


@pytest.mark.parametrize("routine", ["_inverse", "_quasidets"])
def test_quasidet_2x2_refutes_one_entry_a_millionth_off(monkeypatch, routine):
    """One entry of the best-conditioned member of each algebra, 1e-6 relative off, fails."""
    inverse, real = biring._inverse, getattr(biring, routine)

    def perturbed(table, data, *pairs):
        out = real(table, data, *pairs)
        members = data if routine == "_inverse" else data[::4]  # four (i, j) pairs per member
        invs, failed = inverse(table, members)
        largest = np.sqrt((invs ** 2).sum(axis=-1)).max(axis=(1, 2))
        largest[list(failed)] = np.inf
        best = int(np.argmin(largest))
        if routine == "_inverse":
            out[0][best, 0, 0] *= 1.0 + 1e-6
        else:
            out[4 * best] *= 1.0 + 1e-6  # its (0, 0) quasideterminant
        return out

    monkeypatch.setattr(biring, routine, perturbed)
    report, _ = run_scenario("quasidet-2x2", Options(seed=0))
    assert not report.verdict and 1e-9 < report.residual < 1e-4


# ---------------------------------------------------------------------------
# the stacked exponent scenarios against the per-call loops they replaced


def _per_call_exp_properties(opt):
    """exp-properties as one exp_el call per exponential."""
    alg = make_algebra("quaternion")
    rng = np.random.default_rng(opt.seed)
    gaps = []
    for _ in range(10):
        a = random_element(alg, rng)
        f = float(rng.uniform(-2, 2))
        b = Element(alg, a.coeffs * f)
        gaps.append((exp_el(a + b) - exp_el(a) * exp_el(b)).norm())
    for _ in range(10):
        a = random_element(alg, rng)
        x = random_element(alg, rng)
        gaps.append((a * exp_el(x * a) - exp_el(a * x) * a).norm())
    resid = worst(gaps)
    i, j = basis(alg, 1), basis(alg, 2)
    gap = (exp_el(i + j) - exp_el(i) * exp_el(j)).norm()
    return Report(verdict=resid <= 1e-10 and gap > 1e-3, residual=resid,
                  metrics={"noncommuting_gap": gap, "pairs_checked": 20})


def _per_call_euler_gap(f):
    """The worst Euler-split gap with one exp_el, sinh_el and cosh_el call per use."""
    gaps = []
    for t in (0.1, 0.5, 1.0, 2.0):
        tf = f * t
        esh = 0.5 * (exp_el(tf) - exp_el(-tf))
        ech = 0.5 * (exp_el(tf) + exp_el(-tf))
        gaps += [(sinh_el(tf) - esh).norm(), (cosh_el(tf) - ech).norm(),
                 (sinh_el(tf) * f - f * sinh_el(tf)).norm(), (cosh_el(tf) * f - f * cosh_el(tf)).norm()]
    return worst(gaps)


def _euler_fs():
    real, quat = make_algebra("real"), make_algebra("quaternion")
    i, j, k = basis(quat, 1), basis(quat, 2), basis(quat, 3)
    return [one(real), i, (i + j) * (1 / np.sqrt(2)), 2 * k]


@pytest.mark.parametrize("seed", range(8))
def test_stacked_exp_properties_matches_the_per_call_loop(seed):
    got, _ = run_scenario("exp-properties", Options(seed=seed))
    assert repr(got) == repr(_per_call_exp_properties(Options(seed=seed)))
    assert got.verdict


def test_stacked_euler_gaps_match_the_per_call_loop():
    fs = _euler_fs()
    for f in fs:
        resid, holds = cli._euler_gap(f.algebra, f)
        assert repr(resid) == repr(_per_call_euler_gap(f)) and holds
    for name, group in (("euler-hyperbolic", fs[:1]), ("euler-quaternion", fs[1:])):
        resid = worst(_per_call_euler_gap(f) for f in group)
        got, _ = run_scenario(name, Options())
        assert repr(got) == repr(Report(verdict=resid <= 1e-10, residual=resid))


# ---------------------------------------------------------------------------
# the curve scenarios that read their states in stacks, against the per-curve loops they replaced


def _per_system_ode_forms(opt):
    """ode-forms-cross-check with one closed-form and one RK4 curve per system."""
    alg = make_algebra("quaternion")
    rng = np.random.default_rng(opt.seed)
    ts = np.linspace(0.0, 1.0, 11)
    gaps, resids = [], []
    for form in OdeForm:
        for _ in range(3):
            a = random_matrix(alg, 2, 2, rng, scale=0.5)
            init = tuple(random_element(alg, rng) for _ in range(2))
            ode = LinearOde(a, form, init)
            closed = closed_form_solution(ode)
            rk = rk4_integrate(ode, 1.0, 10_000)
            gaps += [Element._trusted(alg, g).norm() for g in (closed.values(ts) - rk.values(ts)).reshape(-1, alg.dim)]
            resids.append(solution_residual(ode, closed, (0.0, 0.5, 1.0)).residual)
    worst_gap, worst_resid = worst(gaps), worst(resids)
    verdict = worst_gap <= 1e-6 and worst_resid <= 1e-6
    return Report(verdict=verdict, residual=worst_gap, metrics={"closed_form_residual": worst_resid})


def _per_call_elliptic_nonunique(opt):
    """elliptic-nonunique with single curve(t) reads for its initial value and its t = 1 states."""
    alg = make_algebra("quaternion")
    ode = elliptic_ode(alg)
    ts = (0.0, 0.5, 1.0, 2.0)
    rk = rk4_integrate(ode, 2.0, 20000)
    two = elliptic_two_exp_curve(alg)
    r_rk = solution_residual(ode, rk, ts)
    r_two = solution_residual(ode, two, ts)
    init_gap = worst((a - b).norm() for a, b in zip(two(0.0), ode.init))
    diff_at_1 = worst((a - b).norm() for a, b in zip(rk(1.0), two(1.0)))
    verdict = r_rk.verdict and r_two.verdict and init_gap == 0.0 and diff_at_1 > 0.1
    return Report(verdict=verdict, residual=worst((r_rk.residual, r_two.residual)),
                  metrics={"rk4_residual": r_rk.residual, "two_exp_residual": r_two.residual,
                           "init_gap": init_gap, "difference_at_t1": diff_at_1,
                           "note": "curves coincide: e^{bt} = cos t + b sin t collapses the combination"})


def _per_call_elliptic_family(opt):
    """elliptic-family with a single curve(0) read for each initial value."""
    alg = make_algebra("quaternion")
    ode = elliptic_ode(alg)
    ts = (0.0, 0.5, 1.0, 2.0)
    gaps, init_gaps = [], []
    for c in (zero(alg), one(alg), basis(alg, 1)):
        curve = elliptic_family(c)
        gaps.append(solution_residual(ode, curve, ts).residual)
        init_gaps += [(a - b).norm() for a, b in zip(curve(0.0), ode.init)]
    resid, init_gap = worst(gaps), worst(init_gaps)
    return Report(verdict=resid <= 1e-6 and init_gap <= 1e-12, residual=resid, metrics={"init_gap": init_gap})


@pytest.mark.parametrize("seed", range(8))
def test_stacked_ode_forms_matches_the_per_system_loop(seed):
    """The reports are equal, residual bits included (json writes the shortest exact repr)."""
    got, _ = run_scenario("ode-forms-cross-check", Options(seed=seed))
    want = _per_system_ode_forms(Options(seed=seed))
    assert json.dumps(got.to_data()) == json.dumps(want.to_data())
    assert got.verdict


def test_the_cross_check_exponentiates_each_distinct_time_once(monkeypatch):
    # 10 nonzero grid times and 8 nonzero probe times, of which 0.5 and 1.0
    # are grid times too: 16 distinct times for each of the 12 systems
    shapes = []
    grid = diffeq._expm_grid
    monkeypatch.setattr(diffeq, "_expm_grid", lambda m, ts: shapes.append((len(m), len(ts))) or grid(m, ts))
    report, _ = run_scenario("ode-forms-cross-check", Options(seed=0))
    assert report.verdict and shapes == [(12, 16)]


@pytest.mark.parametrize("name, reference", [("elliptic-nonunique", _per_call_elliptic_nonunique),
                                             ("elliptic-family", _per_call_elliptic_family)])
def test_elliptic_scenarios_match_their_per_call_reads(name, reference):
    got, _ = run_scenario(name, Options())
    assert json.dumps(got.to_data()) == json.dumps(reference(Options()).to_data())


def test_exponent_identities_are_judged_relative_to_their_sides():
    # at |f t| up to 40 the exponentials reach e^40 ~ 2e17: the rounding of
    # exact identities is far above an absolute 1e-10, but not relative to
    # the sides
    quat = make_algebra("quaternion")
    resid, holds = cli._euler_gap(quat, 20.0 * basis(quat, 3) + 20.0 * one(quat))
    assert resid > 1e-10 and holds
    a = 30.0 * random_element(quat, np.random.default_rng(5)) + 20.0 * one(quat)
    b = 0.5 * a
    resid, holds = cli._identities([(exp_el(a + b), exp_el(a) * exp_el(b))])
    assert resid > 1e-10 and holds
    # a false identity is refuted at every scale
    i, j = basis(quat, 1), basis(quat, 2)
    for s in (1e-3, 1.0, 30.0):
        resid, holds = cli._identities([(exp_el(s * (i + j)), exp_el(s * i) * exp_el(s * j))])
        assert not holds
    assert not cli._identities([(one(quat), Element(quat, [math.nan] * 4))])[1]
    # the rule is algebra.close's, at every scale short of overflow
    rng = np.random.default_rng(6)
    for scale in (1e-200, 1e-5, 1.0, 1e5, 1e200):
        for rel in np.logspace(-12, -8, 9):
            lhs = scale * random_element(quat, rng)
            rhs = lhs + rel * scale * random_element(quat, rng)
            assert cli._identities([(lhs, rhs)])[1] == lhs.close(rhs, cli.IDENTITY_RTOL)
    # judged in one pass, every side alone and every run of sides gets the gap bytes and the
    # verdict of two Element subtractions and four norms per side, over R, C and H: random sides
    # at 10^+-300 that hold, nearly hold or fail, zero sides, a -0.0 coefficient, NaN and +-inf
    # sides, and sides whose norms pass 2^1000, where algebra.close rescales
    def per_pair(sides):
        return (worst((lhs - rhs).norm() for lhs, rhs in sides),
                all(lhs.close(rhs, cli.IDENTITY_RTOL) for lhs, rhs in sides))

    for tag in ("real", "complex", "quaternion"):
        alg = make_algebra(tag)

        def el(*coeffs):
            return Element(alg, np.resize(np.array(coeffs, dtype=float), alg.dim))

        sides = []
        for scale in (1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300, 1e305):
            for rel in (0.0, 1e-12, 1e-10, 1e-8, 1.0):
                lhs = scale * random_element(alg, rng)
                sides.append((lhs, lhs + rel * scale * random_element(alg, rng)))
        x = random_element(alg, rng)
        sides += [(zero(alg), zero(alg)), (zero(alg), x), (x, zero(alg)), (el(-0.0, 1.0), el(0.0, 1.0)),
                  (el(-0.0), zero(alg)), (el(math.nan), one(alg)), (one(alg), el(1.0, math.nan)),
                  (el(math.inf), el(math.inf)), (el(-math.inf), one(alg)), (el(1.0, -math.inf), el(1.0, math.inf)),
                  (el(1.7e308), el(-1.7e308)), (el(1.7e308, 1.7e308), el(1.7e308, 1.7e308)),
                  (el(1e308), el(1e308 * (1 + 1e-12))), (el(6e307, 6e307), el(6e307, 6e307 * (1 + 1e-11)))]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and 1.7e308 + 1.7e308, on both sides
            for run in [[side] for side in sides] + [sides[t:t + 7] for t in range(0, len(sides), 7)] + [sides]:
                (gap, holds), (want_gap, want_holds) = cli._identities(run), per_pair(run)
                assert np.float64(gap).tobytes() == np.float64(want_gap).tobytes() and holds == want_holds, run
            verdicts = [per_pair([side])[1] for side in sides]
        assert any(verdicts[:40]) and not all(verdicts[:40]) and any(verdicts[-4:])
