import json
import math

import numpy as np
import pytest

from ncalg import cli, tensor
from ncalg.algebra import AlgebraError, Element, NotInvertibleError
from ncalg.biring import BiMatrix, QuasideterminantUndefinedError, SingularMatrixError
from ncalg.cli import SCENARIOS, Options, Scenario, list_scenarios, main, run_scenario
from ncalg.diffeq import SolutionCurve
from ncalg.series import SeriesBudgetError

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

    def test_nan_quasideterminants_fail(self, monkeypatch):
        monkeypatch.setattr(cli, "quasidets_rc", lambda a: BiMatrix(a.algebra, np.full(a.data.shape, np.nan)))
        report, _ = run_scenario("quasidet-2x2", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)

    def test_nan_solution_fails(self, monkeypatch):
        nan = lambda a: Element(a.algebra, [np.nan] * a.algebra.dim)
        monkeypatch.setattr(cli, "solve_rc", lambda a, b: [nan(a)] * len(b))
        report, _ = run_scenario("solve-quaternion-system", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)

    def test_nan_rk4_curve_fails_the_cross_check(self, monkeypatch):
        # an unstable RK4 starts at x(0) and overflows to NaN after it, so the
        # first gap is 0 and every later one NaN
        def nan_curve(ode, t_end, steps):
            nan = Element(ode.algebra, [np.nan] * ode.algebra.dim)
            return SolutionCurve(lambda t: ode.init if t == 0.0 else (nan,) * ode.size, "rk4")

        monkeypatch.setattr(cli, "rk4_integrate", nan_curve)
        report, _ = run_scenario("ode-forms-cross-check", Options(seed=0))
        assert not report.verdict and math.isnan(report.residual)
