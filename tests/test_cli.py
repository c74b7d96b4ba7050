import json
import math

import numpy as np
import pytest

from ncalg import cli
from ncalg.algebra import AlgebraError, Element
from ncalg.biring import BiMatrix, QuasideterminantUndefinedError, SingularMatrixError
from ncalg.cli import SCENARIOS, Options, Scenario, list_scenarios, main, run_scenario
from ncalg.series import SeriesBudgetError

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
        "name",
        ["quasidet-2x2", "solve-quaternion-system", "rank-demo", "integrability-x2",
         "exact-723", "exact-724", "exact-725", "separable-712", "exp-properties",
         "quasiexp-demo", "euler-quaternion", "elliptic-family"],
    )
    def test_scenario_verdicts(self, name):
        report, payload = run_scenario(name, Options())
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
        code = main(["run", "integrability-3xx", "--algebra", "complex", "--probes", "8"])
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("scenario, probes", [("integrability-x2", "0"),
                                                  ("separable-712", "-3"),
                                                  ("integrability-3xx", "0")])
    def test_probe_count_below_one_is_a_usage_error(self, capsys, scenario, probes):
        # with no probe a checker would print a vacuous PASS
        with pytest.raises(SystemExit) as exit_info:
            main(["run", scenario, "--probes", probes, "--algebra", "quaternion"])
        assert exit_info.value.code == 2
        assert "--probes" in capsys.readouterr().err


class TestExactnessWitness:
    """A refuted exactness check reports the probe of the failing condition."""

    def test_724_witness_is_the_symmetry_failure(self):
        report, payload = run_scenario("exact-724", Options(seed=0, algebra="quaternion"))
        assert payload["witness"]["condition"] == "sym_x"
        assert payload["witness"]["violation"] == report.residual == report.metrics["sym_x"]

    def test_725_witness_is_the_cross_failure(self):
        report, payload = run_scenario("exact-725", Options(seed=0, algebra="quaternion"))
        assert payload["witness"]["condition"] == "cross"
        assert payload["witness"]["violation"] == report.residual == report.metrics["cross"]


TYPED_ERRORS = (SeriesBudgetError, SingularMatrixError, QuasideterminantUndefinedError, AlgebraError)


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
