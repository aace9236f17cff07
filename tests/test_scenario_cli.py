import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import deferral as d
from conftest import point_mass
from deferral.cli import main
from deferral.reproduce import load_bundled_scenario, run_case


def _write(tmp_path: Path, name: str, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _single_agent_scenario(**overrides):
    data = {
        "mode": "single_agent",
        "x_max": 8.0,
        "steps": 800,
        "x_s": 4.0,
        "agent": {
            "utility": {"variant": "quadratic", "a": 2.0, "b": 4.0, "k": 5.0},
            "c1": {"variant": "linear", "d": 7.0},
            "c2": {"variant": "linear", "d": 4.0},
            "beliefs": [[[10.0, 1.0]]],
        },
    }
    data.update(overrides)
    return data


class TestLoader:
    def test_bundled_scenarios_load(self):
        for name in ("akerlof", "example42", "trap", "singleton"):
            scenario = load_bundled_scenario(name)
            assert scenario.mode in ("game", "single_agent")

    def test_single_agent_round_trip(self, tmp_path):
        path = _write(tmp_path, "s.json", _single_agent_scenario())
        scenario = d.load_scenario(path)
        assert scenario.x_social == 4.0
        assert scenario.grid == d.Grid(8.0, 800)
        assert scenario.agent.c1 == d.LinearCost(7.0)

    def test_default_steps(self, tmp_path):
        data = _single_agent_scenario()
        del data["steps"]
        scenario = d.load_scenario(_write(tmp_path, "s.json", data))
        assert scenario.grid.steps == 4000

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(d.ScenarioError):
            d.load_scenario(path)

    def test_invalid_agent_reports_code(self, tmp_path):
        data = _single_agent_scenario()
        data["agent"]["utility"]["a"] = 0.0
        with pytest.raises(d.ScenarioError, match="NonPositiveCurvature"):
            d.load_scenario(_write(tmp_path, "s.json", data))

    def test_missing_key_rejected(self, tmp_path):
        data = _single_agent_scenario()
        del data["x_s"]
        with pytest.raises(d.ScenarioError, match="x_s"):
            d.load_scenario(_write(tmp_path, "s.json", data))

    def test_game_scenario(self, tmp_path):
        game = load_bundled_scenario("akerlof").game
        assert game.n == 2
        assert game.agents[0].c1 == d.LinearCost(4.0)

    @pytest.mark.parametrize("index", range(3))
    def test_every_variant_round_trips(self, index, tmp_path):
        scenario = _every_variant()[index]
        assert d.load_scenario(_write(tmp_path, "s.json", _scenario_json(scenario))) == scenario

    def test_profile_loader(self, tmp_path):
        path = _write(tmp_path, "p.json", {"profile": [1.0, 2.0]})
        assert d.load_profile(path) == (1.0, 2.0)
        with pytest.raises(d.ScenarioError):
            d.load_profile(_write(tmp_path, "q.json", {"profile": []}))


def _utility_json(u):
    if isinstance(u, d.Quadratic):
        return {"variant": "quadratic", "a": u.a, "b": u.b, "k": u.k}
    return {"variant": "tabulated", "values": list(u.values)}


def _cost_json(c):
    if isinstance(c, d.LinearCost):
        # slope 0 is written as the zero variant, which loads as LinearCost(0.0)
        return {"variant": "zero"} if c.d == 0 else {"variant": "linear", "d": c.d}
    return {"variant": "power", "d": c.d, "p": c.p}


def _agent_json(agent):
    form = agent.form
    return {
        "utility": _utility_json(agent.utility),
        "c1": _cost_json(agent.c1),
        "c2": _cost_json(agent.c2),
        "beliefs": [[list(atom) for atom in b.atoms] for b in agent.beliefs],
        "form": {"w_u": form.w_u, "w_1": form.w_1, "w_2": form.w_2},
    }


def _scenario_json(scenario):
    """The JSON that ``parse_scenario`` reads back as ``scenario``."""
    data = {"mode": scenario.mode, "x_max": scenario.grid.x_max, "steps": scenario.grid.steps}
    for key, value in (("tolerance", scenario.tolerance), ("output_dir", scenario.output_dir)):
        if value is not None:
            data[key] = value
    if scenario.mode == "single_agent":
        return {**data, "x_s": scenario.x_social, "agent": _agent_json(scenario.agent)}
    game = scenario.game
    agg = game.choice_aggregator
    choice = ({"variant": "mean"} if isinstance(agg, d.MeanChoice)
              else {"variant": "weighted", "weights": list(agg.weights)})
    weights = game.belief_aggregator.weights
    return {**data, "agents": [_agent_json(a) for a in game.agents], "choice_aggregator": choice,
            "belief_aggregator": {"variant": "mixture",
                                  "weights": None if weights is None else list(weights)}}


def _every_variant():
    """Scenarios that between them use every utility, cost, form and aggregator variant."""
    grid = d.Grid(4.0, 8)
    tabulated = d.Tabulated((0.0, 1.0, 2.0, 3.0, 4.0, 3.5, 2.0, 1.0, 0.0), grid)
    beliefs = (d.FiniteRandomVariable(((1.0, 0.25), (3.0, 0.75))), point_mass(2.0))
    agents = (
        d.AgentSpec(d.Quadratic(2.0, 4.0, 5.0), d.LinearCost(1.5), d.LinearCost(0.0), beliefs),
        d.AgentSpec(tabulated, d.PowerCost(2.0, 1.5), d.LinearCost(0.5), beliefs,
                    d.ComprehensiveUtilityForm(1.0, 0.0, 2.0)),
        d.AgentSpec(d.Quadratic(1.0, 3.0), d.LinearCost(0.0), d.PowerCost(1.0, 2.0), beliefs,
                    d.ComprehensiveUtilityForm(0.5, 1.0, 0.25)),
    )
    return [
        d.Scenario("single_agent", grid, None, None, x_social=2.5, agent=agents[1]),
        d.Scenario("game", grid, 0.5, "out", game=d.GameSpec(
            agents, choice_aggregator=d.WeightedChoice((0.5, 0.25, 0.25)),
            belief_aggregator=d.BeliefMixture((0.25, 0.75)))),
        d.Scenario("game", grid, None, None, game=d.GameSpec(
            tuple(replace(a, beliefs=beliefs[:1]) for a in agents[1:]))),
    ]


def _loss(tmp_path, standard, deferred) -> int:
    """Exit code of ``deferral loss`` on the belief-heavy game at 800 steps."""
    agent = {
        "utility": {"variant": "quadratic", "a": 2.0, "b": 4.0, "k": 5.0},
        "c1": {"variant": "linear", "d": 4.0},
        "beliefs": [[[40.0, 1.0]]],
    }
    game_data = {
        "mode": "game",
        "x_max": 40.0,
        "steps": 800,
        "agents": [{**agent, "c2": {"variant": "linear", "d": 7.0}},
                   {**agent, "c2": {"variant": "linear", "d": 16.0}}],
    }
    return main(["loss", _write(tmp_path, "g.json", game_data),
                 "--standard", _write(tmp_path, "standard.json", {"profile": standard}),
                 "--deferred", _write(tmp_path, "deferred.json", {"profile": deferred}),
                 "--output-dir", str(tmp_path / "out")])


class TestCliExitCodes:
    def test_choose_succeeds(self, tmp_path, capsys):
        scenario = _write(tmp_path, "s.json", _single_agent_scenario())
        code = main(["choose", scenario, "--output-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen" in out

    def test_validation_failure_is_2(self, tmp_path, capsys):
        data = _single_agent_scenario()
        data["agent"]["utility"]["a"] = -1.0
        scenario = _write(tmp_path, "s.json", data)
        assert main(["choose", scenario, "--output-dir", str(tmp_path / "out")]) == 2
        assert "NonPositiveCurvature" in capsys.readouterr().err

    def test_precondition_failure_is_3(self, tmp_path, capsys):
        data = _single_agent_scenario()
        data["agent"]["c1"] = {"variant": "zero"}
        scenario = _write(tmp_path, "s.json", data)
        assert main(["consider", scenario, "--output-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_io_failure_is_4(self, tmp_path, capsys):
        assert main(["choose", str(tmp_path / "missing.json")]) == 4

    def test_weights_leaving_an_agent_no_reference_is_2(self, tmp_path, capsys):
        data = json.loads(
            (Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json").read_text())
        data["steps"] = 40
        data["choice_aggregator"] = {"variant": "weighted", "weights": [1.0, 0.0]}
        scenario = _write(tmp_path, "g.json", data)
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "out")]) == 2
        assert "AggregatorWeightsInvalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_mode_is_2(self, tmp_path):
        scenario = _write(tmp_path, "s.json", _single_agent_scenario())
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "out")]) == 2

    def test_main_reuses_one_parser(self, tmp_path, capsys):
        from deferral.cli import _parser, build_parser

        assert _parser() is _parser()
        assert build_parser() is not build_parser()
        scenario = _write(tmp_path, "s.json", _single_agent_scenario())
        assert main(["consider", scenario, "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "b")]) == 2
        assert main(["certify", scenario, "--output-dir", str(tmp_path / "c")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "c", "s.json"]


_AKERLOF = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
_INF, _NAN = float("inf"), float("nan")


class TestNonFiniteAndOutOfRangeNumbers:
    @pytest.mark.parametrize("where", ["x_max", "c1", "form"])
    def test_non_finite_single_agent_number_is_2(self, where, tmp_path, capsys):
        data = _single_agent_scenario()
        if where == "x_max":
            data["x_max"] = _INF
        elif where == "c1":
            data["agent"]["c1"]["d"] = _INF
        else:
            data["agent"]["form"] = {"w_u": _INF}
        scenario = _write(tmp_path, "s.json", data)
        assert main(["choose", scenario, "--output-dir", str(tmp_path / "out")]) == 2
        assert "NonFiniteParameter" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["consider", "choose", "certify"])
    def test_utility_not_finite_on_the_grid_is_3(self, command, tmp_path, capsys):
        # valid coefficients whose values on the grid are inf − inf, which is NaN
        data = _single_agent_scenario(x_max=10.0, steps=8, x_s=2.0)
        data["agent"]["utility"] = {"variant": "quadratic", "a": 1e308, "b": 1e308, "k": 0.0}
        scenario = _write(tmp_path, "s.json", data)
        assert main([command, scenario, "--output-dir", str(tmp_path / "out")]) == 3
        assert "utility is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_power_current_distance_cost_certifies_as_linear_zero(self, tmp_path, capsys):
        # 0 · 8**400 is zero, though 8**400 overflows; consider and choose refuse slope 0 first
        errors = []
        for name, c1 in (("power", {"variant": "power", "d": 0.0, "p": 400.0}),
                         ("linear", {"variant": "linear", "d": 0.0})):
            data = _single_agent_scenario(steps=8, x_s=0.0)
            data["agent"]["c1"] = c1
            scenario = _write(tmp_path, f"{name}.json", data)
            assert main(["certify", scenario, "--output-dir", str(tmp_path / name)]) == 3
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / name).exists()
        assert errors[0] == errors[1]
        assert "needs a strictly increasing current-distance cost" in errors[0]

    def test_zero_power_future_distance_cost_chooses_as_linear_zero(self, tmp_path):
        # far from the belief at 0, 0 · δ**400 is zero though δ**400 overflows; x_hat is 1, not 0
        written = []
        for name, c2 in (("power", {"variant": "power", "d": 0.0, "p": 400.0}),
                         ("linear", {"variant": "linear", "d": 0.0})):
            data = _single_agent_scenario(steps=8, x_s=2.0)
            data["agent"].update(c1={"variant": "linear", "d": 1.0}, c2=c2, beliefs=[[[0.0, 1.0]]])
            scenario = _write(tmp_path, f"{name}.json", data)
            assert main(["choose", scenario, "--output-dir", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "choose.csv").read_text())
        assert written[0] == written[1]
        assert written[0].splitlines()[1].split(",")[3] == "1"

    def test_infinite_payoffs_need_a_tolerance(self, tmp_path, capsys):
        # 1 · 8**400 is inf, so the default one-step tolerance is not finite
        data = json.loads(_AKERLOF.read_text())
        data.update(steps=16)
        data["agents"][0]["c1"] = {"variant": "power", "d": 1.0, "p": 400.0}
        scenario = _write(tmp_path, "g.json", data)
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "out")]) == 3
        assert "pass a tolerance (--tolerance)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["equilibria", scenario, "--tolerance", "1e-9", "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("x_s", [_INF, _NAN, -1.0])
    def test_social_choice_out_of_range_is_2(self, x_s, tmp_path, capsys):
        scenario = _write(tmp_path, "s.json", _single_agent_scenario(x_s=x_s))
        assert main(["choose", scenario, "--output-dir", str(tmp_path / "out")]) == 2
        assert "x_s must be finite and nonnegative" in capsys.readouterr().err

    def test_non_finite_game_bound_is_2(self, tmp_path, capsys):
        data = json.loads(_AKERLOF.read_text())
        data["x_max"] = _INF
        scenario = _write(tmp_path, "g.json", data)
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "out")]) == 2
        assert "grid: x_max must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("x_max,message", [(-1.0, "must be > 0, got -1.0"),
                                               (_INF, "must be finite")])
    def test_game_bound_is_reported_once(self, x_max, message, tmp_path, capsys):
        # the grid's x_max is the only strategy bound, so only the grid reports it
        data = json.loads(_AKERLOF.read_text())
        data["x_max"] = x_max
        scenario = _write(tmp_path, "g.json", data)
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"grid: x_max {message}" in err
        assert err.count("x_max") == 1

    @pytest.mark.parametrize("tolerance", [-0.5, _NAN, _INF])
    def test_scenario_tolerance_out_of_range_is_2(self, tolerance, tmp_path, capsys):
        data = json.loads(_AKERLOF.read_text())
        data["tolerance"] = tolerance
        scenario = _write(tmp_path, "g.json", data)
        with pytest.raises(d.ScenarioError, match="tolerance must be a finite number >= 0"):
            d.load_scenario(scenario)
        assert main(["equilibria", scenario, "--output-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--tolerance", "-1"], ["--tolerance", "nan"], ["--tolerance", "inf"],
        ["--steps", "0"], ["--steps", "-4"],
    ])
    def test_override_out_of_range_is_2(self, flags, tmp_path, capsys):
        assert main(["equilibria", str(_AKERLOF), *flags,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert f"{flags[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep", ["nan:1:3", "0:inf:3", "-inf:1:3", "2:1:3", "0:1:1",
                                       "-1:1:3", "0:100:3", "8:8.5:2"])
    def test_bad_sweep_is_2(self, sweep, tmp_path, capsys):
        assert main(["best-response", str(_AKERLOF), "--steps", "40", "--agent", "1",
                     f"--sweep={sweep}", "--output-dir", str(tmp_path / "out")]) == 2
        assert "--sweep needs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep", ["0:8", "0:8:3:4", "x"])
    def test_sweep_without_three_parts_is_2(self, sweep, tmp_path, capsys):
        assert main(["best-response", str(_AKERLOF), "--steps", "40", "--agent", "1",
                     f"--sweep={sweep}", "--output-dir", str(tmp_path / "out")]) == 2
        assert "--sweep must be lo:hi:n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("agent", ["0", "3", "-1"])
    def test_agent_outside_the_game_is_2(self, agent, tmp_path, capsys):
        assert main(["best-response", str(_AKERLOF), "--steps", "40", "--agent", agent,
                     "--sweep", "0:8:3", "--output-dir", str(tmp_path / "out")]) == 2
        assert "--agent must be in 1..2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document,path,value,message", [
        ("scenario", ("agents", 0, "beliefs", 0, 0, 0), "x", "expected a number, got 'x'"),
        ("scenario", ("agents", 0, "beliefs", 0, 0, 0), None, "expected a number, got None"),
        ("scenario", ("agents", 0, "utility"), {"variant": "tabulated", "values": [0.0, "q"]},
         "values[1]: expected a number"),
        ("scenario", ("choice_aggregator",), {"variant": "weighted", "weights": ["a", 0.5]},
         "weights[0]: expected a number"),
        ("scenario", ("x_max",), 10 ** 400, "number too large for a float"),
        ("scenario", ("x_max",), -1, "x_max must be > 0"),
        ("scenario", ("agents", 0, "utility"), "quadratic", "utility: expected an object"),
        ("scenario", ("agents", 0, "form"), "oops", "form: expected an object"),
        ("profile", ("profile",), ["a", 1], "profile[0]: expected a number"),
        ("scenario", ("choice_aggregator",), {"variant": "weighted", "weights": 0.5},
         "weights: expected a list of numbers"),
        ("scenario", ("agents", 0, "utility"), {"variant": "cubic"}, "unknown utility variant 'cubic'"),
        ("scenario", ("agents", 0, "c1"), {"variant": "log"}, "unknown cost variant 'log'"),
        ("scenario", ("choice_aggregator",), {"variant": "median"}, "unknown variant 'median'"),
        ("scenario", ("belief_aggregator",), {"variant": "max"}, "unknown variant 'max'"),
        ("scenario", ("agents", 0, "beliefs"), [], "'beliefs' must be a nonempty list"),
        ("scenario", ("agents", 0, "beliefs", 0), 1.0, "expected [[value, prob], ...]"),
        ("scenario", ("agents", 0, "beliefs", 0, 0), [1.0], "each atom must be [value, prob]"),
        ("scenario", ("agents", 0), {}, "missing required key 'utility'"),
        ("scenario", ("mode",), "tournament", "mode must be 'single_agent' or 'game'"),
        ("scenario", ("output_dir",), 3, "output_dir must be a string"),
        ("scenario", ("mode",), "single_agent", "needs an 'agent' object"),
        ("scenario", ("agents",), json.loads(_AKERLOF.read_text())["agents"][:1],
         "'agents' list with at least two entries"),
    ], ids=["atom-string", "atom-null", "tabulated-value", "choice-weight", "huge-integer",
            "negative-bound", "utility-string", "form-string", "profile-entry", "weights-not-list",
            "utility-variant", "cost-variant", "choice-variant", "belief-variant", "no-beliefs",
            "belief-shape", "atom-shape", "empty-agent", "mode", "output-dir", "no-agent", "one-agent"])
    def test_malformed_document_is_2(self, document, path, value, message, tmp_path, capsys):
        docs = {"scenario": json.loads(_AKERLOF.read_text()), "profile": {"profile": [1.0, 1.0]}}
        *parents, last = path
        target = docs[document]
        for key in parents:
            target = target[key]
        target[last] = value
        scenario, profile = (_write(tmp_path, f"{k}.json", v) for k, v in docs.items())
        assert main(["loss", scenario, "--steps", "40", "--standard", profile,
                     "--deferred", profile, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "out").exists()

    def _tabulated_game(self, tmp_path):
        grid = d.Grid(4.0, 4)
        agent = d.AgentSpec(d.Tabulated((0.0, 2.0, 3.0, 2.0, 0.0), grid), d.LinearCost(1.0),
                            d.LinearCost(0.0), (point_mass(2.0),))
        scenario = d.Scenario("game", grid, None, None, game=d.GameSpec((agent, agent)))
        return _write(tmp_path, "g.json", _scenario_json(scenario))

    def test_steps_override_on_tabulated_utility_is_2(self, tmp_path, capsys):
        path = self._tabulated_game(tmp_path)
        assert main(["equilibria", path, "--steps", "8", "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --steps: agents[0]") and "tabulated on 4 steps" in err
        assert not (tmp_path / "out").exists()
        assert main(["equilibria", path, "--steps", "4", "--output-dir", str(tmp_path / "out")]) == 0


class TestGridTooLarge:
    """A grid whose points numpy cannot address, or whose points leave the
    float range, is refused at load; one that does not fit in memory exits 3.
    No test allocates the grid."""

    @pytest.mark.parametrize("steps", [10 ** 19, 10 ** 400])
    @pytest.mark.parametrize("command", ["equilibria", "choose"])
    def test_scenario_steps_is_2(self, command, steps, tmp_path, capsys):
        data = json.loads(_AKERLOF.read_text()) if command == "equilibria" else _single_agent_scenario()
        data["steps"] = steps
        scenario = _write(tmp_path, "s.json", data)
        assert main([command, scenario, "--output-dir", str(tmp_path / "out")]) == 2
        assert "GridTooLarge: grid: steps must be <=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("steps", [10 ** 19, 10 ** 400])
    def test_steps_override_is_2(self, steps, tmp_path, capsys):
        assert main(["equilibria", str(_AKERLOF), "--steps", str(steps),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "GridTooLarge: grid: steps must be <=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_addressable_grid_is_valid(self):
        limit = np.iinfo(np.intp).max // 8 - 1
        assert d.validate(d.Grid(8.0, limit)) == []
        assert [v.code for v in d.validate(d.Grid(8.0, limit + 1))] == ["GridTooLarge"]

    @pytest.mark.parametrize("x_max,steps", [(1e308, 10), (5e-324, 3)], ids=["overflow", "repeat"])
    def test_points_outside_the_float_range_are_refused(self, x_max, steps, tmp_path, capsys):
        # 1e308 · 10 overflows, and a 5e-324 / 3 step rounds neighbours together
        assert [v.code for v in d.validate(d.Grid(x_max, steps))] == ["GridOutOfFloatRange"]
        data = json.loads(_AKERLOF.read_text())
        data["x_max"], data["steps"] = x_max, steps
        assert main(["equilibria", _write(tmp_path, "s.json", data), "--output-dir", str(tmp_path / "out")]) == 2
        assert "GridOutOfFloatRange: grid: x_max·steps must be finite" in capsys.readouterr().err
        # from --steps on a scenario whose own grid is valid
        data["x_max"], data["steps"] = (1e308, 1) if x_max > 1 else (1e-307, 1)
        assert d.validate(d.Grid(data["x_max"], 1)) == []
        scenario = _write(tmp_path, "t.json", data)
        assert main(["equilibria", scenario, "--steps", "10", "--output-dir", str(tmp_path / "out")]) == 2
        assert "GridOutOfFloatRange" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_is_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("deferral.cli.find_equilibria", exhausted)
        assert main(["equilibria", str(_AKERLOF), "--steps", "40",
                     "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "steps" in err


class TestCliOutputs:
    def test_consider_writes_points(self, tmp_path):
        scenario = _write(tmp_path, "s.json", _single_agent_scenario())
        out = tmp_path / "out"
        assert main(["consider", scenario, "--output-dir", str(out)]) == 0
        lines = (out / "consideration.csv").read_text().splitlines()
        assert lines[0] == "x"
        values = [float(v) for v in lines[1:]]
        assert values[0] == 1.0 and values[-1] == 4.0

    def test_output_dir_precedence(self, tmp_path, monkeypatch):
        # --output-dir first, then the scenario's output_dir, then deferral_out in the working directory
        monkeypatch.chdir(tmp_path)
        pinned = _write(tmp_path, "pinned.json", _single_agent_scenario(output_dir="from_scenario"))
        plain = _write(tmp_path, "plain.json", _single_agent_scenario())
        for argv, where in (([pinned, "--output-dir", "from_flag"], "from_flag"),
                            ([pinned], "from_scenario"), ([plain], "deferral_out")):
            assert main(["consider", *argv]) == 0
            assert (tmp_path / where / "consideration.csv").is_file()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "deferral_out", "from_flag", "from_scenario"]

    def test_choose_csv_round_trips(self, tmp_path):
        scenario = _write(tmp_path, "s.json", _single_agent_scenario())
        out = tmp_path / "out"
        assert main(["choose", scenario, "--output-dir", str(out)]) == 0
        header, row = (out / "choose.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["chosen"]) == 3.75
        assert float(cells["trapped"]) == 0.0

    def test_singleton_scenario_chooses_peak(self, tmp_path):
        out = tmp_path / "out"
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/singleton.json"
        assert main(["choose", str(bundled), "--output-dir", str(out)]) == 0
        header, row = (out / "choose.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["chosen"]) == 1.0
        assert float(cells["trapped"]) == 0.0

    def test_certify_csv(self, tmp_path):
        scenario = _write(tmp_path, "s.json", _single_agent_scenario())
        out = tmp_path / "out"
        assert main(["certify", scenario, "--output-dir", str(out)]) == 0
        header, row = (out / "certify.csv").read_text().splitlines()
        assert header == "holds,selection_size,stage1_size"
        assert row.split(",")[0] == "1"

    def test_equilibria_csv_span(self, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
        out = tmp_path / "out"
        assert main(["equilibria", str(bundled), "--steps", "400",
                     "--output-dir", str(out)]) == 0
        lines = (out / "equilibria.csv").read_text().splitlines()
        assert lines[0] == "x_1,x_2,kind,max_regret"
        rows = [line.split(",") for line in lines[1:]]
        xs = [float(r[0]) for r in rows]
        assert min(xs) == 0.0 and max(xs) == 2.0
        assert all(r[0] == r[1] for r in rows)

    def test_equilibria_deferral_flag(self, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
        out = tmp_path / "out"
        assert main(["equilibria", str(bundled), "--steps", "400", "--deferral",
                     "--output-dir", str(out)]) == 0
        assert (out / "deferral_equilibria.csv").exists()

    def test_best_response_sweep(self, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
        out = tmp_path / "out"
        assert main(["best-response", str(bundled), "--steps", "800", "--agent", "1",
                     "--sweep", "0:8:17", "--output-dir", str(out)]) == 0
        lines = (out / "best_response_agent1.csv").read_text().splitlines()
        assert lines[0] == "opponent,best_response,tie_count"
        curve = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert curve[0.0] == 0.0 and curve[1.0] == 1.0 and curve[8.0] == 2.0

    def test_loss_command(self, tmp_path):
        assert _loss(tmp_path, [3.75, 4.0], [1.0, 1.0]) == 0
        header, row = (tmp_path / "out" / "loss.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["total"]) == 32.125

    def test_loss_gate_failure_is_3(self, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
        standard = _write(tmp_path, "standard.json", {"profile": [1.0, 1.0]})
        deferred = _write(tmp_path, "deferred.json", {"profile": [1.5, 1.5]})
        assert main(["loss", str(bundled), "--steps", "400", "--standard", standard,
                     "--deferred", deferred, "--output-dir", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("standard,deferred,code", [
        ([0.0, 40.0], [1.0, 1.0], "StandardKindMismatch"),
        ([3.75, 4.0], [0.0, 40.0], "DeferredKindMismatch"),
    ])
    def test_loss_non_equilibrium_profile_is_3(self, standard, deferred, code, tmp_path, capsys):
        assert _loss(tmp_path, standard, deferred) == 3
        assert code in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_loss_checks_the_standard_kind_first(self, tmp_path, capsys):
        # (1, 1) is an equilibrium of both kinds, so it is no pure standard one
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
        standard = _write(tmp_path, "standard.json", {"profile": [1.0, 1.0]})
        deferred = _write(tmp_path, "deferred.json", {"profile": [0.0, 2.0]})
        assert main(["loss", str(bundled), "--steps", "400", "--standard", standard,
                     "--deferred", deferred, "--output-dir", str(tmp_path / "out")]) == 3
        assert "StandardKindMismatch" in capsys.readouterr().err

    def test_loss_off_grid_tabulated_profile_is_2(self, tmp_path, capsys):
        grid = d.Grid(8.0, 40)
        data = _scenario_json(d.Scenario("game", grid, None, None, game=d.GameSpec(
            (d.AgentSpec(d.Tabulated(tuple(-(x - 3.0) ** 2 for x in grid.points.tolist()), grid),
                         d.LinearCost(1.0), d.LinearCost(0.0), (point_mass(3.0),)),) * 2)))
        scenario = _write(tmp_path, "g.json", data)
        standard = _write(tmp_path, "standard.json", {"profile": [3.05, 3.0]})
        deferred = _write(tmp_path, "deferred.json", {"profile": [3.0, 3.0]})
        assert main(["loss", scenario, "--standard", standard, "--deferred", deferred,
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "standard.json" in err and "agents[0]" in err and "3.05" in err

    def test_loss_nan_profile_is_2(self, tmp_path, capsys):
        assert _loss(tmp_path, [_NAN, 1.0], [1.0, 1.0]) == 2
        err = capsys.readouterr().err
        assert "standard.json" in err and "choice nan outside" in err

    def test_tolerance_override(self, tmp_path):
        # a tolerance above every regret makes every profile an equilibrium
        bundled = Path(__file__).resolve().parents[1] / "src/deferral/scenarios/akerlof.json"
        out = tmp_path / "out"
        assert main(["equilibria", str(bundled), "--steps", "40", "--tolerance", "1e9",
                     "--output-dir", str(out)]) == 0
        assert len((out / "equilibria.csv").read_text().splitlines()) == 1 + 41 * 41

    def test_python_m_deferral(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(d.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "deferral", "reproduce", "--case", "trap",
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "case trap: oracle vs reference" in done.stdout
        assert (tmp_path / "out" / "trap_report.csv").exists()


#: SHA-256 of every CSV that ``run_case`` writes; a change to any of these
#: bytes must be deliberate.
REPRODUCE_DIGESTS = {
    "akerlof": {
        "best_response_agent1.csv": "e935a69074a3d7bc59c819593db455191465321d50816a4b4adfad1faa657fe2",
        "best_response_agent2.csv": "e935a69074a3d7bc59c819593db455191465321d50816a4b4adfad1faa657fe2",
        "deferral_equilibria.csv": "a34a9cf6e13b2e4294ca760b3b9db1f3af097b09400334d5fb6edb22df50439d",
        "discrepancy.csv": "fc7cebf5ee82399ab4b3fc32884b4f894b8c7a9d2da7a3f5317f2ac76fd87d9f",
        "equilibria.csv": "a34a9cf6e13b2e4294ca760b3b9db1f3af097b09400334d5fb6edb22df50439d",
    },
    "example42": {
        "best_response_agent1.csv": "fd1ef74ea62a1a49f164527805d07f24f0f5b9083e56231d8552ff5e84f02f91",
        "best_response_agent2.csv": "92a24c40ec8efc63f41e608b0a7fbea3d2e319954172e55631aec8afb8437184",
        "deferral_equilibria.csv": "d1a14bb9bb037c29bec95d4cc67aa352f6eacec9fc0d2edf65a657d3334320a6",
        "discrepancy.csv": "f8dccb61613f40337c97195ffd67c83cbc1c5d3e229eb57d069f58be30d89316",
        "equilibria.csv": "d1a14bb9bb037c29bec95d4cc67aa352f6eacec9fc0d2edf65a657d3334320a6",
    },
    "trap": {
        "discrepancy.csv": "e0747c24dcdcdb617b70054a09f46a3e7dec771a29c5363fefd24d39ec6cd528",
        "trap_report.csv": "2057e537e62d1deaddc74bec63c77c199a7fb089d004903d5f9f9c58bef7b149",
    },
}


class TestReproduce:
    @pytest.mark.parametrize("case", sorted(REPRODUCE_DIGESTS))
    def test_reproduce_bytes_are_pinned(self, case, tmp_path):
        result = run_case(case, tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in result.files}
        assert digests == REPRODUCE_DIGESTS[case]

    def test_trap_case(self, tmp_path):
        result = run_case("trap", tmp_path / "trap")
        quantities = {r.quantity: r for r in result.rows}
        assert quantities["x_hat"].oracle == 3.25
        assert quantities["trapped"].oracle == 1.0
        assert (tmp_path / "trap" / "discrepancy.csv").exists()
        assert (tmp_path / "trap" / "trap_report.csv").exists()

    def test_example42_report_rows(self, tmp_path):
        result = run_case("example42", tmp_path / "e42")
        quantities = {r.quantity: r for r in result.rows}
        # oracle-vs-reference columns for the constants under comparison
        assert quantities["b1_low_plateau"].reference == 1.75
        assert quantities["b2_low_plateau"].reference == 4.0
        assert quantities["welfare_gap_total_vs_1_1"].reference == 32.125
        assert quantities["welfare_gap_total_vs_1.5_1.5"].reference == 21.625
        assert quantities["deferral_diagonal_min"].reference == 1.0
        assert quantities["deferral_diagonal_max"].reference == 3.75
        # agreement recorded where the readings coincide
        assert quantities["b1_high_plateau"].oracle == 3.75
        assert quantities["reference_pair_is_after_deferral"].oracle == 0.0
        csv_text = (tmp_path / "e42" / "discrepancy.csv").read_text()
        assert csv_text.startswith("quantity,oracle_value,reference_value,note")

    def test_reproduce_cli(self, tmp_path, capsys):
        assert main(["reproduce", "--case", "trap", "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "reference" in out
