"""Scenario files: JSON descriptions of single-agent problems and games.

The schema mirrors the model types with snake_case keys; belief atoms are
``[[value, probability], ...]`` pairs, and a ``"zero"`` cost is a linear cost
of slope 0.  The scenario's ``x_max`` and ``steps`` make its grid, whose
``x_max`` is the strategy bound.  Loading validates everything through
``model.validate`` and reports every violation once: a tabulated utility's grid is the grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ScenarioError
from .model import (
    AgentSpec,
    BeliefMixture,
    ComprehensiveUtilityForm,
    FiniteRandomVariable,
    GameSpec,
    Grid,
    LinearCost,
    MeanChoice,
    PowerCost,
    Quadratic,
    Tabulated,
    WeightedChoice,
    validate,
)

#: Grid resolution used when a scenario does not pin one.
DEFAULT_STEPS = 4000


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: either one agent facing a social choice, or a game."""

    mode: str
    grid: Grid
    tolerance: float | None
    output_dir: str | None
    x_social: float | None = None
    agent: AgentSpec | None = None
    game: GameSpec | None = None


def _object(value, where) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object, got {value!r}")
    return value


def _float(value, where) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{where}: number too large for a float") from None


def _floats(values, where) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list of numbers, got {values!r}")
    return tuple(_float(v, f"{where}[{i}]") for i, v in enumerate(values))


def _number(obj, key, where, default=None, required=True):
    if key not in obj:
        if required:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        return default
    return _float(obj[key], f"{where}.{key}")


def require_steps(steps, where: str = "steps") -> int:
    """``steps`` if it is a positive integer, else ``ScenarioError``."""
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ScenarioError(f"{where} must be a positive integer, got {steps!r}")
    return steps


def require_tolerance(tolerance: float | None, where: str = "tolerance") -> float | None:
    """``tolerance`` if it is ``None`` or a finite number >= 0, else ``ScenarioError``."""
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
        raise ScenarioError(f"{where} must be a finite number >= 0, got {tolerance!r}")
    return tolerance


def _utility(obj, where, grid):
    variant = _object(obj, where).get("variant")
    if variant == "quadratic":
        return Quadratic(
            a=_number(obj, "a", where), b=_number(obj, "b", where), k=_number(obj, "k", where, 0.0, False)
        )
    if variant == "tabulated":
        return Tabulated(values=_floats(obj.get("values"), f"{where}.values"), grid=grid)
    raise ScenarioError(f"{where}: unknown utility variant {variant!r}")


def _cost(obj, where):
    variant = _object(obj, where).get("variant")
    if variant == "zero":
        return LinearCost(d=0.0)
    if variant == "linear":
        return LinearCost(d=_number(obj, "d", where))
    if variant == "power":
        return PowerCost(d=_number(obj, "d", where), p=_number(obj, "p", where))
    raise ScenarioError(f"{where}: unknown cost variant {variant!r}")


def _beliefs(obj, where):
    raw = obj.get("beliefs")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{where}: 'beliefs' must be a nonempty list of atom lists")
    out = []
    for bi, atoms in enumerate(raw):
        if not isinstance(atoms, list):
            raise ScenarioError(f"{where}.beliefs[{bi}]: expected [[value, prob], ...]")
        parsed = []
        for ai, atom in enumerate(atoms):
            if not isinstance(atom, list) or len(atom) != 2:
                raise ScenarioError(f"{where}.beliefs[{bi}]: each atom must be [value, prob]")
            parsed.append(_floats(atom, f"{where}.beliefs[{bi}][{ai}]"))
        out.append(FiniteRandomVariable(atoms=tuple(parsed)))
    return tuple(out)


def _agent(obj, where, grid) -> AgentSpec:
    _object(obj, where)
    for key in ("utility", "c1", "c2", "beliefs"):
        if key not in obj:
            raise ScenarioError(f"{where}: missing required key {key!r}")
    form = ComprehensiveUtilityForm()
    if "form" in obj:
        f = _object(obj["form"], f"{where}.form")
        form = ComprehensiveUtilityForm(
            w_u=_number(f, "w_u", f"{where}.form", 1.0, False),
            w_1=_number(f, "w_1", f"{where}.form", 1.0, False),
            w_2=_number(f, "w_2", f"{where}.form", 1.0, False),
        )
    return AgentSpec(
        utility=_utility(obj["utility"], f"{where}.utility", grid),
        c1=_cost(obj["c1"], f"{where}.c1"),
        c2=_cost(obj["c2"], f"{where}.c2"),
        beliefs=_beliefs(obj, where),
        form=form,
    )


def _choice_aggregator(obj):
    if obj is None:
        return MeanChoice()
    variant = _object(obj, "choice_aggregator").get("variant")
    if variant == "mean":
        return MeanChoice()
    if variant == "weighted":
        return WeightedChoice(weights=_floats(obj.get("weights"), "choice_aggregator.weights"))
    raise ScenarioError(f"choice_aggregator: unknown variant {variant!r}")


def _belief_aggregator(obj):
    if obj is None:
        return BeliefMixture()
    variant = _object(obj, "belief_aggregator").get("variant")
    if variant != "mixture":
        raise ScenarioError(f"belief_aggregator: unknown variant {variant!r}")
    weights = obj.get("weights")
    if weights is None:
        return BeliefMixture()
    return BeliefMixture(weights=_floats(weights, "belief_aggregator.weights"))


def parse_scenario(data: dict) -> Scenario:
    """Build and validate a scenario from already-parsed JSON data."""
    _object(data, "scenario root")
    mode = data.get("mode")
    if mode not in ("single_agent", "game"):
        raise ScenarioError(f"mode must be 'single_agent' or 'game', got {mode!r}")
    grid = Grid(x_max=_number(data, "x_max", "scenario"),
                steps=require_steps(data.get("steps", DEFAULT_STEPS)))
    tolerance = require_tolerance(_number(data, "tolerance", "scenario", None, False))
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ScenarioError("output_dir must be a string")

    if mode == "single_agent":
        if "agent" not in data:
            raise ScenarioError("single_agent scenario needs an 'agent' object")
        agent = _agent(data["agent"], "agent", grid)
        x_social = _number(data, "x_s", "scenario")
        violations = [v for v in validate(agent) if ".utility.grid: " not in v.message] + validate(grid)
        if not 0 <= x_social < math.inf:
            raise ScenarioError(f"x_s must be finite and nonnegative, got {x_social}")
        if violations:
            raise ScenarioError("; ".join(f"{v.code}: {v.message}" for v in violations))
        return Scenario(
            mode=mode, grid=grid, tolerance=tolerance, output_dir=output_dir,
            x_social=x_social, agent=agent,
        )

    agents_raw = data.get("agents")
    if not isinstance(agents_raw, list) or len(agents_raw) < 2:
        raise ScenarioError("game scenario needs an 'agents' list with at least two entries")
    agents = tuple(_agent(a, f"agents[{i}]", grid) for i, a in enumerate(agents_raw))
    game = GameSpec(
        agents=agents,
        choice_aggregator=_choice_aggregator(data.get("choice_aggregator")),
        belief_aggregator=_belief_aggregator(data.get("belief_aggregator")),
    )
    violations = [v for v in validate(game) if ".utility.grid: " not in v.message] + validate(grid)
    if violations:
        raise ScenarioError("; ".join(f"{v.code}: {v.message}" for v in violations))
    return Scenario(mode=mode, grid=grid, tolerance=tolerance, output_dir=output_dir, game=game)


def _read_json(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario from a JSON file.

    Raises ``OSError`` for I/O problems and ``ScenarioError`` for malformed
    or invalid content.
    """
    return parse_scenario(_read_json(path))


def load_profile(path: str | Path) -> tuple[float, ...]:
    """Load a strategy profile from a JSON file of the form {"profile": [..]}."""
    data = _read_json(path)
    profile = data.get("profile") if isinstance(data, dict) else None
    if not isinstance(profile, list) or not profile:
        raise ScenarioError(f"{path}: expected an object with a nonempty 'profile' list")
    return _floats(profile, f"{path}: profile")
