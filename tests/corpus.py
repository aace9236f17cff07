"""A differential corpus: every public answer on seeded valid games.

``random_game(seed)`` builds one valid game and its grid from its own seed:
2 or 3 agents, quadratic and tabulated utilities, linear, power and zero
costs, both choice aggregators, belief mixtures, steps 1 to 60 and ``x_max``
from 0.01 to 1000.  Every fifth seed is a quadratic agent beside a tabulated
one, in either order, on up to 200 steps.  ``game_line(seed)`` asks that game
every public question and writes the answers on one line: numbers with
``output.fmt``, an exception as its type name (``unexpected`` before it when
it is not a ``DeferralError``) and each warning's category name after the
answer it came with.  So the text does not depend on numpy's scalar repr or
on the wording of an error.

Run from the repository root, to print one line per game and then the
digest of all of them:

    PYTHONPATH=src python tests/corpus.py [FIRST [STOP]]

Seeds 0 to 149, the default, are the range that ``tests/test_corpus.py`` pins.

The exit status is 1 when some answer raised an exception that is not a
``DeferralError``.  The corpus pins behaviour; it does not bless it.
"""

from __future__ import annotations

import hashlib
import sys
import warnings

import numpy as np

import deferral as d
from deferral.output import fmt

TOLERANCES = (None, 0.0, 1e-9, 0.5)


def _cost(rng):
    kind = rng.choice(["linear", "power", "zero"], p=[0.5, 0.3, 0.2])
    if kind == "zero":
        return d.LinearCost(0.0)
    slope = float(rng.uniform(0.0, 5.0))
    return d.LinearCost(slope) if kind == "linear" else d.PowerCost(slope, float(rng.uniform(1.0, 3.0)))


def _belief(rng, x_max):
    values = rng.choice(np.linspace(0.0, 1.2 * x_max, 25), size=int(rng.integers(1, 4)), replace=False)
    weights = rng.uniform(0.1, 1.0, len(values))
    probs = (weights / weights.sum()).tolist()
    probs[-1] = 1.0 - sum(probs[:-1])
    return d.FiniteRandomVariable(tuple(zip(values.tolist(), probs)))


def _weights(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    w = (w / w.sum()).tolist()
    w[-1] = 1.0 - sum(w[:-1])
    return tuple(w)


def _tabulated(rng, grid):
    """Values that rise strictly to a random peak and fall strictly after it."""
    m = grid.steps + 1
    peak = int(rng.integers(0, m))
    scale = 10.0 ** rng.uniform(-1.0, 2.0)
    rise = np.cumsum(rng.uniform(0.05, 1.0, m)) * scale
    values = np.concatenate([rise[:peak + 1], rise[peak] - np.cumsum(rng.uniform(0.05, 1.0, m - 1 - peak)) * scale])
    return d.Tabulated(tuple((values - rise[peak] + float(rng.uniform(-5.0, 5.0))).tolist()), grid)


def _quadratic(rng, x_max):
    a = 10.0 ** rng.uniform(-2.0, 1.0)
    return d.Quadratic(a, 2.0 * a * float(rng.uniform(-0.2, 1.2)) * x_max, float(rng.uniform(-5.0, 5.0)))


def _form(rng):
    if rng.random() < 0.6:
        return d.ComprehensiveUtilityForm()
    return d.ComprehensiveUtilityForm(*(float(w) if rng.random() < 0.85 else 0.0 for w in rng.uniform(0, 3, 3)))


def _agent(rng, grid, n, utility=None, costs=None):
    utility = utility or (_tabulated(rng, grid) if rng.random() < 0.25 else _quadratic(rng, grid.x_max))
    c1, c2 = costs or (_cost(rng), _cost(rng))
    return d.AgentSpec(utility, c1, c2, tuple(_belief(rng, grid.x_max) for _ in range(n - 1)), _form(rng))


def random_game(seed: int) -> tuple[d.GameSpec, d.Grid]:
    """One valid game and its grid, from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    x_max = float(10.0 ** rng.uniform(-2.0, 3.0))
    if seed % 5 == 4:  # a quadratic agent with linear costs beside a tabulated one
        grid = d.Grid(x_max, int(rng.integers(1, 201)))
        linear = [(d.LinearCost(float(rng.uniform(0.1, 5.0))), d.LinearCost(float(rng.uniform(0.0, 5.0))))
                  for _ in range(2)]
        agents = [_agent(rng, grid, 2, _quadratic(rng, x_max), linear[0]),
                  _agent(rng, grid, 2, _tabulated(rng, grid), linear[1])]
        game = d.GameSpec(tuple(agents[::int(rng.choice([1, -1]))]))
    else:
        grid = d.Grid(x_max, int(rng.integers(1, 61)))
        n = 2 if rng.random() < 0.7 else 3
        agents = tuple(_agent(rng, grid, n) for _ in range(n))
        choice = d.MeanChoice() if rng.random() < 0.5 else d.WeightedChoice(_weights(rng, n))
        beliefs = d.BeliefMixture(_weights(rng, n - 1) if n == 3 and rng.random() < 0.5 else None)
        game = d.GameSpec(agents, choice_aggregator=choice, belief_aggregator=beliefs)
    assert d.validate(game) == [], d.validate(game)
    return game, grid


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_text(v) for v in value) + "]"
    if isinstance(value, d.EquilibriumCertificate):
        return f"{_text(value.profile)}{value.kind.value}:{fmt(value.max_regret)}"
    if isinstance(value, d.BestResponseCurve):
        return _text(value.argmax_sets)
    if isinstance(value, d.ChoiceResult):
        return f"{_text(value.chosen)}{fmt(value.value)}"
    if isinstance(value, d.TrapReport):
        return f"{fmt(value.x_hat)}[{fmt(value.interval.lo)} {fmt(value.interval.hi)}]" \
               f"{value.trapped}:{fmt(value.utility_gap)}"
    if isinstance(value, d.SequentialCriteriaCertificate):
        return f"{value.holds}{_text(value.gamma)}{_text(value.stage1_survivors)}"
    if isinstance(value, (bool, type(None))):
        return str(value)
    return fmt(value)


def _ask(question, *args) -> str:
    """The answer to ``question(*args)``, with the category of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = _text(question(*args))
        except Exception as exc:  # every exception is an answer, recorded by its type
            name = type(exc).__name__
            text = name if isinstance(exc, d.DeferralError) else f"unexpected {name}"
    return text + "".join(f"!{w.category.__name__}" for w in caught)


def game_answers(seed: int) -> list[str]:
    """Every public answer on ``random_game(seed)``, in a fixed order."""
    game, grid = random_game(seed)
    rng = np.random.default_rng([seed, 1])
    pts, n = grid.points, game.n
    answers = [_ask(find, game, grid, tol)
               for find in (d.find_equilibria, d.find_equilibria_after_deferral) for tol in TOLERANCES]
    on_grid = tuple(pts[rng.integers(0, len(pts), n)].tolist())
    off_grid = tuple(rng.uniform(0.0, grid.x_max, n).tolist())
    answers += [_ask(d.classify_profile, game, p, grid, tol)
                for p in (on_grid, off_grid) for tol in (None, 1e-9, 0.5)]
    sweep = sorted(rng.uniform(0.0, grid.x_max, int(rng.integers(1, 12))).tolist())
    for i, agent in enumerate(game.agents):
        opponents = [x for j, x in enumerate(on_grid if rng.random() < 0.5 else off_grid) if j != i]
        answers += [_ask(d.best_response, game, i, opponents, grid, method) for method in ("grid", "exact")]
        answers.append(_ask(d.deferral_best_response, game, i, opponents, grid))
        answers += [_ask(d.best_response_curve, game, i, sweep, grid, method) for method in ("grid", "exact")]
        x_social = float(rng.uniform(0.0, grid.x_max))
        answers += [_ask(question, agent, x_social, grid) for question in (
            d.second_stage_choice, d.detect_trap, d.unconstrained_optimum, d.two_criteria_certificate)]
    return answers


def game_line(seed: int) -> str:
    return f"{seed}: " + " | ".join(game_answers(seed))


def digest(lines) -> str:
    """SHA-256 of ``lines``, each ending in a newline."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv: list[str]) -> int:
    first, stop = (int(a) for a in (argv + ["0", "150"][len(argv):]))  # the pinned range by default
    lines = []
    for seed in range(first, stop):
        lines.append(game_line(seed))
        print(lines[-1], flush=True)
    unexpected = sum("unexpected " in line for line in lines)
    print(f"sha256 {digest(lines)} over seeds {first}:{stop}; {unexpected} with an unexpected exception")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
