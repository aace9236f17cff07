"""Every public answer on the corpus's seeded games, pinned by one digest.

A change that moves an answer on purpose updates ``DIGEST`` and names the
games whose lines moved; ``PYTHONPATH=src python tests/corpus.py`` prints
them, one line per game, on both sides of the change.
"""

from dataclasses import replace
from unittest import mock

import corpus

import deferral as d

#: SHA-256 of ``corpus.game_line`` for seeds 0 to 149, each line ending in a newline.
DIGEST = "beef91b124d32dfa92fb4100a575f1fe6a559c2fc757179908746687d511d06f"


def test_the_corpus_answers_are_pinned():
    assert corpus.digest(map(corpus.game_line, range(150))) == DIGEST


def test_the_pinned_games_cover_every_family():
    games = [corpus.random_game(seed) for seed in range(150)]
    agents = [a for game, _ in games for a in game.agents]
    costs = [c for a in agents for c in (a.c1, a.c2)]
    assert {game.n for game, _ in games} == {2, 3}
    assert {type(a.utility) for a in agents} == {d.Quadratic, d.Tabulated}
    assert {type(c) for c in costs} == {d.LinearCost, d.PowerCost} and d.LinearCost(0.0) in costs
    assert {type(game.choice_aggregator) for game, _ in games} == {d.MeanChoice, d.WeightedChoice}
    assert any(game.belief_aggregator.weights for game, _ in games)
    assert any(len(b.atoms) > 1 for a in agents for b in a.beliefs)
    assert min(grid.steps for _, grid in games) == 1 and max(grid.steps for _, grid in games) > 60
    assert min(grid.x_max for _, grid in games) < 0.1 and max(grid.x_max for _, grid in games) > 100
    # quadratic beside tabulated, in both orders
    mixed = {tuple(type(a.utility) for a in game.agents) for game, _ in games[4::5]}
    assert mixed == {(d.Quadratic, d.Tabulated), (d.Tabulated, d.Quadratic)}


def test_a_zero_power_cost_answers_every_question_as_the_zero_linear_cost():
    # 0 · δ**p is zero, so PowerCost(0, p) is LinearCost(0) to every public answer, and a
    # zero-slope agent's consideration set is their peak alone under either
    random_game = corpus.random_game

    def powered(seed):
        game, grid = random_game(seed)
        agents = tuple(replace(a, c1=d.PowerCost(0.0, 400.0)) if a.c1 == d.LinearCost(0.0) else a
                       for a in game.agents)
        return replace(game, agents=agents), grid

    seeds = [s for s in range(150) if any(a.c1 == d.LinearCost(0.0) for a in corpus.random_game(s)[0].agents)]
    assert len(seeds) == 47
    for seed in seeds:
        linear = corpus.game_answers(seed)
        with mock.patch.object(corpus, "random_game", powered):
            assert corpus.game_answers(seed) == linear
