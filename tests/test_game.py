import contextlib
import itertools
import tracemalloc
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deferral as d
import dense_search
import slice_argmax
from conftest import X_MAX, point_mass, quad_agent, two_agent_game
from deferral.choice import _BLOCK_CELLS, _AgentRows, _comprehensive, _concavity, _kinked_argmax
from deferral.game import (START_LATTICE_POINTS, _argmax_sets, _judge_rows, _lattice_sweep, _opponent_socials,
                          _reference_points, _social_weights, _tolerance)
from deferral.model import utility_values
from slice_argmax import interval_grid_indices

_INF, _NAN = float("inf"), float("nan")


def _three_agent_game(aggregator=None):
    agent = d.AgentSpec(
        utility=d.Quadratic(2, 4, 5),
        c1=d.LinearCost(1.0),
        c2=d.LinearCost(0.0),
        beliefs=(point_mass(2.0), point_mass(6.0)),
    )
    return d.GameSpec(
        agents=(agent, agent, agent),
        choice_aggregator=aggregator or d.MeanChoice(),
        belief_aggregator=d.BeliefMixture(weights=(0.5, 0.5)),
    )


class TestAggregateChoices:
    def test_two_agents_reference_is_opponent(self, akerlof_game):
        assert d.aggregate_choices(akerlof_game, 0, (3.0, 4.0)) == 4.0
        assert d.aggregate_choices(akerlof_game, 1, (3.0, 4.0)) == 3.0

    def test_three_agent_mean(self):
        game = _three_agent_game()
        assert d.aggregate_choices(game, 0, (1.0, 2.0, 3.0)) == 2.5

    def test_three_agent_weighted_renormalized(self):
        uniform = d.WeightedChoice(weights=(1 / 3, 1 / 3, 1 / 3))
        game = _three_agent_game(uniform)
        # renormalizing over the two others gives weights (1/2, 1/2)
        assert d.aggregate_choices(game, 0, (1.0, 4.0, 8.0)) == 6.0

    def test_weighted_respects_asymmetric_weights(self):
        game = _three_agent_game(d.WeightedChoice(weights=(0.2, 0.2, 0.6)))
        assert d.aggregate_choices(game, 0, (1.0, 4.0, 8.0)) == pytest.approx(
            (0.2 * 4.0 + 0.6 * 8.0) / 0.8
        )

    def test_profile_validation(self, akerlof_game):
        with pytest.raises(d.DomainError):
            d.aggregate_choices(akerlof_game, 0, (1.0, 2.0, 3.0))
        with pytest.raises(d.DomainError):
            d.aggregate_choices(akerlof_game, 0, (1.0, -1.0))
        # the upper bound is the grid's, so only a solve on a grid checks it
        assert d.aggregate_choices(akerlof_game, 0, (1.0, 9.0)) == 9.0
        with pytest.raises(d.DomainError, match=r"choice 9.0 outside \[0, 8.0\]"):
            d.classify_profile(akerlof_game, (1.0, 9.0), d.Grid(8.0, 16))
        # a NaN choice is outside every bound
        with pytest.raises(d.DomainError, match=r"choice nan outside \[0, 8.0\]"):
            d.classify_profile(akerlof_game, (float("nan"), 1.0), d.Grid(8.0, 16))
        with pytest.raises(d.DomainError, match=r"choice nan outside \[0, inf\]"):
            d.payoff(akerlof_game, 0, (1.0, float("nan")))
        # so is an infinite one, even where the bound is inf
        with pytest.raises(d.DomainError, match=r"choice inf outside \[0, inf\]"):
            d.payoff(akerlof_game, 0, (float("inf"), 1.0))
        with pytest.raises(d.DomainError, match=r"choice inf outside \[0, 8.0\]"):
            d.classify_profile(akerlof_game, (1.0, float("inf")), d.Grid(8.0, 16))

    def test_one_agent_game_is_refused(self):
        game = d.GameSpec(agents=(quad_agent(),))
        with pytest.raises(d.SpecValidationError) as err:
            d.aggregate_choices(game, 0, (1.0,))
        assert [v.code for v in err.value.violations] == ["TooFewAgents"]


class TestAggregateBeliefs:
    def test_point_mass_identity(self, example42_game):
        rv = d.aggregate_beliefs(example42_game, 0)
        assert rv.atoms == ((10.0, 1.0),)

    def test_even_mixture(self):
        game = _three_agent_game()
        rv = d.aggregate_beliefs(game, 0)
        assert rv.atoms == ((2.0, 0.5), (6.0, 0.5))
        assert rv.mean() == 4.0

    def test_single_belief_weight_one(self, akerlof_game):
        rv = d.aggregate_beliefs(akerlof_game, 0)
        assert rv == akerlof_game.agents[0].beliefs[0]

    def test_weight_length_mismatch(self):
        game = _three_agent_game()
        bad = d.GameSpec(
            agents=game.agents,
            belief_aggregator=d.BeliefMixture(weights=(1.0,)),
        )
        with pytest.raises(d.SpecValidationError):
            d.aggregate_beliefs(bad, 0)


class TestPayoff:
    def test_akerlof_symmetric_peak(self, akerlof_game):
        assert d.payoff(akerlof_game, 0, (1.0, 1.0)) == 7.0

    def test_worked_example_value(self, example42_game):
        assert d.payoff(example42_game, 0, (2.0, 2.0)) == -27.0

    def test_coincident_pulls(self):
        agent = quad_agent(c1=d.LinearCost(3.0), c2=d.LinearCost(2.0), belief=1.5)
        game = two_agent_game(agent, agent)
        assert d.payoff(game, 0, (1.5, 1.5)) == d.eval_utility(agent.utility, 1.5)


class TestKinkedConcaveArgmax:
    def test_two_kinks_interior_root(self):
        got = d.kinked_concave_argmax(2, 4, 5, [(10.0, 4.0), (4.0, 7.0)])
        assert got == (3.75,)

    def test_no_kinks_gives_vertex(self):
        assert d.kinked_concave_argmax(2, 4, 5, []) == (1.0,)

    def test_maximum_at_kink(self):
        # slope 24 - 4x > 0 up to the kink at 5, then -8 - 4x < 0
        got = d.kinked_concave_argmax(2, 4, 5, [(10.0, 4.0), (5.0, 16.0)])
        assert got == (5.0,)

    def test_requires_concavity(self):
        with pytest.raises(d.MethodUnsupported):
            d.kinked_concave_argmax(0.0, 4, 5, [])
        with pytest.raises(d.MethodUnsupported):
            d.kinked_concave_argmax(2, 4, 5, [(1.0, -2.0)])

    def test_upper_bound_clamps(self):
        assert d.kinked_concave_argmax(2, 40, 0, [], hi=3.0) == (3.0,)

    @pytest.mark.parametrize("a,b,k,kinks,lo,hi", [
        (_NAN, 4, 5, [], 0.0, None), (_INF, 4, 5, [], 0.0, None), (2, -_INF, 5, [], 0.0, None),
        (2, 4, _NAN, [], 0.0, None), (2, 4, 5, [(_NAN, 1.0)], 0.0, None), (2, 4, 5, [(_INF, 1.0)], 0.0, None),
        (2, 4, 5, [(1.0, _NAN)], 0.0, None), (2, 4, 5, [(1.0, _INF)], 0.0, None), (2, 4, 5, [], _NAN, None),
        (2, 4, 5, [], -_INF, 3.0), (2, 4, 5, [], 0.0, _INF), (2, 4, 5, [], 0.0, _NAN), (2, 4, 5, [], 3.0, 1.0),
    ], ids=["a-nan", "a-inf", "b-inf", "k-nan", "kink-nan", "kink-inf", "weight-nan", "weight-inf",
            "lo-nan", "lo-inf", "hi-inf", "hi-nan", "hi-below-lo"])
    def test_refuses_bad_numbers_before_any_candidate(self, a, b, k, kinks, lo, hi):
        # hi < lo gave (1.0,), outside [lo, hi], and a NaN weight was dropped; every candidate,
        # merge and sort goes through numpy.where
        with mock.patch("numpy.where", side_effect=AssertionError("a candidate was built")), \
             pytest.raises(d.DomainError, match="needs finite numbers and lo <= hi"):
            d.kinked_concave_argmax(a, b, k, kinks, lo=lo, hi=hi)

    @pytest.mark.parametrize("kinks,lo", [([], 1e200), ([(1e200, 1.0)], 0.0)], ids=["no-kink", "kink"])
    def test_an_objective_that_overflows_at_a_candidate_refuses(self, kinks, lo):
        # finite numbers, but -x² + 1e308·x is -inf + inf at 1e200 and 1e201: () and (0.0,) came back
        with pytest.raises(d.DomainError, match="not finite at a candidate"):
            d.kinked_concave_argmax(1.0, 1e308, 0.0, kinks, lo=lo, hi=1e201)

    def test_equal_kinks_merge_and_zero_weights_drop(self):
        # one kink of weight 8 at 4 beside a weightless one at 1: the peak 3 of -2x² + 12x
        assert d.kinked_concave_argmax(2, 4, 5, [(4.0, 3.0), (1.0, 0.0), (4.0, 5.0)]) == (3.0,)
        assert d.kinked_concave_argmax(2, 4, 5, [(4.0, 3.0), (1.0, 0.0)]) == (1.75,)


def test_an_overflowing_exact_program_refuses_either_method():
    # each number passes validate, but w_u·a = 1e400 is not: the exact method returned ()
    agent = d.AgentSpec(d.Quadratic(1e200, 1.0, 0.0), d.LinearCost(4.0), d.LinearCost(0.0), (point_mass(1.0),),
                        d.ComprehensiveUtilityForm(w_u=1e200))
    game, grid = two_agent_game(agent, agent), d.Grid(8.0, 16)
    assert d.validate(game) == []
    with pytest.raises(d.DomainError, match="needs finite numbers and lo <= hi"):
        d.best_response(game, 0, (1.0,), grid, method="exact")
    with pytest.raises(d.DomainError, match="weighted utility w_u·u is not finite"):
        d.best_response(game, 0, (1.0,), grid)


class TestBestResponse:
    def test_akerlof_clamp_form(self, akerlof_game):
        grid = d.Grid(8.0, 1600)
        # responses clamp the opponent's choice into [0, 2]
        for x, want in ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (7.5, 2.0)):
            got = d.best_response(akerlof_game, 0, (x,), grid)
            assert got == (want,)
            exact = d.best_response(akerlof_game, 0, (x,), grid, method="exact")
            assert exact == (want,)

    def test_opponent_at_peak_no_future_pull(self, akerlof_game):
        assert d.best_response(akerlof_game, 0, (1.0,), d.Grid(8.0, 1600)) == (1.0,)

    def test_worked_example_response(self, example42_game):
        grid = d.Grid(40.0, 3200)
        assert d.best_response(example42_game, 0, (6.0,), grid) == (3.75,)
        assert d.best_response(example42_game, 0, (6.0,), grid, method="exact") == (3.75,)

    def test_exact_unsupported_families(self, akerlof_game):
        tab_grid = d.Grid(8.0, 16)
        tab = d.Tabulated(values=tuple(-((x - 1) ** 2) for x in tab_grid.points), grid=tab_grid)
        agent = d.AgentSpec(utility=tab, c1=d.LinearCost(1.0), c2=d.LinearCost(0.0),
                            beliefs=(point_mass(1.0),))
        game = two_agent_game(agent, agent)
        with pytest.raises(d.MethodUnsupported):
            d.best_response(game, 0, (1.0,), tab_grid, method="exact")
        grid = d.Grid(8.0, 16)
        power = quad_agent(c1=d.PowerCost(1.0, 2.0))
        flat = quad_agent(weights=(0.0, 1.0, 1.0))  # w_u = 0: no curvature to solve with
        for game, method, message in ((two_agent_game(power, power), "exact", "linear costs"),
                                      (two_agent_game(flat, flat), "exact", "w_u > 0"),
                                      (akerlof_game, "bogus", "unknown best-response method")):
            with pytest.raises(d.MethodUnsupported, match=message):
                d.best_response(game, 0, (1.0,), grid, method=method)
            # the curve asks for the method's program before any row, so an empty sweep refuses too
            with pytest.raises(d.MethodUnsupported, match=message):
                d.best_response_curve(game, 0, (), grid, method=method)
        with pytest.raises(d.MethodUnsupported, match="two-agent game"):
            d.best_response_curve(_three_agent_game(), 0, (1.0,), grid)

    def test_exact_agrees_with_grid_on_random_draws(self):
        rng = np.random.default_rng(11)
        grid = d.Grid(12.0, 400)
        for _ in range(200):
            a0 = quad_agent(
                a=rng.uniform(0.5, 5), b=rng.uniform(0, 10), k=rng.uniform(-5, 5),
                c1=d.LinearCost(rng.uniform(0, 8)),
                c2=d.LinearCost(rng.uniform(0, 8)),
                belief=rng.uniform(0, 10),
            )
            game = two_agent_game(a0, a0)
            opp = float(rng.uniform(0, 10))
            exact = d.best_response(game, 0, (opp,), grid, method="exact")
            oracle = d.best_response(game, 0, (opp,), grid)
            assert min(abs(e - o) for e in exact for o in oracle) <= grid.step + 1e-12


class TestDeferralBestResponse:
    def test_restricted_to_interval(self, example42_game):
        grid = d.Grid(40.0, 3200)
        # interval [1, 3.75]; payoff slope 24 - 4x > 0 throughout
        assert d.deferral_best_response(example42_game, 1, (3.75,), grid) == (3.75,)

    def test_opponent_at_peak(self, example42_game):
        assert d.deferral_best_response(example42_game, 0, (1.0,), d.Grid(40.0, 3200)) == (1.0,)

    def test_akerlof_kink_inside_interval(self, akerlof_game):
        assert d.deferral_best_response(akerlof_game, 0, (1.5,), d.Grid(8.0, 1600)) == (1.5,)

    def test_output_inside_interval_random(self, example42_game):
        rng = np.random.default_rng(3)
        grid = d.Grid(40.0, 800)
        for _ in range(50):
            opp = float(rng.uniform(0, 40))
            got = d.deferral_best_response(example42_game, 0, (opp,), grid)
            interval = d.consideration_interval(
                example42_game.agents[0].utility, example42_game.agents[0].c1, opp
            )
            for x in got:
                assert interval.contains(x, slack=grid.step / 2)


_GRID = d.Grid(8.0, 16)
_OTHER = d.Grid(8.0, 17)
_BUMPY = d.Tabulated(tuple(float(v) for v in np.cos(_OTHER.points)), _OTHER)  # not quasiconcave
_BELL = d.Tabulated(tuple(float(v) for v in -(_OTHER.points - 3.0) ** 2), _OTHER)


@pytest.mark.parametrize("utility,c1,x_social,error", [
    (_BUMPY, d.LinearCost(0.0), -1.0, d.DomainError),
    (_BUMPY, d.LinearCost(0.0), 2.0, d.SpecValidationError),
    (_BELL, d.LinearCost(-1.0), 2.0, d.SpecValidationError),
    (_BELL, d.LinearCost(0.0), 2.0, d.GridLookupError),
    (_BELL, d.LinearCost(1.0), 2.0, d.GridLookupError),
], ids=["domain", "spec", "cost", "zero-slope", "kernel"])
@pytest.mark.parametrize("call", ["second_stage_choice", "deferral_best_response", "detect_trap"])
def test_restricted_choices_raise_in_check_order(call, utility, c1, x_social, error):
    # both utilities are bound to another grid, so the kernel would raise GridLookupError
    agent = d.AgentSpec(utility, c1, d.LinearCost(1.0), (point_mass(3.0),))
    with pytest.raises(d.DeferralError) as raised:
        if call == "deferral_best_response":
            d.deferral_best_response(d.GameSpec((agent, agent)), 0, (x_social,), _GRID)
        else:
            getattr(d, call)(agent, x_social, _GRID)
    assert raised.type is error


@pytest.mark.parametrize("cost", [d.LinearCost(0.0), d.PowerCost(0.0, 2.0)])
def test_a_zero_slope_restricts_every_choice_to_the_peak(cost):
    # every current-distance cost ties, so the consideration set is the peak 3 alone, wherever
    # the social choice and the belief pull
    bell = d.Tabulated(tuple(float(v) for v in -(_GRID.points - 3.0) ** 2), _GRID)
    agent = d.AgentSpec(bell, cost, d.LinearCost(1.0), (point_mass(6.0),))
    for x_social in (0.0, 3.0, 7.5):
        assert d.second_stage_choice(agent, x_social, _GRID).chosen == (3.0,)
        assert d.deferral_best_response(d.GameSpec((agent, agent)), 0, (x_social,), _GRID) == (3.0,)
        trap = d.detect_trap(agent, x_social, _GRID)
        assert trap.interval == d.ClosedInterval(3.0, 3.0)
        assert (trap.x_hat, trap.trapped, trap.utility_gap) == (3.5, False, 0.0)  # one step from the set


@pytest.mark.parametrize("call", [d.best_response, d.deferral_best_response])
@pytest.mark.parametrize("n,opponents", [
    (3, (1.0, 2.0, 3.0)), (3, (1.0,)), (3, (1.0, 20.0)), (3, (-1.0, 2.0)), (2, (1.0, 2.0)),
    (2, (float("nan"),)),
], ids=["three-for-two", "one-for-two", "above-bound", "negative", "two-for-one", "nan"])
def test_opponents_need_one_choice_in_bound_per_other_agent(call, n, opponents, akerlof_game):
    game, grid = (_three_agent_game(), d.Grid(10.0, 20)) if n == 3 else (akerlof_game, d.Grid(8.0, 16))
    assert call(game, 0, (grid.x_max,) * (n - 1), grid)  # the bound itself is a choice
    with pytest.raises(d.DomainError):
        call(game, 0, opponents, grid)


@pytest.mark.parametrize("method", ["grid", "exact"])
@pytest.mark.parametrize("value", [float("nan"), -1.0, 20.0], ids=["nan", "negative", "above-bound"])
def test_curve_values_need_to_be_choices_in_bound(value, method, akerlof_game):
    # the sibling of the test above: a sweep value is an opponent's choice
    grid = d.Grid(8.0, 16)
    assert d.best_response_curve(akerlof_game, 0, (), grid, method) == d.BestResponseCurve(0, (), ())
    assert len(d.best_response_curve(akerlof_game, 0, (0.0, grid.x_max), grid, method).argmax_sets) == 2
    # the grid curve checks every value before any payoff
    with mock.patch("deferral.choice._comprehensive", side_effect=AssertionError("searched")), \
         pytest.raises(d.DomainError):
        d.best_response_curve(akerlof_game, 0, (1.0, value), grid, method)


def test_the_exact_curve_is_one_closed_form_call_and_each_values_best_response(example42_game):
    grid = d.Grid(40.0, 400)
    sweep = [j * grid.x_max / 80 for j in range(81)]
    for i in range(2):
        with mock.patch("deferral.game._kinked_argmax", wraps=_kinked_argmax) as spy:
            curve = d.best_response_curve(example42_game, i, sweep, grid, "exact")
        assert spy.call_count == 1
        assert curve.argmax_sets == tuple(d.best_response(example42_game, i, (x,), grid, "exact") for x in sweep)


def test_curve_reads_certified_windows_and_equals_the_reference(akerlof_game, power_cost_game):
    # 81 rows of 1,601 cells.  Certified rows: the 2 cells around each row's closed-form
    # argmax, the window's 3-cell probe and windows of 3 cells, 648 cells where the row
    # bisection read 2,132 and whole rows 129,681.  Power costs keep whole rows, ten a
    # block: nine kernel calls.
    grid = d.Grid(8.0, 1600)
    sweep = [j * grid.x_max / 80 for j in range(81)]
    assert _BLOCK_CELLS // len(grid.points) == 10
    for game, read in ((akerlof_game, [162, 243, 243]), (power_cost_game, [16010] * 8 + [1601])):
        for i in range(2):
            cells = []

            def counting(*args):
                values = _comprehensive(*args)
                cells.append(values.size)
                return values

            with mock.patch("deferral.choice._comprehensive", counting):
                curve = d.best_response_curve(game, i, sweep, grid)
            assert cells == read
            assert curve.opponent_values == tuple(sweep)
            assert curve.argmax_sets == tuple(slice_argmax.best_response(game, i, (x,), grid) for x in sweep)


def _mixture_trio():
    """Three agents whose beliefs about their two opponents differ, mixed with unequal weights."""
    agents = tuple(d.AgentSpec(d.Quadratic(1.0, b), d.LinearCost(d1), d.LinearCost(1.0),
                               (point_mass(1.0), point_mass(b)))
                   for b, d1 in ((6.0, 2.0), (10.0, 1.0), (4.0, 3.0)))
    return d.GameSpec(agents, choice_aggregator=d.WeightedChoice((0.5, 0.3, 0.2)),
                      belief_aggregator=d.BeliefMixture((0.25, 0.75)))


@pytest.mark.parametrize("game,grid", [
    (_mixture_trio(), d.Grid(8.0, 400)),
    (two_agent_game(quad_agent(weights=(1.0, 0.0, 1.0), belief=3.0),
                    quad_agent(b=8.0, c1=d.LinearCost(2.0), weights=(2.0, 0.0, 1.0))), d.Grid(8.0, 400)),
    ("example42", d.Grid(40.0, 400)),
], ids=["belief-mixture", "w1-zero", "example42"])
def test_blocked_responses_equal_the_reference_row_by_row(game, grid, request):
    # 100 rows of 401 cells take three blocks; each row must equal its own answer
    game = request.getfixturevalue(f"{game}_game") if isinstance(game, str) else game
    rng = np.random.default_rng(21)
    opponents = rng.uniform(0.0, grid.x_max, (100, game.n - 1))
    opponents[::7] = grid.points[rng.integers(0, len(grid.points), (15, game.n - 1))]  # ties on grid points
    pairs = ((d.best_response, slice_argmax.best_response, False),
             (d.deferral_best_response, slice_argmax.deferral_best_response, True))
    for i in range(game.n):
        socials = _opponent_socials(game, i, opponents, grid)
        for public, reference, restricted in pairs:
            want = tuple(reference(game, i, tuple(row), grid) for row in opponents.tolist())
            assert _argmax_sets(game, i, socials, grid, restricted) == want
            assert tuple(public(game, i, tuple(row), grid) for row in opponents.tolist()) == want


def test_the_grid_is_the_only_strategy_bound():
    # the peak and the belief at 5 lie inside Grid(8, 16); every solve reads the bound from it
    grid = d.Grid(8.0, 16)

    def agent(opponents):
        return d.AgentSpec(d.Quadratic(1.0, 10.0), d.LinearCost(1.0), d.LinearCost(1.0),
                           (point_mass(5.0),) * opponents)

    pair, trio = two_agent_game(agent(1), agent(1)), d.GameSpec((agent(2),) * 3)
    for finder in (d.find_equilibria, d.find_equilibria_after_deferral):
        assert [c.profile for c in finder(pair, grid)] == [(5.0, 5.0)]
        assert [c.profile for c in finder(trio, grid)] == [(5.0, 5.0, 5.0)]
    assert d.classify_profile(pair, (5.0, 5.0), grid).kind is d.EquilibriumKind.BOTH
    assert d.best_response(pair, 0, (5.0,), grid) == d.best_response(pair, 0, (5.0,), grid, "exact")
    with pytest.raises(TypeError):
        d.GameSpec(pair.agents, 8.0)  # the aggregators are keyword-only


class TestFindEquilibria:
    def test_akerlof_diagonal(self, akerlof_game):
        grid = d.Grid(8.0, 400)
        certs = d.find_equilibria(akerlof_game, grid)
        profiles = [c.profile for c in certs]
        expected = [(float(x), float(x)) for x in grid.points if x <= 2.0]
        assert profiles == expected
        assert all(c.kind is d.EquilibriumKind.BOTH for c in certs)

    def test_decoupled_agents_single_profile(self):
        agent = quad_agent(c1=d.LinearCost(4.0), c2=d.LinearCost(4.0), belief=6.0,
                           weights=(1.0, 0.0, 0.0))
        game = two_agent_game(agent, agent)
        certs = d.find_equilibria(game, d.Grid(8.0, 400))
        assert [c.profile for c in certs] == [(1.0, 1.0)]

    def test_worked_example_fixed_point_set(self, example42_game):
        # left-segment root 15/4 and middle-segment root 1/4 bound the
        # diagonal fixed-point set of the literal payoffs
        grid = d.Grid(40.0, 800)
        certs = d.find_equilibria(example42_game, grid)
        profiles = [c.profile for c in certs]
        assert profiles[0] == (0.25, 0.25)
        assert profiles[-1] == (3.75, 3.75)
        assert all(p[0] == p[1] for p in profiles)
        assert len(profiles) == 71  # (3.75 - 0.25) / 0.05 + 1

    def test_zero_c1_standard_search_still_works(self):
        agent = quad_agent(c1=d.LinearCost(0.0), c2=d.LinearCost(2.0), belief=3.0)
        game = two_agent_game(agent, agent)
        certs = d.find_equilibria(game, d.Grid(8.0, 400))
        # decoupled payoff: unique maximizer between peak and belief
        assert len(certs) == 1
        assert certs[0].kind is d.EquilibriumKind.STANDARD


class TestFindEquilibriaAfterDeferral:
    def test_akerlof_same_set(self, akerlof_game):
        grid = d.Grid(8.0, 400)
        standard = [c.profile for c in d.find_equilibria(akerlof_game, grid)]
        deferred = [c.profile for c in d.find_equilibria_after_deferral(akerlof_game, grid)]
        assert standard == deferred

    def test_worked_example_diagonal(self, example42_game):
        grid = d.Grid(40.0, 800)
        certs = d.find_equilibria_after_deferral(example42_game, grid)
        assert all(c.profile[0] == c.profile[1] for c in certs)
        assert certs[0].profile == (0.25, 0.25)
        assert certs[-1].profile == (3.75, 3.75)
        assert all(
            c.kind in (d.EquilibriumKind.AFTER_DEFERRAL, d.EquilibriumKind.BOTH) for c in certs
        )

    def test_zero_c1_considers_only_the_peak(self):
        # after deferral each agent keeps their peak 1 whatever the other chooses; the standard
        # search, free of c1, finds the belief's pull to 1.5 instead
        agent = quad_agent(c1=d.LinearCost(0.0), c2=d.LinearCost(2.0), belief=3.0)
        game, grid = two_agent_game(agent, agent), d.Grid(8.0, 400)
        deferred = [d.EquilibriumCertificate((1.0, 1.0), d.EquilibriumKind.AFTER_DEFERRAL, 0.0)]
        assert d.find_equilibria_after_deferral(game, grid) == deferred
        assert dense_search.find_equilibria_after_deferral(game, grid) == deferred
        assert d.classify_profile(game, (1.0, 1.0), grid) == deferred[0]
        assert d.find_equilibria(game, grid) == [
            d.EquilibriumCertificate((1.5, 1.5), d.EquilibriumKind.STANDARD, 0.0)]

    def test_zero_c1_considers_only_the_peak_for_three_agents(self):
        game = _three_agent_game()
        zero = d.AgentSpec(utility=d.Quadratic(2, 4, 5), c1=d.LinearCost(0.0), c2=d.LinearCost(0.0),
                           beliefs=(point_mass(2.0), point_mass(6.0)))
        game = d.GameSpec(agents=game.agents[:2] + (zero,), belief_aggregator=game.belief_aggregator)
        both = [d.EquilibriumCertificate((1.0, 1.0, 1.0), d.EquilibriumKind.BOTH, 0.0)]
        assert d.find_equilibria_after_deferral(game, d.Grid(10.0, 40)) == both
        assert d.find_equilibria(game, d.Grid(10.0, 40)) == both

    def test_precondition_is_checked_before_the_search_starts(self):
        # The validation of every cost runs before the lattice looks at its starts,
        # so it wins over the lattice's own errors and over an empty start list.
        agent = d.AgentSpec(utility=d.Quadratic(2, 4, 5), c1=d.LinearCost(-1.0), c2=d.LinearCost(0.0),
                            beliefs=(point_mass(1.0),) * 4)
        five = d.GameSpec(agents=(agent,) * 5)
        with pytest.raises(d.MethodUnsupported):
            d.find_equilibria(five, d.Grid(4.0, 20))
        with pytest.raises(d.SpecValidationError, match="NegativeCostSlope"):
            d.find_equilibria_after_deferral(five, d.Grid(4.0, 20))
        three = d.GameSpec(agents=tuple(replace(a, beliefs=a.beliefs[:2]) for a in five.agents[:3]))
        for starts in ([], [(1.0,)]):
            with pytest.raises(d.SpecValidationError, match="NegativeCostSlope"):
                d.find_equilibria_after_deferral(three, d.Grid(4.0, 20), starts=starts)

    def test_deferral_but_not_standard(self, belief_heavy_game):
        grid = d.Grid(40.0, 800)
        deferred = d.find_equilibria_after_deferral(belief_heavy_game, grid)
        profiles = [c.profile for c in deferred]
        assert profiles[0] == (1.0, 1.0)
        assert profiles[-1] == (3.75, 3.75)
        assert all(c.kind is d.EquilibriumKind.AFTER_DEFERRAL for c in deferred)
        standard = d.find_equilibria(belief_heavy_game, grid)
        assert [c.profile for c in standard] == [(3.75, 4.0)]
        assert standard[0].kind is d.EquilibriumKind.STANDARD


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")], ids=["nan", "negative", "inf"])
def test_every_entry_point_refuses_a_tolerance_before_any_search(tolerance, akerlof_game,
                                                                 belief_heavy_game):
    grid, trio = d.Grid(8.0, 40), _three_agent_game()
    assert len(d.find_equilibria(akerlof_game, grid, 0.0)) == 11
    # the pair, the lattice, and a lattice without starts, which has no fixed point to classify
    searches = ((akerlof_game, None), (trio, None), (trio, []))
    calls = [(finder, game, starts) for finder in (d.find_equilibria, d.find_equilibria_after_deferral)
             for game, starts in searches]
    # the refusal comes before any payoff is evaluated
    with mock.patch("deferral.choice._comprehensive", side_effect=AssertionError("searched")), \
         mock.patch("deferral.game.comprehensive_value", side_effect=AssertionError("searched")):
        for finder, game, starts in calls:
            with pytest.raises(d.DomainError, match="tolerance must be a finite number >= 0"):
                finder(game, grid, tolerance, starts)
        with pytest.raises(d.DomainError, match="tolerance must be a finite number >= 0"):
            d.classify_profile(akerlof_game, (1.0, 1.0), grid, tolerance)
        with pytest.raises(d.DomainError, match="tolerance must be a finite number >= 0"):
            d.deferral_loss(belief_heavy_game, (3.75, 4.0), (1.0, 1.0), d.Grid(40.0, 160), tolerance)


class TestClassifyProfile:
    def test_akerlof_symmetric_is_both(self, akerlof_game):
        cert = d.classify_profile(akerlof_game, (1.0, 1.0), d.Grid(8.0, 400))
        assert cert is not None and cert.kind is d.EquilibriumKind.BOTH
        assert cert.max_regret == 0.0

    def test_akerlof_off_diagonal_rejected(self, akerlof_game):
        assert d.classify_profile(akerlof_game, (0.0, 2.0), d.Grid(8.0, 400)) is None

    def test_off_grid_tabulated_choice_is_rejected(self):
        grid = d.Grid(8.0, 40)
        utility = d.Tabulated(tuple(-(x - 3.0) ** 2 for x in grid.points.tolist()), grid)
        agent = d.AgentSpec(utility, d.LinearCost(1.0), d.LinearCost(0.0), (point_mass(3.0),))
        game = d.GameSpec((quad_agent(b=12.0), agent))
        assert d.classify_profile(game, (3.0, 3.0), grid).kind is d.EquilibriumKind.BOTH
        # an off-grid choice is fine for the quadratic agent, not for the tabulated one
        assert d.classify_profile(game, (3.05, 3.0), grid) is not None
        with pytest.raises(d.DomainError, match=r"agents\[1\]: 3.05 is not a point of grid"):
            d.classify_profile(game, (3.0, 3.05), grid)

    def test_an_agent_whose_payoffs_are_all_minus_inf_has_no_regret(self):
        # off the points 0, 4 and 8 every distance is at least 2, and 2**2000 is inf
        agent = quad_agent(c1=d.PowerCost(1.0, 2000.0), belief=1.0)
        game, grid = d.GameSpec(agents=(agent,) * 3), d.Grid(8.0, 2)
        assert d.classify_profile(game, (0.0, 0.0, 4.0), grid, 1e-9) is None
        # agents 0 and 2 see the social choices 6 and 2; agent 1 chooses its social choice, 4
        cert = d.classify_profile(game, (0.0, 4.0, 8.0), grid, 1e-9)
        assert cert.kind is d.EquilibriumKind.STANDARD and cert.max_regret == 0.0

    def test_worked_pair_not_after_deferral(self, example42_game):
        grid = d.Grid(40.0, 800)
        cert = d.classify_profile(example42_game, (3.75, 4.0), grid)
        assert cert is None or cert.kind not in (
            d.EquilibriumKind.AFTER_DEFERRAL, d.EquilibriumKind.BOTH
        )
        # the membership reason: agent 2's interval tops out at the opponent
        interval = d.consideration_interval(
            example42_game.agents[1].utility, example42_game.agents[1].c1, 3.75
        )
        assert interval == d.ClosedInterval(1.0, 3.75)
        assert not interval.contains(4.0)

    def test_standard_verdict_is_search_membership_at_the_profiles_own_regret(self):
        # a tolerance equal to the profile's own regret puts it on the pass
        # boundary, where two roundings of the one comparison would disagree
        agent = quad_agent(c1=d.LinearCost(4.0), c2=d.LinearCost(0.0), belief=0.0)
        game, grid = two_agent_game(agent, agent), d.Grid(8.0, 40)
        pts = grid.points.tolist()
        # tables[a][j][k]: agent a's payoff for own choice pts[k] against pts[j]
        tables = [d.comprehensive_values(a, grid, grid.points[:, None], 0.0).tolist()
                  for a in game.agents]
        regret = {(pts[i1], pts[i2]): max(0.0, max(tables[0][i2]) - tables[0][i2][i1],
                                          max(tables[1][i1]) - tables[1][i1][i2])
                  for i1, i2 in itertools.product(range(len(pts)), repeat=2)}
        found = {tol: {c.profile for c in d.find_equilibria(game, grid, tol)}
                 for tol in set(regret.values())}
        for profile, tol in regret.items():
            cert = d.classify_profile(game, profile, grid, tol)
            standard = cert is not None and cert.kind is not d.EquilibriumKind.AFTER_DEFERRAL
            assert standard == (profile in found[tol]), profile

    def test_finder_outputs_reclassify_identically(self, belief_heavy_game):
        grid = d.Grid(40.0, 400)
        tol = None
        for cert in (
            d.find_equilibria(belief_heavy_game, grid, tol)
            + d.find_equilibria_after_deferral(belief_heavy_game, grid, tol)
        ):
            again = d.classify_profile(belief_heavy_game, cert.profile, grid, tol)
            assert again is not None
            assert again.kind is cert.kind
            assert again.max_regret <= 1e-6

    @pytest.mark.parametrize("fixture,steps", [("akerlof_game", 40), ("belief_heavy_game", 40)])
    def test_exhaustive_matches_classify_on_small_grid(self, fixture, steps, request):
        game = request.getfixturevalue(fixture)
        grid = d.Grid(X_MAX[fixture], steps)
        found = {c.profile: c.kind for c in d.find_equilibria(game, grid)}
        found_deferral = {
            c.profile: c.kind for c in d.find_equilibria_after_deferral(game, grid)
        }
        for x1 in grid.points:
            for x2 in grid.points:
                cert = d.classify_profile(game, (float(x1), float(x2)), grid)
                profile = (float(x1), float(x2))
                in_standard = cert is not None and cert.kind in (
                    d.EquilibriumKind.STANDARD, d.EquilibriumKind.BOTH)
                in_deferral = cert is not None and cert.kind in (
                    d.EquilibriumKind.AFTER_DEFERRAL, d.EquilibriumKind.BOTH)
                assert (profile in found) == in_standard
                assert (profile in found_deferral) == in_deferral
                if cert is not None:
                    assert found.get(profile, cert.kind) is cert.kind

    @pytest.mark.parametrize("fixture,steps,tolerance", [
        pytest.param("akerlof_game", 400, None, id="akerlof_game"),
        pytest.param("example42_game", 400, None, id="example42_game"),
        pytest.param("belief_heavy_game", 400, None, id="belief_heavy_game"),
        pytest.param("weighted_pair_game", 400, None, id="weighted_pair_game"),
        pytest.param("power_cost_game", 200, 0.0, id="power_cost_game-0"),
        pytest.param("power_cost_game", 200, 0.05, id="power_cost_game-0.05"),
    ])
    def test_search_certificates_equal_classification(self, fixture, steps, tolerance, request):
        # Default tolerances in the exact family only: elsewhere the two paths
        # still pick different defaults (whole table against the profile's own
        # vectors).  Power costs need every payoff bit-equal to its table entry.
        game = request.getfixturevalue(fixture)
        grid = d.Grid(X_MAX[fixture], steps)
        for finder in (d.find_equilibria, d.find_equilibria_after_deferral):
            certs = finder(game, grid, tolerance)
            assert certs
            for cert in certs:
                assert d.classify_profile(game, cert.profile, grid, tolerance) == cert


    def test_payoff_equals_the_search_table_entry(self, weighted_pair_game):
        # the search's table for agent a: own choice k against the opponent's grid choice j
        game, grid = weighted_pair_game, d.Grid(8.0, 40)
        pts = grid.points
        for a, agent in enumerate(game.agents):
            future = d.aggregate_beliefs(game, a).mean()
            table = d.comprehensive_values(agent, grid, pts[:, None], future)
            for j, k in itertools.product(range(len(pts)), repeat=2):
                profile = (pts[k], pts[j]) if a == 0 else (pts[j], pts[k])
                assert d.payoff(game, a, profile) == table[j, k]


class TestTabulatedGame:
    """A two-agent game outside the exact family, so the default tolerance is the one-step bound.

    Both utilities are quasiconcave but not concave, and every payoff is a
    dyadic rational, so the brute force below repeats the solver's arithmetic
    exactly.
    """

    grid = d.Grid(4.0, 16)
    values = (
        (0, 1, 2, 3, 4, 4.5, 4.75, 4.875, 5, 3, 1, 0.5, 0.25, 0, -1, -2, -3),
        (-4, -2, -1, -0.5, -0.25, 1, 0.75, 0.5, 0, -0.5, -1.5, -2.5, -3, -3.25, -3.5, -4, -6),
    )

    def game(self):
        costs = ((d.LinearCost(1.0), d.LinearCost(0.5)), (d.LinearCost(0.5), d.PowerCost(0.5, 2.0)))
        agents = tuple(
            d.AgentSpec(d.Tabulated(tuple(map(float, v)), self.grid), c1, c2, (point_mass(belief),))
            for v, (c1, c2), belief in zip(self.values, costs, (3.0, 1.0)))
        return d.GameSpec(agents)

    def test_certificates_equal_brute_force(self):
        game, grid = self.game(), self.grid
        pts = [float(x) for x in grid.points]
        m = len(pts)
        # table[a][j][k]: agent a's payoff for own choice pts[k] against the opponent at pts[j]
        table = [[[d.payoff(game, 0, (x, y)) for x in pts] for y in pts],
                 [[d.payoff(game, 1, (y, x)) for x in pts] for y in pts]]
        tol = max(abs(row[k + 1] - row[k]) for t in table for row in t for k in range(m - 1))
        expected = {False: [], True: []}
        for i1, i2 in itertools.product(range(m), repeat=2):
            own, opp = (i1, i2), (i2, i1)
            rows = [table[a][opp[a]] for a in range(2)]
            intervals = tuple(d.consideration_interval(agent.utility, agent.c1, pts[opp[a]])
                              for a, agent in enumerate(game.agents))
            slices = [interval_grid_indices(iv, grid) for iv in intervals]
            regret = max(max(row) - row[k] for row, k in zip(rows, own))
            restricted_regret = max(max(row[j] for j in idx) - row[k]
                                    for row, idx, k in zip(rows, slices, own))
            standard = all(row[k] >= max(row) - tol for row, k in zip(rows, own))
            deferral = all(k in idx and row[k] >= max(row[j] for j in idx) - tol
                           for row, idx, k in zip(rows, slices, own))
            if not (standard or deferral):
                continue
            kind = {(True, False): d.EquilibriumKind.STANDARD,
                    (False, True): d.EquilibriumKind.AFTER_DEFERRAL,
                    (True, True): d.EquilibriumKind.BOTH}[standard, deferral]
            passed = [r for r, ok in ((regret, standard), (restricted_regret, deferral)) if ok]
            cert = d.EquilibriumCertificate((pts[i1], pts[i2]), kind, max(passed))
            for restricted, ok in ((False, standard), (True, deferral)):
                if ok:
                    expected[restricted].append(cert)
        # the one-step bound, not float noise, decides: a tiny tolerance finds fewer
        assert len(d.find_equilibria(game, grid, 1e-9)) < len(expected[False])
        assert d.find_equilibria(game, grid) == expected[False]
        assert d.find_equilibria_after_deferral(game, grid) == expected[True]


def _classification_oracle(game, profile, grid, tolerance):
    """``classify_profile`` rebuilt agent by agent from the public interval and grid mapping."""
    socials = [d.aggregate_choices(game, i, profile) for i in range(game.n)]
    futures = [d.aggregate_beliefs(game, i).mean() for i in range(game.n)]
    agents = game.agents
    vectors = [d.comprehensive_values(a, grid, s, f) for a, s, f in zip(agents, socials, futures)]
    values = [d.comprehensive_value(a, x, s, f)
              for a, x, s, f in zip(agents, profile, socials, futures)]
    standard_regret = max(max(0.0, float(v.max()) - x) for v, x in zip(vectors, values))
    standard = all(x >= float(v.max()) - tolerance for v, x in zip(vectors, values))
    intervals = [d.consideration_interval(a.utility, a.c1, s) for a, s in zip(agents, socials)]
    slices = [interval_grid_indices(iv, grid) for iv in intervals]
    deferral_regret = max(max(0.0, float(v[idx].max()) - x)
                          for v, idx, x in zip(vectors, slices, values))
    pts = grid.points
    inside = all(min(iv.lo, pts[idx[0]]) - 1e-12 <= x <= max(iv.hi, pts[idx[-1]]) + 1e-12
                 for iv, idx, x in zip(intervals, slices, profile))
    deferral = inside and all(x >= float(v[idx].max()) - tolerance
                              for v, idx, x in zip(vectors, slices, values))
    if standard and deferral:
        return d.EquilibriumKind.BOTH, max(standard_regret, deferral_regret)
    if standard:
        return d.EquilibriumKind.STANDARD, standard_regret
    if deferral:
        return d.EquilibriumKind.AFTER_DEFERRAL, deferral_regret
    return None


_c1_costs = st.sampled_from([d.LinearCost(0.5), d.LinearCost(3.0), d.PowerCost(1.0, 1.5),
                             d.PowerCost(2.0, 2.0), d.LinearCost(0.0)])


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    a=st.sampled_from([0.5, 1.0, 2.0]),
    b=st.integers(0, 12),
    c1=st.lists(_c1_costs, min_size=3, max_size=3),
    # a strong pull toward a distant belief makes after-deferral-only equilibria
    c2=st.lists(st.sampled_from([d.LinearCost(1.0), d.LinearCost(8.0)]), min_size=3, max_size=3),
    beliefs=st.lists(st.integers(0, 8), min_size=3, max_size=3),
    steps=st.sampled_from([16, 40, 64]),
    shift=st.integers(-3, 3),
    offsets=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
    tolerance=st.sampled_from([1e-9, 0.5, 5.0]),
)
def test_classification_matches_per_agent_rebuild(n, a, b, c1, c2, beliefs, steps, shift, offsets,
                                                  tolerance):
    agents = tuple(
        d.AgentSpec(utility=d.Quadratic(a, float(b), 0.0), c1=cost1, c2=cost2,
                    beliefs=(point_mass(belief),) * (n - 1))
        for cost1, cost2, belief in zip(c1[:n], c2, beliefs))
    game = d.GameSpec(agents=agents)
    grid = d.Grid(8.0, steps)
    # every profile of choices near a grid point by the common peak, so that
    # many are equilibria: on grid points, half steps and arbitrary points
    x = float(grid.points[np.clip(int(grid.nearest_indices(agents[0].utility.peak)) + shift, 0, steps)])
    shifts = [0.0, 1.0, -0.5, 0.5] + offsets
    choices = sorted({float(np.clip(x + r * grid.step, 0.0, 8.0)) for r in shifts})
    for profile in itertools.product(choices, repeat=n):
        cert = d.classify_profile(game, profile, grid, tolerance)
        got = None if cert is None else (cert.kind, cert.max_regret)
        assert got == _classification_oracle(game, profile, grid, tolerance)


class TestLatticeSearch:
    def test_three_agent_symmetric_game(self):
        agent = d.AgentSpec(
            utility=d.Quadratic(2, 4, 5),
            c1=d.LinearCost(4.0),
            c2=d.LinearCost(0.0),
            beliefs=(point_mass(1.0), point_mass(1.0)),
        )
        game = d.GameSpec(agents=(agent,) * 3)
        grid = d.Grid(4.0, 200)
        certs = d.find_equilibria(game, grid)
        assert certs, "iteration should find at least one fixed point"
        for cert in certs:
            again = d.classify_profile(game, cert.profile, grid)
            assert again is not None and again.kind is cert.kind
        assert any(len(set(c.profile)) == 1 for c in certs)

    def test_three_agent_deferral_search(self):
        agent = d.AgentSpec(
            utility=d.Quadratic(2, 4, 5),
            c1=d.LinearCost(4.0),
            c2=d.LinearCost(0.0),
            beliefs=(point_mass(1.0), point_mass(1.0)),
        )
        game = d.GameSpec(agents=(agent,) * 3)
        certs = d.find_equilibria_after_deferral(game, d.Grid(4.0, 200))
        assert certs
        for cert in certs:
            assert cert.kind in (d.EquilibriumKind.AFTER_DEFERRAL, d.EquilibriumKind.BOTH)

    def test_lattice_cap(self):
        agent = d.AgentSpec(
            utility=d.Quadratic(2, 4, 5),
            c1=d.LinearCost(4.0),
            c2=d.LinearCost(0.0),
            beliefs=(point_mass(1.0),) * 4,
        )
        game = d.GameSpec(agents=(agent,) * 5)
        with pytest.raises(d.MethodUnsupported):
            d.find_equilibria(game, d.Grid(4.0, 50))


def _oracle_certificates(game, grid, starts, restricted, tolerance=None):
    """Certificates of the fixed points reached from each start, one start at a time.

    Iterates the slice-based best responses of ``slice_argmax`` (smallest of
    the argmax set) until a state repeats: a state that maps to itself is a
    fixed point, any other repeat a cycle.  Every state on a path shares the
    path's outcome.
    """
    respond = slice_argmax.deferral_best_response if restricted else slice_argmax.best_response
    wanted = (d.EquilibriumKind.AFTER_DEFERRAL if restricted else d.EquilibriumKind.STANDARD,
              d.EquilibriumKind.BOTH)
    outcome = {}
    for start in starts:
        state = tuple(float(grid.points[int(grid.nearest_indices(x))]) for x in start)
        path = []
        while state not in outcome and state not in path:
            path.append(state)
            state = tuple(respond(game, i, state[:i] + state[i + 1:], grid)[0]
                          for i in range(game.n))
        result = outcome[state] if state in outcome else (state if state == path[-1] else None)
        outcome.update(dict.fromkeys(path, result))
    certs = [d.classify_profile(game, p, grid, tolerance) for p in sorted({p for p in outcome.values() if p})]
    return [c for c in certs if c is not None and c.kind in wanted]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except d.DeferralError as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    tabulated=st.lists(st.booleans(), min_size=3, max_size=3),
    # peaks at multiples of 1/16 sit on grid points or midpoints, where argmax ties occur
    peaks=st.lists(st.one_of(st.floats(0.0, 8.0), st.integers(0, 128).map(lambda k: k / 16)),
                   min_size=3, max_size=3),
    c1=st.lists(_c1_costs, min_size=3, max_size=3),
    c2=st.lists(st.sampled_from([d.LinearCost(1.0), d.LinearCost(8.0), d.PowerCost(1.0, 2.0),
                                 d.LinearCost(0.0)]), min_size=3, max_size=3),
    w_1=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=3, max_size=3),
    beliefs=st.lists(st.integers(0, 8), min_size=3, max_size=3),
    weighted=st.booleans(),
    mixture=st.booleans(),
    steps=st.sampled_from([16, 40, 64]),
    # a grid index stands for an on-grid opponent, a float for an arbitrary one
    opponents=st.lists(st.one_of(st.integers(0, 64), st.floats(0.0, 8.0)), min_size=2, max_size=2),
)
def test_public_argmaxes_equal_the_slice_reference(n, tabulated, peaks, c1, c2, w_1, beliefs,
                                                   weighted, mixture, steps, opponents):
    grid = d.Grid(8.0, steps)
    utilities = [
        d.Tabulated(tuple(3.0 - abs(x - p) ** 1.5 for x in grid.points), grid) if tab
        else d.Quadratic(1.0, 2.0 * p, 0.0)
        for tab, p in zip(tabulated, peaks)]
    agents = tuple(
        d.AgentSpec(u, cost1, cost2, (point_mass(belief), point_mass(8 - belief))[:n - 1],
                    d.ComprehensiveUtilityForm(1.0, w, 1.0))
        for u, cost1, cost2, w, belief in zip(utilities[:n], c1, c2, w_1, beliefs))
    weights = (0.4, 0.6) if n == 2 else (0.5, 0.3, 0.2)
    aggregator = d.WeightedChoice(weights) if weighted else d.MeanChoice()
    # the second-stage functions take the agent's own belief mean, the game ones the mixture's
    mix = d.BeliefMixture((0.25, 0.75)) if mixture and n == 3 else d.BeliefMixture()
    game = d.GameSpec(agents=agents, choice_aggregator=aggregator,
                      belief_aggregator=mix)
    xs = [x if isinstance(x, float) else float(grid.points[min(x, steps)]) for x in opponents]
    pairs = ((d.best_response, slice_argmax.best_response),
             (d.deferral_best_response, slice_argmax.deferral_best_response),
             (d.second_stage_choice, slice_argmax.second_stage_choice),
             (d.unconstrained_optimum, slice_argmax.unconstrained_optimum))
    for i, agent in enumerate(agents):
        for public, reference in pairs[:2]:
            args = game, i, xs[:n - 1], grid
            assert _outcome(public, *args) == _outcome(reference, *args)
        for public, reference in pairs[2:]:
            for x_social in xs:
                args = agent, x_social, grid
                assert _outcome(public, *args) == _outcome(reference, *args)


def _lattice(game, grid):
    axis = np.linspace(0.0, grid.x_max, START_LATTICE_POINTS)
    return list(itertools.product(axis, repeat=game.n))


def _searches_match_oracle(game, grid, starts=None):
    oracle_starts = _lattice(game, grid) if starts is None else starts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # cycling starts are legal here
        standard = d.find_equilibria(game, grid, starts=starts)
        deferred = d.find_equilibria_after_deferral(game, grid, starts=starts)
    assert standard == _oracle_certificates(game, grid, oracle_starts, False)
    assert deferred == _oracle_certificates(game, grid, oracle_starts, True)


_small_quadratic_agent = st.builds(
    lambda a, b, k, d1, d2, beliefs: d.AgentSpec(
        utility=d.Quadratic(a, b, k), c1=d.LinearCost(d1), c2=d.LinearCost(d2),
        beliefs=tuple(point_mass(v) for v in beliefs)),
    a=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    b=st.integers(0, 12).map(float),
    k=st.integers(-3, 3).map(float),
    d1=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
    d2=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 8.0]),
    beliefs=st.lists(st.integers(0, 8), min_size=2, max_size=2),
)


class TestBatchedLatticeMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        agents=st.lists(_small_quadratic_agent, min_size=3, max_size=3),
        aggregator=st.sampled_from([d.MeanChoice(), d.WeightedChoice(weights=(0.5, 0.3, 0.2))]),
        steps=st.sampled_from([40, 64, 80]),
        starts=st.lists(st.tuples(*[st.floats(0.0, 8.0)] * 3), min_size=30, max_size=100),
    )
    def test_three_agent_games(self, agents, aggregator, steps, starts):
        game = d.GameSpec(agents=tuple(agents), choice_aggregator=aggregator)
        _searches_match_oracle(game, d.Grid(8.0, steps), starts)

    def test_three_agent_default_lattice(self):
        game = d.GameSpec(agents=tuple(
            d.AgentSpec(utility=d.Quadratic(a, b, 0.0), c1=d.LinearCost(d1), c2=d.LinearCost(1.0),
                        beliefs=(point_mass(5.0), point_mass(1.0)))
            for a, b, d1 in ((1.0, 4.0, 1.0), (0.5, 6.0, 2.0), (2.0, 2.0, 3.0))))
        grid = d.Grid(8.0, 40)
        assert START_LATTICE_POINTS**3 > _BLOCK_CELLS // (grid.steps + 1)
        _searches_match_oracle(game, grid)

    def test_four_agents_over_several_row_blocks(self):
        agents = tuple(
            d.AgentSpec(utility=d.Quadratic(a, b, 0.0), c1=d.LinearCost(d1), c2=d.LinearCost(1.0),
                        beliefs=(point_mass(3.0),) * 3)
            for a, b, d1 in ((1.0, 4.0, 2.0), (2.0, 12.0, 1.0), (0.5, 5.0, 3.0), (1.5, 3.0, 0.5)))
        game = d.GameSpec(agents=agents,
                          choice_aggregator=d.WeightedChoice(weights=(0.1, 0.2, 0.3, 0.4)))
        grid = d.Grid(8.0, 400)
        starts = [tuple(p) for p in np.random.default_rng(5).uniform(0.0, 8.0, (150, 4))]
        assert len(starts) > _BLOCK_CELLS // (grid.steps + 1)
        _searches_match_oracle(game, grid, starts)

    def test_explicit_off_grid_starts(self):
        game = d.GameSpec(agents=tuple(
            d.AgentSpec(utility=d.Quadratic(a, b, 1.0), c1=d.LinearCost(2.0), c2=d.LinearCost(0.5),
                        beliefs=(point_mass(6.0), point_mass(2.0)))
            for a, b in ((1.0, 2.0), (1.0, 8.0), (2.0, 10.0))))
        grid = d.Grid(8.0, 40)
        half = grid.step / 2
        # half-step ties, both ends of the bound and arbitrary interior points
        starts = [(half, 3 * half, 7.0 + half), (0.0, 8.0, 4.0), (0.123, 5.4321, 7.77),
                  (8.0 - half, half, 2.0 + half)]
        _searches_match_oracle(game, grid, starts)


@pytest.mark.parametrize("finder", [d.find_equilibria, d.find_equilibria_after_deferral])
@pytest.mark.parametrize("start", [float("nan"), float("inf"), -1.0, 5.0],
                         ids=["nan", "inf", "negative", "above-bound"])
def test_lattice_refuses_starts_outside_the_bound(finder, start):
    # as best_response refuses such opponents, and before any payoff is evaluated
    game, grid = _three_agent_game(), d.Grid(4.0, 40)
    with mock.patch("deferral.choice._comprehensive", side_effect=AssertionError("searched")):
        with pytest.raises(d.DomainError, match=rf"choice {start} outside \[0, 4.0\]"):
            finder(game, grid, starts=[(1.0, 1.0, 1.0), (start, 1.0, 1.0)])
    # an off-grid start inside the bound snaps to its nearest grid point
    snapped = finder(game, grid, starts=[(1.0, 1.0, 4.0)])
    assert snapped and finder(game, grid, starts=[(1.04, 0.96, 4.0)]) == snapped


class TestLatticeConvergenceCounts:
    def test_cycling_starts_are_counted(self):
        # From the reported game that lost 154 standard and 243 restricted
        # starts without a trace: every lost start sits on a 2-cycle.
        agents = tuple(
            d.AgentSpec(utility=d.Quadratic(a, b, k), c1=d.LinearCost(c1), c2=d.LinearCost(c2),
                        beliefs=tuple(point_mass(v) for v in beliefs))
            for a, b, k, c1, c2, beliefs in ((2, 8, 5, 3, 1, [4, 5]), (1, 5, 0, 2, 1, [3, 4]),
                                             (1.5, 9, 2, 4, 2, [5, 3])))
        game = d.GameSpec(agents=agents)
        grid = d.Grid(8.0, 400)
        with pytest.warns(RuntimeWarning, match=r"standard best-response iteration: "
                          r"1177 of 1331 starts converged, 154 cycled, 0 hit the 500-sweep cap"):
            standard = d.find_equilibria(game, grid)
        with pytest.warns(RuntimeWarning, match=r"after-deferral best-response iteration: "
                          r"1088 of 1331 starts converged, 243 cycled, 0 hit the 500-sweep cap"):
            deferred = d.find_equilibria_after_deferral(game, grid)
        # the certificates the per-start iteration found on this game
        diagonal = {
            "standard": [2.34, 2.38, 2.4, 2.44, 2.46, 2.48, 2.5, 2.52, 2.54, 2.56, 2.58, 2.6, 2.62,
                         2.64, 2.66, 2.68, 2.7, 2.72, 2.74, 2.76, 2.78, 2.8, 2.86, 2.88, 2.92, 2.94,
                         3.0],
            "deferred": [2.34, 2.38, 2.4, 2.44, 2.46, 2.48, 2.5, 2.58, 2.62, 2.66, 2.7, 2.74, 2.76,
                         2.8, 2.84, 2.88, 2.92, 3.0],
        }
        for certs, xs in ((standard, diagonal["standard"]), (deferred, diagonal["deferred"])):
            assert [c.profile for c in certs] == [(x, x, x) for x in xs]
            assert all(c.kind is d.EquilibriumKind.BOTH and c.max_regret == 0.0 for c in certs)

    def test_converging_search_is_silent(self):
        agent = d.AgentSpec(utility=d.Quadratic(2, 4, 5), c1=d.LinearCost(4.0), c2=d.LinearCost(0.0),
                            beliefs=(point_mass(1.0), point_mass(1.0)))
        game = d.GameSpec(agents=(agent,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.find_equilibria(game, d.Grid(4.0, 200))
            assert d.find_equilibria_after_deferral(game, d.Grid(4.0, 200))

    def test_starts_must_match_agent_count(self):
        agent = d.AgentSpec(utility=d.Quadratic(2, 4, 5), c1=d.LinearCost(4.0), c2=d.LinearCost(0.0),
                            beliefs=(point_mass(1.0), point_mass(1.0)))
        game = d.GameSpec(agents=(agent,) * 3)
        with pytest.raises(d.DomainError):
            d.find_equilibria(game, d.Grid(4.0, 40), starts=[(1.0, 2.0)])
        assert d.find_equilibria(game, d.Grid(4.0, 40), starts=[]) == []


# --- the row-blocked two-agent search against the search on whole tables ---------


_FAMILIES = ("exact", "power", "tabulated", "weighted", "zero c1", "w_1 = 0")


@st.composite
def _two_agent_games(draw):
    """A two-agent game of one family on a grid of 7, 17 or 41 points, none a multiple of 3."""
    family = draw(st.sampled_from(_FAMILIES))
    steps = draw(st.sampled_from([6, 16, 40]))
    grid = d.Grid(8.0, steps)
    linear = st.sampled_from([0.5, 1.0, 3.0]).map(d.LinearCost)
    power = st.builds(d.PowerCost, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([1.5, 2.0, 2.5]))
    agents = []
    for a in range(2):
        # a peak on a grid point or a midpoint, where ties (and invalid tabulations) occur
        peak = draw(st.integers(0, 2 * steps)) * grid.step / 2
        if family == "tabulated":
            utility = d.Tabulated(tuple(3.0 - abs(x - peak) ** 1.5 for x in grid.points), grid)
        else:
            curvature = draw(st.sampled_from([0.5, 1.0, 2.0]))
            utility = d.Quadratic(curvature, 2.0 * curvature * peak, draw(st.sampled_from([0.0, 5.0])))
        costs = power if family == "power" else linear
        c1, c2 = draw(costs), draw(costs | st.just(d.LinearCost(0.0)))
        if family == "zero c1" and a == 0:
            c1 = d.LinearCost(0.0)  # every slice is the peak alone
        form = d.ComprehensiveUtilityForm(1.0, 0.0 if family == "w_1 = 0" and a == 1 else 1.0, 1.0)
        agents.append(d.AgentSpec(utility, c1, c2, (point_mass(draw(st.integers(0, 8))),), form))
    weights = draw(st.sampled_from([(0.3, 0.7), (0.9, 0.1)]))
    aggregator = d.WeightedChoice(weights) if family == "weighted" else d.MeanChoice()
    return d.GameSpec(tuple(agents), choice_aggregator=aggregator), grid


#: Rows per block for ``m`` grid points: one, three (which never divide the
#: m of ``_two_agent_games``) and more than the table has.
_BLOCK_ROWS = {"one row": lambda m: 1, "not a divisor": lambda m: 3, "beyond m": lambda m: m + 1}


@pytest.mark.parametrize("block", _BLOCK_ROWS)
@settings(max_examples=60, deadline=None)
@given(game_grid=_two_agent_games(), tolerance=st.sampled_from([None, 0.0, 1e-9, 0.5]))
def test_row_blocks_give_the_dense_certificates(block, game_grid, tolerance):
    game, grid = game_grid
    m = len(grid.points)
    with mock.patch("deferral.choice._BLOCK_CELLS", _BLOCK_ROWS[block](m) * m):
        for finder, dense in ((d.find_equilibria, dense_search.find_equilibria),
                              (d.find_equilibria_after_deferral,
                               dense_search.find_equilibria_after_deferral)):
            assert _outcome(finder, game, grid, tolerance) == _outcome(dense, game, grid, tolerance)


@pytest.mark.parametrize("fixture,steps", [("akerlof_game", 400), ("example42_game", 400),
                                           ("power_cost_game", 200), ("weighted_pair_game", 400)])
def test_fixture_certificates_equal_the_dense_oracle(fixture, steps, request):
    # several rows per block at these sizes, and the last block is short
    game = request.getfixturevalue(fixture)
    grid = d.Grid(X_MAX[fixture], steps)
    assert (steps + 1) % (_BLOCK_CELLS // (steps + 1)) != 0
    assert d.find_equilibria(game, grid) == dense_search.find_equilibria(game, grid)
    assert (d.find_equilibria_after_deferral(game, grid)
            == dense_search.find_equilibria_after_deferral(game, grid))


@pytest.mark.parametrize("tolerance", [0.0, 0.5])
@pytest.mark.parametrize("fixture", ["akerlof_game", "example42_game"])
def test_fixture_windows_give_the_dense_certificates_at_zero_and_wide_tolerances(fixture, tolerance,
                                                                                  request):
    game = request.getfixturevalue(fixture)
    grid = d.Grid(X_MAX[fixture], 400)
    for finder, dense in ((d.find_equilibria, dense_search.find_equilibria),
                          (d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral)):
        assert finder(game, grid, tolerance) == dense(game, grid, tolerance)


@st.composite
def _concave_games(draw):
    """An exact-family two-agent game with curvature, drawn to stress the windows' bound:
    curvatures down to 1e-12 and constants up to 1e9 in size, which bury the
    curvature in rounding and leave plateaus of equal floats, w_1 = 0 and zero costs."""
    grid = d.Grid(draw(st.sampled_from([1.0, 8.0, 40.0])), draw(st.integers(1, 200)))
    cost = st.sampled_from([0.0, 0.5, 1.0, 4.0, 16.0]).map(d.LinearCost)
    agents = []
    for _ in range(2):
        a = 10.0 ** draw(st.floats(-12.0, 1.0))
        peak = draw(st.floats(-0.5, 1.5)) * grid.x_max
        utility = d.Quadratic(a, 2.0 * a * peak, draw(st.sampled_from([0.0, 5.0, -1e9, 1e9])))
        form = d.ComprehensiveUtilityForm(draw(st.sampled_from([1.0, 0.5])), draw(st.sampled_from([0.0, 1.0])))
        agents.append(d.AgentSpec(utility, draw(cost), draw(cost),
                                  (point_mass(draw(st.floats(0.0, 2.0 * grid.x_max))),), form))
    aggregator = draw(st.sampled_from([d.MeanChoice(), d.WeightedChoice((0.3, 0.7))]))
    return d.GameSpec(tuple(agents), choice_aggregator=aggregator), grid


@settings(max_examples=300, deadline=None)
@given(game_grid=_concave_games(), tolerance=st.sampled_from([None, 0.0, 1e-12, 0.5]))
def test_certified_windows_give_the_dense_certificates(game_grid, tolerance):
    game, grid = game_grid
    for finder, dense in ((d.find_equilibria, dense_search.find_equilibria),
                          (d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral)):
        assert _outcome(finder, game, grid, tolerance) == _outcome(dense, game, grid, tolerance)


@pytest.mark.parametrize("edge", [d.Quadratic(5e-324, 4.0, 0.0), d.Quadratic(1.0, 4.0, 1e308)],
                         ids=["curvature underflows", "terms overflow"])
def test_rows_at_the_float_range_ends_stay_whole(edge):
    # an exact-family agent whose concavity certificate fails reads whole rows,
    # beside an opponent whose rows are windowed
    grid = d.Grid(8.0, 30)

    def agent(utility):
        return d.AgentSpec(utility, d.LinearCost(1.0), d.LinearCost(0.5), (point_mass(4.0),))

    game = two_agent_game(agent(edge), agent(d.Quadratic(2.0, 6.0, 1.0)))
    futures = [d.aggregate_beliefs(game, a).mean() for a in range(2)]
    assert _concavity(game.agents[0], futures[0], grid) is None
    assert _concavity(game.agents[1], futures[1], grid) is not None
    for tolerance in (None, 0.0, 0.5):
        for finder, dense in ((d.find_equilibria, dense_search.find_equilibria),
                              (d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral)):
            with _windows_always:  # 31 rows of 31 cells fit one block
                assert finder(game, grid, tolerance) == dense(game, grid, tolerance)


# --- certified windows in the one grid argmax -------------------------------------


@st.composite
def _exact_games(draw):
    """An exact-family game of 2 or 3 agents under either aggregator: ``x_max`` from
    0.01 to 1000, ``w_u·a`` down to 1e-6, ``|k|`` up to 1e9, zero costs, ``w_1`` or
    ``w_2`` of 0, and peaks on grid points or midpoints, where argmax ties occur; or
    example42, whose best responses plateau."""
    n, steps = draw(st.sampled_from([2, 3])), draw(st.integers(1, 120))
    if draw(st.integers(0, 5)) == 0:
        agents = [quad_agent(c1=d.LinearCost(d1), c2=d.LinearCost(4.0), belief=10.0) for d1 in (7.0, 16.0, 4.0)]
        return d.GameSpec(tuple(replace(a, beliefs=a.beliefs * (n - 1)) for a in agents[:n])), d.Grid(40.0, steps)
    grid = d.Grid(10.0 ** draw(st.sampled_from([-2.0, 0.0, 3.0]) | st.floats(-2.0, 3.0)), steps)
    cost = st.sampled_from([0.0, 0.5, 1.0, 16.0]).map(d.LinearCost)
    agents = []
    for _ in range(n):
        w_u, a = draw(st.sampled_from([0.5, 1.0, 2.0])), 10.0 ** draw(st.sampled_from([-6.0, 2.0]) | st.floats(-6.0, 2.0))
        peak = draw(st.floats(-0.5, 1.5) | st.integers(0, 2 * steps).map(lambda h: h / (2 * steps))) * grid.x_max
        utility = d.Quadratic(a / w_u, 2.0 * a / w_u * peak, draw(st.sampled_from([0.0, -1e9, 1e9]) | st.floats(-1e9, 1e9)))
        form = d.ComprehensiveUtilityForm(w_u, draw(st.sampled_from([0.0, 1.0, 3.0])), draw(st.sampled_from([0.0, 1.0])))
        beliefs = tuple(point_mass(draw(st.floats(0.0, 2.0 * grid.x_max))) for _ in range(n - 1))
        agents.append(d.AgentSpec(utility, draw(cost), draw(cost), beliefs, form))
    weights = (0.3, 0.7) if n == 2 else (0.5, 0.3, 0.2)
    aggregator = draw(st.sampled_from([d.MeanChoice(), d.WeightedChoice(weights)]))
    return d.GameSpec(tuple(agents), choice_aggregator=aggregator), grid


#: A cap of one cell a block: every column of social choices is past one block, so a
#: certified agent's rows read windows however few they are, one row a block.
_windows_always = mock.patch("deferral.choice._BLOCK_CELLS", 1)


@settings(max_examples=200, deadline=None)
@given(game_grid=_exact_games(), data=st.data())
def test_windowed_argmax_sets_equal_the_slice_reference(game_grid, data):
    game, grid = game_grid
    # a fraction of the bound stands for an off-grid opponent, a grid index for an on-grid one
    choice = st.floats(0.0, 1.0).map(lambda f: f * grid.x_max) | st.integers(0, grid.steps).map(
        lambda j: float(grid.points[j]))
    opponents = data.draw(st.lists(st.lists(choice, min_size=game.n - 1, max_size=game.n - 1),
                                   min_size=1, max_size=12))
    for i in range(game.n):
        socials = _opponent_socials(game, i, opponents, grid)
        for restricted, reference in ((False, slice_argmax.best_response),
                                      (True, slice_argmax.deferral_best_response)):
            with _windows_always:
                got = _outcome(_argmax_sets, game, i, socials, grid, restricted)
            want = tuple(_outcome(reference, game, i, tuple(row), grid) for row in opponents)
            assert got == (want[0] if isinstance(want[0], type) else want)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_batched_closed_form_call_is_a_scalar_call_on_each_row(data):
    # rows share their number of kinks and whether hi is given; signed zeros, equal kink
    # points, zero weights and small integers, where candidates tie, all occur
    number = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 4.0, 8.0]) | st.floats(-10.0, 10.0)
    weight = st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 10.0)
    count, bounded = data.draw(st.integers(0, 3)), data.draw(st.booleans())
    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        a = data.draw(st.sampled_from([0.5, 2.0]) | st.floats(1e-6, 10.0))
        kinks = [(data.draw(number), data.draw(weight)) for _ in range(count)]
        if count > 1 and data.draw(st.booleans()):
            kinks[-1] = (kinks[0][0], kinks[-1][1])
        lo = data.draw(number)
        rows.append((a, data.draw(number), data.draw(number), kinks, lo, lo + abs(data.draw(number))))
    a, b, k, _, lo, hi = (np.array(c, dtype=float) for c in zip(*rows))
    kinks = [(np.array([r[3][j][0] for r in rows]), np.array([r[3][j][1] for r in rows])) for j in range(count)]
    x, top = _kinked_argmax(a, b, k, kinks, lo, hi if bounded else None)
    for r, (a, b, k, kinks, lo, hi) in enumerate(rows):
        got = tuple(sorted(dict.fromkeys(x[:, r][top[:, r]].tolist())))
        assert got == d.kinked_concave_argmax(a, b, k, kinks, lo, hi if bounded else None)


@settings(max_examples=200, deadline=None)
@given(game_grid=_exact_games(), data=st.data())
def test_the_closed_form_peak_is_a_certified_rows_best(game_grid, data):
    # within 2ε, the certificate's allowance for two float payoffs
    game, grid = game_grid
    choice = st.floats(0.0, 1.0).map(lambda f: f * grid.x_max) | st.integers(0, grid.steps).map(
        lambda j: float(grid.points[j]))
    opponents = data.draw(st.lists(st.lists(choice, min_size=game.n - 1, max_size=game.n - 1),
                                   min_size=1, max_size=12))
    for i in range(game.n):
        agent, future = game.agents[i], d.aggregate_beliefs(game, i).mean()
        certificate = _concavity(agent, future, grid)
        if certificate is None:
            continue
        reader = _AgentRows(agent, future, _opponent_socials(game, i, opponents, grid), grid)
        rows = reader.payoffs(np.arange(reader.count), np.arange(reader.m))
        peak = reader.peak
        assert (rows[np.arange(len(peak)), peak] >= rows.max(axis=1) - 2.0 * certificate[1]).all()


@settings(max_examples=60, deadline=None)
@given(game_grid=_exact_games().filter(lambda g: g[0].n == 3), tolerance=st.sampled_from([None, 0.0, 1e-9, 0.5]),
       data=st.data())
def test_windowed_lattice_certificates_equal_the_oracle_and_whole_rows(game_grid, tolerance, data):
    game, grid = game_grid
    starts = data.draw(st.lists(st.tuples(*[st.integers(0, grid.steps).map(lambda j: float(grid.points[j]))] * 3),
                                min_size=1, max_size=8))
    for restricted, finder in enumerate((d.find_equilibria, d.find_equilibria_after_deferral)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # cycling starts are legal here
            with _windows_always:  # a few starts fit one block
                found = _outcome(finder, game, grid, tolerance, starts)
            lattice = _outcome(finder, game, grid, tolerance)
            with mock.patch("deferral.choice._concavity", return_value=None):  # whole rows
                assert lattice == _outcome(finder, game, grid, tolerance)
        if not isinstance(found, type):
            assert found == _oracle_certificates(game, grid, starts, restricted, tolerance)


@pytest.mark.parametrize("a,k", [(1e-6, 0.0), (1e-2, 1e9)], ids=["flat", "buried in rounding"])
def test_windowed_argmax_sets_hold_every_near_tie(a, k):
    # on 0.01 / 100 steps, a curvature of 1e-6 keeps 21 points within 1e-12 of the peak,
    # and a constant of 1e9 rounds up to 53 points to one float: windows must hold them all
    grid = d.Grid(0.01, 100)
    agent = quad_agent(a=a, b=2.0 * a * 0.005, k=k, weights=(1.0, 0.0, 1.0))
    game = two_agent_game(agent, agent)
    opponents = [[float(x)] for x in grid.points[::7]]
    for i in range(2):
        socials = _opponent_socials(game, i, opponents, grid)
        for restricted, reference in ((False, slice_argmax.best_response),
                                      (True, slice_argmax.deferral_best_response)):
            with _windows_always:  # 15 rows of 101 cells fit one block
                got = _argmax_sets(game, i, socials, grid, restricted)
            assert got == tuple(reference(game, i, tuple(row), grid) for row in opponents)
            assert max(map(len, got)) > 5


def test_a_trapped_window_is_anchored_in_the_slice(trap_agent):
    # the future pull puts the peak of 8 of the 21 rows outside their consideration slice
    game, grid = two_agent_game(trap_agent, trap_agent), d.Grid(8.0, 80)
    opponents = [[float(x)] for x in grid.points[::4]]
    socials = _opponent_socials(game, 0, opponents, grid)
    with _windows_always:  # 21 rows of 81 cells fit one block
        free, restricted = [_argmax_sets(game, 0, socials, grid, r) for r in (False, True)]
    assert restricted == tuple(slice_argmax.deferral_best_response(game, 0, tuple(row), grid) for row in opponents)
    assert sum(f[0] not in r for f, r in zip(free, restricted)) == 8


def test_the_last_grid_point_is_the_bound():
    # 21 · x_max / 21 rounds above this x_max, which bounds every choice
    game = d.GameSpec((quad_agent(a=1.0, b=1.0, k=0.0, c1=d.LinearCost(0.0), belief=0.0),) * 3)
    grid = d.Grid(0.4869675251658631, 21)
    assert 21 * grid.x_max / 21 > grid.x_max == grid.points[-1]
    assert d.best_response(game, 0, (0.0, grid.points[-1]), grid) == (grid.x_max,)
    certs = d.find_equilibria(game, grid, starts=[(grid.x_max,) * 3])
    assert [c.profile for c in certs] == [(grid.x_max,) * 3]
    assert d.classify_profile(game, certs[0].profile, grid) == certs[0]


def test_the_lattice_reads_kernel_cells_that_grow_well_below_m():
    # whole rows read 11.45 M, 45.7 M and 114 M cells over both searches, and the row
    # bisection 634,794, 756,454 and 881,594; two cells a row around the closed-form
    # argmax and windows of a few cells grow 18% over a 10x larger grid
    cells = []

    def counting(*args):
        values = _comprehensive(*args)
        if np.ndim(args[-1]):  # not comprehensive_value's payoff at a fixed point
            cells[-1] += values.size
        return values

    for steps in (400, 1600, 4000):
        cells.append(0)
        with mock.patch("deferral.choice._comprehensive", counting):
            for finder in (d.find_equilibria, d.find_equilibria_after_deferral):
                assert len(finder(_trio(), d.Grid(8.0, steps))) == 1
    assert cells == [230_790, 237_990, 271_422]
    assert cells[-1] < 1.5 * cells[0]


@pytest.mark.parametrize("n", [2, 3])
def test_an_invalid_utility_refuses_every_search_in_either_order(n):
    # the zero c1 is valid and considers its peak alone, so only the tabulated utility refuses
    grid = d.Grid(8.0, 6)
    free = d.AgentSpec(d.Quadratic(1.0, 2.0, 0.0), d.LinearCost(0.0), d.LinearCost(1.0), (point_mass(1.0),) * (n - 1))
    tied = d.AgentSpec(d.Tabulated((2.0, 2.0, 0.0, -3.0, -7.0, -11.0, -16.0), grid), d.LinearCost(1.0),
                       d.LinearCost(1.0), (point_mass(1.0),) * (n - 1))
    profile = tuple(grid.points[:n].tolist())
    for agents in ((free,) * (n - 1) + (tied,), (tied,) + (free,) * (n - 1)):
        game = d.GameSpec(agents)
        with pytest.raises(d.SpecValidationError):
            d.find_equilibria(game, grid, starts=[profile])
        with pytest.raises(d.SpecValidationError):
            d.classify_profile(game, profile, grid)
        with pytest.raises(d.SpecValidationError):
            d.find_equilibria_after_deferral(game, grid, starts=[profile])
        # every utility is validated before any cost, so a negative slope beside it is reported later
        sloped = d.GameSpec(tuple(replace(a, c1=d.LinearCost(-1.0)) if a is free else a for a in agents))
        with pytest.raises(d.SpecValidationError, match="NotQuasiconcave") as raised:
            d.find_equilibria_after_deferral(sloped, grid, starts=[profile])
        assert "NegativeCostSlope" not in str(raised.value)


@st.composite
def _exact_pairs(draw):
    """An exact-family two-agent game: linear costs or ``PowerCost(0, p)``, weights
    ``w_u`` and ``w_1`` of 0 or more, ``|k|`` up to 1e9 and ``x_max`` from 0.013 to 1000."""
    grid = d.Grid(draw(st.sampled_from([0.013, 1.0, 8.0, 1000.0])), draw(st.integers(1, 120)))
    cost = (st.sampled_from([0.0, 0.5, 1.0, 16.0]).map(d.LinearCost)
            | st.sampled_from([1.5, 2.0, 3.0]).map(lambda p: d.PowerCost(0.0, p)))
    agents = []
    for _ in range(2):
        a, peak = 10.0 ** draw(st.floats(-6.0, 2.0)), draw(st.floats(-0.5, 1.5)) * grid.x_max
        utility = d.Quadratic(a, 2.0 * a * peak, draw(st.floats(-1e9, 1e9)))
        form = d.ComprehensiveUtilityForm(*(draw(st.sampled_from(w))
                                            for w in ([0.0, 0.5, 1.0], [0.0, 1.0, 3.0], [0.0, 1.0])))
        agents.append(d.AgentSpec(utility, draw(cost), draw(cost),
                                  (point_mass(draw(st.floats(0.0, 2.0 * grid.x_max))),), form))
    aggregator = draw(st.sampled_from([d.MeanChoice(), d.WeightedChoice((0.3, 0.7))]))
    return d.GameSpec(tuple(agents), choice_aggregator=aggregator), grid


@settings(max_examples=300, deadline=None)
@given(game_grid=_exact_pairs())
@example(game_grid=(two_agent_game(quad_agent(), quad_agent(b=8.0, belief=6.0)), d.Grid(8.0, 1)))
@example(game_grid=(two_agent_game(quad_agent(), quad_agent(b=8.0, belief=6.0)), d.Grid(8.0, 2)))
@example(game_grid=(two_agent_game(quad_agent(k=1e15), quad_agent(b=8.0, k=-1e15)), d.Grid(8.0, 40)))
@example(game_grid=(two_agent_game(quad_agent(), quad_agent(a=0.75, b=-0.25, k=-5.5e15, c2=d.LinearCost(1.0),
                                                             belief=1.3)), d.Grid(1.0, 20)))
def test_exact_family_default_tolerance_is_the_dense_one(game_grid):
    # max|U| over both whole tables, which the search takes per row: a certified row's from its
    # best and its two ends.  _concavity refuses m = 2 and rows whose rounding margin hides their
    # curvature (|k| of 1e15 and more), which read whole rows: in the last game a float row
    # minimum lies inside the row, so without the refusal the statistic would miss it
    game, grid = game_grid
    socials = [_reference_points([grid.points[:, None]], *_social_weights(game, a)) for a in range(2)]
    tables = [d.comprehensive_values(agent, grid, s, d.aggregate_beliefs(game, a).mean())
              for a, (agent, s) in enumerate(zip(game.agents, socials))]
    dense = _outcome(dense_search._tolerance, game, tables, None)
    # rows that fit one block are whole, so a cap of one cell a block puts certified rows on windows
    for finder, windows in itertools.product((d.find_equilibria, d.find_equilibria_after_deferral),
                                             (contextlib.nullcontext(), _windows_always)):
        with windows, mock.patch("deferral.game._tolerance", wraps=_tolerance) as spy:
            _outcome(finder, game, grid)
        assert _outcome(_tolerance, *spy.call_args.args) == dense


@settings(max_examples=100, deadline=None)
@given(game_grid=_exact_pairs(), tolerance=st.sampled_from([None, 0.0, 1e-9, 0.5]), data=st.data())
def test_the_verdict_is_the_same_on_windows_and_on_whole_rows(game_grid, tolerance, data):
    # windows forced on every row, whole rows, and the one-block rule give the same certificates,
    # from the batch verdict and from classify_profile on each of its profiles
    game, grid = game_grid
    choice = st.floats(0.0, 1.0).map(lambda f: f * grid.x_max) | st.integers(0, grid.steps).map(
        lambda j: float(grid.points[j]))
    profiles = data.draw(st.lists(st.tuples(choice, choice), min_size=1, max_size=12))
    verdicts = []
    for patch in (_windows_always, mock.patch("deferral.choice._concavity", return_value=None),
                  contextlib.nullcontext()):
        with patch:
            verdicts.append((_outcome(_judge_rows, game, grid, profiles, tolerance),
                             [_outcome(d.classify_profile, game, p, grid, tolerance) for p in profiles]))
    assert verdicts[0] == verdicts[1] == verdicts[2]
    judged, classified = verdicts[0]
    if not isinstance(judged, type):
        assert judged == [c for c in classified if c is not None]


def _kernel_cells(call, *args):
    """The payoff cells of each kernel call that ``call(*args)`` makes."""
    cells = []

    def counting(*args):
        values = _comprehensive(*args)
        cells.append(values.size)
        return values

    with mock.patch("deferral.choice._comprehensive", counting):
        call(*args)
    return cells


def test_certified_windows_read_under_two_percent_of_the_cells(akerlof_game, power_cost_game):
    # whole rows are 3m² cells: both tables in pass 1 and agent 1's in pass 2
    grid = d.Grid(8.0, 4000)
    for finder in (d.find_equilibria, d.find_equilibria_after_deferral):
        assert sum(_kernel_cells(finder, akerlof_game, grid)) < 0.02 * 3 * len(grid.points) ** 2
    # power costs are not certified: pass 1 reads both tables whole (2m² = 20,402 cells) and
    # pass 2 the windows it recorded in agent 1's rows, where whole rows read 33,906 and 32,787
    grid = d.Grid(8.0, 100)
    assert [sum(_kernel_cells(finder, power_cost_game, grid))
            for finder in (d.find_equilibria, d.find_equilibria_after_deferral)] == [27_139, 25_919]


def test_akerlof_reads_78_cells_per_grid_point_in_few_kernel_calls(akerlof_game):
    # both searches at the default tolerance: each probe of a certified row reads 2 or 3 cells
    # of every row in one call, so only the windows' blocks of at most _BLOCK_CELLS cells add
    # calls as m grows
    for steps, calls in ((400, 30), (4000, 30), (16000, 54)):
        grid = d.Grid(8.0, steps)
        cells = [_kernel_cells(finder, akerlof_game, grid)
                 for finder in (d.find_equilibria, d.find_equilibria_after_deferral)]
        assert sum(map(sum, cells)) == 78 * len(grid.points)
        assert sum(map(len, cells)) == calls


def test_a_quadratic_agent_is_certified_beside_a_tabulated_copy(akerlof_game):
    # the akerlof agent beside a tabulated copy of itself, both searches.  At tolerance 1e-9
    # the quadratic agent's rows are windowed; pass 2 walks agent 1's rows: the windows that
    # pass 1 recorded in the copy's whole rows when it is second, the certified windows when
    # it is first.  The default tolerance outside the exact family reads every row whole in
    # pass 1 for its one-step statistic.  Whole rows in every pass read 15,382,408 cells at
    # 1e-9 and 15,665,668 at the default tolerance; whole rows in pass 2 read 10,300,834 and
    # 15,665,668 with the copy second.
    grid = d.Grid(8.0, 1600)
    agent = akerlof_game.agents[0]
    copy = replace(agent, utility=d.Tabulated(tuple(utility_values(agent.utility, grid).tolist()), grid))
    finders = ((d.find_equilibria, dense_search.find_equilibria),
               (d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral))
    for game, cells in ((two_agent_game(agent, copy), (5_177_634, 10_850_260)),
                        (two_agent_game(copy, agent), (5_193_644, 10_874_942))):
        for tolerance, read in zip((1e-9, None), cells):
            assert sum(sum(_kernel_cells(finder, game, grid, tolerance)) for finder, _ in finders) == read
            for finder, dense in finders:
                assert finder(game, grid, tolerance) == dense(game, grid, tolerance)


def _bell_pair(steps):
    """Two bell-shaped tabulated utilities on [0, 8], peaks 3.6 and 4.4, height 6 and width 2, with
    ``c1 = 2·δ``, ``c2 = 0.5·δ`` and belief 4: the benchmark's ``pair_tabulated`` unshifted."""
    grid = d.Grid(8.0, steps)
    return d.GameSpec(tuple(
        d.AgentSpec(d.Tabulated(tuple((6.0 * np.exp(-0.5 * ((grid.points - peak) / 2.0) ** 2)).tolist()), grid),
                    d.LinearCost(2.0), d.LinearCost(0.5), (point_mass(4.0),)) for peak in (3.6, 4.4))), grid


def test_pass_2_reads_under_a_tenth_of_a_tabulated_agents_cells():
    # tabulated agents are not certified, and the bells' rows have two local maxima: pass 1
    # reads both tables whole, 2m² cells, and records agent 1's windows at a bound on the
    # one-step default tolerance; pass 2 reads those windows and agent 0's payoff at each hit,
    # where whole rows read m² and more
    game, grid = _bell_pair(1600)
    m = len(grid.points)
    for finder, dense in ((d.find_equilibria, dense_search.find_equilibria),
                          (d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral)):
        cells, passes = [0, 0], []

        def counting(*args):
            values = _comprehensive(*args)
            cells[bool(passes)] += values.size
            return values

        def bests(*args):
            passes.append(1)
            try:
                return _unpatched_bests(*args)
            finally:
                passes.pop()

        with mock.patch("deferral.choice._comprehensive", counting), mock.patch.object(_AgentRows, "bests", bests):
            found = finder(game, grid)
        assert cells[1] == 2 * m * m
        assert cells[0] < 0.1 * m * m
        assert found == dense(game, grid)


_unpatched_bests = _AgentRows.bests


def _halved_reach(self, part, stat, reach=None, restricted=False):
    """``_AgentRows.bests`` recording its windows at half the reach, rounded down: below every
    explicit tolerance but 0, and too narrow for it, so ``blocks`` must read whole rows."""
    return _unpatched_bests(self, part, stat, None if reach is None else np.nextafter(reach / 2, -np.inf), restricted)


@st.composite
def _uncertified_games(draw):
    """A two-agent game outside the exact family: bell-shaped tabulated utilities, whose rows have
    several local maxima; quadratic utilities with power costs; or a quadratic agent with
    linear costs beside a bell, in either order.  131 points are past one block."""
    grid = d.Grid(8.0, draw(st.sampled_from([6, 16, 40, 130])))
    family = draw(st.sampled_from(["tabulated", "power", "mixed"]))
    agents = []
    for a in range(2):
        peak = float(grid.points[draw(st.integers(0, grid.steps))])
        if family == "tabulated" or (family == "mixed" and a == 1):
            width = draw(st.sampled_from([0.5, 1.0, 2.0]))
            utility = d.Tabulated(tuple((6.0 * np.exp(-0.5 * ((grid.points - peak) / width) ** 2)).tolist()), grid)
        else:
            curvature = draw(st.sampled_from([0.5, 1.0, 2.0]))
            utility = d.Quadratic(curvature, 2.0 * curvature * peak, draw(st.sampled_from([0.0, 5.0])))
        if family == "power":
            costs = st.builds(d.PowerCost, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([1.5, 2.0, 2.5]))
        else:
            costs = st.sampled_from([0.5, 1.0, 3.0]).map(d.LinearCost)
        form = d.ComprehensiveUtilityForm(1.0, draw(st.sampled_from([0.0, 1.0, 2.5])), 1.0)
        agents.append(d.AgentSpec(utility, draw(costs), draw(costs), (point_mass(draw(st.integers(0, 8))),), form))
    return d.GameSpec(tuple(agents[::draw(st.sampled_from([1, -1]))])), grid


_READS = {"windows everywhere": lambda: _windows_always,
          "reach below the tolerance": lambda: mock.patch.object(_AgentRows, "bests", _halved_reach),
          "no patch": contextlib.nullcontext}


@pytest.mark.parametrize("reads", _READS)
@settings(max_examples=60, deadline=None)
@given(game_grid=_uncertified_games(), tolerance=st.sampled_from([None, 0.0, 1e-9, 0.5]))
def test_recorded_windows_give_the_dense_certificates(reads, game_grid, tolerance):
    game, grid = game_grid
    for finder, dense in ((d.find_equilibria, dense_search.find_equilibria),
                          (d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral)):
        expected = _outcome(dense, game, grid, tolerance)
        with _READS[reads]():
            assert _outcome(finder, game, grid, tolerance) == expected


def test_windows_recorded_below_the_tolerance_are_not_read(power_cost_game):
    # whole rows in pass 2, as before windows were recorded: 3m² cells and agent 0's at the hits
    grid = d.Grid(8.0, 100)
    with mock.patch.object(_AgentRows, "bests", _halved_reach):
        assert [sum(_kernel_cells(finder, power_cost_game, grid))
                for finder in (d.find_equilibria, d.find_equilibria_after_deferral)] == [33_906, 32_787]


def test_a_one_row_column_reads_its_row_whole_until_it_is_past_one_block(akerlof_game):
    # a window's probes cost more than a row that fits one block, so every one-row call reads
    # m cells in one kernel call, up to m = _BLOCK_CELLS; past it a certified row reads the 2
    # cells around its closed-form argmax, the window's 3-cell probe and a window of 3 cells
    agent = akerlof_game.agents[0]
    for steps, cells in ((400, [401]), (_BLOCK_CELLS - 1, [_BLOCK_CELLS]), (20000, [2, 3, 3])):
        grid = d.Grid(8.0, steps)
        for call, *args in ((d.best_response, akerlof_game, 0, (2.5,), grid),
                            (d.deferral_best_response, akerlof_game, 0, (2.5,), grid),
                            (d.second_stage_choice, agent, 2.5, grid), (d.unconstrained_optimum, agent, 2.5, grid),
                            (d.detect_trap, agent, 2.5, grid)):
            assert _kernel_cells(call, *args) == cells, call
        # the certificate's one kernel table serves both of its routes
        assert _kernel_cells(d.two_criteria_certificate, agent, 2.5, grid) == [steps + 1]


def test_both_searches_hold_no_table_at_4000_steps(akerlof_game):
    # a table of 4001 x 4001 float64 is 128 MB and its boolean mask 16 MB
    grid = d.Grid(8.0, 4000)
    grid.points  # cached on the grid, not the searches' memory
    tracemalloc.start()
    try:
        standard = d.find_equilibria(akerlof_game, grid)
        deferred = d.find_equilibria_after_deferral(akerlof_game, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.profile for c in standard] == [c.profile for c in deferred]
    assert [c.profile for c in standard] == [(x, x) for x in grid.points[:1001].tolist()]
    assert peak < 16 * 2**20


def test_a_certificate_holds_its_profile_kind_and_regret_only(akerlof_game):
    # tolerance 1e9 passes every profile: 301² records of three fields, about 20 MiB
    assert [f.name for f in fields(d.EquilibriumCertificate)] == ["profile", "kind", "max_regret"]
    grid = d.Grid(8.0, 300)
    grid.points  # cached on the grid, not the certificates' memory
    tracemalloc.start()
    try:
        certs = d.find_equilibria(akerlof_game, grid, 1e9)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(certs) == 301**2
    assert held < 30 * 2**20


@pytest.mark.parametrize("tolerance", [None, 0.5])
@pytest.mark.parametrize("fixture", ["akerlof_game", "example42_game"])
def test_after_deferral_choices_lie_in_the_slice_of_the_public_interval(fixture, tolerance, request):
    # an agent's interval is one call away: the others' choices give its social choice
    game = request.getfixturevalue(fixture)
    grid = d.Grid(X_MAX[fixture], 400)
    for finder in (d.find_equilibria, d.find_equilibria_after_deferral):
        certs = [c for c in finder(game, grid, tolerance) if c.kind is not d.EquilibriumKind.STANDARD]
        assert certs
        for cert in certs:
            for i, (agent, x) in enumerate(zip(game.agents, cert.profile)):
                social = d.aggregate_choices(game, i, cert.profile)
                interval = d.consideration_interval(agent.utility, agent.c1, social)
                assert x in grid.points[interval_grid_indices(interval, grid)], (cert, i)


def test_a_zero_power_cost_solves_as_the_zero_linear_cost():
    # 0 · 8**400 is zero at the far end of the grid, though 8**400 overflows to inf
    far, zero = d.PowerCost(0.0, 400.0), d.LinearCost(0.0)
    grid = d.Grid(8.0, 8)
    finders = (d.find_equilibria, dense_search.find_equilibria,
               d.find_equilibria_after_deferral, dense_search.find_equilibria_after_deferral)
    for agent, linear in ((quad_agent(c1=far), quad_agent(c1=zero)),
                          (quad_agent(c2=far, belief=0.0), quad_agent(c2=zero, belief=0.0))):
        games = [two_agent_game(a, quad_agent()) for a in (agent, linear)]
        assert d.find_equilibria(games[1], grid)
        for finder in finders:
            assert _outcome(finder, games[0], grid) == _outcome(finder, games[1], grid)
        # the lattice too
        beliefs = (point_mass(0.0),) * 2
        trios = [d.GameSpec(tuple(replace(a, beliefs=beliefs) for a in (first, quad_agent(), quad_agent())))
                 for first in (agent, linear)]
        assert (d.find_equilibria(trios[0], grid, starts=[(0.0, 0.0, 0.0)])
                == d.find_equilibria(trios[1], grid, starts=[(0.0, 0.0, 0.0)]) != [])
    # with w_1 = 0 the current-distance cost is never evaluated
    game = two_agent_game(quad_agent(c1=far, weights=(1.0, 0.0, 1.0)), quad_agent())
    assert d.find_equilibria(game, grid) == dense_search.find_equilibria(game, grid)


def test_the_default_tolerance_does_not_depend_on_the_agents_order():
    # PowerCost(1, 400) is inf far from the social choice, so the steep agent's
    # payoffs hold -inf there and the one-step statistic is inf or NaN
    steep = quad_agent(c1=d.PowerCost(1.0, 400.0))
    mild = quad_agent(a=1.0, b=6.0, k=0.0, c1=d.PowerCost(1.0, 2.0))
    grid = d.Grid(8.0, 16)
    profiles, kinds = [], []
    for first, second in ((steep, mild), (mild, steep)):
        game = two_agent_game(first, second)
        for finder in (d.find_equilibria, d.find_equilibria_after_deferral, dense_search.find_equilibria):
            with pytest.raises(d.DomainError, match="default tolerance is not finite"):
                finder(game, grid)
        with pytest.raises(d.DomainError, match="not finite.*pass a tolerance"):
            d.classify_profile(game, (1.5, 2.0), grid)
        profiles.append([[c.profile for c in finder(game, grid, 1e-9)]
                         for finder in (d.find_equilibria, d.find_equilibria_after_deferral)])
        kinds.append(d.classify_profile(game, (1.5, 2.0) if first is steep else (2.0, 1.5), grid, 1e-9).kind)
    assert profiles[0] == [[(1.5, 2.0), (1.5, 2.5)]] * 2
    assert profiles[1] == [[(2.0, 1.5), (2.5, 1.5)]] * 2
    assert kinds == [d.EquilibriumKind.BOTH] * 2


def test_an_argmax_over_a_slice_of_minus_inf_payoffs_stays_in_the_slice():
    # 8**400 is inf, so c2 = PowerCost(1, 400) makes every payoff -inf from 6 on, and the
    # consideration interval at 7.5 is [7, 7.5]: each cell there ties at -inf, and no cell
    # outside the slice may join the argmax
    agent = quad_agent(a=1.0, b=14.0, k=0.0, c2=d.PowerCost(1.0, 400.0), belief=0.0)
    game, grid = two_agent_game(agent, agent), d.Grid(8.0, 16)
    assert d.consideration_interval(agent.utility, agent.c1, 7.5) == d.ClosedInterval(7.0, 7.5)
    assert d.second_stage_choice(agent, 7.5, grid).chosen == (7.0, 7.5)
    assert d.deferral_best_response(game, 0, (7.5,), grid) == (7.0, 7.5)
    assert d.two_criteria_certificate(agent, 7.5, grid).holds
    # the restricted lattice sweep moves each agent to the slice's smallest point, index 14
    assert _lattice_sweep(game, grid, True)(np.array([[15, 15]])).tolist() == [[14, 14]]


# --- the batch verdict: one row pass for classify_profile and the lattice -------------


def _trio(order=(0, 1, 2)):
    """Three agents whose one fixed point at steps=40, (1.4, 2.4, 2.4), has regret 8.9e-16."""
    agents = [d.AgentSpec(d.Quadratic(a, b, k), d.LinearCost(d1), d.LinearCost(0.5), (point_mass(4.0),) * 2)
              for a, b, k, d1 in ((2.0, 4.0, 3.0, 1.0), (1.0, 6.0, 0.0, 1.5), (2.0, 10.0, 7.0, 1.0))]
    return d.GameSpec(tuple(agents[i] for i in order))


def _conformist_trio():
    agent = d.AgentSpec(d.Quadratic(2, 4, 5), d.LinearCost(4.0), d.LinearCost(0.0), (point_mass(1.0),) * 2)
    return d.GameSpec((agent,) * 3)


def test_the_verdict_reads_blocks_of_at_most_the_cap():
    # ten fixed points past a cap of three rows, and every block within the cap
    game, grid = _conformist_trio(), d.Grid(8.0, 40)
    m = len(grid.points)
    expected = [d.find_equilibria(game, grid), d.find_equilibria_after_deferral(game, grid)]
    assert all(len(certs) == 10 for certs in expected)
    cells, judging = [], []

    def counting(agent, own, base, socials):
        values = _comprehensive(agent, own, base, socials)
        if np.ndim(socials):  # not comprehensive_value's payoff at a fixed point
            cells.append((bool(judging), values.size, len(socials)))
        return values

    def judge(*args):
        judging.append(True)
        try:
            return _judge_rows(*args)
        finally:
            judging.pop()

    with mock.patch("deferral.choice._BLOCK_CELLS", 3 * m), mock.patch("deferral.choice._comprehensive", counting), \
         mock.patch("deferral.game._judge_rows", judge):
        found = [d.find_equilibria(game, grid), d.find_equilibria_after_deferral(game, grid)]
    assert found == expected
    # a block of m-wide rows, or a probe of a few cells a row around a certified peak
    assert all(size <= 3 * m or size <= 3 * rows for _, size, rows in cells)
    # ten rows are past one block, so each search's verdict reads every agent's ten rows on
    # windows: the 2 cells around the closed-form argmax, a 3-cell probe and a 3-cell window for
    # the best, a 3-cell probe and a 2-cell window for the best in the slice, and the two ends
    assert [size for judged, size, _ in cells if judged] == [20, 30, 30, 30, 20, 20] * 6


def test_no_rows_make_no_kernel_call():
    game, grid = _trio(), d.Grid(8.0, 40)
    with mock.patch("deferral.choice._comprehensive", side_effect=AssertionError("kernel")), \
         mock.patch("deferral.game.comprehensive_value", side_effect=AssertionError("kernel")):
        assert _judge_rows(game, grid, np.empty((0, 3)), None) == []
        curve = d.best_response_curve(two_agent_game(quad_agent(), quad_agent()), 0, [], grid)
        assert curve.opponent_values == () and curve.argmax_sets == ()
    # a lattice whose every start cycles judges no row
    cycling = d.GameSpec(tuple(
        d.AgentSpec(d.Quadratic(a, b, k), d.LinearCost(c1), d.LinearCost(c2), tuple(map(point_mass, beliefs)))
        for a, b, k, c1, c2, beliefs in ((2, 8, 5, 3, 1, [4, 5]), (1, 5, 0, 2, 1, [3, 4]),
                                         (1.5, 9, 2, 4, 2, [5, 3]))))
    with mock.patch("deferral.choice._AgentRows.bests", side_effect=AssertionError("judged")), \
         mock.patch("deferral.game.comprehensive_value", side_effect=AssertionError("judged")):
        with pytest.warns(RuntimeWarning, match="0 of 1 starts converged, 1 cycled"):
            assert d.find_equilibria(cycling, grid, starts=[(0.0, 0.0, 5.6)]) == []


@pytest.mark.parametrize("steps", [40, 400])
def test_the_trio_certificates_follow_the_agents_order(steps):
    grid = d.Grid(8.0, steps)
    base = [d.find_equilibria(_trio(), grid), d.find_equilibria_after_deferral(_trio(), grid)]
    assert all(len(certs) == 1 for certs in base)
    for order in itertools.permutations(range(3)):
        game = _trio(order)
        for certs, finder in zip(base, (d.find_equilibria, d.find_equilibria_after_deferral)):
            moved = sorted((replace(c, profile=tuple(c.profile[i] for i in order)) for c in certs),
                           key=lambda c: c.profile)
            assert finder(game, grid) == moved


@st.composite
def _invariance_games(draw):
    """A valid two-agent game: quadratic or tabulated utilities, linear or power costs, zero weights."""
    grid = d.Grid(8.0, draw(st.sampled_from([6, 16, 24])))
    agents = []
    for _ in range(2):
        # a peak on a grid point, or a midpoint for a quadratic, where ties occur
        peak = draw(st.integers(0, 2 * grid.steps)) * grid.step / 2
        if draw(st.booleans()):
            peak = float(grid.points[int(grid.nearest_indices(peak))])  # a table with a tie is invalid
            utility = d.Tabulated(tuple(3.0 - abs(x - peak) ** 1.5 for x in grid.points), grid)
        else:
            curvature = draw(st.sampled_from([0.5, 1.0, 2.0]))
            utility = d.Quadratic(curvature, 2.0 * curvature * peak, draw(st.sampled_from([0.0, 5.0])))
        cost = (st.sampled_from([0.0, 0.5, 3.0]).map(d.LinearCost)
                | st.builds(d.PowerCost, st.sampled_from([0.5, 2.0]), st.sampled_from([1.5, 2.0])))
        form = d.ComprehensiveUtilityForm(*(draw(st.sampled_from(w)) for w in ([0.0, 1.0, 0.5], [0.0, 1.0, 2.5],
                                                                               [0.0, 1.0])))
        agents.append(d.AgentSpec(utility, draw(cost), draw(cost), (point_mass(draw(st.integers(0, 8))),), form))
    aggregator = draw(st.sampled_from([d.MeanChoice(), d.WeightedChoice((0.3, 0.7))]))
    return d.GameSpec(tuple(agents), choice_aggregator=aggregator), grid


def _verdicts(game, grid, tolerance, profiles):
    """Both finders' certificates by profile, and ``classify_profile``'s on ``profiles``."""
    found = [_outcome(finder, game, grid, tolerance)
             for finder in (d.find_equilibria, d.find_equilibria_after_deferral)]
    return ([f if isinstance(f, type) else {c.profile: c for c in f} for f in found],
            [_outcome(d.classify_profile, game, p, grid, tolerance) for p in profiles])


def _profiles(game, grid, offsets):
    """Grid profiles, and off-grid ones unless a utility is tabulated."""
    pts = grid.points
    profiles = [(float(pts[i]), float(pts[j])) for i, j in offsets]
    if not any(isinstance(a.utility, d.Tabulated) for a in game.agents):
        profiles += [(float(pts[i]) + grid.step / 3, float(pts[j])) for i, j in offsets if i < grid.steps]
    return profiles


_offsets = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(game_grid=_invariance_games(), tolerance=st.sampled_from([None, 0.0, 0.25]), offsets=_offsets)
def test_swapping_the_agents_swaps_every_certificate(game_grid, tolerance, offsets):
    game, grid = game_grid
    agg = game.choice_aggregator
    swapped = replace(game, agents=game.agents[::-1], choice_aggregator=(
        agg if isinstance(agg, d.MeanChoice) else d.WeightedChoice(agg.weights[::-1])))
    profiles = _profiles(game, grid, offsets)
    found, judged = _verdicts(game, grid, tolerance, profiles)
    found_swapped, judged_swapped = _verdicts(swapped, grid, tolerance, [p[::-1] for p in profiles])

    def swap(cert):
        return cert if cert is None or isinstance(cert, type) else replace(cert, profile=cert.profile[::-1])

    assert found_swapped == [f if isinstance(f, type) else {p[::-1]: swap(c) for p, c in f.items()} for f in found]
    assert judged_swapped == [swap(c) for c in judged]


@settings(max_examples=60, deadline=None)
@given(game_grid=_invariance_games(), tolerance=st.sampled_from([0.0, 1e-9, 0.25]), offsets=_offsets,
       power=st.integers(-4, 4))
def test_a_power_of_two_on_the_weights_scales_every_regret(game_grid, tolerance, offsets, power):
    game, grid = game_grid
    c = 2.0**power
    scaled = replace(game, agents=tuple(
        replace(a, form=d.ComprehensiveUtilityForm(c * a.form.w_u, c * a.form.w_1, c * a.form.w_2))
        for a in game.agents))
    profiles = _profiles(game, grid, offsets)
    found, judged = _verdicts(game, grid, tolerance, profiles)

    def scale(cert):
        return cert if cert is None or isinstance(cert, type) else replace(cert, max_regret=c * cert.max_regret)

    assert _verdicts(scaled, grid, c * tolerance, profiles) == (
        [f if isinstance(f, type) else {p: scale(cert) for p, cert in f.items()} for f in found],
        [scale(cert) for cert in judged])
