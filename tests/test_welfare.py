import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferral as d
from conftest import quad_agent, two_agent_game


class TestParetoDominates:
    def test_no_profile_dominates_itself(self, akerlof_game):
        assert not d.pareto_dominates(akerlof_game, (1.0, 1.0), (1.0, 1.0))

    def test_peak_profile_dominates(self, akerlof_game):
        # payoffs 7 vs 5 for both agents
        assert d.pareto_dominates(akerlof_game, (1.0, 1.0), (2.0, 2.0))

    def test_equal_payoffs_do_not_dominate(self, akerlof_game):
        # both profiles give payoff 5 to both agents
        assert not d.pareto_dominates(akerlof_game, (0.0, 0.0), (2.0, 2.0))

    def test_antisymmetry(self, akerlof_game):
        profiles = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (1.0, 1.5)]
        for p in profiles:
            for q in profiles:
                assert not (
                    d.pareto_dominates(akerlof_game, p, q)
                    and d.pareto_dominates(akerlof_game, q, p)
                )


class TestWelfareGap:
    def test_identical_profiles_zero(self, akerlof_game):
        report = d.welfare_gap(akerlof_game, (1.5, 1.5), (1.5, 1.5))
        assert report.per_agent_gaps == (0.0, 0.0)
        assert report.total == 0.0

    def test_akerlof_gap(self, akerlof_game):
        report = d.welfare_gap(akerlof_game, (1.0, 1.0), (2.0, 2.0))
        assert report.per_agent_gaps == (2.0, 2.0)
        assert report.total == 4.0

    def test_literal_reading_gap_is_negative(self, example42_game):
        # U1(3.75,4) = -34.875, U1(1,1) = -29; U2(4,3.75) = -39, U2(1,1) = -29
        report = d.welfare_gap(example42_game, (3.75, 4.0), (1.0, 1.0))
        assert report.per_agent_gaps == (-5.875, -10.0)
        assert report.total == -15.875
        report2 = d.welfare_gap(example42_game, (3.75, 4.0), (1.5, 1.5))
        assert report2.total == -18.875

    def test_gap_negates_when_swapped(self, akerlof_game):
        a = d.welfare_gap(akerlof_game, (1.0, 1.0), (2.0, 2.0)).total
        b = d.welfare_gap(akerlof_game, (2.0, 2.0), (1.0, 1.0)).total
        assert a == -b


class TestDeferralLoss:
    def test_genuine_loss(self, belief_heavy_game):
        # standard (15/4, 4): U1 = -8.125 - 4*0.25 - 7*36.25 = -262.875,
        #                     U2 = -11 - 1 - 16*36 = -588
        # deferred (1, 1):    U1 = 7 - 7*39 = -266, U2 = 7 - 16*39 = -617
        grid = d.Grid(40.0, 1600)
        report = d.deferral_loss(belief_heavy_game, (3.75, 4.0), (1.0, 1.0), grid)
        assert report.per_agent_gaps == (3.125, 29.0)
        assert report.total == 32.125
        assert report.total == d.welfare_gap(belief_heavy_game, (3.75, 4.0), (1.0, 1.0)).total

    def test_loss_against_midpoint_profile(self, belief_heavy_game):
        # deferred (1.5, 1.5): U1 = 6.5 - 7*38.5 = -263, U2 = 6.5 - 16*38.5 = -609.5
        grid = d.Grid(40.0, 1600)
        report = d.deferral_loss(belief_heavy_game, (3.75, 4.0), (1.5, 1.5), grid)
        assert report.per_agent_gaps == (0.125, 21.5)
        assert report.total == 21.625

    def test_no_dominance_refused(self, belief_heavy_game):
        # at (2,2) agent 1 does better than in the standard equilibrium:
        # U1(2,2) = 5 - 7*38 = -261 > -262.875
        grid = d.Grid(40.0, 1600)
        with pytest.raises(d.PreconditionViolated) as err:
            d.deferral_loss(belief_heavy_game, (3.75, 4.0), (2.0, 2.0), grid)
        assert err.value.code == "NoParetoDominance"

    def test_same_profile_refused(self, belief_heavy_game):
        grid = d.Grid(40.0, 1600)
        with pytest.raises(d.PreconditionViolated) as err:
            d.deferral_loss(belief_heavy_game, (2.0, 2.0), (2.0, 2.0), grid)
        assert err.value.code == "StandardKindMismatch"

    def test_literal_reading_pair_fails_gate(self, example42_game):
        # under the literal payoffs (3.75, 4) is no equilibrium at all
        grid = d.Grid(40.0, 800)
        with pytest.raises(d.PreconditionViolated) as err:
            d.deferral_loss(example42_game, (3.75, 4.0), (1.0, 1.0), grid)
        assert err.value.code == "StandardKindMismatch"

    def test_both_kind_rejected_for_deferred_slot(self, akerlof_game):
        # a symmetric conformist equilibrium passes both tests, so it is not
        # a legal "after deferral but not standard" witness
        grid = d.Grid(8.0, 400)
        with pytest.raises(d.PreconditionViolated) as err:
            d.deferral_loss(akerlof_game, (2.0, 2.0), (1.0, 1.0), grid)
        assert err.value.code in ("StandardKindMismatch", "DeferredKindMismatch")

    def test_loss_positive_and_consistent(self, belief_heavy_game):
        grid = d.Grid(40.0, 1600)
        report = d.deferral_loss(belief_heavy_game, (3.75, 4.0), (1.0, 1.0), grid)
        assert report.total > 0
        assert all(g >= 0 for g in report.per_agent_gaps)
        assert any(g > 0 for g in report.per_agent_gaps)
        assert report.total == sum(report.per_agent_gaps)

    def test_gaps_computed_once(self, belief_heavy_game, monkeypatch):
        # the dominance gate reads the report's gaps: one payoff per agent and profile
        calls = []

        def counted(game, i, profile):
            calls.append((i, tuple(profile)))
            return d.payoff(game, i, profile)

        monkeypatch.setattr("deferral.welfare.payoff", counted)
        report = d.deferral_loss(belief_heavy_game, (3.75, 4.0), (1.0, 1.0), d.Grid(40.0, 1600))
        assert len(calls) == 2 * belief_heavy_game.n
        assert report.per_agent_gaps == (3.125, 29.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2))
def test_gap_antisymmetry_random(p1, p2, q1, q2):
    agent = quad_agent(c1=d.LinearCost(4.0), c2=d.LinearCost(0.0), belief=1.0)
    game = two_agent_game(agent, agent)
    a = d.welfare_gap(game, (p1, p2), (q1, q2)).total
    b = d.welfare_gap(game, (q1, q2), (p1, p2)).total
    assert a == pytest.approx(-b, abs=1e-12)
