"""Shared builders for the test suite."""

from __future__ import annotations

import pytest

import deferral as d


def point_mass(value: float) -> d.FiniteRandomVariable:
    return d.FiniteRandomVariable(atoms=((float(value), 1.0),))


def quad_agent(
    a=2.0,
    b=4.0,
    k=5.0,
    c1=None,
    c2=None,
    belief=1.0,
    weights=(1.0, 1.0, 1.0),
) -> d.AgentSpec:
    return d.AgentSpec(
        utility=d.Quadratic(a, b, k),
        c1=c1 if c1 is not None else d.LinearCost(1.0),
        c2=c2 if c2 is not None else d.ZeroCost(),
        beliefs=(point_mass(belief),),
        form=d.ComprehensiveUtilityForm(*weights),
    )


def two_agent_game(agent0: d.AgentSpec, agent1: d.AgentSpec, x_max: float) -> d.GameSpec:
    return d.GameSpec(agents=(agent0, agent1), x_max=x_max)


@pytest.fixture
def akerlof_game() -> d.GameSpec:
    """Conformist baseline: identical agents, linear conformity cost, no
    future concern.  Equilibria are the diagonal with x in [0, 2]."""
    agent = quad_agent(c1=d.LinearCost(4.0), c2=d.ZeroCost(), belief=1.0)
    return two_agent_game(agent, agent, x_max=8.0)


@pytest.fixture
def example42_game() -> d.GameSpec:
    """Two-agent belief game in the literal reading of its payoff formulas:
    conformity weights 7 and 16, future weight 4 toward a point-mass at 10."""
    a0 = quad_agent(c1=d.LinearCost(7.0), c2=d.LinearCost(4.0), belief=10.0)
    a1 = quad_agent(c1=d.LinearCost(16.0), c2=d.LinearCost(4.0), belief=10.0)
    return two_agent_game(a0, a1, x_max=40.0)


@pytest.fixture
def belief_heavy_game() -> d.GameSpec:
    """Variant with conformity weight 4 for both agents and future weights
    7 / 16 toward a point-mass at 40.

    Hand-derived landscape (slopes of the kinked concave payoffs):
    agent 1 best response plateaus at 7/4 and 15/4, agent 2 at 4 and 6;
    unique standard equilibrium (15/4, 4), after-deferral set = diagonal
    [1, 15/4], and the standard equilibrium Pareto-dominates (1,1) with a
    deferral loss of 32.125.
    """
    a0 = quad_agent(c1=d.LinearCost(4.0), c2=d.LinearCost(7.0), belief=40.0)
    a1 = quad_agent(c1=d.LinearCost(4.0), c2=d.LinearCost(16.0), belief=40.0)
    return two_agent_game(a0, a1, x_max=40.0)


@pytest.fixture
def weighted_pair_game() -> d.GameSpec:
    """Identical agents under unequal choice weights, which two agents ignore:
    each one's social choice is the other's choice."""
    agent = quad_agent(a=1.0, b=2.0, k=0.0, c1=d.LinearCost(2.0), belief=1.0)
    return d.GameSpec(agents=(agent, agent), x_max=8.0,
                      choice_aggregator=d.WeightedChoice((0.3, 0.7)))


@pytest.fixture
def trap_agent() -> d.AgentSpec:
    """Extreme-belief agent: against x_s = 2 the interval is [1, 2] but the
    unconstrained optimum sits at 3.25 (slopes 15-4x / 13-4x / -7-4x)."""
    return quad_agent(c1=d.LinearCost(1.0), c2=d.LinearCost(10.0), belief=6.0)


@pytest.fixture
def power_cost_game() -> d.GameSpec:
    """Power costs in both distances, so the payoffs leave the exact family."""
    agent0 = d.AgentSpec(d.Quadratic(1.0, 3.0), d.PowerCost(1.0, 2.5), d.PowerCost(2.0, 1.5),
                         (point_mass(6.0),))
    agent1 = d.AgentSpec(d.Quadratic(1.0, 4.0), d.PowerCost(2.0, 1.5), d.PowerCost(1.0, 2.5),
                         (point_mass(2.0),))
    return two_agent_game(agent0, agent1, x_max=8.0)
