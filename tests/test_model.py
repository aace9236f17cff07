from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferral as d
from conftest import point_mass, quad_agent


class TestEvalUtility:
    def test_quadratic_at_origin(self):
        assert d.eval_utility(d.Quadratic(2, 4, 5), 0.0) == 5.0

    def test_quadratic_at_peak(self):
        assert d.eval_utility(d.Quadratic(2, 4, 5), 1.0) == 7.0

    def test_quadratic_symmetric_point(self):
        assert d.eval_utility(d.Quadratic(2, 4, 5), 2.0) == 5.0

    def test_negative_argument_rejected(self):
        with pytest.raises(d.DomainError):
            d.eval_utility(d.Quadratic(2, 4, 5), -0.5)

    def test_tabulated_lookup(self):
        grid = d.Grid(10.0, 100)
        u = d.Tabulated(values=tuple(-((x - 3.0) ** 2) for x in grid.points), grid=grid)
        assert d.eval_utility(u, 3.0) == 0.0
        with pytest.raises(d.GridLookupError):
            d.eval_utility(u, 3.05001)


class TestPersonalOptimum:
    """The personal optimum is the utility's ``peak``."""

    def test_interior_peak(self):
        assert d.Quadratic(2, 4, 5).peak == 1.0

    def test_boundary_peak(self):
        assert d.Quadratic(1, 0, 0).peak == 0.0

    def test_tabulated_peak(self):
        grid = d.Grid(10.0, 100)
        u = d.Tabulated(values=tuple(-((x - 3.0) ** 2) for x in grid.points), grid=grid)
        assert u.peak == 3.0


class TestRvMean:
    def test_point_mass(self):
        assert point_mass(10.0).mean() == 10.0

    def test_degenerate_at_origin(self):
        assert point_mass(0.0).mean() == 0.0

    def test_two_atom_mixture(self):
        rv = d.FiniteRandomVariable(atoms=((2.0, 0.5), (6.0, 0.5)))
        assert rv.mean() == 4.0


class TestValidate:
    def test_flat_quadratic_rejected(self):
        agent = quad_agent(a=0.0)
        codes = [v.code for v in d.validate(agent)]
        assert codes == ["NonPositiveCurvature"]

    def test_well_formed_agent_passes(self):
        agent = quad_agent(c1=d.LinearCost(7.0), c2=d.LinearCost(4.0), belief=10.0)
        assert d.validate(agent) == []

    def test_probability_mass_checked(self):
        rv = d.FiniteRandomVariable(atoms=((1.0, 0.4), (2.0, 0.5)))
        codes = [v.code for v in d.validate(rv)]
        assert codes == ["ProbabilityMassNotOne"]

    def test_tabulated_plateau_rejected(self):
        grid = d.Grid(1.0, 4)
        u = d.Tabulated(values=(0.0, 1.0, 1.0, 0.5, 0.0), grid=grid)
        assert "NotQuasiconcave" in [v.code for v in d.validate(u)]

    def test_power_exponent_below_one_rejected(self):
        assert "SubunitPowerExponent" in [v.code for v in d.validate(d.PowerCost(1.0, 0.5))]

    def test_negative_weight_rejected(self):
        form = d.ComprehensiveUtilityForm(1.0, -0.1, 1.0)
        assert "NegativeWeight" in [v.code for v in d.validate(form)]

    def test_game_belief_count(self):
        a = quad_agent()
        game = d.GameSpec(agents=(a, a, a))  # 1 belief each, need 2
        assert "BeliefCountMismatch" in [v.code for v in d.validate(game)]

    def test_weighted_aggregator_weights(self):
        a = quad_agent(c1=d.LinearCost(1.0))
        game = d.GameSpec(
            agents=(a, a),
            choice_aggregator=d.WeightedChoice(weights=(0.7, 0.7)),
        )
        assert "AggregatorWeightsInvalid" in [v.code for v in d.validate(game)]

    def test_weighted_aggregator_needs_weight_on_others(self, akerlof_game):
        # sums to 1 overall, but leaves agent 0 no weight on anyone else
        game = replace(akerlof_game, choice_aggregator=d.WeightedChoice((1.0, 0.0)))
        violations = d.validate(game)
        assert [v.code for v in violations] == ["AggregatorWeightsInvalid"]
        assert violations[0].message.startswith("agents[0]:")
        with pytest.raises(d.SpecValidationError):
            d.payoff(game, 0, (1.0, 1.0))
        with pytest.raises(d.SpecValidationError):
            d.find_equilibria(game, d.Grid(8.0, 8))

    def test_a_tabulated_utility_validates_its_grid(self):
        # the grid is reported once, as the utility's, and nothing is checked against a bad one
        u = d.Tabulated((1.0, 2.0, 1.0), d.Grid(-8.0, 2))
        assert [(v.code, v.message.split(":")[0]) for v in d.validate(u)] == [("NonPositiveBound", "utility.grid")]
        agent = d.AgentSpec(u, d.LinearCost(1.0), d.LinearCost(0.0), (point_mass(1.0),))
        assert [(v.code, v.message.split(":")[0]) for v in d.validate(d.GameSpec((agent, agent)))] == [
            ("NonPositiveBound", "agents[0].utility.grid"), ("NonPositiveBound", "agents[1].utility.grid")]
        assert [v.code for v in d.validate(d.Tabulated((), d.Grid(8.0, -1)))] == ["NonPositiveSteps"]
        infinite = d.validate(d.Tabulated((1.0, 2.0, 1.0), d.Grid(float("inf"), 2)))
        assert [(v.code, v.message) for v in infinite] == [
            ("NonFiniteParameter", "utility.grid: x_max must be finite")]

    def test_violations_returned_not_raised(self):
        assert isinstance(d.validate(quad_agent(a=-1.0)), list)

    def test_shape_violations_and_foreign_types(self):
        u = d.Tabulated(values=(0.0, 1.0, 0.0), grid=d.Grid(1.0, 4))
        assert [v.code for v in d.validate(u)] == ["TabulationLengthMismatch"]
        assert [v.code for v in d.validate(d.FiniteRandomVariable(()))] == ["EmptyAtoms"]
        with pytest.raises(TypeError, match="cannot validate object of type float"):
            d.validate(1.0)

    @pytest.mark.parametrize("spec", [
        d.Grid(float("inf"), 8),
        d.LinearCost(float("inf")),
        d.PowerCost(1.0, float("inf")),
        d.ComprehensiveUtilityForm(float("inf"), 1.0, 1.0),
        d.Tabulated((0.0, 1.0, float("inf"), 1.0, 0.0), d.Grid(1.0, 4)),
        d.Tabulated((0.0, 1.0, 2.0, 1.0, 0.0), d.Grid(float("inf"), 4)),
        d.GameSpec(agents=(quad_agent(c1=d.LinearCost(float("inf"))), quad_agent())),
    ], ids=["grid", "linear", "power", "form", "tabulated_value", "tabulated_grid", "game"])
    def test_non_finite_number_rejected(self, spec):
        assert [v.code for v in d.validate(spec)] == ["NonFiniteParameter"]


class TestGrid:
    def test_points_cover_bounds(self):
        g = d.Grid(8.0, 1600)
        assert g.points[0] == 0.0 and g.points[-1] == 8.0
        assert len(g.points) == 1601
        assert np.all(np.diff(g.points) > 0)

    def test_exact_rational_points(self):
        assert d.Grid(10.0, 4000).points[1300] == 3.25
        assert d.Grid(8.0, 1600).points[400] == 2.0

    def test_index_of_exact_points_only(self):
        g = d.Grid(8.0, 8)
        assert g.index_of(3.0) == 3
        for x in (2.5, float("nan")):
            with pytest.raises(d.GridLookupError):
                g.index_of(x)

    def test_nearest_index_ties(self):
        g = d.Grid(8.0, 8)  # step 1.0, so the midpoint 0.5 is an exact tie
        assert int(g.nearest_indices(0.5, tie_up=True)) == 1
        assert int(g.nearest_indices(0.5, tie_up=False)) == 0
        assert int(g.nearest_indices(0.49)) == 0
        assert int(g.nearest_indices(9.0)) == 8
        assert int(g.nearest_indices(-1.0)) == 0
        # one tie direction per entry, and the infinities at the ends
        x = [0.5, 0.5, 1.5, -np.inf, np.inf]
        tie_up = np.array([True, False, False, True, False])
        assert g.nearest_indices(x, tie_up=tie_up).tolist() == [1, 0, 1, 0, 8]


cost_variants = st.one_of(
    st.just(d.LinearCost(0.0)),
    st.builds(d.LinearCost, st.floats(0, 10)),
    st.builds(d.PowerCost, st.floats(0, 10), st.floats(1, 3)),
)


@settings(max_examples=200, deadline=None)
@given(cost_variants, st.floats(0, 100), st.floats(0, 100))
def test_cost_nondecreasing_and_zero_at_zero(c, d1, d2):
    lo, hi = sorted((d1, d2))
    assert d.eval_cost(c, 0.0) == 0.0
    assert d.eval_cost(c, lo) <= d.eval_cost(c, hi)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 5), st.floats(0, 20), st.floats(-10, 10), st.floats(0, 25))
def test_quadratic_peak_is_strict_max(a, b, k, x):
    u = d.Quadratic(a, b, k)
    # keep the utility gap above float noise at the values' own scale
    if a * (x - u.peak) ** 2 > 1e-9 * max(1.0, abs(k), abs(b) * x):
        assert d.eval_utility(u, x) < d.eval_utility(u, u.peak)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.01, 1)), min_size=1, max_size=6))
def test_rv_mean_within_support(atoms):
    values = [v for v, _ in atoms]
    if len(set(values)) != len(values):
        return
    total = sum(p for _, p in atoms)
    rv = d.FiniteRandomVariable(atoms=tuple((v, p / total) for v, p in atoms))
    assert min(values) - 1e-9 <= rv.mean() <= max(values) + 1e-9


def test_belief_mean_uniform_mixture():
    agent = d.AgentSpec(
        utility=d.Quadratic(2, 4, 5),
        c1=d.LinearCost(1.0),
        c2=d.LinearCost(0.0),
        beliefs=(point_mass(2.0), point_mass(6.0)),
    )
    assert d.belief_mean(agent) == 4.0


_two_atom_beliefs = st.builds(
    lambda values, p: d.FiniteRandomVariable(((values[0], p), (values[1], 1.0 - p))),
    st.lists(st.floats(0.0, 100.0), min_size=2, max_size=2, unique=True), st.floats(0.01, 0.99))


@settings(max_examples=200, deadline=None)
@given(beliefs=st.lists(_two_atom_beliefs, min_size=2, max_size=4))
def test_belief_mean_is_the_games_future_reference_point(beliefs):
    # one mixture serves comprehensive_value's default future mean and the game's payoffs
    agent = replace(quad_agent(), beliefs=tuple(beliefs))
    game = d.GameSpec((agent,) * (len(beliefs) + 1))
    assert d.belief_mean(agent) == d.aggregate_beliefs(game, 0).mean()


def test_a_zero_mixture_weight_drops_its_belief():
    # no atom of probability 0, which a belief may not hold
    agent = replace(quad_agent(), beliefs=(point_mass(2.0), point_mass(6.0)))
    game = d.GameSpec((agent,) * 3, belief_aggregator=d.BeliefMixture((1.0, 0.0)))
    assert d.aggregate_beliefs(game, 0) == point_mass(2.0)


def test_belief_mean_needs_a_belief():
    with pytest.raises(d.SpecValidationError, match="MissingBeliefs"):
        d.belief_mean(replace(quad_agent(), beliefs=()))


def test_require_valid_raises_with_all_violations():
    agent = quad_agent(a=0.0, weights=(1.0, -1.0, 1.0))
    with pytest.raises(d.SpecValidationError) as err:
        d.model.require_valid(agent)
    codes = {v.code for v in err.value.violations}
    assert codes == {"NonPositiveCurvature", "NegativeWeight"}


def test_tabulated_verdict_is_cached_and_still_enforced():
    grid = d.Grid(1.0, 4)
    bad = d.Tabulated(values=(0.0, 1.0, 1.0, 0.5, 0.0), grid=grid)
    for _ in range(2):
        with pytest.raises(d.SpecValidationError):
            d.consideration_interval(bad, d.LinearCost(1.0), 0.5)
    good = d.Tabulated(values=(0.0, 1.0, 2.0, 0.5, 0.0), grid=grid)
    assert d.consideration_interval(good, d.LinearCost(1.0), 0.0) == d.ClosedInterval(0.0, 0.5)
    assert good.peak == 0.5 and good.is_quasiconcave and not bad.is_quasiconcave


def test_near_best_keeps_a_plateau_within_the_tie_tolerance():
    from deferral.choice import near_best

    # 5e-13 below the best is a tie; 2e-12 below is not
    vals = np.array([1.0, 3.0 - 5e-13, 3.0, 3.0 - 2e-12, 3.0 - 5e-13])
    best, near = near_best(vals)
    assert best == 3.0
    assert near.tolist() == [False, True, True, False, True]
    rows = np.stack([vals, vals[::-1] - 1.0])
    best, near = near_best(rows)
    assert best.tolist() == [3.0, 2.0]
    assert near.tolist() == [[False, True, True, False, True], [True, False, True, True, False]]
