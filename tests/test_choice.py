import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferral as d
from conftest import point_mass, quad_agent
from deferral import choice


@pytest.fixture
def example_agent():
    # conformity weight 7 toward x_s, future weight 4 toward a point mass at 10
    return quad_agent(c1=d.LinearCost(7.0), c2=d.LinearCost(4.0), belief=10.0)


class TestComprehensiveValue:
    def test_worked_value(self, example_agent):
        # u(2)=5, no current distance, future distance 8 at weight 4
        assert d.comprehensive_value(example_agent, 2.0, 2.0) == -27.0

    def test_all_pulls_coincide(self):
        agent = quad_agent(c1=d.LinearCost(3.0), c2=d.LinearCost(2.0), belief=1.0)
        assert d.comprehensive_value(agent, 1.0, 1.0) == d.eval_utility(agent.utility, 1.0)

    def test_zero_weights_reduce_to_utility(self, example_agent):
        agent = quad_agent(
            c1=d.LinearCost(7.0), c2=d.LinearCost(4.0), belief=10.0, weights=(1, 0, 0)
        )
        for x in (0.0, 1.5, 3.0):
            assert d.comprehensive_value(agent, x, 4.0) == d.eval_utility(agent.utility, x)

    def test_negative_inputs_rejected(self, example_agent):
        with pytest.raises(d.DomainError):
            d.comprehensive_value(example_agent, -1.0, 2.0)

    @pytest.mark.parametrize("x_social", [-1.0, float("nan"), float("inf")])
    def test_a_social_choice_must_be_finite_and_nonnegative(self, example_agent, x_social):
        # without the check a NaN or infinite social choice would give NaN values
        grid, u, c1 = d.Grid(8.0, 8), example_agent.utility, example_agent.c1
        for call in (lambda: d.comprehensive_values(example_agent, grid, x_social),
                     lambda: d.comprehensive_values(example_agent, grid, np.array([[1.0], [x_social]])),
                     lambda: d.comprehensive_value(example_agent, 1.0, x_social),
                     lambda: d.maximal_set_grid(u, c1, x_social, grid),
                     lambda: d.consideration_interval(u, c1, x_social),
                     lambda: d.one_many_compare(1.0, 2.0, u, c1, x_social)):
            with pytest.raises(d.DomainError, match="must be finite and nonnegative"):
                call()

    def test_a_zero_power_cost_is_the_zero_linear_cost(self):
        # 0 · δ**400 is zero also beyond δ ≈ 5.87, where δ**400 overflows to inf
        far, zero = d.PowerCost(0.0, 400.0), d.LinearCost(0.0)
        grid = d.Grid(8.0, 8)
        future, current = quad_agent(c2=far, belief=0.0), quad_agent(c1=far)
        for agent, linear, x_social in ((future, quad_agent(c2=zero, belief=0.0), 4.0),
                                        (current, quad_agent(c1=zero), 0.0)):
            for call in (lambda a: d.comprehensive_values(a, grid, x_social),
                         lambda a: d.comprehensive_values(a, grid, grid.points[:, None]),
                         lambda a: d.unconstrained_optimum(a, x_social, grid),
                         lambda a: d.comprehensive_value(a, 8.0, x_social)):
                assert np.array_equal(call(agent), call(linear))
        # nearer than the overflow the same costs are zero, and a zero weight never reads one
        assert d.comprehensive_value(future, 1.0, 2.0) == 6.0
        assert d.comprehensive_value(current, 5.0, 0.0) == -25.0
        assert d.comprehensive_values(current, grid, 4.0)[5] == -25.0
        no_current = quad_agent(c1=far, weights=(1.0, 0.0, 1.0))
        assert np.array_equal(d.comprehensive_values(no_current, grid, 0.0),
                              [d.eval_utility(no_current.utility, x) for x in grid.points])

    def test_a_steep_cost_is_inf_without_a_warning(self):
        # 6**400 overflows float64 and 5.5**400 does not
        values = d.comprehensive_values(quad_agent(c1=d.PowerCost(1.0, 400.0)), d.Grid(8.0, 16), 0.0)
        assert np.isfinite(values[:12]).all() and np.isneginf(values[12:]).all()

    def test_an_overflowing_weighted_utility_is_refused_by_name(self):
        # 2 · 1e308 overflows to inf, and inf − inf would be NaN where c1 is inf
        agent = d.AgentSpec(d.Quadratic(1.0, 0.0, 1e308), d.PowerCost(1.0, 400.0), d.LinearCost(0.0),
                            (point_mass(0.0),), d.ComprehensiveUtilityForm(2.0, 1.0, 1.0))
        assert d.validate(agent) == []
        for call in (lambda: d.comprehensive_values(agent, d.Grid(8.0, 16), 0.0),
                     lambda: d.comprehensive_value(agent, 8.0, 0.0)):
            with pytest.raises(d.DomainError, match="w_u·u is not finite"):
                call()

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        grid=st.builds(d.Grid, st.floats(0.5, 20), st.integers(1, 150)),
        costs=st.lists(st.one_of(
            st.just(d.LinearCost(0.0)),
            st.builds(d.LinearCost, st.floats(0, 5)),
            st.builds(d.PowerCost, st.floats(0, 5), st.sampled_from((1.3, 1.5, 2.0, 2.5, 3.0))),
        ), min_size=2, max_size=2),
        weights=st.tuples(*[st.sampled_from((0.0, 1.0)) | st.floats(0, 3)] * 3),
        x_social=st.floats(0, 25),
        future_mean=st.none() | st.floats(0, 25),
    )
    def test_value_equals_the_table_entry(self, data, grid, costs, weights, x_social, future_mean):
        m = grid.steps + 1
        utility = data.draw(st.builds(d.Quadratic, st.floats(0.1, 3), st.floats(-5, 10),
                                      st.floats(-5, 5))
                            | st.lists(st.floats(-50, 50), min_size=m, max_size=m).map(
                                lambda v: d.Tabulated(tuple(v), grid)))
        agent = d.AgentSpec(utility, *costs, (point_mass(3.0),), d.ComprehensiveUtilityForm(*weights))
        table = d.comprehensive_values(agent, grid, x_social, future_mean)
        for k, x in enumerate(grid.points):
            assert d.comprehensive_value(agent, float(x), x_social, future_mean) == table[k]


_SLOPES = st.just(0.0) | st.floats(0, 5, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(
    grid=st.builds(d.Grid, st.floats(0.5, 20), st.integers(1, 60)),
    utility=st.builds(d.Quadratic, st.floats(0.1, 3), st.floats(-5, 10), st.floats(-5, 5)),
    costs=st.lists(st.builds(d.LinearCost, _SLOPES) | st.builds(d.PowerCost, _SLOPES, st.floats(1, 1000)),
                   min_size=2, max_size=2),
    weights=st.tuples(*[st.sampled_from((0.0, 1.0)) | st.floats(0, 3)] * 3),
    x_social=st.floats(0, 25),
    belief=st.floats(0, 25),
)
def test_kernel_and_oracle_are_never_nan_and_never_warn(grid, utility, costs, weights, x_social, belief):
    # a zero slope is zero and a steep power is inf, wherever δ**p overflows
    agent = d.AgentSpec(utility, *costs, (point_mass(belief),), d.ComprehensiveUtilityForm(*weights))
    assert d.validate(agent) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tables = [d.comprehensive_values(agent, grid, x_social),
                  d.comprehensive_values(agent, grid, grid.points[:, None])]
        survivors = d.maximal_set_grid(utility, agent.c1, x_social, grid)
    assert not any(np.isnan(t).any() for t in tables)
    assert len(survivors) > 0


class TestSecondStageChoice:
    def test_interior_kink_solution(self, example_agent):
        # slope 15 - 4x on [1, 4) puts the maximizer at 15/4
        result = d.second_stage_choice(example_agent, 4.0, d.Grid(8.0, 3200))
        assert result.chosen == (3.75,)
        assert result.value == pytest.approx(
            d.comprehensive_value(example_agent, 3.75, 4.0), abs=1e-12
        )
        assert result.constrained

    def test_singleton_interval(self, example_agent):
        result = d.second_stage_choice(example_agent, 1.0, d.Grid(8.0, 3200))
        assert result.chosen == (1.0,)

    def test_pure_utility_weights(self):
        agent = quad_agent(
            c1=d.LinearCost(7.0), c2=d.LinearCost(4.0), belief=10.0, weights=(1, 0, 0)
        )
        result = d.second_stage_choice(agent, 4.0, d.Grid(8.0, 3200))
        assert result.chosen == (1.0,)

    def test_value_dominates_every_interval_point(self, example_agent):
        grid = d.Grid(8.0, 400)
        result = d.second_stage_choice(example_agent, 4.0, grid)
        interval = d.consideration_interval(example_agent.utility, example_agent.c1, 4.0)
        chosen = set(result.chosen)
        for x in grid.points[d.interval_grid_indices(interval, grid)]:
            value = d.comprehensive_value(example_agent, float(x), 4.0)
            assert result.value >= value - 1e-12
            assert (float(x) in chosen) == (value >= result.value - 1e-12)

    def test_chosen_within_stage_one_survivors(self, example_agent):
        grid = d.Grid(8.0, 400)
        result = d.second_stage_choice(example_agent, 4.0, grid)
        survivors = set(d.maximal_set_grid(example_agent.utility, example_agent.c1, 4.0, grid))
        assert set(result.chosen) <= survivors


class TestUnconstrainedOptimum:
    def test_middle_segment_root(self, trap_agent):
        # piecewise slopes 15-4x / 13-4x / -7-4x; the middle root 13/4 is interior
        assert d.unconstrained_optimum(trap_agent, 2.0, d.Grid(10.0, 4000)) == 3.25

    def test_zero_weights_give_peak(self):
        agent = quad_agent(c1=d.LinearCost(5.0), c2=d.LinearCost(5.0), belief=9.0, weights=(1, 0, 0))
        assert d.unconstrained_optimum(agent, 6.0, d.Grid(10.0, 4000)) == 1.0

    def test_coincident_pulls_give_peak(self):
        agent = quad_agent(c1=d.LinearCost(5.0), c2=d.LinearCost(5.0), belief=1.0)
        assert d.unconstrained_optimum(agent, 1.0, d.Grid(10.0, 4000)) == 1.0

    def test_midpoint_peak_takes_the_smallest_tied_point(self):
        # a peak halfway between grid points ties its two neighbours up to rounding,
        # so x_hat must be the canonical (smallest) point of the best-response tie set
        grid = d.Grid(8.0, 80)
        for j in range(5, 75):
            for a in (0.5, 1.0, 2.0, 4.0):
                peak = (j + 0.5) * grid.step
                agent = quad_agent(a=a, b=2.0 * a * peak, c1=d.LinearCost(1.0), weights=(1, 0, 0))
                ties = d.best_response(d.GameSpec((agent, agent)), 0, (4.0,), grid)
                assert len(ties) == 2
                assert d.unconstrained_optimum(agent, 4.0, grid) == ties[0]
                assert d.detect_trap(agent, 4.0, grid).x_hat == ties[0]


class TestDetectTrap:
    def test_extreme_belief_traps(self, trap_agent):
        report = d.detect_trap(trap_agent, 2.0, d.Grid(10.0, 4000))
        assert report.trapped
        assert report.interval == d.ClosedInterval(1.0, 2.0)
        assert report.x_hat == 3.25
        assert report.utility_gap > 0
        # gap equals the shortfall of the constrained choice
        constrained = d.second_stage_choice(trap_agent, 2.0, d.Grid(10.0, 4000))
        u_hat = d.comprehensive_value(trap_agent, 3.25, 2.0)
        assert report.utility_gap == pytest.approx(u_hat - constrained.value, abs=1e-12)

    def test_belief_inside_interval_no_trap(self):
        agent = quad_agent(c1=d.LinearCost(1.0), c2=d.LinearCost(1.0), belief=1.5)
        report = d.detect_trap(agent, 2.0, d.Grid(10.0, 4000))
        assert not report.trapped
        assert report.utility_gap == 0.0

    def test_no_future_weight_never_traps(self):
        rng = np.random.default_rng(42)
        grid = d.Grid(24.0, 800)
        for _ in range(40):
            agent = quad_agent(
                a=rng.uniform(0.5, 5), b=rng.uniform(0, 16), k=rng.uniform(-5, 5),
                c1=d.LinearCost(rng.uniform(0.01, 10)),
                c2=d.LinearCost(rng.uniform(0, 10)),
                belief=rng.uniform(0, 20),
                weights=(1.0, 1.0, 0.0),
            )
            report = d.detect_trap(agent, float(rng.uniform(0, 10)), grid)
            assert not report.trapped
            assert report.utility_gap == 0.0


class TestTwoCriteriaCertificate:
    def test_holds_on_worked_scenario(self, example_agent):
        cert = d.two_criteria_certificate(example_agent, 4.0, d.Grid(8.0, 400))
        assert cert.holds
        assert set(cert.gamma) <= set(cert.stage1_survivors)

    def test_one_kernel_table_gives_gamma_and_the_choice(self, example_agent, monkeypatch):
        grid = d.Grid(8.0, 400)
        kernel, calls = choice.comprehensive_values, []
        monkeypatch.setattr(choice, "comprehensive_values",
                            lambda *args: calls.append(args) or kernel(*args))
        cert = d.two_criteria_certificate(example_agent, 4.0, grid)
        assert len(calls) == 1
        assert cert.holds is True
        assert cert.gamma == d.second_stage_choice(example_agent, 4.0, grid).chosen

    def test_singleton_interval_certificate(self, example_agent):
        cert = d.two_criteria_certificate(example_agent, 1.0, d.Grid(8.0, 400))
        assert cert.holds
        assert cert.gamma == (1.0,)

    def test_randomized_batch_holds(self):
        rng = np.random.default_rng(7)
        grid = d.Grid(24.0, 300)
        for _ in range(25):
            agent = quad_agent(
                a=rng.uniform(0.5, 5), b=rng.uniform(0, 16), k=rng.uniform(-5, 5),
                c1=d.LinearCost(rng.uniform(0.01, 10)),
                c2=d.LinearCost(rng.uniform(0, 10)),
                belief=rng.uniform(0, 20),
            )
            cert = d.two_criteria_certificate(agent, float(rng.uniform(0, 10)), grid)
            assert cert.holds


def test_affine_rescaling_keeps_argmax(example_agent):
    grid = d.Grid(8.0, 800)
    base = d.second_stage_choice(example_agent, 4.0, grid)
    for alpha, beta in ((0.5, 3.0), (2.0, -7.0), (1.25, 0.0)):
        scaled = d.AgentSpec(
            utility=d.Quadratic(alpha * 2, alpha * 4, alpha * 5 + beta),
            c1=example_agent.c1,
            c2=example_agent.c2,
            beliefs=example_agent.beliefs,
            form=d.ComprehensiveUtilityForm(1.0, alpha, alpha),
        )
        assert d.second_stage_choice(scaled, 4.0, grid).chosen == base.chosen
