import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferral as d

U = d.Quadratic(2, 4, 5)  # peak at 1


class TestOneManyCompare:
    def test_zero_versus_peak(self):
        # u(0)=5 < u(1)=7, so 0 cannot weakly dominate the peak
        v = d.one_many_compare(0.0, 1.0, U, d.LinearCost(1.0), 0.0)
        assert v.weak is False and v.strict is False

    def test_reflexive(self):
        for x in (0.0, 0.7, 3.0):
            v = d.one_many_compare(x, x, U, d.LinearCost(1.0), 2.0)
            assert v.weak is True and v.strict is False

    def test_peak_dominates_far_point(self):
        # u(1)=7 >= u(3)=-1 and the peak sits on the social choice
        v = d.one_many_compare(1.0, 3.0, U, d.LinearCost(1.0), 1.0)
        assert v.weak is True and v.strict is True

    def test_strict_implies_weak(self):
        v = d.one_many_compare(1.0, 3.0, U, d.LinearCost(1.0), 1.0)
        assert not (v.strict and not v.weak)

    def test_negative_inputs_rejected(self):
        with pytest.raises(d.DomainError):
            d.one_many_compare(-1.0, 1.0, U, d.LinearCost(1.0), 0.0)
        with pytest.raises(d.DomainError):
            d.one_many_compare(1.0, 1.0, U, d.LinearCost(1.0), -2.0)


class TestConsiderationInterval:
    def test_social_above_peak(self):
        assert d.consideration_interval(U, d.LinearCost(7.0), 4.0) == d.ClosedInterval(1.0, 4.0)

    def test_singleton_when_social_equals_peak(self):
        iv = d.consideration_interval(U, d.LinearCost(1.0), 1.0)
        assert iv == d.ClosedInterval(1.0, 1.0)
        assert iv.is_singleton

    def test_social_below_peak(self):
        assert d.consideration_interval(U, d.LinearCost(1.0), 0.25) == d.ClosedInterval(0.25, 1.0)

    def test_zero_cost_unavailable(self):
        with pytest.raises(d.ClosedFormUnavailable):
            d.consideration_interval(U, d.LinearCost(0.0), 4.0)

    def test_invalid_utility_rejected(self):
        with pytest.raises(d.SpecValidationError):
            d.consideration_interval(d.Quadratic(0.0, 4, 5), d.LinearCost(1.0), 4.0)


class TestMaximalSetGrid:
    def test_matches_interval_on_worked_example(self):
        grid = d.Grid(8.0, 800)
        got = d.maximal_set_grid(U, d.LinearCost(7.0), 4.0, grid)
        assert got[0] == 1.0 and got[-1] == 4.0
        expected = grid.points[(grid.points >= 1.0) & (grid.points <= 4.0)]
        assert np.array_equal(got, expected)

    def test_singleton_at_nearest_point(self):
        grid = d.Grid(8.0, 800)
        got = d.maximal_set_grid(U, d.LinearCost(1.0), 1.0, grid)
        assert list(got) == [1.0]
        # off-grid coincidence point snaps to the single nearest grid point
        grid2 = d.Grid(8.0, 3)
        u2 = d.Quadratic(2.0, 2.0 * 2 * (8.0 / 3), 0.0)  # peak at one grid step
        got2 = d.maximal_set_grid(u2, d.LinearCost(1.0), u2.peak, grid2)
        assert list(got2) == [grid2.points[1]]

    def test_zero_cost_collapses_to_utility_argmax(self):
        got = d.maximal_set_grid(U, d.LinearCost(0.0), 4.0, d.Grid(8.0, 800))
        assert list(got) == [1.0]


def _relation_matrices(u, c1, x_social, grid):
    uv = d.model.utility_values(u, grid)
    cv = d.eval_cost(c1, np.abs(grid.points - x_social))
    weak = (uv[:, None] >= uv[None, :]) & (cv[:, None] <= cv[None, :])
    strict = weak & ~weak.T
    return weak, strict


@pytest.mark.parametrize("c1", [d.LinearCost(2.0), d.LinearCost(0.0), d.PowerCost(1.5, 2.0)])
@pytest.mark.parametrize("x_social", [0.0, 1.37, 5.0])
def test_preorder_axioms_exhaustive(c1, x_social):
    grid = d.Grid(6.0, 150)
    weak, strict = _relation_matrices(U, c1, x_social, grid)
    assert np.all(np.diag(weak)), "reflexivity"
    assert not np.any(strict & strict.T), "antisymmetry of the strict part"
    composed = (weak.astype(np.int16) @ weak.astype(np.int16)) > 0
    assert not np.any(composed & ~weak), "transitivity"


def test_interval_invariant_under_cost_slope():
    for slope in (0.5, 1.0, 3.0, 9.0):
        iv = d.consideration_interval(U, d.LinearCost(slope), 4.0)
        assert iv == d.ClosedInterval(1.0, 4.0)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.5, 5),
    st.floats(0, 20),
    st.floats(-5, 5),
    st.floats(0.01, 10),
    st.floats(0, 10),
)
def test_grid_oracle_equals_snapped_interval(a, b, k, slope, x_social):
    grid = d.Grid(24.0, 160)
    u = d.Quadratic(a, b, k)
    c1 = d.LinearCost(slope)
    oracle = d.maximal_set_grid(u, c1, x_social, grid)
    closed = grid.points[d.interval_grid_indices(d.consideration_interval(u, c1, x_social), grid)]
    assert np.array_equal(oracle, closed)


def test_downhill_utility_peaks_at_origin():
    # negative linear coefficient: decreasing on the half-line, so the
    # interval runs from the origin to the social choice
    u = d.Quadratic(1.0, -3.0, 2.0)
    grid = d.Grid(8.0, 400)
    iv = d.consideration_interval(u, d.LinearCost(1.0), 2.0)
    assert iv == d.ClosedInterval(0.0, 2.0)
    oracle = d.maximal_set_grid(u, d.LinearCost(1.0), 2.0, grid)
    assert np.array_equal(oracle, grid.points[d.interval_grid_indices(iv, grid)])


def test_interval_beyond_grid_bound_clips():
    # peak at 20 lies beyond x_max = 8; the grid set must stop at the bound
    u = d.Quadratic(0.5, 20, 0)
    grid = d.Grid(8.0, 400)
    oracle = d.maximal_set_grid(u, d.LinearCost(1.0), 4.0, grid)
    closed = grid.points[d.interval_grid_indices(d.consideration_interval(u, d.LinearCost(1.0), 4.0), grid)]
    assert np.array_equal(oracle, closed)
    assert oracle[0] == 4.0 and oracle[-1] == 8.0


def test_degenerate_interval_midcell_keeps_both_neighbours():
    # social choice = peak exactly halfway between grid points: with the exact
    # symmetric tie both neighbours are mutually undominated
    grid = d.Grid(8.0, 8)
    u = d.Quadratic(1.0, 7.0, 0.0)  # peak 3.5, grid step 1
    oracle = d.maximal_set_grid(u, d.LinearCost(1.0), 3.5, grid)
    closed = grid.points[d.interval_grid_indices(d.consideration_interval(u, d.LinearCost(1.0), 3.5), grid)]
    assert np.array_equal(oracle, closed)
    assert list(oracle) == [3.0, 4.0]


def test_index_bounds_of_many_intervals_match_one_at_a_time():
    # degenerate, half-step tie, sub-cell, clipped and ordinary intervals in one call
    from deferral.consideration import interval_index_bounds

    grid = d.Grid(8.0, 32)
    h = grid.step / 2  # exact in binary, so 1 + h ties between two grid points
    lo = np.array([1.0, 1.0 + h, 2.0 + 0.2 * h, 3.0 - h, -1.0, 7.9, 2.3, 0.0])
    hi = np.array([1.0, 1.0 + h, 2.0 + 0.6 * h, 3.0 + h, 0.5, 9.0, 4.1, 8.0])
    i_lo, i_hi = interval_index_bounds(lo, hi, grid)
    for k in range(len(lo)):
        one = d.interval_grid_indices(d.ClosedInterval(float(lo[k]), float(hi[k])), grid)
        assert list(range(i_lo[k], i_hi[k] + 1)) == one.tolist()
    assert d.interval_grid_indices(d.ClosedInterval(1.0 + h, 1.0 + h), grid).tolist() == [4, 5]

    # the slice of a column of social choices: half-step tie at the peak, sub-cell,
    # clipped beyond x_max and ordinary rows, each as its interval's grid indices
    from deferral.consideration import consideration_slice

    u, c1 = d.Quadratic(1.0, 2.0 * (1.0 + h), 0.0), d.LinearCost(1.0)  # peak 1 + h
    socials = np.array([1.0 + h, 1.0 + 1.2 * h, 0.0, 3.0 - h, 2.3, 7.9, 9.0, 1.0])
    lo, hi, mask = consideration_slice(u, c1, socials[:, None], grid)
    assert lo.shape == hi.shape == (len(socials), 1) and mask.shape == (len(socials), len(grid.points))
    for k, x_social in enumerate(socials):
        iv = d.consideration_interval(u, c1, float(x_social))
        assert (lo[k, 0], hi[k, 0]) == (iv.lo, iv.hi)
        assert np.flatnonzero(mask[k]).tolist() == d.interval_grid_indices(iv, grid).tolist()
        assert np.array_equal(consideration_slice(u, c1, float(x_social), grid)[2], mask[k])
    assert np.flatnonzero(mask[0]).tolist() == [4, 5]
    with pytest.raises(d.DomainError):
        consideration_slice(u, c1, np.array([[2.0], [-0.5]]), grid)
    with pytest.raises(d.ClosedFormUnavailable):
        consideration_slice(u, d.LinearCost(0.0), socials[:, None], grid)
