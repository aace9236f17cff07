import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deferral as d
from conftest import quad_agent
from deferral.consideration import _undominated, maximal_indices_grid
from dominance_scan import maximal_indices_scan, undominated_scan
from slice_argmax import interval_grid_indices

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
        for slope in (0.0, float("nan")):
            with pytest.raises(d.ClosedFormUnavailable):
                d.consideration_interval(U, d.LinearCost(slope), 4.0)

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
    closed = grid.points[interval_grid_indices(d.consideration_interval(u, c1, x_social), grid)]
    assert np.array_equal(oracle, closed)


def test_downhill_utility_peaks_at_origin():
    # negative linear coefficient: decreasing on the half-line, so the
    # interval runs from the origin to the social choice
    u = d.Quadratic(1.0, -3.0, 2.0)
    grid = d.Grid(8.0, 400)
    iv = d.consideration_interval(u, d.LinearCost(1.0), 2.0)
    assert iv == d.ClosedInterval(0.0, 2.0)
    oracle = d.maximal_set_grid(u, d.LinearCost(1.0), 2.0, grid)
    assert np.array_equal(oracle, grid.points[interval_grid_indices(iv, grid)])


def test_interval_beyond_grid_bound_clips():
    # peak at 20 lies beyond x_max = 8; the grid set must stop at the bound
    u = d.Quadratic(0.5, 20, 0)
    grid = d.Grid(8.0, 400)
    oracle = d.maximal_set_grid(u, d.LinearCost(1.0), 4.0, grid)
    closed = grid.points[interval_grid_indices(d.consideration_interval(u, d.LinearCost(1.0), 4.0), grid)]
    assert np.array_equal(oracle, closed)
    assert oracle[0] == 4.0 and oracle[-1] == 8.0


def test_degenerate_interval_midcell_keeps_both_neighbours():
    # social choice = peak exactly halfway between grid points: with the exact
    # symmetric tie both neighbours are mutually undominated
    grid = d.Grid(8.0, 8)
    u = d.Quadratic(1.0, 7.0, 0.0)  # peak 3.5, grid step 1
    oracle = d.maximal_set_grid(u, d.LinearCost(1.0), 3.5, grid)
    closed = grid.points[interval_grid_indices(d.consideration_interval(u, d.LinearCost(1.0), 3.5), grid)]
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
        one = interval_grid_indices(d.ClosedInterval(float(lo[k]), float(hi[k])), grid)
        assert list(range(i_lo[k], i_hi[k] + 1)) == one.tolist()
    assert interval_grid_indices(d.ClosedInterval(1.0 + h, 1.0 + h), grid).tolist() == [4, 5]

    # the slice of a column of social choices: half-step tie at the peak, sub-cell,
    # clipped beyond x_max and ordinary rows, each as its interval's grid indices
    from deferral.consideration import consideration_slice, in_slice

    def slice_mask(first, last):
        return in_slice(np.arange(len(grid.points)), first, last)

    u, c1 = d.Quadratic(1.0, 2.0 * (1.0 + h), 0.0), d.LinearCost(1.0)  # peak 1 + h
    socials = np.array([1.0 + h, 1.0 + 1.2 * h, 0.0, 3.0 - h, 2.3, 7.9, 9.0, 1.0])
    lo, hi, first, last = consideration_slice(u, c1, socials[:, None], grid)
    mask = slice_mask(first, last)
    assert lo.shape == hi.shape == first.shape == last.shape == (len(socials), 1)
    assert mask.shape == (len(socials), len(grid.points))
    for k, x_social in enumerate(socials):
        iv = d.consideration_interval(u, c1, float(x_social))
        assert (lo[k, 0], hi[k, 0]) == (iv.lo, iv.hi)
        assert np.flatnonzero(mask[k]).tolist() == interval_grid_indices(iv, grid).tolist()
        assert np.array_equal(slice_mask(*consideration_slice(u, c1, float(x_social), grid)[2:]),
                              mask[k])
    assert np.flatnonzero(mask[0]).tolist() == [4, 5]
    with pytest.raises(d.DomainError):
        consideration_slice(u, c1, np.array([[2.0], [-0.5]]), grid)
    with pytest.raises(d.ClosedFormUnavailable):
        consideration_slice(u, d.LinearCost(0.0), socials[:, None], grid)


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up (``k < 0``: down)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.copysign(np.inf, k)))
    return x


@st.composite
def _snapped_intervals(draw):
    """A grid with ``x_max`` across the float range and an interval of width 0 up to
    one cell, starting a few floats off a grid point or a midpoint."""
    grid = d.Grid(10.0 ** draw(st.floats(-300.0, 300.0)), draw(st.integers(1, 10**5)))
    pts = grid.points
    j = draw(st.integers(0, grid.steps - 1))
    anchor = pts[j] + 0.5 * (pts[j + 1] - pts[j]) if draw(st.booleans()) else pts[j]
    lo = max(_ulps(float(anchor), draw(st.integers(-4, 4))), 0.0)
    width = draw(st.one_of(st.integers(0, 8), st.floats(0.0, 1.0)))
    hi = _ulps(lo, width) if isinstance(width, int) else lo + width * grid.step
    return grid, lo, hi


@settings(max_examples=500, deadline=None)
@given(_snapped_intervals())
def test_snapped_endpoints_never_cross(grid_interval):
    # the slice of [lo, hi] is two snaps; inside one cell they cannot pass each other
    from deferral.consideration import interval_index_bounds

    grid, lo, hi = grid_interval
    first, last = (int(i) for i in interval_index_bounds(lo, hi, grid))
    pts = grid.points
    assert first <= last
    assert set(np.flatnonzero((lo <= pts) & (pts <= hi))) <= set(range(first, last + 1))
    if lo == hi:
        gap = np.abs(pts - lo)
        assert np.flatnonzero(gap == gap.min()).tolist() == list(range(first, last + 1))


# --- the sort oracle against the pairwise scan ----------------------------------

#: Few distinct values, so equal utilities and equal costs are common.
_TIED = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_TIED, _TIED), min_size=1, max_size=40))
@example([(0.0, 0.0)])
@example([(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0)])
@example([(np.inf, np.inf), (1.0, np.inf), (np.inf, 1.0)])
def test_sort_equals_scan_on_tied_values(points):
    uv, cv = (np.array(v) for v in zip(*points))
    assert _undominated(uv, cv).tolist() == undominated_scan(uv, cv).tolist()


_COSTS = st.one_of(
    st.just(d.LinearCost(0.0)),
    st.builds(d.LinearCost, st.floats(0.01, 10)),
    st.builds(d.PowerCost, st.floats(0, 10), st.floats(1, 4)),
)


@st.composite
def _oracle_cases(draw):
    """A utility, a current-distance cost, a social choice up to twice ``x_max`` and a grid.

    Tabulated utilities take small integer values in any order, so they
    repeat values and need not be quasiconcave.  Half the social choices sit
    on the half-step lattice, where distances to grid points tie.
    """
    grid = d.Grid(draw(st.sampled_from([1.0, 6.0, 8.0, 10.0])), draw(st.integers(1, 40)))
    if draw(st.booleans()):
        u = d.Quadratic(draw(st.floats(0.1, 5)), draw(st.floats(-5, 20)), draw(st.floats(-5, 5)))
    else:
        values = draw(st.lists(st.integers(-3, 3), min_size=grid.steps + 1, max_size=grid.steps + 1))
        u = d.Tabulated(tuple(float(v) for v in values), grid)
    if draw(st.booleans()):
        x_social = draw(st.integers(0, 4 * grid.steps)) * grid.step / 2
    else:
        x_social = draw(st.floats(0, 2 * grid.x_max))
    return u, draw(_COSTS), x_social, grid


#: Repeated values, several local peaks: not quasiconcave.
_BUMPY = d.Tabulated((0.0, 2.0, 1.0, 3.0, 3.0, 1.0, 2.0, 0.0, 0.0, 4.0, 1.0, 1.0, 2.0, 0.0, 3.0, 3.0, 0.0),
                     d.Grid(8.0, 16))


@settings(max_examples=300, deadline=None)
@given(_oracle_cases())
@example((_BUMPY, d.LinearCost(0.0), 3.25, _BUMPY.grid))
@example((_BUMPY, d.PowerCost(1.5, 2.0), 11.0, _BUMPY.grid))
@example((U, d.LinearCost(2.0), 11.0, _BUMPY.grid))
def test_grid_oracle_equals_scan(case):
    assert maximal_indices_grid(*case).tolist() == maximal_indices_scan(*case).tolist()


class TestNonFiniteValues:
    """Valid parameters whose values on the grid are not finite are refused, not solved."""

    OVERFLOW = d.Quadratic(1e308, 1e308, 0.0)  # -1e308·x² + 1e308·x is inf − inf on Grid(10, 8)
    GRID = d.Grid(10.0, 8)

    def test_overflowing_utility_passes_validate_but_not_the_grid(self):
        assert d.validate(self.OVERFLOW) == []
        with pytest.raises(d.DomainError, match="not finite"):
            d.model.utility_values(self.OVERFLOW, self.GRID)
        with pytest.raises(d.DomainError, match="utility is not finite"):
            d.eval_utility(self.OVERFLOW, 8.0)
        with pytest.raises(d.DomainError, match="not finite"):
            d.maximal_set_grid(self.OVERFLOW, d.LinearCost(1.0), 2.0, self.GRID)

    def test_nan_tabulated_utility_never_reaches_the_oracle(self):
        # the sort and the scan disagree on NaN utilities, so neither may see one
        u = d.Tabulated((1.0, float("nan"), 3.0, 2.0), d.Grid(3.0, 3))
        with pytest.raises(d.DomainError, match="not finite"):
            maximal_indices_grid(u, d.LinearCost(0.0), 0.0, u.grid)

    @pytest.mark.parametrize("run", [d.second_stage_choice, d.two_criteria_certificate, d.detect_trap])
    def test_choice_and_certificate_refuse_an_overflowing_utility(self, run):
        with pytest.raises(d.DomainError, match="not finite"):
            run(quad_agent(a=1e308, b=1e308, k=0.0), 2.0, self.GRID)

    def test_a_zero_power_cost_is_the_zero_linear_cost(self):
        # 0 · 8**400 is zero, though 8**400 overflows to inf
        c1 = d.PowerCost(0.0, 400.0)
        assert d.validate(c1) == []
        grid = d.Grid(8.0, 8)
        assert np.array_equal(d.maximal_set_grid(U, c1, 0.0, grid),
                              d.maximal_set_grid(U, d.LinearCost(0.0), 0.0, grid))

    def test_infinite_cost_is_still_a_cost(self):
        # 8**400 overflows to inf: an extreme but comparable cost, with no warning
        grid, c1 = d.Grid(8.0, 8), d.PowerCost(1.0, 400.0)
        expected = maximal_indices_scan(U, c1, 0.0, grid).tolist()
        assert maximal_indices_grid(U, c1, 0.0, grid).tolist() == expected == [0, 1]

    def test_the_pairwise_compare_meets_an_infinite_cost_as_the_oracle_does(self):
        # 8**400 overflows; 0 beats 8 on both counts instead of raising OverflowError
        grid, c1 = d.Grid(8.0, 8), d.PowerCost(1.0, 400.0)
        verdict = d.one_many_compare(0.0, 8.0, U, c1, 0.0)
        assert verdict.weak is True and verdict.strict is True
        beaten = {j for i, j in itertools.product(range(len(grid.points)), repeat=2)
                  if d.one_many_compare(float(grid.points[i]), float(grid.points[j]), U, c1, 0.0).strict}
        assert sorted(set(range(len(grid.points))) - beaten) == maximal_indices_grid(U, c1, 0.0, grid).tolist()
