"""First-stage consideration sets.

An indecisive agent keeps exactly the alternatives that are undominated under
the one-many ordering: ``x`` beats ``y`` when it gives weakly higher personal
utility *and* weakly lower cost of distance to the current social choice.
With a strictly quasiconcave utility, a strictly increasing current-distance
cost and the Euclidean metric, the undominated set is the closed interval
between the social choice and the personal optimum; without those conditions
only the grid oracle ``maximal_indices_grid`` defines it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormUnavailable, DomainError
from .model import (
    EXACT_TOL,
    CostFunction,
    Grid,
    UtilityFunction,
    cost_is_strictly_increasing,
    eval_cost,
    eval_utility,
    require_nonnegative,
    require_valid,
    utility_values,
)


@dataclass(frozen=True)
class ClosedInterval:
    """Closed interval ``[lo, hi]`` on the half-line; ``lo == hi`` is a singleton."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @property
    def is_singleton(self) -> bool:
        return self.hi - self.lo <= EXACT_TOL

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one pairwise comparison under the one-many ordering."""

    weak: bool
    strict: bool


def one_many_compare(
    x_i: float,
    x_j: float,
    u: UtilityFunction,
    c1: CostFunction,
    x_social: float,
) -> DominanceVerdict:
    """Compare ``x_i`` against ``x_j`` given the current social choice.

    Weak dominance requires ``u(x_i) >= u(x_j)`` together with a weakly lower
    current-distance cost; strict dominance additionally requires that the
    reverse weak comparison fails.  Ties in both coordinates therefore yield
    mutual weak dominance and no strict dominance.
    """
    require_nonnegative("one_many_compare inputs", (x_i, x_j, x_social))
    u_i, u_j = eval_utility(u, x_i), eval_utility(u, x_j)
    c_i, c_j = (float(eval_cost(c1, abs(x - x_social))) for x in (x_i, x_j))
    weak = u_i >= u_j and c_i <= c_j
    reverse = u_j >= u_i and c_j <= c_i
    return DominanceVerdict(weak=weak, strict=weak and not reverse)


def require_closed_form(u: UtilityFunction, c1: CostFunction) -> None:
    """Raise unless the closed-form consideration interval applies to ``(u, c1)``.

    The utility must be valid (else ``SpecValidationError``) and the
    current-distance cost strictly increasing (else ``ClosedFormUnavailable``,
    and only ``maximal_set_grid`` defines the consideration set).
    """
    require_valid(u)
    if not cost_is_strictly_increasing(c1):
        raise ClosedFormUnavailable(
            "the interval form needs a strictly increasing current-distance cost"
        )


def consideration_interval(
    u: UtilityFunction,
    c1: CostFunction,
    x_social: float,
) -> ClosedInterval:
    """Closed form of the consideration set.

    Returns the interval between the social choice and the personal optimum,
    degenerating to the optimum itself when the two coincide (within
    ``EXACT_TOL``).  Raises as ``consideration_bounds`` does.
    """
    lo, hi = consideration_bounds(u, c1, x_social)
    return ClosedInterval(float(lo), float(hi))


def consideration_bounds(u: UtilityFunction, c1: CostFunction, x_social) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the consideration interval for each social choice (vectorized).

    The interval runs between ``x_social`` and the peak of ``u`` and
    degenerates to the peak when the two coincide within ``EXACT_TOL``.
    Raises ``DomainError`` unless each social choice is finite and ``>= 0``,
    then as ``require_closed_form`` does when the closed form does not apply.
    """
    social = np.asarray(x_social, dtype=float)
    require_nonnegative("social choice", x_social)
    require_closed_form(u, c1)
    peak = u.peak
    at_peak = np.abs(social - peak) <= EXACT_TOL
    lo = np.where(at_peak, peak, np.minimum(social, peak))
    hi = np.where(at_peak, peak, np.maximum(social, peak))
    return lo, hi


def interval_index_bounds(lo, hi, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """First and last grid index identified with each interval ``[lo, hi]`` (vectorized).

    Endpoints snap to the nearest grid point, with exact half-step ties
    rounding inward; this is precisely the boundary behaviour of the dominance
    oracle on the grid, so the indexed set equals
    ``maximal_set_grid`` under the closed-form preconditions.  A degenerate
    interval maps to the nearest grid point (two points if exactly halfway
    between neighbours, matching the mutual-weak-dominance tie).  A sub-cell
    interval whose endpoints both snapped across the midpoint collapses to
    the point nearest the interval's centre.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    degenerate = hi - lo <= 0.0
    up = grid.nearest_indices(lo, tie_up=True)
    i_lo = np.where(degenerate, grid.nearest_indices(lo, tie_up=False), up)
    i_hi = np.where(degenerate, up, grid.nearest_indices(hi, tie_up=False))
    crossed = i_lo > i_hi
    if crossed.any():
        centre = grid.nearest_indices(0.5 * (lo + hi), tie_up=True)
        i_lo = np.where(crossed, centre, i_lo)
        i_hi = np.where(crossed, centre, i_hi)
    return i_lo, i_hi


def consideration_slice(u: UtilityFunction, c1: CostFunction, x_social,
                        grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The consideration interval of each social choice and its grid slice (vectorized).

    The one interval-to-grid mapping of the grid searches.  ``x_social`` is
    a scalar or a column of social choices (shape ``(rows, 1)``).  Returns
    the interval bounds ``lo`` and ``hi`` and the slice's first and last
    grid index (see ``interval_index_bounds``), all shaped like
    ``x_social``; ``in_slice`` tests grid indices against them.  Raises as
    ``consideration_bounds`` does.
    """
    lo, hi = consideration_bounds(u, c1, x_social)
    return lo, hi, *interval_index_bounds(lo, hi, grid)


def in_slice(own, first, last) -> np.ndarray:
    """Whether each grid index ``own`` lies in the slice ``[first, last]`` (broadcast).

    With ``own`` the grid's indices and a column of slices, it is the mask of
    the grid points in each slice, one row per slice.
    """
    return (own >= first) & (own <= last)


def _undominated(uv: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Ascending indices of the points that no point strictly beats on ``(uv, cv)``.

    After one stable sort by descending utility, ``upto[g]`` is the smallest
    cost over the first ``g + 1`` groups of equal utility, so the rule of
    ``maximal_indices_grid`` reads ``upto[g - 1] <= c`` or ``upto[g] < c``.
    O(m log m) time and O(m) memory; it only compares values, so it is exact.
    """
    order = np.argsort(-uv, kind="stable")
    u, c = uv[order], cv[order]
    starts = np.r_[True, u[1:] != u[:-1]]  # the first point of each run of equal utilities
    group = np.cumsum(starts) - 1
    upto = np.minimum.accumulate(np.minimum.reduceat(c, np.flatnonzero(starts)))
    beaten_higher = (group > 0) & (upto[np.maximum(group - 1, 0)] <= c)  # the top group has none
    dominated = beaten_higher | (upto[group] < c)
    keep = np.empty(len(order), dtype=bool)
    keep[order] = ~dominated
    return np.flatnonzero(keep)


def maximal_indices_grid(
    u: UtilityFunction,
    c1: CostFunction,
    x_social: float,
    grid: Grid,
) -> np.ndarray:
    """Indices of grid points not strictly dominated under the one-many ordering.

    This is the defined semantics of the consideration set on the grid and
    makes no quasiconcavity assumption.  Point ``j`` is strictly dominated
    exactly when some point of higher utility costs no more, or some point
    of equal or higher utility costs strictly less; one sort by utility
    decides both, an infinite cost included.  Raises ``DomainError`` for a
    social choice that is not finite and ``>= 0``, or a non-finite utility.
    """
    require_nonnegative("social choice", x_social)
    return _undominated(utility_values(u, grid), eval_cost(c1, np.abs(grid.points - x_social)))


def maximal_set_grid(
    u: UtilityFunction,
    c1: CostFunction,
    x_social: float,
    grid: Grid,
) -> np.ndarray:
    """Grid-point values of the undominated set (ascending)."""
    return grid.points[maximal_indices_grid(u, c1, x_social, grid)]
