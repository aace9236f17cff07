"""Second-stage decision: choosing inside the consideration set.

Once the consideration interval is fixed, the agent maximizes the
comprehensive utility (personal utility minus both distance costs) over it.
This module also locates the unconstrained optimum over the whole grid,
detects the indecisiveness trap (the unconstrained optimum falling outside
the interval), and certifies that the two-stage procedure equals a sequential
maximization by two asymmetric relations: first strict one-many dominance,
then strict comprehensive-utility comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consideration import (
    ClosedInterval,
    consideration_bounds,
    consideration_interval,
    interval_index_bounds,
    maximal_indices_grid,
)
from .errors import DomainError
from .model import (
    AgentSpec,
    Grid,
    belief_mean,
    eval_cost,
    eval_utility,
    near_best,
    utility_values,
)


@dataclass(frozen=True)
class ChoiceResult:
    """Argmax set of the comprehensive utility over the consideration set.

    ``chosen`` lists every grid point attaining ``value`` within 1e-12,
    ascending; the canonical representative is the smallest.
    """

    chosen: tuple[float, ...]
    value: float
    constrained: bool

    @property
    def canonical(self) -> float:
        return self.chosen[0]


@dataclass(frozen=True)
class TrapReport:
    """Whether the unconstrained optimum escaped the consideration interval.

    ``trapped`` means the optimum sits strictly more than one grid step
    outside the interval (the one-step slack absorbs discretization at the
    endpoints).  ``x_hat`` is the unconstrained optimum, the smallest point
    of the argmax tie set.  ``utility_gap`` is the comprehensive-utility
    shortfall of the constrained choice, zero whenever not trapped.
    """

    x_hat: float
    interval: ClosedInterval
    trapped: bool
    utility_gap: float


@dataclass(frozen=True)
class SequentialCriteriaCertificate:
    """Witness that the two-stage choice is rational by two sequential criteria.

    ``stage1_survivors`` is the grid's undominated set, ``gamma`` the result
    of then keeping only alternatives undominated under strict
    comprehensive-utility comparison.  ``holds`` records whether ``gamma``
    equals the constrained argmax set.
    """

    holds: bool
    gamma: tuple[float, ...]
    stage1_survivors: tuple[float, ...]


def _comprehensive(agent: AgentSpec, own: np.ndarray, u_own: np.ndarray, x_social,
                   future_mean: float | None) -> np.ndarray:
    """``w_u·u − w_2·c2 − w_1·c1`` at the own choices ``own``, whose utilities are ``u_own``."""
    if (np.asarray(x_social) < 0).any():
        raise DomainError(f"social choice must be nonnegative, got {x_social}")
    if future_mean is None:
        future_mean = belief_mean(agent)
    w = agent.form
    vals = w.w_u * u_own
    if w.w_2 != 0.0:
        vals = vals - w.w_2 * eval_cost(agent.c2, np.abs(own - future_mean))
    if w.w_1 != 0.0:
        return vals - w.w_1 * eval_cost(agent.c1, np.abs(own - x_social))
    if np.ndim(x_social):
        return np.broadcast_to(vals, (np.shape(x_social)[0], len(vals)))
    return vals


def comprehensive_value(
    agent: AgentSpec,
    x: float,
    x_social: float,
    future_mean: float | None = None,
) -> float:
    """Comprehensive utility of choosing ``x`` given the current social choice.

    ``future_mean`` defaults to the mean of the agent's own beliefs (their
    uniform mixture when there are several); game code passes the aggregated
    value explicitly.  It is the ``comprehensive_values`` kernel on a one-element
    array, so it equals the table entry at ``x`` bit for bit.
    """
    if x < 0 or x_social < 0:
        raise DomainError(f"comprehensive_value needs nonnegative inputs, got ({x}, {x_social})")
    u_own = np.array([eval_utility(agent.utility, x)])
    return float(_comprehensive(agent, np.array([x], dtype=float), u_own, x_social, future_mean)[0])


def comprehensive_values(
    agent: AgentSpec,
    grid: Grid,
    x_social,
    future_mean: float | None = None,
) -> np.ndarray:
    """Comprehensive utility over every grid point (vectorized).

    ``x_social`` is one social choice, giving one value per grid point, or a
    column of them (shape ``(rows, 1)``), giving one row per social choice
    (a read-only view when the rows coincide).  Rows do not depend on how
    many are computed together.
    """
    return _comprehensive(agent, grid.points, utility_values(agent.utility, grid), x_social, future_mean)


def grid_argmax(agent: AgentSpec, grid: Grid, x_social, future_mean: float | None = None,
                restricted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``near_best`` of the comprehensive values: the one grid argmax of every choice.

    ``x_social`` is a scalar or a column, as for ``comprehensive_values``.  When
    ``restricted``, points outside the consideration slice count as ``-inf``.
    """
    vals = comprehensive_values(agent, grid, x_social, future_mean)
    if restricted:
        i_lo, i_hi = interval_index_bounds(*consideration_bounds(agent.utility.peak, x_social), grid)
        own = np.arange(len(grid.points))
        vals = np.where((own >= i_lo) & (own <= i_hi), vals, -np.inf)
    return near_best(vals)


def second_stage_choice(agent: AgentSpec, x_social: float, grid: Grid) -> ChoiceResult:
    """Maximize the comprehensive utility over the consideration interval."""
    consideration_interval(agent.utility, agent.c1, x_social)  # raises unless the closed form applies
    best, near = grid_argmax(agent, grid, x_social, restricted=True)
    return ChoiceResult(tuple(float(x) for x in grid.points[near]), float(best), constrained=True)


def unconstrained_optimum(agent: AgentSpec, x_social: float, grid: Grid) -> float:
    """Smallest grid maximizer of the comprehensive utility over the whole grid."""
    return float(grid.points[np.argmax(grid_argmax(agent, grid, x_social)[1])])


def detect_trap(agent: AgentSpec, x_social: float, grid: Grid) -> TrapReport:
    """Check whether unconstrained maximization would leave the interval."""
    interval = consideration_interval(agent.utility, agent.c1, x_social)
    best, near = grid_argmax(agent, grid, x_social)
    x_hat = float(grid.points[np.argmax(near)])
    step = grid.step
    trapped = x_hat < interval.lo - step or x_hat > interval.hi + step
    rbest = grid_argmax(agent, grid, x_social, restricted=True)[0] if trapped else best
    gap = max(0.0, float(best) - float(rbest))
    return TrapReport(x_hat=x_hat, interval=interval, trapped=trapped, utility_gap=gap)


def two_criteria_certificate(
    agent: AgentSpec,
    x_social: float,
    grid: Grid,
) -> SequentialCriteriaCertificate:
    """Rebuild the choice as two sequential maximizations and compare.

    Stage one keeps the grid points undominated under strict one-many
    dominance; stage two keeps those undominated under strict comprehensive
    comparison (strict meaning a gap above the same 1e-12 tie tolerance the
    argmax set uses, so the two routes agree exactly on plateaus).  A false
    certificate signals an implementation bug, not a model state.
    """
    survivors = maximal_indices_grid(agent.utility, agent.c1, x_social, grid)
    gamma = survivors[near_best(comprehensive_values(agent, grid, x_social)[survivors])[1]]
    chosen = second_stage_choice(agent, x_social, grid)
    gamma_points = tuple(float(x) for x in grid.points[gamma])
    holds = gamma_points == chosen.chosen
    return SequentialCriteriaCertificate(
        holds=holds,
        gamma=gamma_points,
        stage1_survivors=tuple(float(x) for x in grid.points[survivors]),
    )
