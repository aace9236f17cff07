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
    consideration_interval,
    consideration_slice,
    in_slice,
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
    require_nonnegative,
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


def _own_values(agent: AgentSpec, own: np.ndarray, u_own: np.ndarray,
                future_mean: float | None) -> np.ndarray:
    """``w_u·u − w_2·c2`` at the own choices ``own``, whose utilities are ``u_own``.

    The part of the kernel that the social choice leaves alone, so a search
    computes it once.  No cost is NaN (``eval_cost``), so the values could be
    NaN only where ``w_u·u`` is ``+inf`` and meets an infinite cost; a
    ``w_u·u`` that is not finite, decided from ``max|u|`` without overflowing,
    raises ``DomainError`` instead, as does a future mean that is not finite.
    """
    if future_mean is None:
        future_mean = belief_mean(agent)
    require_nonnegative("future mean", future_mean)
    w = agent.form
    if not np.isfinite(w.w_u * float(np.abs(u_own).max())):
        raise DomainError(f"weighted utility w_u·u is not finite (w_u = {w.w_u})")
    cost = eval_cost(agent.c2, np.abs(own - future_mean), w.w_2)
    with np.errstate(over="ignore"):  # past the float range the difference is -inf, which is right
        return w.w_u * u_own - cost


def _comprehensive(agent: AgentSpec, own: np.ndarray, base: np.ndarray, x_social) -> np.ndarray:
    """``base − w_1·c1(|own − x_social|)``: the comprehensive values at the own choices ``own``.

    ``base`` is their ``_own_values``, and every social choice is finite and
    nonnegative.  The result has the broadcast shape of ``own`` and
    ``x_social``, and is a read-only view of ``base`` when ``w_1 = 0``.
    """
    w_1 = agent.form.w_1
    if w_1 != 0.0:
        cost = eval_cost(agent.c1, np.abs(own - x_social), w_1)
        with np.errstate(over="ignore"):  # two finite costs may sum past the float range: -inf
            return base - cost
    return np.broadcast_to(base, np.broadcast_shapes(np.shape(base), np.shape(x_social)))


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
    require_nonnegative("comprehensive_value inputs", (x, x_social))
    own = np.array([x], dtype=float)
    base = _own_values(agent, own, np.array([eval_utility(agent.utility, x)]), future_mean)
    return float(_comprehensive(agent, own, base, x_social)[0])


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
    many are computed together.  Each social choice must be finite and ``>= 0``.
    """
    require_nonnegative("social choice", x_social)
    base = _own_values(agent, grid.points, utility_values(agent.utility, grid), future_mean)
    return _comprehensive(agent, grid.points, base, x_social)


def grid_argmax(agent: AgentSpec, grid: Grid, x_social, future_mean: float | None = None,
                restricted: bool = False,
                values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``near_best`` of the comprehensive values: the one grid argmax of every choice.

    ``x_social`` is a scalar or a column, as for ``comprehensive_values``.  When
    ``restricted``, points outside the ``consideration_slice`` count as
    ``-inf``, and the slice's checks run before the kernel's.  A caller that
    already has the comprehensive values passes them as ``values``; the
    kernel does not run again, and ``future_mean`` goes unused.
    """
    mask = None
    if restricted:
        first, last = consideration_slice(agent.utility, agent.c1, x_social, grid)[2:]
        mask = in_slice(np.arange(len(grid.points)), first, last)
    if values is None:
        values = comprehensive_values(agent, grid, x_social, future_mean)
    return near_best(values if mask is None else np.where(mask, values, -np.inf))


def second_stage_choice(agent: AgentSpec, x_social: float, grid: Grid) -> ChoiceResult:
    """Maximize the comprehensive utility over the consideration interval."""
    best, near = grid_argmax(agent, grid, x_social, restricted=True)
    return ChoiceResult(tuple(float(x) for x in grid.points[near]), float(best))


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
    # one kernel table serves both routes: gamma over the survivors, the choice over the slice
    vals = comprehensive_values(agent, grid, x_social)
    gamma = survivors[near_best(vals[survivors])[1]]
    chosen = grid_argmax(agent, grid, x_social, restricted=True, values=vals)[1]
    pts = grid.points
    return SequentialCriteriaCertificate(
        holds=np.array_equal(gamma, np.flatnonzero(chosen)),
        gamma=tuple(float(x) for x in pts[gamma]),
        stage1_survivors=tuple(float(x) for x in pts[survivors]),
    )
