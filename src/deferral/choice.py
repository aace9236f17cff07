"""Second-stage decision, and the one agent-row engine behind every grid argmax.

Once the consideration interval is fixed, the agent maximizes the
comprehensive utility (personal utility minus both distance costs) over it.
This module also locates the unconstrained optimum over the whole grid,
detects the indecisiveness trap (the unconstrained optimum falling outside
the interval), and certifies that the two-stage procedure equals a sequential
maximization by two asymmetric relations: first strict one-many dominance,
then strict comprehensive-utility comparison.

A game agent's best response is the same choice with reference points from
the other agents, so one engine, ``_grid_responses``, is every grid argmax,
here and in ``game.py``.  Rows that fit one block of ``_BLOCK_CELLS`` cells
are read whole; past that, a certified agent's rows (``_concavity``) are read
on windows around their closed-form peak (``_peak``, ``_window``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .consideration import (
    ClosedInterval,
    consideration_interval,
    consideration_slice,
    in_slice,
    maximal_indices_grid,
)
from .errors import DomainError, MethodUnsupported
from .model import (
    EXACT_TOL,
    AgentSpec,
    Grid,
    Quadratic,
    belief_mean,
    cost_is_linear,
    eval_cost,
    eval_utility,
    near_best,
    require_nonnegative,
    utility_values,
)

#: Cap on the cells (rows x own choices) of a block of ``_window_blocks``, the
#: m-wide reads of every grid search, whose rows a lattice's starts or a curve's
#: sweep fill.  It bounds their memory whatever the grid or the number of rows.
_BLOCK_CELLS = 1 << 14
#: Rounding allowance of the certified windows, in units of a payoff's size:
#: 2^-48 is 32 units in the last place.  ``ε`` is this times the sum of the
#: kernel terms' magnitudes, and the relative slack ``ρ`` is this times the
#: number of grid points, as each grid point carries two roundings of its size.
_ROUNDING = 2.0**-48


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

    ``future_mean`` defaults to ``belief_mean``, the mean of the uniform
    mixture of the agent's own beliefs; game code passes the aggregated
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
    return _comprehensive(agent, grid.points, _own_row(agent, future_mean, grid), x_social)


# ---------------------------------------------------------------------------
# the agent-row engine, keyed on an agent, a future mean and a grid


def _kinked_argmax(a, b, k, kinks, lo, hi):
    """``kinked_concave_argmax`` on rows, each number one or one per row: each row's candidates, a
    column with NaN where it has fewer, and their argmax mask, each float operation the row's own.
    At most one value is stationary inside its segment, so one candidate holds it.  A candidate
    whose objective overflows raises ``DomainError``, as no argmax can be told from it."""
    numbers = np.array(np.broadcast_arrays(*(np.ravel(v) for v in (a, b, k, lo, np.inf if hi is None else hi,
                                                                   *itertools.chain(*kinks)))), dtype=float)
    given = np.delete(numbers, 4, 0) if hi is None else numbers  # no hi is no bound
    if not np.isfinite(given).all() or (numbers[4] < numbers[3]).any():
        raise DomainError("a kinked concave program needs finite numbers and lo <= hi")
    (a, b, k, lo, top), t, w = numbers[:5], list(numbers[5::2]), list(numbers[6::2])
    if not (a > 0).all():
        raise MethodUnsupported(f"quadratic part must be strictly concave, got a={a.min()}")
    if any((v < 0).any() for v in w):
        raise MethodUnsupported("kink weights must be nonnegative")
    for j in range(len(t)):  # a kink merges into the first of weight > 0 before it at its point
        for i in range(j):
            same = (w[i] > 0) & (t[i] == t[j])
            w[i], w[j] = np.where(same, w[i] + w[j], w[i]), np.where(same, 0.0, w[j])
    locs, weights = [np.where(v > 0, s, np.inf) for s, v in zip(t, w)], list(w)  # weight 0 sorts last
    for end in range(len(locs) - 1, 0, -1):  # a stable sort of each row's kinks
        for j in range(end):
            swap = locs[j + 1] < locs[j]
            for v in (locs, weights):
                v[j], v[j + 1] = np.where(swap, v[j + 1], v[j]), np.where(swap, v[j], v[j + 1])
    above, below, stationary = sum(weights, 0.0 * a), 0.0 * a, np.full_like(a, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for seg_lo, seg_hi, v in zip([-np.inf] + locs, locs + [np.inf], weights + [0.0]):
            point = (b + above - below) / (2.0 * a)
            inside = (np.maximum(seg_lo, lo) <= point) & (point <= np.minimum(seg_hi, top))
            stationary = np.where(inside, point, stationary)
            above, below = above - v, below + v
        x = np.vstack([lo, np.full_like(a, np.nan) if hi is None else top,
                       *(np.where((v > 0) & (lo <= s) & (s <= top), s, np.nan) for s, v in zip(t, w)), stationary])
        f = -a * x * x + b * x + k - sum(np.where(v > 0, v * np.abs(x - s), 0.0) for s, v in zip(t, w))
    if not (np.isfinite(f) | np.isnan(x)).all():
        raise DomainError("a kinked concave program's objective is not finite at a candidate")
    return x, f == np.fmax.reduce(f, axis=0)


def _exact_program(agent: AgentSpec, future_mean: float, x_social, grid: Grid):
    """The agent's comprehensive utility as the arguments of ``kinked_concave_argmax``: kinks at the
    social choice ``x_social``, one or one per row, and at ``future_mean``, on the grid's bound."""
    u = agent.utility
    if not isinstance(u, Quadratic):
        raise MethodUnsupported("exact best response needs a quadratic utility")
    for c in (agent.c1, agent.c2):
        if not cost_is_linear(c):
            raise MethodUnsupported("exact best response needs zero or linear costs")
    w = agent.form
    if w.w_u * u.a <= 0:
        raise MethodUnsupported("exact best response needs w_u > 0")
    kinks = [(x_social, w.w_1 * agent.c1.d), (future_mean, w.w_2 * agent.c2.d)]
    return w.w_u * u.a, w.w_u * u.b, w.w_u * u.k, kinks, 0.0, grid.x_max


def _concavity(agent: AgentSpec, future_mean: float, grid: Grid):
    """``(c, ε, ρ)`` certifying the agent's rows as concave, else ``None``.

    A quadratic utility with linear costs (``cost_is_linear``) makes a row
    ``−A·x²`` plus a concave piecewise-linear function of the own choice,
    ``A = w_u·a``, whatever the other agents' families.  So with ``h`` the
    grid step and ``D_k = F(k+1) − F(k)``, ``F(k+d) ≤ F(k) + d·D_k − A·h²·d(d−1)``
    for ``d ≥ 1``, and mirrored on the left.  ``c`` is ``A·h²`` shrunk by
    ``ρ``, and ``ε`` bounds the distance of each float payoff from the exact
    one.  A row lies ``A·h²·k(m−1−k)`` above the chord between its ends, so
    ``c·(m−2) > 2ε`` puts its float minimum at an end.  ``None`` outside that
    family, for ``A = 0``, for terms at the float range's end and without
    that condition: those rows stay whole.
    """
    u, w, x_max = agent.utility, agent.form, grid.x_max
    if not (isinstance(u, Quadratic) and cost_is_linear(agent.c1) and cost_is_linear(agent.c2)) or w.w_u * u.a <= 0:
        return None
    terms = (w.w_u * (u.a * x_max * x_max + abs(u.b) * x_max + abs(u.k))
             + w.w_2 * agent.c2.d * max(x_max, future_mean)
             + w.w_1 * agent.c1.d * x_max)
    rho = _ROUNDING * len(grid.points)
    c = w.w_u * u.a * grid.step * grid.step * (1.0 - rho)
    if not (np.isfinite(2.0 * terms) and c * (len(grid.points) - 2) > 2.0 * _ROUNDING * terms):
        return None
    return c, _ROUNDING * terms, rho


def _own_row(agent: AgentSpec, future_mean: float | None, grid: Grid) -> np.ndarray:
    """``_own_values`` on every grid point: the part that each of the agent's rows shares."""
    return _own_values(agent, grid.points, utility_values(agent.utility, grid), future_mean)


def _payoffs(agent: AgentSpec, pts: np.ndarray, base: np.ndarray, socials: np.ndarray):
    """``payoffs(rows, cols)``: the kernel on the rows ``rows`` of the column ``socials``.

    ``cols`` holds each row's own grid choices, one row of them per row, or
    is the one row ``arange(m)`` of whole rows, which broadcasts ungathered
    (``_window_blocks``).  ``base`` is the agent's ``_own_row``.
    """
    def payoffs(rows, cols):
        own = (pts, base) if cols.ndim == 1 else (pts[cols], base[cols])
        return _comprehensive(agent, *own, socials[rows])

    return payoffs


def _peak(payoffs, agent: AgentSpec, future_mean: float, socials: np.ndarray, grid: Grid):
    """A grid argmax of each of the agent's certified rows (``payoffs``) against the column ``socials``.

    Of the two grid points around the row's smallest closed-form argmax, the
    better, read in one kernel call: on a concave row the argmax up to float
    rounding, which only widens the windows that ``_window`` builds around it.
    """
    pts = grid.points
    x, top = _kinked_argmax(*_exact_program(agent, future_mean, socials[:, 0], grid))
    j = np.clip(np.searchsorted(pts, np.where(top, x, np.inf).min(axis=0)), 1, len(pts) - 1)
    pair = payoffs(np.arange(len(j)), j[:, None] + np.arange(-1, 1))
    return j - (pair[:, 0] >= pair[:, 1])


def _window(payoffs, k, span, tol, certificate, m):
    """Each row's cells in its ``span`` that the curvature bound cannot put below ``F(k) − tol``.

    Rows hold m cells; ``payoffs`` is a ``_payoffs``, read at the anchor ``k``
    clamped into the span and its two neighbours, in one kernel call.  With ``(c, ε, ρ)``
    from ``_concavity``, the cell ``d`` steps from ``k`` lies below ``F(k) − tol``, in the
    float comparison too, once ``c·d(d−1) − d·s > tol·(1+ρ) + 3ε``, where
    ``s = D + 3ε + 3ρ|D|`` bounds the exact slope of the step from ``k``
    towards it.  That holds beyond the larger root of the quadratic, taken
    in its stable form and rounded out by a cell; a root that is not finite
    keeps the whole span.  Any anchor is sound, and the limits that a window
    serves are never below ``F(k)``.
    """
    c, eps, rho = certificate
    k = np.clip(k, *span)
    near = payoffs(np.arange(len(k)), np.clip(k[:, None] + np.arange(-1, 2), 0, m - 1))
    here = near[:, 1]
    slack = tol * (1.0 + rho) + 3.0 * eps
    reach = []
    for side in (near[:, 0], near[:, 2]):
        slope = side - here
        b = c + slope + 3.0 * eps + 3.0 * rho * np.abs(slope)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            root = np.sqrt(b * b + 4.0 * c * slack)
            d = np.where(b >= 0, (b + root) / (2.0 * c), 2.0 * slack / (root - b))
        reach.append(np.where(d < m, np.floor(d * (1.0 + rho)) + 1, m).astype(np.intp))
    return np.maximum(k - reach[0], span[0]), np.minimum(k + reach[1], span[1])


def _window_blocks(window, m: int):
    """Blocks ``(rows, cols)`` of at most ``_BLOCK_CELLS`` cells covering each window ``[lo, hi]``.

    Each row holds m grid points.  ``rows`` is a slice of consecutive rows
    and ``cols`` their own grid choices: each window padded to the block's
    widest and kept on the grid, one row of ``cols`` per row.  A block of
    whole rows shares the one row ``arange(m)``, which broadcasts.  Padding
    adds real cells, so a verdict there is exact too; a row never costs more
    than a whole row, and no rows make no block.
    """
    lo, hi = window
    width = hi - lo + 1
    count = max(1, _BLOCK_CELLS // int(width.max(initial=1)))
    firsts, cols = np.arange(0, len(lo), count), np.arange(m)
    for first, w in zip(firsts.tolist(), np.maximum.reduceat(width, firsts).tolist()):  # each block's widest
        rows = slice(first, first + count)
        yield rows, cols if w == m else np.minimum(lo[rows], m - w)[:, None] + cols[:w]


def _grid_responses(agent: AgentSpec, future_mean: float | None, socials: np.ndarray, grid: Grid,
                    restricted: bool, base: np.ndarray | None = None):
    """The one grid argmax: the agent's against a column of social choices and ``future_mean``.

    Yields ``(rows, cols, best, near)`` for consecutive blocks of at most
    ``_BLOCK_CELLS`` cells: the slice ``rows`` of ``socials`` (shape
    ``(rows, 1)``, each finite and in the grid's bound), each row's own grid
    choices, ascending, one row of ``cols`` per row or one that every row
    of the block shares, and ``near_best`` of their values, every choice
    outside the consideration slice at ``-inf`` when ``restricted``.  Rows
    are whole when they all fit one block or ``_concavity`` refuses the agent;
    else each is the ``EXACT_TOL`` window of ``_window`` around its ``_peak``,
    clamped into the slice, which holds every choice within ``EXACT_TOL`` of
    the row's best, so each best and mask is the whole row's bit for bit.
    ``base`` is the agent's ``_own_row``, computed here without it, after the
    slice's checks; ``future_mean`` ``None`` is the agent's ``belief_mean``.
    """
    pts, count, m = grid.points, len(socials), len(grid.points)
    if restricted:
        first, last = consideration_slice(agent.utility, agent.c1, socials, grid)[2:]
    payoffs = _payoffs(agent, pts, _own_row(agent, future_mean, grid) if base is None else base, socials)
    blocks = [(slice(0, count), np.arange(m))] if count else []  # no rows, no kernel call
    if count * m > _BLOCK_CELLS:  # rows that fit one block cost less whole than a window's probes
        window = np.zeros(count, dtype=np.intp), np.full(count, m - 1)
        future_mean = belief_mean(agent) if future_mean is None else future_mean
        certificate = _concavity(agent, future_mean, grid)
        if certificate is not None:
            span = (first[:, 0], last[:, 0]) if restricted else window
            window = _window(payoffs, _peak(payoffs, agent, future_mean, socials, grid), span, EXACT_TOL,
                             certificate, m)
        blocks = _window_blocks(window, m)
    for rows, cols in blocks:
        values = payoffs(rows, cols)
        if restricted:
            values = np.where(in_slice(cols, first[rows], last[rows]), values, -np.inf)
        yield (rows, cols, *near_best(values))


def _argmax(agent: AgentSpec, x_social: float, grid: Grid, restricted: bool):
    """``_grid_responses`` on the one-row column ``x_social`` against the agent's ``belief_mean``:
    the row's best and its argmax's grid indices, ascending."""
    require_nonnegative("social choice", x_social)
    _, cols, best, near = next(_grid_responses(agent, None, np.full((1, 1), x_social), grid, restricted))
    return float(best[0]), cols.ravel()[near[0]]  # one row of cols, shared or its own


def second_stage_choice(agent: AgentSpec, x_social: float, grid: Grid) -> ChoiceResult:
    """Maximize the comprehensive utility over the consideration interval."""
    best, chosen = _argmax(agent, x_social, grid, True)
    return ChoiceResult(tuple(float(x) for x in grid.points[chosen]), best)


def unconstrained_optimum(agent: AgentSpec, x_social: float, grid: Grid) -> float:
    """Smallest grid maximizer of the comprehensive utility over the whole grid."""
    return float(grid.points[_argmax(agent, x_social, grid, False)[1][0]])


def detect_trap(agent: AgentSpec, x_social: float, grid: Grid) -> TrapReport:
    """Check whether unconstrained maximization would leave the interval."""
    interval = consideration_interval(agent.utility, agent.c1, x_social)
    best, chosen = _argmax(agent, x_social, grid, False)
    x_hat = float(grid.points[chosen[0]])
    step = grid.step
    trapped = x_hat < interval.lo - step or x_hat > interval.hi + step
    rbest = _argmax(agent, x_social, grid, True)[0] if trapped else best
    gap = max(0.0, best - rbest)
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
    first, last = consideration_slice(agent.utility, agent.c1, x_social, grid)[2:]
    chosen = near_best(np.where(in_slice(np.arange(len(vals)), first, last), vals, -np.inf))[1]
    pts = grid.points
    return SequentialCriteriaCertificate(
        holds=np.array_equal(gamma, np.flatnonzero(chosen)),
        gamma=tuple(float(x) for x in pts[gamma]),
        stage1_survivors=tuple(float(x) for x in pts[survivors]),
    )
