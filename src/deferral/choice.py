"""Second-stage decision, and the one agent-row engine behind every grid argmax.

Once the consideration interval is fixed, the agent maximizes the
comprehensive utility (personal utility minus both distance costs) over it.
This module also locates the unconstrained optimum over the whole grid,
detects the indecisiveness trap (the unconstrained optimum falling outside
the interval), and certifies that the two-stage procedure equals a sequential
maximization by two asymmetric relations: first strict one-many dominance,
then strict comprehensive-utility comparison.

A game agent's best response is the same choice with reference points from
the other agents, so one engine, ``_AgentRows``, reads every payoff row,
here and in ``game.py``: ``_grid_responses`` is every grid argmax, and
``_AgentRows.bests`` gives every equilibrium verdict its bests.  It holds the
one window rule: rows that fit one block of ``_BLOCK_CELLS`` cells are read
whole; past that, a certified agent's rows (``_concavity``) are read on
windows around their closed-form peak (``_window``), except for a one-step
default-tolerance statistic, which reads every cell.  Other rows are read
whole once, and given a reach, that pass records each row's window of cells
within the reach of its best, which a later pass reads at any tolerance up to
the reach: the two-agent search reads an uncertified agent's rows once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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
    belief_mean,
    eval_cost,
    eval_utility,
    in_exact_family,
    require_nonnegative,
    utility_values,
)

#: Cap on the cells (rows x own choices) of a block of ``_AgentRows.blocks``, the
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


def _row_max(values: np.ndarray, inside=None) -> np.ndarray:
    """Each row's maximum (last axis) over its cells ``inside``, all when ``None``: the engine's row
    reduction, except on the whole rows of ``bests``, which take an argmax.  numpy reduces a short
    last axis slowly, so a block narrower than 32 cells is reduced down the rows of its transposed
    copy: about 18 times faster at (4001, 3), where a (10, 1601) block of whole rows is 15 times
    faster along its rows."""
    if values.ndim == 2 and values.shape[1] < 32:
        return (values if inside is None else np.where(inside, values, -np.inf)).T.copy().max(axis=0)
    return values.max(axis=-1, where=True if inside is None else inside, initial=-np.inf)


def _slice_max(values: np.ndarray, top, best, first, last) -> np.ndarray:
    """Each whole row's maximum over its cells ``first..last``, one pair per row, given its argmax
    ``top`` and its ``best``: the best where ``top`` lies in the slice, else one segmented reduction
    over the rows that need it.  A slice mask would cost an m-wide comparison more, about 5 ms on
    1,601 rows of 1,601 cells."""
    far = np.flatnonzero((top < first) | (top > last))
    if len(far):
        starts = far * values.shape[-1] + first[far]
        bounds = np.column_stack([starts, starts + (last - first + 1)[far]]).ravel()
        best = best.copy()
        best[far] = np.maximum.reduceat(values.ravel(), bounds[bounds < values.size])[::2]  # segments and gaps
    return best


def near_best(values: np.ndarray, inside=None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best value (last axis) over its cells ``inside`` and the mask of those within
    ``EXACT_TOL`` of it.

    This is the argmax tie rule of every grid search: the argmax set keeps
    each point within ``EXACT_TOL`` of the best, and its smallest point is
    the canonical one.  ``inside`` ``None`` is every cell; the mask never
    leaves ``inside``, even when every value there is ``-inf``.
    """
    best = _row_max(values, inside)
    near = values >= np.expand_dims(best, -1) - EXACT_TOL
    return best, near if inside is None else near & inside


def _tolerance_stat(exact: bool, rows: np.ndarray) -> np.ndarray:
    """The default tolerance's statistic of each payoff row, own choice last.

    The largest ``|U|`` in the exact family (``exact``), else the largest
    payoff change between neighbouring own choices.
    """
    if exact:
        return _row_max(np.abs(rows))
    with np.errstate(invalid="ignore"):  # NaN between two -inf payoffs
        return _row_max(np.abs(np.diff(rows, axis=-1)))


def _exact_program(agent: AgentSpec, future_mean: float, x_social, grid: Grid):
    """The agent's comprehensive utility as the arguments of ``kinked_concave_argmax``: kinks at the
    social choice ``x_social``, one or one per row, and at ``future_mean``, on the grid's bound."""
    u, w = agent.utility, agent.form
    if not in_exact_family(agent):
        raise MethodUnsupported("exact best response needs a quadratic utility and zero or linear costs")
    if w.w_u * u.a <= 0:
        raise MethodUnsupported("exact best response needs w_u > 0")
    kinks = [(x_social, w.w_1 * agent.c1.d), (future_mean, w.w_2 * agent.c2.d)]
    return w.w_u * u.a, w.w_u * u.b, w.w_u * u.k, kinks, 0.0, grid.x_max


def _concavity(agent: AgentSpec, future_mean: float, grid: Grid):
    """``(c, ε, ρ)`` certifying the agent's rows as concave, else ``None``.

    An agent ``in_exact_family`` (a quadratic utility with linear costs)
    makes a row ``−A·x²`` plus a concave piecewise-linear function of the
    own choice, ``A = w_u·a``, whatever the other agents' families.  So with ``h`` the
    grid step and ``D_k = F(k+1) − F(k)``, ``F(k+d) ≤ F(k) + d·D_k − A·h²·d(d−1)``
    for ``d ≥ 1``, and mirrored on the left.  ``c`` is ``A·h²`` shrunk by
    ``ρ``, and ``ε`` bounds the distance of each float payoff from the exact
    one.  A row lies ``A·h²·k(m−1−k)`` above the chord between its ends, so
    ``c·(m−2) > 2ε`` puts its float minimum at an end.  ``None`` outside that
    family, for ``A = 0``, for terms at the float range's end and without
    that condition: those rows stay whole.
    """
    u, w, x_max = agent.utility, agent.form, grid.x_max
    if not in_exact_family(agent) or w.w_u * u.a <= 0:
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


def _window(payoffs, k, span, tol, certificate, m):
    """Each row's cells in its ``span`` that the curvature bound cannot put below ``F(k) − tol``.

    Rows hold m cells; ``payoffs`` is ``_AgentRows.payoffs``, read at the anchor ``k``
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


class _AgentRows:
    """One agent's payoff rows against a column of social choices, read by the one window rule.

    Row ``j`` holds the agent's payoff at each of the m own grid choices
    against ``socials[j]`` (shape ``(rows, 1)``, each finite and in the grid's
    bound) and the future mean ``future_mean``, the agent's ``belief_mean``
    when ``None``; ``base`` is the agent's ``_own_row``, computed here
    without it.  Rows that fit one block (``rows·m ≤ _BLOCK_CELLS``) are read
    whole, as a window's probes cost more than such rows.  Past one block,
    the rows of an agent that ``_concavity`` certifies are read on the
    ``_window`` of a tolerance around their ``peak``, read once for every
    window.  Other rows are read whole, except that once ``bests`` has read
    them whole at a ``reach``, ``blocks`` reads the windows it recorded at any
    tolerance up to that reach (``recorded``).  Every cell read is the one
    kernel's, so what a window serves is the whole row's bit for bit.
    """

    def __init__(self, agent: AgentSpec, future_mean: float | None, socials: np.ndarray, grid: Grid,
                 base: np.ndarray | None = None):
        future_mean = belief_mean(agent) if future_mean is None else future_mean
        self.base = _own_row(agent, future_mean, grid) if base is None else base
        self.agent, self.future_mean, self.socials, self.grid = agent, future_mean, socials, grid
        self.count, self.m = len(socials), len(grid.points)
        self.certificate = _concavity(agent, future_mean, grid) if self.count * self.m > _BLOCK_CELLS else None
        self.recorded = None  # (reach, lo, hi) of the windows that ``bests`` records

    def payoffs(self, rows, cols):
        """The kernel on the rows ``rows``: ``cols`` holds each row's own grid choices, one row of
        them per row, or is the one row ``arange(m)`` of whole rows, which broadcasts ungathered."""
        pts, base = self.grid.points, self.base
        own = (pts, base) if cols.ndim == 1 else (pts[cols], base[cols])
        return _comprehensive(self.agent, *own, self.socials[rows])

    @cached_property
    def peak(self) -> np.ndarray:
        """A grid argmax of each certified row: of the two grid points around the row's smallest
        closed-form argmax, the better, read in one kernel call.  On a concave row it is the argmax
        up to float rounding, which only widens the windows that ``_window`` builds around it."""
        pts = self.grid.points
        x, top = _kinked_argmax(*_exact_program(self.agent, self.future_mean, self.socials[:, 0], self.grid))
        j = np.clip(np.searchsorted(pts, np.where(top, x, np.inf).min(axis=0)), 1, len(pts) - 1)
        pair = self.payoffs(np.arange(len(j)), j[:, None] + np.arange(-1, 1))
        return j - (pair[:, 0] >= pair[:, 1])

    def step_bound(self) -> float:
        """An upper bound on every row's one-step default-tolerance statistic, from O(m) cells.

        A row is ``base − w_1·c1(|own − s|)`` with every distance in
        ``[0, x_max]``, and neighbouring distances differ by at most the
        widest grid gap ``g``.  ``c1`` is convex and increasing, so ``w_1·c1``
        changes over such a gap by at most ``w_1·(c1(x_max) − c1(x_max − g))``;
        add the largest change of ``base`` between neighbours, and a rounding
        margin of ``2·_ROUNDING`` times the kernel terms' magnitudes.  NaN or
        ``inf`` when a term is not finite.  Nothing exact rests on it: ``blocks``
        checks each tolerance against the reach that windows were recorded at.
        """
        pts, base = self.grid.points, self.base
        cost = eval_cost(self.agent.c1, np.array([pts[-1] - np.diff(pts).max(), pts[-1]]), self.agent.form.w_1)
        with np.errstate(invalid="ignore", over="ignore"):  # -inf in base, or an infinite cost
            bound = np.abs(np.diff(base)).max() + (cost[1] - cost[0])
            return float(bound + 2.0 * _ROUNDING * (np.abs(base).max() + cost[1]))

    def blocks(self, tol, part=None):
        """Blocks ``(rows, cols, values, inside)`` of at most ``_BLOCK_CELLS`` cells holding each row's
        cells within ``tol`` of its best in its slice ``part``, ``(first, last)`` per row, or in the
        whole row when ``None``; ``tol`` ``None`` reads whole rows, as do rows that are not windowed.

        A certified agent's windows are its ``_window``s at ``tol``; an
        uncertified agent's are those that ``bests`` recorded, when ``tol``
        is at most their reach.  ``rows`` is a slice of consecutive rows and
        ``cols`` their own grid choices: each window padded to the block's
        widest and kept on the grid, one row of ``cols`` per row.  A block of
        whole rows shares the one row ``arange(m)``, which broadcasts.
        Padding adds real cells, so a verdict there is exact too; a row never
        costs more than a whole row, and no rows make no block.  ``values``
        are their payoffs and ``inside`` the mask of ``part``, or ``None``.
        """
        m, grid_cols = self.m, np.arange(self.m)
        if tol is not None and self.certificate is not None:
            span = (np.zeros(self.count, dtype=np.intp), np.full(self.count, m - 1)) if part is None else part
            lo, hi = _window(self.payoffs, self.peak, span, tol, self.certificate, m)
        elif tol is not None and self.recorded is not None and tol <= self.recorded[0]:
            lo, hi = self.recorded[1:]
        else:
            lo = hi = None
        if lo is None:
            count = max(1, _BLOCK_CELLS // m)
            widths = [(first, m) for first in range(0, self.count, count)]
        else:
            width = hi - lo + 1
            count = max(1, _BLOCK_CELLS // int(width.max()))
            firsts = np.arange(0, self.count, count)
            widths = zip(firsts.tolist(), np.maximum.reduceat(width, firsts).tolist())  # each block's widest
        for first, w in widths:
            rows = slice(first, first + count)
            cols = grid_cols if w == m else np.minimum(lo[rows], m - w)[:, None] + grid_cols[:w]
            inside = None if part is None else in_slice(cols, part[0][rows, None], part[1][rows, None])
            yield rows, cols, self.payoffs(rows, cols), inside

    def bests(self, part, stat, reach=None, restricted=False):
        """Each row's best, its best in its slice ``part`` and its default tolerance statistic.

        ``part`` is ``(first, last)`` per row, or ``None`` and a best of
        ``-inf``.  The statistic is ``_tolerance_stat(stat, row)`` of each
        whole row, or ``-inf`` when ``stat`` is ``None``; the one-step one
        (``stat`` false) reads every cell.  Windowed rows read their
        ``tol = 0`` windows over the row and over the slice, where a concave
        row peaks at its peak clamped into the slice, and their minimum lies
        at an end (``_concavity``), so ``max|U|`` reads two more cells a row.

        Whole rows take their best at their argmax, and their best in the
        slice there too when the argmax lies in it (``_slice_max``).  An
        uncertified agent's rows are read whole here, and with a finite
        ``reach`` each row also records its window for ``blocks``: its first
        and last own choice whose payoff is ``>= limit − reach``, the limit
        being its best, or its best in its slice when ``restricted``, the
        window then clipped to the slice.  Float subtraction is monotone, so
        at any ``tol ≤ reach`` the window holds every cell ``>= limit − tol``.
        """
        best, rbest, stats = np.full((3, self.count), -np.inf)
        if self.certificate is None or stat is False:
            record = self.certificate is None and reach is not None and np.isfinite(reach)
            lo, hi = np.zeros((2, self.count), dtype=np.intp)
            for rows, _, values, _ in self.blocks(None):
                top = values.argmax(axis=-1)
                best[rows] = values[np.arange(len(top)), top]
                if part is not None:
                    rbest[rows] = _slice_max(values, top, best[rows], part[0][rows], part[1][rows])
                if stat is not None:
                    stats[rows] = _tolerance_stat(stat, values)
                if record:
                    near = values >= np.expand_dims((rbest if restricted else best)[rows] - reach, -1)
                    lo[rows], hi[rows] = near.argmax(axis=-1), self.m - 1 - near[:, ::-1].argmax(axis=-1)
            if record:
                if restricted:
                    lo, hi = np.maximum(lo, part[0]), np.minimum(hi, part[1])
                self.recorded = reach, lo, hi
            return best, rbest, stats
        for rows, _, values, _ in self.blocks(0.0):
            best[rows] = _row_max(values)
        if part is not None:
            for rows, _, values, inside in self.blocks(0.0, part):
                rbest[rows] = _row_max(values, inside)
        if stat is not None:
            ends = self.payoffs(np.arange(self.count), np.array([[0, self.m - 1]]))
            stats = np.abs([best, *ends.T]).max(axis=0)
        return best, rbest, stats


def _grid_responses(agent: AgentSpec, future_mean: float | None, socials: np.ndarray, grid: Grid,
                    restricted: bool, base: np.ndarray | None = None):
    """The one grid argmax: the agent's against a column of social choices and ``future_mean``.

    Yields ``(rows, cols, best, near)`` for the blocks of ``_AgentRows`` at
    ``EXACT_TOL``: the slice ``rows`` of ``socials``, each row's own grid
    choices, ascending, one row of ``cols`` per row or one that every row of
    the block shares, and ``near_best`` of their values, over the
    consideration slice when ``restricted``.  A window holds every choice
    within ``EXACT_TOL`` of its row's best, so each best and mask is the
    whole row's bit for bit.  The slice is checked before ``base``, the
    agent's ``_own_row``, is computed without it.
    """
    part = consideration_slice(agent.utility, agent.c1, socials[:, 0], grid)[2:] if restricted else None
    for rows, cols, values, inside in _AgentRows(agent, future_mean, socials, grid, base).blocks(EXACT_TOL, part):
        yield (rows, cols, *near_best(values, inside))


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
    chosen = near_best(vals, in_slice(np.arange(len(vals)), first, last))[1]
    pts = grid.points
    return SequentialCriteriaCertificate(
        holds=np.array_equal(gamma, np.flatnonzero(chosen)),
        gamma=tuple(float(x) for x in pts[gamma]),
        stage1_survivors=tuple(float(x) for x in pts[survivors]),
    )
