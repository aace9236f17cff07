"""Strategic layer: payoffs, best responses, and equilibrium search.

Each agent's payoff is the comprehensive utility evaluated at their own
choice, with the current social reference point aggregated from the other
agents' choices and the future reference point taken from the mean of the
aggregated beliefs.  One grid best response, ``_grid_responses``, answers
every grid best-response question: against a column of social choices it
yields the ``grid_argmax`` masks in blocks of rows, and ``best_response``,
``deferral_best_response``, the grid ``best_response_curve`` and the
n-agent sweeps all read it.  Two equilibrium notions are supported:

* standard: every agent's choice maximizes their payoff over the whole
  strategy interval ``[0, x_max]``, the grid's bound;
* after deferral: every agent's choice lies in, and maximizes their payoff
  over, the consideration set induced by the others' choices.

For two agents the search is exhaustive on the grid (every profile tested),
in blocks of windows of payoff rows that keep O(m) results between them for
m grid points.  A window is the whole row, unless the row is certified
concave (the exact family with ``w_u·a > 0``): then a curvature bound,
``F(k+d) ≤ F(k) + d·D_k − w_u·a·h²·d(d−1)`` with a rounding margin, rules
out the cells away from the row's bisected peak, and at the default
tolerance the search reads O(m log m) cells with the verdicts of whole rows.
For more agents a simultaneous best-response iteration from a start lattice
finds fixed points without any completeness claim.  Every start is iterated
at once, one row per start, in the grid best response's blocks.  One cap on
the cells of a block, ``_BLOCK_CELLS``, bounds the memory of both engines.
"""

from __future__ import annotations

import enum
import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import (
    _comprehensive,
    _own_values,
    comprehensive_value,
    comprehensive_values,
    grid_argmax,
)
from .consideration import consideration_slice, in_slice, require_closed_form
from .errors import (
    ClosedFormUnavailable,
    DomainError,
    GridLookupError,
    MethodUnsupported,
    SpecValidationError,
)
from .model import (
    EXACT_TOL,
    FiniteRandomVariable,
    GameSpec,
    Grid,
    MeanChoice,
    Quadratic,
    Tabulated,
    Violation,
    _mixture,
    cost_is_linear,
    utility_values,
)

Profile = tuple[float, ...]

#: Resolution of the default start lattice for the n-agent iterative search.
START_LATTICE_POINTS = 11
#: The default lattice has START_LATTICE_POINTS**n starts; cap n to keep it sane.
MAX_LATTICE_AGENTS = 4
_MAX_ITERATIONS = 500
#: Cap on the cells (rows x own choices) of one payoff block in both engines:
#: the two-agent search's blocks of row windows and the grid best response's
#: blocks of social choices, which the lattice's starts and a curve's sweep
#: fill.  It bounds their memory whatever the grid or the number of rows.
_BLOCK_CELLS = 1 << 14


class EquilibriumKind(enum.Enum):
    STANDARD = "standard"
    AFTER_DEFERRAL = "after_deferral"
    BOTH = "both"


@dataclass(frozen=True)
class EquilibriumCertificate:
    """A profile together with the equilibrium tests it passed.

    ``max_regret`` is the largest payoff improvement any agent could obtain
    by a grid deviation admissible for the certified kind (full grid for
    standard, consideration set for after-deferral, both for ``BOTH``).
    Agent ``i``'s consideration interval is ``consideration_interval(agent.utility,
    agent.c1, aggregate_choices(game, i, profile))``.
    """

    profile: Profile
    kind: EquilibriumKind
    max_regret: float


@dataclass(frozen=True)
class BestResponseCurve:
    """Best-response argmax sets sampled over a sweep of opponent values."""

    agent: int
    opponent_values: tuple[float, ...]
    argmax_sets: tuple[tuple[float, ...], ...]


# ---------------------------------------------------------------------------
# aggregation


def _social_weights(game: GameSpec, i: int) -> tuple[list[float], float]:
    """Weights of the other agents' choices in agent ``i``'s reference point, and their sum."""
    if game.n < 2:
        raise SpecValidationError([Violation("TooFewAgents", f"game has n={game.n}")])
    agg = game.choice_aggregator
    if isinstance(agg, MeanChoice):
        weights = [1.0] * (game.n - 1)
    else:
        weights = list(agg.weights)
        del weights[i]
    total = sum(weights)
    if total <= 0:
        raise SpecValidationError([Violation(
            "AggregatorWeightsInvalid",
            f"choice weights over agents other than {i} sum to {total}")])
    return weights, total


def _reference_points(others, weights: Sequence[float], total: float):
    """The one social reference point, from one entry of ``others`` per other agent.

    An entry is that agent's choice, or an array of choices (one per row).
    With one other agent the result is its entry exactly, however the weights
    are scaled; else the weighted mean, summed left to right and divided
    once.  Element-wise, so a row does not depend on the rows beside it.
    """
    if len(weights) == 1:
        return others[0]
    acc = weights[0] * others[0]
    for j in range(1, len(weights)):
        acc = acc + weights[j] * others[j]
    return acc / total


def aggregate_choices(game: GameSpec, i: int, profile: Sequence[float]) -> float:
    """Social reference point seen by agent ``i`` under ``profile``.

    With two agents it is exactly the opponent's choice, whatever the
    aggregator.  Otherwise mean aggregation averages the other agents'
    choices, and weighted aggregation renormalizes the per-agent weights over
    everyone but ``i``.
    """
    weights, total = _social_weights(game, i)
    _check_profile(game, profile)
    return float(_reference_points([x for j, x in enumerate(profile) if j != i], weights, total))


def aggregate_beliefs(game: GameSpec, i: int) -> FiniteRandomVariable:
    """Mixture of agent ``i``'s per-opponent beliefs with the configured weights (``_mixture``)."""
    return _mixture(game.agents[i].beliefs, game.belief_aggregator.weights)


def _check_choices(choices, count: int, x_max: float, what: str) -> None:
    """Raise ``DomainError`` unless ``choices`` has ``count`` entries per row, each finite and in
    ``[0, x_max]``: one rule for a profile, the opponents and the rows of a lattice's starts."""
    choices = np.asarray(choices, dtype=float)
    if choices.shape[-1:] != (count,):
        raise DomainError(f"{what} of shape {choices.shape}: expected {count} entries")
    outside = ~((choices >= 0) & (choices <= x_max) & (choices < np.inf))
    if outside.any():
        raise DomainError(f"choice {choices[outside][0]} outside [0, {x_max}]")


def _check_profile(game: GameSpec, profile: Sequence[float], x_max: float = np.inf) -> None:
    """Raise ``DomainError`` unless every choice is in ``[0, x_max]`` (the grid's
    bound) and every tabulated agent's choice is one of their utility's grid points."""
    _check_choices(profile, game.n, x_max, "profile")
    for i, (agent, x) in enumerate(zip(game.agents, profile)):
        if isinstance(agent.utility, Tabulated):
            try:
                agent.utility.grid.index_of(x)
            except GridLookupError as exc:
                raise DomainError(
                    f"agents[{i}]: {exc}, and a tabulated utility is defined only there") from None


def payoff(game: GameSpec, i: int, profile: Sequence[float]) -> float:
    """Agent ``i``'s comprehensive utility at ``profile``."""
    x_social = aggregate_choices(game, i, profile)
    future = aggregate_beliefs(game, i).mean()
    return comprehensive_value(game.agents[i], profile[i], x_social, future)


# ---------------------------------------------------------------------------
# best responses


def kinked_concave_argmax(
    a: float,
    b: float,
    k: float,
    kinks: Sequence[tuple[float, float]],
    lo: float = 0.0,
    hi: float | None = None,
) -> tuple[float, ...]:
    """Exact argmax of ``-a x^2 + b x + k - sum w |x - t|`` on ``[lo, hi]``.

    The objective is strictly concave for ``a > 0``, so the maximizer is the
    stationary point of one linear-slope segment, a kink, or a boundary;
    enumerating those finitely many candidates is exact.
    """
    if a <= 0:
        raise MethodUnsupported(f"quadratic part must be strictly concave, got a={a}")
    if any(w < 0 for _, w in kinks):
        raise MethodUnsupported("kink weights must be nonnegative")
    merged: dict[float, float] = {}
    for t, w in kinks:
        if w > 0:
            merged[t] = merged.get(t, 0.0) + w
    locs = sorted(merged)
    weights = [merged[t] for t in locs]

    def f(x: float) -> float:
        return -a * x * x + b * x + k - sum(w * abs(x - t) for t, w in merged.items())

    top = np.inf if hi is None else hi
    candidates = {lo}
    if hi is not None:
        candidates.add(hi)
    candidates.update(t for t in locs if lo <= t <= top)
    above = sum(weights)
    below = 0.0
    for seg in range(len(locs) + 1):
        seg_lo = locs[seg - 1] if seg > 0 else -np.inf
        seg_hi = locs[seg] if seg < len(locs) else np.inf
        stationary = (b + above - below) / (2.0 * a)
        if max(seg_lo, lo) <= stationary <= min(seg_hi, top):
            candidates.add(stationary)
        if seg < len(locs):
            above -= weights[seg]
            below += weights[seg]
    scored = [(f(x), x) for x in candidates]
    best = max(v for v, _ in scored)
    return tuple(sorted(x for v, x in scored if v == best))


def _exact_best_response(game: GameSpec, i: int, x_social: float, grid: Grid) -> tuple[float, ...]:
    agent = game.agents[i]
    u = agent.utility
    if not isinstance(u, Quadratic):
        raise MethodUnsupported("exact best response needs a quadratic utility")
    for c in (agent.c1, agent.c2):
        if not cost_is_linear(c):
            raise MethodUnsupported("exact best response needs zero or linear costs")
    w = agent.form
    if w.w_u * u.a <= 0:
        raise MethodUnsupported("exact best response needs w_u > 0")
    future = aggregate_beliefs(game, i).mean()
    kinks = [(x_social, w.w_1 * agent.c1.d), (future, w.w_2 * agent.c2.d)]
    return kinked_concave_argmax(
        w.w_u * u.a, w.w_u * u.b, w.w_u * u.k, kinks, lo=0.0, hi=grid.x_max
    )


def _opponent_socials(game: GameSpec, i: int, opponents, grid: Grid) -> np.ndarray:
    """Agent ``i``'s social choices, a column, against rows of one choice in
    ``[0, grid.x_max]`` per other agent."""
    weights, total = _social_weights(game, i)
    _check_choices(opponents, game.n - 1, grid.x_max, "opponents")
    return _reference_points(np.asarray(opponents, dtype=float).T[:, :, None], weights, total)


def _own_base(game: GameSpec, i: int, grid: Grid) -> np.ndarray:
    """Agent ``i``'s ``_own_values`` on the grid, against the aggregated beliefs' mean."""
    agent = game.agents[i]
    return _own_values(agent, grid.points, utility_values(agent.utility, grid),
                       aggregate_beliefs(game, i).mean())


def _grid_responses(game: GameSpec, i: int, socials: np.ndarray, grid: Grid, restricted: bool,
                    base: np.ndarray | None = None):
    """The one grid best response: agent ``i``'s ``grid_argmax`` against a column of social choices.

    Yields ``(rows, near)`` for consecutive blocks of at most ``_BLOCK_CELLS``
    cells: the slice ``rows`` of ``socials`` (shape ``(rows, 1)``, each finite
    and in the grid's bound) and the argmax mask of each of its rows,
    restricted to the consideration slice when ``restricted``.  ``base`` is
    the agent's ``_own_base``; without it, it is computed once here, after
    the slice's checks when ``restricted``, so that those raise first.
    """
    agent = game.agents[i]
    if base is None:
        if restricted:
            require_closed_form(agent.utility, agent.c1)
        base = _own_base(game, i, grid)
    pts = grid.points
    count = max(1, _BLOCK_CELLS // len(pts))
    for first in range(0, len(socials), count):
        rows = slice(first, first + count)
        block = socials[rows]
        yield rows, grid_argmax(agent, grid, block, restricted, _comprehensive(agent, pts, base, block))[1]


def _argmax_sets(game: GameSpec, i: int, socials: np.ndarray, grid: Grid,
                 restricted: bool) -> tuple[tuple[float, ...], ...]:
    """The grid points of each argmax set of ``_grid_responses``, one per social choice."""
    pts = grid.points
    return tuple(tuple(float(x) for x in pts[row])
                 for _, near in _grid_responses(game, i, socials, grid, restricted) for row in near)


def best_response(
    game: GameSpec,
    i: int,
    opponents: Sequence[float],
    grid: Grid,
    method: str = "grid",
) -> tuple[float, ...]:
    """Argmax set of agent ``i``'s payoff against the others' choices, one per other agent.

    ``method="grid"`` scans the grid and reports the tie set (within 1e-12);
    ``method="exact"`` solves the kinked concave program in closed form and
    is only available for quadratic utilities with linear costs.
    """
    socials = _opponent_socials(game, i, [opponents], grid)
    if method == "exact":
        return _exact_best_response(game, i, socials.item(), grid)
    if method != "grid":
        raise MethodUnsupported(f"unknown best-response method {method!r}")
    return _argmax_sets(game, i, socials, grid, False)[0]


def deferral_best_response(
    game: GameSpec,
    i: int,
    opponents: Sequence[float],
    grid: Grid,
) -> tuple[float, ...]:
    """Argmax set of agent ``i``'s payoff restricted to their consideration set."""
    return _argmax_sets(game, i, _opponent_socials(game, i, [opponents], grid), grid, True)[0]


def best_response_curve(
    game: GameSpec,
    i: int,
    opponent_values: Sequence[float],
    grid: Grid,
    method: str = "grid",
) -> BestResponseCurve:
    """Sample the best response of agent ``i`` over a sweep of opponent values.

    Only defined for two-agent games (the sweep is one-dimensional).  Each
    value is checked as ``best_response`` checks an opponent.  The grid
    method answers the whole sweep at once, in blocks of rows; any other
    method asks ``best_response`` once per value.
    """
    if game.n != 2:
        raise MethodUnsupported("best-response sweeps need a two-agent game")
    if method == "grid":
        column = np.asarray(opponent_values, dtype=float)[:, None]
        sets = _argmax_sets(game, i, _opponent_socials(game, i, column, grid), grid, False)
    else:
        sets = tuple(best_response(game, i, (x,), grid, method=method) for x in opponent_values)
    return BestResponseCurve(agent=i, opponent_values=tuple(opponent_values), argmax_sets=sets)


# ---------------------------------------------------------------------------
# tolerances


def is_exact_family(game: GameSpec) -> bool:
    """Whether every agent has quadratic utility and linear costs (``cost_is_linear``)."""
    return all(isinstance(a.utility, Quadratic) and cost_is_linear(a.c1) and cost_is_linear(a.c2)
               for a in game.agents)


def _tolerance_stat(exact: bool, rows: np.ndarray) -> float:
    """The default tolerance's statistic over payoff rows, own choice last.

    The largest ``|U|`` in the exact family (``exact``), else the largest
    payoff change between neighbouring own choices.
    """
    if exact:
        return float(np.abs(rows).max())
    with np.errstate(invalid="ignore"):  # NaN between two -inf payoffs
        return float(np.abs(np.diff(rows, axis=-1)).max())


def _require_tolerance(tolerance: float | None) -> None:
    """Raise ``DomainError`` unless ``tolerance`` is ``None`` or a finite number >= 0."""
    if tolerance is not None and not 0 <= tolerance < np.inf:
        raise DomainError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def _tolerance(exact: bool, stats, tolerance: float | None) -> float:
    """``tolerance``, else the default regret tolerance from ``_tolerance_stat`` values.

    ``stats`` holds the statistic of each agent's payoff rows.
    For the exact (quadratic + linear) family the equilibria are exact and
    only float noise must be absorbed: ``1e-9 * (1 + max|U|)`` over the
    tables.  Otherwise a one-grid-step payoff Lipschitz bound: the largest
    payoff change between neighbouring own choices.  A default that is not
    finite, NaN included whatever the agents' order, raises ``DomainError``.
    """
    if tolerance is not None:
        return tolerance
    stat = float(np.max(stats))
    tolerance = 1e-9 * (1.0 + stat) if exact else stat
    if not np.isfinite(tolerance):
        raise DomainError("the default tolerance is not finite, as a payoff is infinite; "
                          "pass a tolerance (--tolerance)")
    return tolerance


# ---------------------------------------------------------------------------
# classification


def _regret(best: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Largest ``max(0, best - value)`` over the agents (last axis) of each profile.

    An agent whose every grid payoff is ``-inf`` has ``-inf`` as both, and no
    deviation improves on it: its regret is 0.
    """
    with np.errstate(invalid="ignore"):  # -inf - (-inf) is NaN, which fmax drops
        return np.fmax(0.0, best - values).max(axis=-1)


_KINDS = {
    (True, False): EquilibriumKind.STANDARD,
    (False, True): EquilibriumKind.AFTER_DEFERRAL,
    (True, True): EquilibriumKind.BOTH,
}
#: The ``(standard, after_deferral)`` pass verdicts behind each kind.
_VERDICTS = {kind: verdicts for verdicts, kind in _KINDS.items()}


def _certificates(profiles, values, best, rbest, member, tol):
    """The one equilibrium verdict: certificates of the profiles that pass a test.

    ``profiles``, ``values`` and ``best`` have one row per profile and one
    column per agent: the choices, each agent's payoff and their best payoff
    over the grid.  ``rbest``, shaped like ``best``, is each agent's best
    payoff over their consideration slice (``_slice_best``), or ``None``
    without the closed form, and ``member`` says per profile whether every
    choice lies in its consideration set.  The standard test passes when
    every payoff is ``>= best - tol``; the after-deferral test needs
    ``member`` and every payoff ``>= rbest - tol``.  The kind follows from
    the tests passed, and ``max_regret`` is the largest regret over them:
    each passing profile costs one certificate and its profile tuple.
    """
    standard = (values >= best - tol).all(axis=1)
    deferral = np.zeros_like(standard)
    regret = np.where(standard, _regret(best, values), -np.inf)
    if rbest is not None:
        deferral = member & (values >= rbest - tol).all(axis=1)
        regret = np.maximum(regret, np.where(deferral, _regret(rbest, values), -np.inf))
    rows = zip(profiles.tolist(), standard.tolist(), deferral.tolist(), regret.tolist())
    return [EquilibriumCertificate(tuple(p), _KINDS[s, d], r) for p, s, d, r in rows if s or d]


def _slices(game: GameSpec, grid: Grid, socials):
    """``(lo, hi, first, last)`` of each agent's ``consideration_slice``, one column per agent.

    ``socials[a]`` is a column of agent ``a``'s social choices.  ``None``
    without the closed form.
    """
    try:
        parts = [consideration_slice(a.utility, a.c1, s, grid) for a, s in zip(game.agents, socials)]
    except ClosedFormUnavailable:
        return None
    return tuple(np.hstack(c) for c in zip(*parts))


def _slice_best(values, own, first, last) -> np.ndarray:
    """``rbest``: each row's best payoff over its slice ``[first, last]``.

    ``values`` holds a payoff per row and own grid choice ``own``, which has
    a row per row or one row for all.
    """
    return values.max(axis=-1, where=in_slice(own, first[:, None], last[:, None]), initial=-np.inf)


def classify_profile(
    game: GameSpec,
    profile: Sequence[float],
    grid: Grid,
    tolerance: float | None = None,
) -> EquilibriumCertificate | None:
    """Run both equilibrium tests on one profile: the two-agent search's verdict on one row.

    Returns a certificate of the strongest applicable kind, or ``None`` when
    the profile is no equilibrium of either sort.  Deviations are grid
    points.  The profile itself may be off-grid, except that an agent with a
    tabulated utility must choose one of its grid points (else
    ``DomainError``).  A choice is in its consideration set when it lies in
    its interval or its grid slice, within ``EXACT_TOL``; on grid points that
    is the search's slice mask.  When the closed-form consideration interval
    is unavailable the after-deferral test is skipped and only standard
    classification is possible.  A tolerance is refused as in ``find_equilibria``.
    """
    _require_tolerance(tolerance)
    _check_profile(game, profile, grid.x_max)
    values, vectors, socials = [], [], []
    xs = np.array(profile, dtype=float)[:, None, None]  # each a one-row column, as in the search
    for i, agent in enumerate(game.agents):
        socials.append(_reference_points(np.delete(xs, i, axis=0), *_social_weights(game, i)))
        future = aggregate_beliefs(game, i).mean()
        vectors.append(comprehensive_values(agent, grid, socials[-1], future))
        values.append(comprehensive_value(agent, profile[i], socials[-1].item(), future))
    exact = is_exact_family(game)
    tolerance = _tolerance(exact, [[_tolerance_stat(exact, v) for v in vectors]], tolerance)
    rbest = member = None
    bounds = _slices(game, grid, socials)
    if bounds is not None:
        lo, hi, first, last = bounds
        own = np.arange(len(grid.points))
        rbest = np.stack([_slice_best(v, own, f, l) for v, f, l in zip(vectors, first.T, last.T)], axis=1)
        ends = grid.points[first[0]], grid.points[last[0]]
        member = np.array([all(min(l, f) - EXACT_TOL <= x <= max(h, g) + EXACT_TOL
                               for x, l, h, f, g in zip(profile, lo[0], hi[0], *ends))])
    certificates = _certificates(np.array([profile], dtype=float), np.array([values]),
                                 np.array([[v.max() for v in vectors]]), rbest, member, tolerance)
    return certificates[0] if certificates else None


# ---------------------------------------------------------------------------
# exhaustive two-agent search


#: Rounding allowance of the certified windows, in units of a payoff's size:
#: 2^-48 is 32 units in the last place.  ``ε`` is this times the sum of the
#: kernel terms' magnitudes, and the relative slack ``ρ`` is this times the
#: number of grid points, as each grid point carries two roundings of its size.
_ROUNDING = 2.0**-48


def _concavity(game, grid, a):
    """``(c, ε, ρ)`` certifying agent ``a``'s payoff rows as concave, else ``None``.

    In the exact family a row is ``−A·x²`` plus a concave piecewise-linear
    function of the own choice, ``A = w_u·a``.  So with ``h`` the grid step
    and ``D_k = F(k+1) − F(k)``, ``F(k+d) ≤ F(k) + d·D_k − A·h²·d(d−1)``
    for ``d ≥ 1``, and mirrored on the left.  ``c`` is ``A·h²`` shrunk by
    ``ρ``, and ``ε`` bounds the distance of each float payoff from the exact
    one.  ``None`` outside the exact family, for ``A = 0``, and for terms
    or a curvature at the float range's ends: those rows stay whole.
    """
    agent = game.agents[a]
    u, w, x_max = agent.utility, agent.form, grid.x_max
    if not is_exact_family(game) or w.w_u * u.a <= 0:
        return None
    terms = (w.w_u * (u.a * x_max * x_max + abs(u.b) * x_max + abs(u.k))
             + w.w_2 * agent.c2.d * max(x_max, aggregate_beliefs(game, a).mean())
             + w.w_1 * agent.c1.d * x_max)
    rho = _ROUNDING * len(grid.points)
    c = w.w_u * u.a * grid.step * grid.step * (1.0 - rho)
    if not (np.isfinite(2.0 * terms) and c > 0):
        return None
    return c, _ROUNDING * terms, rho


def _peak(payoff_at, m):
    """A grid argmax of each of m rows of m cells, all rows at once.

    ``payoff_at(rows, k)`` gives row ``rows[i]``'s payoff at own choice
    ``k[i]``.  Bisection on the sign of ``D``: on a concave row the index
    found is the argmax up to float rounding, which only widens the windows
    that ``_window`` builds around it.
    """
    lo, hi = np.zeros(m, dtype=np.intp), np.full(m, m - 1)
    live = np.arange(m)  # a grid has two points or more
    while len(live):
        mid = (lo[live] + hi[live]) // 2
        rise = payoff_at(live, mid + 1) > payoff_at(live, mid)
        lo[live] = np.where(rise, mid + 1, lo[live])
        hi[live] = np.where(rise, hi[live], mid)
        live = live[lo[live] < hi[live]]
    return lo


def _window(payoff_at, k, span, tol, certificate):
    """Each row's cells in its ``span`` that the curvature bound cannot put below ``F(k) − tol``.

    With ``(c, ε, ρ)`` from ``_concavity``, the cell ``d`` steps from the
    anchor ``k`` lies below ``F(k) − tol``, in the float comparison too, once
    ``c·d(d−1) − d·s > tol·(1+ρ) + 3ε``, where ``s = D + 3ε + 3ρ|D|`` bounds
    the exact slope of the step from ``k`` towards it.  That holds beyond the
    larger root of the quadratic, taken in its stable form and rounded out by
    a cell; a root that is not finite keeps the whole span.  Any anchor is
    sound, and the limits that a window serves are never below ``F(k)``.
    """
    c, eps, rho = certificate
    m = len(k)
    rows = np.arange(m)
    here = payoff_at(rows, k)
    slack = tol * (1.0 + rho) + 3.0 * eps
    reach = []
    for step in (-1, 1):
        slope = payoff_at(rows, np.clip(k + step, 0, m - 1)) - here
        b = c + slope + 3.0 * eps + 3.0 * rho * np.abs(slope)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            root = np.sqrt(b * b + 4.0 * c * slack)
            d = np.where(b >= 0, (b + root) / (2.0 * c), 2.0 * slack / (root - b))
        reach.append(np.where(d < m, np.floor(d * (1.0 + rho)) + 1, m).astype(np.intp))
    return np.maximum(k - reach[0], span[0]), np.minimum(k + reach[1], span[1])


def _window_blocks(window):
    """Blocks ``(rows, cols)`` of at most ``_BLOCK_CELLS`` cells covering each window ``[lo, hi]``.

    There are m rows of m grid points.  ``rows`` is a slice of consecutive
    rows and ``cols`` their own grid choices: each window padded to the
    block's widest and kept on the grid, one row of ``cols`` per row.  A
    block of whole rows shares the one row ``arange(m)``, which broadcasts.
    Padding adds real cells, so a verdict there is exact too; a row never
    costs more than a whole row.
    """
    lo, hi = window
    m = len(lo)
    width = hi - lo + 1
    count = max(1, _BLOCK_CELLS // int(width.max()))
    for first in range(0, m, count):
        rows = slice(first, first + count)
        w = int(width[rows].max())
        cols = np.arange(w)
        yield rows, cols if w == m else np.minimum(lo[rows], m - w)[:, None] + cols


def _row_bests(payoffs, window, part, lipschitz):
    """Over each row's ``window``: its best, its best in the slice ``part`` and the statistic.

    ``payoffs(rows, cols)`` evaluates a block of ``_window_blocks``.
    ``part`` is ``(first, last)`` per row, or ``None`` and a best of
    ``-inf``; the one-step statistic (``_tolerance_stat``) of every cell is
    taken when ``lipschitz``, else it is ``-inf``.
    """
    best, rbest, stats = np.empty(len(window[0])), np.full(len(window[0]), -np.inf), [-np.inf]
    for rows, cols in _window_blocks(window):
        values = payoffs(rows, cols)
        best[rows] = values.max(axis=1)
        if part is not None:
            rbest[rows] = _slice_best(values, cols, part[0][rows], part[1][rows])
        if lipschitz:
            stats.append(_tolerance_stat(False, values))
    return best, rbest, np.max(stats)  # NaN-propagating


def _two_player_find(game, grid, tolerance, restricted):
    """Test every grid profile ``(i1, i2)`` of a two-agent game, on row windows.

    Row ``j`` of agent ``a``'s payoff table holds their payoff for each own
    grid choice against the opponent's grid choice ``j``; agent 0 plays
    ``i1`` against ``i2`` and agent 1 plays ``i2`` against ``i1``.  No table
    is ever whole: every pass reads each row's window, in blocks of at most
    ``_BLOCK_CELLS`` cells (``_window_blocks``).  A window is the whole row,
    unless ``_concavity`` certifies the agent's rows as concave.  Then it is
    the cells around the row's bisected argmax (``_peak``) that the
    curvature bound of ``_window`` cannot rule out: about
    ``2·sqrt(tol / (w_u·a·h²))`` of them, so at tolerances of float noise,
    the default's, a search reads O(m log m) cells for m grid points
    instead of 3m².  Every cell read is the one kernel's, so the results
    are the whole rows' bit for bit.

    Pass 1 keeps O(m) results per agent: each row's best over the row and
    ``rbest`` over its slice, the slices' bounds and the default tolerance's
    statistic.  On concave rows the row maximum is in the ``tol = 0`` window.
    In the exact family the statistic, ``max|U|``, comes from 3m cells: the
    agent's ``bases`` and their rows against both ends of the grid.  Pass 2
    goes over agent 1's windows for ``tol`` and runs the searched test there
    (after deferral when ``restricted``, else standard).  It evaluates agent
    0's payoff only at the surviving profiles and runs agent 0's test on them.
    ``_certificates`` then runs both tests on the profiles that pass both
    agents' searched test, in the order of ``(i1, i2)``.
    """
    pts = grid.points
    m = len(pts)
    exact = is_exact_family(game)
    socials = [_reference_points([pts[:, None]], *_social_weights(game, a)) for a in range(2)]
    bases = [_own_base(game, a, grid) for a in range(2)]

    def payoffs(a, rows, cols):
        # one row of cols is a whole row (_window_blocks), which broadcasts ungathered
        own = (pts, bases[a]) if cols.ndim == 1 else (pts[cols], bases[a][cols])
        return _comprehensive(game.agents[a], *own, socials[a][rows])

    def payoff_at(a):
        return lambda rows, k: payoffs(a, rows, k[:, None])[:, 0]

    bounds = _slices(game, grid, socials)  # O(m) per agent, so every row at once
    first, last = (None, None) if bounds is None else bounds[2:]
    whole = np.zeros(m, dtype=np.intp), np.full(m, m - 1)
    best, rbest = np.empty((m, 2)), np.empty((m, 2))
    stats, certificates, anchors = [-np.inf, -np.inf], [], []
    lipschitz = tolerance is None and not exact  # the one-step statistic over whole rows
    for a in range(2):
        row = functools.partial(payoffs, a)
        part = None if bounds is None else (first[:, a], last[:, a])
        certificates.append(_concavity(game, grid, a))
        if certificates[a] is None:
            anchors.append(None)
            best[:, a], rbest[:, a], stats[a] = _row_bests(row, whole, part, lipschitz)
        else:
            at = payoff_at(a)
            # the anchors of the row and of its slice: a concave row peaks in a
            # slice where its peak is clamped to the slice
            peak = _peak(at, m)
            anchors.append((peak, None if part is None else np.clip(peak, *part)))
            window = _window(at, peak, whole, 0.0, certificates[a])
            best[:, a] = _row_bests(row, window, None, False)[0]
            if part is not None:
                window = _window(at, anchors[a][1], part, 0.0, certificates[a])
                rbest[:, a] = _row_bests(row, window, part, False)[1]
        if exact and tolerance is None:
            # the social choice is the opponent's grid point, and rounding is monotone, so each own
            # choice's payoff peaks where the two are equal, at cost 0 (``bases[a]``), and bottoms
            # out against an end of the grid: max|U| lies in these 3m cells
            ends = row(np.array([0, m - 1]), np.arange(m))
            stats[a] = _tolerance_stat(True, np.vstack([bases[a], ends]))
    tol = _tolerance(exact, stats, tolerance)
    # the searched test: payoff >= limit - tol, and each choice in its slice after deferral
    limit = rbest if restricted else best
    window = whole
    if certificates[1] is not None:
        span = (first[:, 1], last[:, 1]) if restricted else whole
        window = _window(payoff_at(1), anchors[1][restricted], span, tol, certificates[1])

    hits = []
    for rows, cols in _window_blocks(window):
        values = payoffs(1, rows, cols)
        ok = values >= limit[rows, 1:] - tol
        if restricted:
            ok &= in_slice(cols, first[rows, 1:], last[rows, 1:])
        r, c = np.nonzero(ok)
        i1, i2 = r + rows.start, np.broadcast_to(cols, ok.shape)[r, c]
        # agent 0's payoffs at the hits only, as columns so that w_1 = 0 keeps one value per hit
        v0 = payoffs(0, i2, i1[:, None])[:, 0]
        ok = v0 >= limit[i2, 0] - tol
        if restricted:
            ok &= in_slice(i1, first[i2, 0], last[i2, 0])
        hits.append((i1[ok], i2[ok], v0[ok], values[r[ok], c[ok]]))
    i1, i2, v0, v1 = (np.concatenate(c) for c in zip(*hits))
    profiles = np.stack([i1, i2], axis=1)
    # agent a's entry of a per-row array sits in column a of the opponent's row
    at_opponent = np.stack([i2, i1], axis=1), np.arange(2)
    return _certificates(
        pts[profiles],
        np.stack([v0, v1], axis=1),
        best[at_opponent],
        None if bounds is None else rbest[at_opponent],
        None if bounds is None else in_slice(profiles, first[at_opponent], last[at_opponent]).all(axis=1),
        tol,
    )


# ---------------------------------------------------------------------------
# n-agent iterative search


def _default_lattice(game: GameSpec, grid: Grid) -> list[Profile]:
    if game.n > MAX_LATTICE_AGENTS:
        raise MethodUnsupported(
            f"default start lattice supports up to {MAX_LATTICE_AGENTS} agents; "
            "pass explicit starts for larger games"
        )
    axis = np.linspace(0.0, grid.x_max, START_LATTICE_POINTS)
    return [tuple(p) for p in itertools.product(axis, repeat=game.n)]


def _lattice_sweep(game: GameSpec, grid: Grid, restricted: bool):
    """Simultaneous best-response map on rows of grid-index profiles.

    The returned function maps a (rows x n) int array to each agent's
    smallest ``_grid_responses`` point (restricted to their consideration
    slice when ``restricted``) against the row's other choices.  Aggregator
    weights and each agent's ``_own_base`` are computed once here, so their
    errors propagate before any iteration.  The restricted map reads
    ``consideration_slice``, whose closed-form checks
    ``find_equilibria_after_deferral`` also runs before any search.
    """
    pts = grid.points
    agents = [([j for j in range(game.n) if j != i], _social_weights(game, i), _own_base(game, i, grid))
              for i in range(game.n)]

    def sweep(state: np.ndarray) -> np.ndarray:
        updated = np.empty_like(state)
        xs = pts[state]
        for i, (others, social_weights, base) in enumerate(agents):
            socials = _reference_points(xs[:, others].T[:, :, None], *social_weights)
            for rows, near in _grid_responses(game, i, socials, grid, restricted, base):
                updated[rows, i] = np.argmax(near, axis=1)
        return updated

    return sweep


def _iterate(sweep, state: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Iterate ``sweep`` on rows of starts until every row retires.

    A row retires as a fixed point when a sweep leaves it unchanged, and as a
    2-cycle when a sweep returns it to its state from two sweeps earlier (the
    map is deterministic, so it can never converge).  Retired rows leave the
    later sweeps.  Rows still moving after ``_MAX_ITERATIONS`` sweeps hit the
    cap.  Returns the fixed rows and the numbers of cycled and capped rows.
    """
    fixed = []
    cycled = 0
    previous = np.full_like(state, -1)
    for _ in range(_MAX_ITERATIONS):
        if not len(state):
            break
        updated = sweep(state)
        done = (updated == state).all(axis=1)
        cycle = ~done & (updated == previous).all(axis=1)
        fixed.append(state[done])
        cycled += int(cycle.sum())
        moving = ~(done | cycle)
        previous, state = state[moving], updated[moving]
    return np.concatenate(fixed), cycled, len(state)


def _lattice_find(game, grid, tolerance, restricted, starts):
    starts = np.asarray(_default_lattice(game, grid) if starts is None else starts, dtype=float)
    if not len(starts):
        return []
    if starts.ndim != 2 or starts.shape[1] != game.n:
        raise DomainError(f"starts must be profiles of {game.n} choices, got shape {starts.shape}")
    _check_choices(starts, game.n, grid.x_max, "starts")
    fixed, cycled, capped = _iterate(_lattice_sweep(game, grid, restricted), grid.nearest_indices(starts))
    if cycled or capped:
        search = "after-deferral" if restricted else "standard"
        warnings.warn(
            f"{search} best-response iteration: {len(starts) - cycled - capped} of {len(starts)} "
            f"starts converged, {cycled} cycled, {capped} hit the {_MAX_ITERATIONS}-sweep cap",
            RuntimeWarning,
            stacklevel=3,
        )
    certificates = []
    # unique rows come sorted, and grid points ascend, so profiles come sorted
    for row in np.unique(fixed, axis=0):
        cert = classify_profile(game, tuple(float(x) for x in grid.points[row]), grid, tolerance)
        # keep the profiles that pass the test this search iterates
        if cert is not None and _VERDICTS[cert.kind][restricted]:
            certificates.append(cert)
    return certificates


# ---------------------------------------------------------------------------
# public finders


def find_equilibria(
    game: GameSpec,
    grid: Grid,
    tolerance: float | None = None,
    starts: Sequence[Profile] | None = None,
) -> list[EquilibriumCertificate]:
    """All standard equilibria on the grid.

    Exhaustive (hence complete on the grid) for two agents; best-response
    iteration from a start lattice otherwise, which emits one
    ``RuntimeWarning`` with the counts when some starts cycle or hit the
    iteration cap instead of converging.  An empty list is a legal outcome
    on coarse grids.  Certificates are sorted by profile and carry the
    stronger ``BOTH`` kind when the profile also survives the after-deferral
    test.  A NaN, negative or infinite tolerance raises ``DomainError``
    before any search.
    """
    _require_tolerance(tolerance)
    if game.n == 2:
        return _two_player_find(game, grid, tolerance, False)
    return _lattice_find(game, grid, tolerance, False, starts)


def find_equilibria_after_deferral(
    game: GameSpec,
    grid: Grid,
    tolerance: float | None = None,
    starts: Sequence[Profile] | None = None,
) -> list[EquilibriumCertificate]:
    """All equilibria after deferral on the grid (two-agent case exhaustive).

    Requires the closed-form consideration interval for every agent
    (strictly increasing current-distance costs) and a tolerance as for
    ``find_equilibria``, both checked before any search.  For more than two
    agents the iteration warns about non-converging starts as it does.
    """
    _require_tolerance(tolerance)
    for agent in game.agents:
        require_closed_form(agent.utility, agent.c1)
    if game.n == 2:
        return _two_player_find(game, grid, tolerance, True)
    return _lattice_find(game, grid, tolerance, True, starts)
