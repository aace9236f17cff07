"""Strategic layer: payoffs, best responses, and equilibrium search.

Each agent's payoff is the comprehensive utility evaluated at their own
choice, with the current social reference point aggregated from the other
agents' choices and the future reference point taken from the mean of the
aggregated beliefs.  Two equilibrium notions are supported:

* standard: every agent's choice maximizes their payoff over the whole
  strategy interval ``[0, x_max]``, the grid's bound;
* after deferral: every agent's choice lies in, and maximizes their payoff
  over, the consideration set induced by the others' choices.

For two agents the search is exhaustive on the grid (every profile tested),
in blocks of payoff rows that keep O(m) results between them for m grid
points; for more agents a simultaneous best-response iteration from a start
lattice finds fixed points without any completeness claim.  Every start is
iterated at once, one row per start, in blocks of rows.  One cap on the
cells of a block, ``_BLOCK_CELLS``, bounds the memory of both engines.
"""

from __future__ import annotations

import enum
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
from .consideration import ClosedInterval, consideration_slice, in_slice, require_closed_form
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
    cost_is_linear,
    utility_values,
)

Profile = tuple[float, ...]

#: Resolution of the default start lattice for the n-agent iterative search.
START_LATTICE_POINTS = 11
#: The default lattice has START_LATTICE_POINTS**n starts; cap n to keep it sane.
MAX_LATTICE_AGENTS = 4
_MAX_ITERATIONS = 500
#: Cap on the cells (rows x grid points) of one payoff block in both engines:
#: the two-agent search's blocks of table rows and the lattice's blocks of
#: starts.  It bounds their memory whatever the grid or the number of starts.
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
    ``per_agent_consideration`` is ``None`` when the closed-form interval is
    unavailable (non-increasing current-distance cost).
    """

    profile: Profile
    kind: EquilibriumKind
    max_regret: float
    per_agent_consideration: tuple[ClosedInterval, ...] | None


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
    """Mixture of agent ``i``'s per-opponent beliefs with the configured weights."""
    beliefs = game.agents[i].beliefs
    weights = game.belief_aggregator.weights
    if weights is None:
        weights = tuple(1.0 / len(beliefs) for _ in beliefs)
    if len(weights) != len(beliefs):
        raise SpecValidationError([Violation(
            "AggregatorWeightsInvalid",
            f"{len(weights)} mixture weights for {len(beliefs)} beliefs")])
    mixed: dict[float, float] = {}
    for w, rv in zip(weights, beliefs):
        if w == 0.0:
            continue
        for value, prob in rv.atoms:
            mixed[value] = mixed.get(value, 0.0) + w * prob
    atoms = tuple(sorted(mixed.items()))
    return FiniteRandomVariable(atoms=atoms)


def _check_choices(choices: Sequence[float], count: int, x_max: float, what: str) -> None:
    """Raise ``DomainError`` unless there are ``count`` choices, each finite and in ``[0, x_max]``."""
    if len(choices) != count:
        raise DomainError(f"{what}: {len(choices)} entries, expected {count}")
    for x in choices:
        if not (0 <= x <= x_max and x < np.inf):
            raise DomainError(f"choice {x} outside [0, {x_max}]")


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


def _opponent_social(game: GameSpec, i: int, opponents: Sequence[float], grid: Grid) -> float:
    """Agent ``i``'s social choice against one choice in ``[0, grid.x_max]`` per other agent."""
    weights, total = _social_weights(game, i)
    _check_choices(opponents, game.n - 1, grid.x_max, "opponents")
    return float(_reference_points(opponents, weights, total))


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
    x_social = _opponent_social(game, i, opponents, grid)
    if method == "exact":
        return _exact_best_response(game, i, x_social, grid)
    if method != "grid":
        raise MethodUnsupported(f"unknown best-response method {method!r}")
    near = grid_argmax(game.agents[i], grid, x_social, aggregate_beliefs(game, i).mean())[1]
    return tuple(float(x) for x in grid.points[near])


def deferral_best_response(
    game: GameSpec,
    i: int,
    opponents: Sequence[float],
    grid: Grid,
) -> tuple[float, ...]:
    """Argmax set of agent ``i``'s payoff restricted to their consideration set."""
    x_social = _opponent_social(game, i, opponents, grid)
    near = grid_argmax(game.agents[i], grid, x_social, aggregate_beliefs(game, i).mean(), True)[1]
    return tuple(float(x) for x in grid.points[near])


def best_response_curve(
    game: GameSpec,
    i: int,
    opponent_values: Sequence[float],
    grid: Grid,
    method: str = "grid",
) -> BestResponseCurve:
    """Sample the best response of agent ``i`` over a sweep of opponent values.

    Only defined for two-agent games (the sweep is one-dimensional).
    """
    if game.n != 2:
        raise MethodUnsupported("best-response sweeps need a two-agent game")
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


def _tolerance(exact: bool, stats, tolerance: float | None) -> float:
    """``tolerance``, else the default regret tolerance from ``_tolerance_stat`` values.

    ``stats`` has one row per block of payoff rows and one column per agent.
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
    """Largest ``max(0, best - value)`` over the agents (last axis) of each profile."""
    return np.maximum(0.0, best - values).max(axis=-1)


_KINDS = {
    (True, False): EquilibriumKind.STANDARD,
    (False, True): EquilibriumKind.AFTER_DEFERRAL,
    (True, True): EquilibriumKind.BOTH,
}
#: The ``(standard, after_deferral)`` pass verdicts behind each kind.
_VERDICTS = {kind: verdicts for verdicts, kind in _KINDS.items()}


def _certificates(profiles, values, best, slices, member, tol):
    """The one equilibrium verdict: certificates of the profiles that pass a test.

    ``profiles``, ``values`` and ``best`` have one row per profile and one
    column per agent: the choices, each agent's payoff and their best payoff
    over the grid.  ``slices`` is ``(rbest, lo, hi)`` from ``_slice_best``
    and ``_slices``, shaped like ``best``, or ``None`` without the closed
    form, and ``member`` says per profile whether every choice lies in its
    consideration set.  The
    standard test passes when every payoff is ``>= best - tol``; the
    after-deferral test needs ``member`` and every payoff ``>= rbest - tol``.
    The kind follows from the tests passed, and ``max_regret`` is the
    largest regret over them.
    """
    standard = (values >= best - tol).all(axis=1)
    deferral = np.zeros_like(standard)
    regret = np.where(standard, _regret(best, values), -np.inf)
    intervals = [None] * len(profiles)
    if slices is not None:
        rbest, lo, hi = slices
        deferral = member & (values >= rbest - tol).all(axis=1)
        regret = np.maximum(regret, np.where(deferral, _regret(rbest, values), -np.inf))
        intervals = [tuple(map(ClosedInterval, l, h)) for l, h in zip(lo.tolist(), hi.tolist())]
    return [
        EquilibriumCertificate(tuple(p), _KINDS[s, d], r, iv)
        for p, s, d, r, iv in zip(
            profiles.tolist(), standard.tolist(), deferral.tolist(), regret.tolist(), intervals)
        if s or d
    ]


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


def _slice_best(tables, first, last) -> np.ndarray:
    """``rbest``: each row's best payoff over its slice, one column per agent.

    ``tables[a]`` holds agent ``a``'s payoffs, a row each, and column ``a``
    of ``first`` and ``last`` the grid index bounds of the rows' slices.
    """
    own = np.arange(tables[0].shape[-1])
    return np.stack([t.max(axis=-1, where=in_slice(own, f[:, None], l[:, None]), initial=-np.inf)
                     for t, f, l in zip(tables, first.T, last.T)], axis=1)


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
    classification is possible.
    """
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
    slices = member = None
    bounds = _slices(game, grid, socials)
    if bounds is not None:
        lo, hi, first, last = bounds
        slices = _slice_best(vectors, first, last), lo, hi
        ends = grid.points[first[0]], grid.points[last[0]]
        member = np.array([all(min(l, f) - EXACT_TOL <= x <= max(h, g) + EXACT_TOL
                               for x, l, h, f, g in zip(profile, lo[0], hi[0], *ends))])
    certificates = _certificates(np.array([profile], dtype=float), np.array([values]),
                                 np.array([[v.max() for v in vectors]]), slices, member, tolerance)
    return certificates[0] if certificates else None


# ---------------------------------------------------------------------------
# exhaustive two-agent search


def _two_player_find(game, grid, tolerance, restricted):
    """Test every grid profile ``(i1, i2)`` of a two-agent game, in blocks of rows.

    Row ``j`` of agent ``a``'s payoff table holds their payoff for each own
    grid choice against the opponent's grid choice ``j``; agent 0 plays
    ``i1`` against ``i2`` and agent 1 plays ``i2`` against ``i1``.  No table
    is ever whole.  Pass 1 goes over both tables in blocks of at most
    ``_BLOCK_CELLS`` cells and keeps O(m) results per agent, m being the
    number of grid points: each row's best and best over its slice
    (``rbest``), the slices' bounds and the default tolerance's statistic.
    Pass 2 goes over agent 1's rows again, one block of ``i1`` at a time,
    and runs the searched test there (after deferral when ``restricted``,
    else standard).  It evaluates agent 0's payoff only at the surviving
    profiles and runs agent 0's test on them.  ``_certificates`` then runs
    both tests on the profiles that pass both agents' searched test, in the
    order of ``(i1, i2)``.
    """
    pts = grid.points
    rows = max(1, _BLOCK_CELLS // len(pts))
    blocks = [slice(first, first + rows) for first in range(0, len(pts), rows)]
    exact = is_exact_family(game)
    socials = [_reference_points([pts[:, None]], *_social_weights(game, a)) for a in range(2)]
    bases = [_own_values(agent, pts, utility_values(agent.utility, grid), aggregate_beliefs(game, a).mean())
             for a, agent in enumerate(game.agents)]

    def table(a, block):
        return _comprehensive(game.agents[a], pts, bases[a], socials[a][block])

    bounds = _slices(game, grid, socials)  # O(m) per agent, so every row at once
    best, rbest, stats = [], [], []
    for block in blocks:
        tables = [table(a, block) for a in range(2)]
        best.append(np.stack([t.max(axis=1) for t in tables], axis=1))
        if bounds is not None:
            rbest.append(_slice_best(tables, bounds[2][block], bounds[3][block]))
        if tolerance is None:
            stats.append([_tolerance_stat(exact, t) for t in tables])
    tol = _tolerance(exact, stats, tolerance)
    best = np.concatenate(best)
    if bounds is not None:
        rbest = np.concatenate(rbest)
        lo, hi, first, last = bounds
    # the searched test: payoff >= limit - tol, and each choice in its slice after deferral
    limit = rbest if restricted else best

    own = np.arange(len(pts))
    hits = []
    for block in blocks:
        values = table(1, block)
        ok = values >= limit[block, 1:] - tol
        if restricted:
            ok &= in_slice(own, first[block, 1:], last[block, 1:])
        r, i2 = np.nonzero(ok)
        i1 = r + block.start
        # agent 0's payoffs at the hits only, as columns so that w_1 = 0 keeps one value per hit
        v0 = _comprehensive(game.agents[0], pts[i1, None], bases[0][i1, None], socials[0][i2])[:, 0]
        ok = v0 >= limit[i2, 0] - tol
        if restricted:
            ok &= in_slice(i1, first[i2, 0], last[i2, 0])
        hits.append((i1[ok], i2[ok], v0[ok], values[r[ok], i2[ok]]))
    i1, i2, v0, v1 = (np.concatenate(c) for c in zip(*hits))
    profiles = np.stack([i1, i2], axis=1)
    # agent a's entry of a per-row array sits in column a of the opponent's row
    at_opponent = np.stack([i2, i1], axis=1), np.arange(2)
    return _certificates(
        pts[profiles],
        np.stack([v0, v1], axis=1),
        best[at_opponent],
        None if bounds is None else tuple(s[at_opponent] for s in (rbest, lo, hi)),
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
    smallest ``grid_argmax`` point (restricted to their consideration slice
    when ``restricted``) against the row's other choices.  It works through
    the rows in blocks of at most ``_BLOCK_CELLS`` payoff cells, so its
    memory is bounded whatever the number of rows.  Aggregator weights and
    each agent's ``_own_values`` on the grid are computed once here, so
    their errors propagate before any iteration.  The restricted map reads
    ``consideration_slice``, whose closed-form checks
    ``find_equilibria_after_deferral`` also runs before any search.
    """
    pts = grid.points
    rows = max(1, _BLOCK_CELLS // len(pts))
    agents = []
    for i, agent in enumerate(game.agents):
        others = [j for j in range(game.n) if j != i]
        weights = _social_weights(game, i)
        base = _own_values(agent, pts, utility_values(agent.utility, grid), aggregate_beliefs(game, i).mean())
        agents.append((agent, others, weights, base))

    def sweep(state: np.ndarray) -> np.ndarray:
        updated = np.empty_like(state)
        for first in range(0, len(state), rows):
            block = slice(first, first + rows)
            xs = pts[state[block]]
            for i, (agent, others, social_weights, base) in enumerate(agents):
                socials = _reference_points(xs[:, others].T, *social_weights)[:, None]
                values = _comprehensive(agent, pts, base, socials)
                near = grid_argmax(agent, grid, socials, restricted=restricted, values=values)[1]
                updated[block, i] = np.argmax(near, axis=1)
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
    test.
    """
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
    (strictly increasing current-distance costs), checked before any search.
    For more than two agents the iteration warns about non-converging starts
    as ``find_equilibria`` does.
    """
    for agent in game.agents:
        require_closed_form(agent.utility, agent.c1)
    if game.n == 2:
        return _two_player_find(game, grid, tolerance, True)
    return _lattice_find(game, grid, tolerance, True, starts)
