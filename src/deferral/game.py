"""Strategic layer: payoffs, best responses, and equilibrium search.

Each agent's payoff is the comprehensive utility evaluated at their own
choice, with the current social reference point aggregated from the other
agents' choices and the future reference point taken from the mean of the
aggregated beliefs.  Two equilibrium notions are supported:

* standard: every agent's choice maximizes their payoff over the whole
  strategy interval ``[0, x_max]``, the grid's bound;
* after deferral: every agent's choice lies in, and maximizes their payoff
  over, the consideration set induced by the others' choices.

For two agents the search is exhaustive on the grid (every profile tested);
for more agents a simultaneous best-response iteration from a start lattice
finds fixed points without any completeness claim.  Every start is iterated
at once, one row per start, in blocks of rows.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import comprehensive_value, comprehensive_values, grid_argmax
from .consideration import ClosedInterval, consideration_slice, require_closed_form
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
    LinearCost,
    MeanChoice,
    Quadratic,
    Tabulated,
    Violation,
)

Profile = tuple[float, ...]

#: Resolution of the default start lattice for the n-agent iterative search.
START_LATTICE_POINTS = 11
#: The default lattice has START_LATTICE_POINTS**n starts; cap n to keep it sane.
MAX_LATTICE_AGENTS = 4
_MAX_ITERATIONS = 500
#: Cap on the cells (rows x grid points) of one payoff block in the lattice
#: search; it bounds the search's memory whatever the number of starts.
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
    """Raise ``DomainError`` unless there are ``count`` choices, each in ``[0, x_max]``."""
    if len(choices) != count:
        raise DomainError(f"{what}: {len(choices)} entries, expected {count}")
    for x in choices:
        if x < 0 or x > x_max:
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
        if not isinstance(c, LinearCost):
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
    """Whether every agent has quadratic utility and linear costs."""
    return all(
        isinstance(a.utility, Quadratic)
        and isinstance(a.c1, LinearCost)
        and isinstance(a.c2, LinearCost)
        for a in game.agents
    )


def _tolerance(game: GameSpec, tables: Sequence[np.ndarray], tolerance: float | None) -> float:
    """``tolerance``, else the default regret tolerance for payoffs indexed by own choice last.

    For the exact (quadratic + linear) family the equilibria are exact and
    only float noise must be absorbed: ``1e-9 * (1 + max|U|)`` over the
    tables.  Otherwise a one-grid-step payoff Lipschitz bound: the largest
    payoff change between neighbouring own choices.
    """
    if tolerance is not None:
        return tolerance
    if is_exact_family(game):
        return 1e-9 * (1.0 + max(float(np.abs(t).max()) for t in tables))
    return max(float(np.abs(np.diff(t, axis=-1)).max()) for t in tables)


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


def _certificates(profiles, values, best, standard, deferral, slices):
    """Certificates of profiles that passed at least one equilibrium test.

    ``profiles``, ``values`` and ``best`` have one row per profile and one
    column per agent: the choices, each agent's payoff and their best payoff
    over the grid.  ``standard`` and ``deferral`` are the caller's verdicts,
    one per profile; the kind follows from them, and ``max_regret`` is the
    largest regret over the tests passed.  ``slices`` is ``_slice_step``'s
    ``(rbest, lo, hi)`` shaped like ``best``, or ``None``.
    """
    regret = np.where(standard, _regret(best, values), -np.inf)
    intervals = [None] * len(profiles)
    if slices is not None:
        rbest, lo, hi = slices
        regret = np.maximum(regret, np.where(deferral, _regret(rbest, values), -np.inf))
        intervals = [tuple(map(ClosedInterval, l, h)) for l, h in zip(lo.tolist(), hi.tolist())]
    return [
        EquilibriumCertificate(tuple(p), _KINDS[s, d], r, iv)
        for p, s, d, r, iv in zip(
            profiles.tolist(), standard.tolist(), deferral.tolist(), regret.tolist(), intervals)
    ]


def _slice_step(game: GameSpec, grid: Grid, socials, tables):
    """``(rbest, lo, hi)`` and the slice masks, or ``(None, None)`` without the closed form.

    ``socials[a]`` is a column of agent ``a``'s social choices and ``tables[a]`` their
    payoffs, a row each.  ``rbest`` is each row's best payoff over its slice and
    ``lo``, ``hi`` its interval bounds, one column per agent.
    """
    try:
        lo, hi, masks = zip(*(consideration_slice(a.utility, a.c1, s, grid)
                              for a, s in zip(game.agents, socials)))
    except ClosedFormUnavailable:
        return None, None
    rbest = [t.max(axis=-1, where=mask, initial=-np.inf) for t, mask in zip(tables, masks)]
    return (np.stack(rbest, axis=1), np.hstack(lo), np.hstack(hi)), masks


def classify_profile(
    game: GameSpec,
    profile: Sequence[float],
    grid: Grid,
    tolerance: float | None = None,
) -> EquilibriumCertificate | None:
    """Run both equilibrium tests on one profile.

    Returns a certificate of the strongest applicable kind, or ``None`` when
    the profile is no equilibrium of either sort.  Deviations are grid
    points.  The profile itself may be off-grid, except that an agent with a
    tabulated utility must choose one of its grid points (else
    ``DomainError``).  When the closed-form consideration interval is
    unavailable the after-deferral test is skipped and only standard
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
    tolerance = _tolerance(game, vectors, tolerance)
    values = np.array([values])
    best = np.array([[v.max() for v in vectors]])
    standard = _regret(best, values) <= tolerance

    deferral = np.zeros(1, dtype=bool)
    slices, masks = _slice_step(game, grid, socials, vectors)
    if slices is not None:
        rbest, lo, hi = slices
        # a choice is a member when it lies in its interval or its grid slice, within EXACT_TOL
        ends = [grid.points[mask[0]][[0, -1]] for mask in masks]
        if all(min(l, first) - EXACT_TOL <= x <= max(h, last) + EXACT_TOL
               for x, l, h, (first, last) in zip(profile, lo[0], hi[0], ends)):
            deferral = _regret(rbest, values) <= tolerance

    if not (standard[0] or deferral[0]):
        return None
    profiles = np.array([profile], dtype=float)
    return _certificates(profiles, values, best, standard, deferral, slices)[0]


# ---------------------------------------------------------------------------
# exhaustive two-agent search


def _two_player_find(game, grid, tolerance, restricted):
    """Test every grid profile ``(i1, i2)`` of a two-agent game at once.

    Agent ``a``'s table ``tables[a][j, k]`` is their payoff for own grid
    choice ``k`` against the opponent's grid choice ``j``: one kernel call
    with a column of social choices, one per opponent grid choice.  Agent 0
    plays ``i1`` against ``i2`` and agent 1 plays ``i2`` against ``i1``, so
    verdicts ``ok[a][j, k]`` in that layout become the profile mask
    ``ok[0].T & ok[1]``.  Returns the profiles that pass the after-deferral
    test when ``restricted``, else the standard test.
    """
    pts = grid.points
    # row j's opponent plays grid point j
    socials = [_reference_points([pts[:, None]], *_social_weights(game, a)) for a in range(2)]
    tables = [comprehensive_values(agent, grid, s, aggregate_beliefs(game, a).mean())
              for a, (agent, s) in enumerate(zip(game.agents, socials))]
    tol = _tolerance(game, tables, tolerance)
    best = np.stack([t.max(axis=1) for t in tables], axis=1)
    ok = [t >= b[:, None] - tol for t, b in zip(tables, best.T)]
    standard = ok[0].T & ok[1]
    # m x m verdicts: free the standard ones and build the after-deferral ones
    # in the slice masks, so that fewer such arrays are live at once
    del ok

    deferral = np.zeros_like(standard)
    slices, masks = _slice_step(game, grid, socials, tables)
    if slices is not None:
        for t, mask, r in zip(tables, masks, slices[0].T):
            mask &= t >= r[:, None] - tol
        deferral = masks[0].T & masks[1]

    i1, i2 = np.nonzero(deferral if restricted else standard)
    # agent a's entry of a per-row array sits in column a of the opponent's row
    at_opponent = np.stack([i2, i1], axis=1), np.arange(2)
    return _certificates(
        pts[np.stack([i1, i2], axis=1)],
        np.stack([tables[0][i2, i1], tables[1][i1, i2]], axis=1),
        best[at_opponent],
        standard[i1, i2],
        deferral[i1, i2],
        None if slices is None else tuple(s[at_opponent] for s in slices),
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
    memory is bounded whatever the number of rows.  Aggregated beliefs and aggregator weights are computed
    once here, so their errors propagate before any iteration.  The
    restricted map reads ``consideration_slice``, whose closed-form checks
    ``find_equilibria_after_deferral`` also runs before any search.
    """
    pts = grid.points
    rows = max(1, _BLOCK_CELLS // len(pts))
    agents = []
    for i, agent in enumerate(game.agents):
        others = [j for j in range(game.n) if j != i]
        agents.append((agent, others, _social_weights(game, i), aggregate_beliefs(game, i).mean()))

    def sweep(state: np.ndarray) -> np.ndarray:
        updated = np.empty_like(state)
        for first in range(0, len(state), rows):
            block = slice(first, first + rows)
            xs = pts[state[block]]
            for i, (agent, others, social_weights, future) in enumerate(agents):
                socials = _reference_points(xs[:, others].T, *social_weights)
                near = grid_argmax(agent, grid, socials[:, None], future, restricted)[1]
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
