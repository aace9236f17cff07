"""Strategic layer: aggregation, payoffs, best responses, and equilibrium search.

Each agent's payoff is the comprehensive utility evaluated at their own
choice, with the current social reference point aggregated from the other
agents' choices and the future reference point taken from the mean of the
aggregated beliefs.  A best response is the agent's decisive choice against
those reference points, so it reads the agent-row engine of ``choice.py``
(``_grid_responses``): ``best_response``, ``deferral_best_response``, the
grid ``best_response_curve`` and the n-agent sweeps hand it a column of
social choices and the aggregated beliefs' mean.  Two equilibrium notions
are supported:

* standard: every agent's choice maximizes their payoff over the whole
  strategy interval ``[0, x_max]``, the grid's bound;
* after deferral: every agent's choice lies in, and maximizes their payoff
  over, the consideration set induced by the others' choices.

For two agents the search is exhaustive on the grid (every profile tested),
in the engine's blocks, which keep O(m) results between them for m grid
points.  The engine (``_AgentRows``) decides how every payoff row is read;
this module keeps aggregation, tolerances, verdicts and certificates, and
the reach up to which the windows that pass 1 records in agent 1's rows
serve pass 2.  For more agents a simultaneous best-response iteration from
a start lattice finds fixed points without any completeness claim; every
start is iterated at once, one row per start.  One row pass,
``_AgentRows.bests``, gives every verdict its bests: the two-agent search's
pass 1, and ``_judge_rows``, which judges all the lattice's fixed points at
once and is ``classify_profile`` on one row.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import _AgentRows, _exact_program, _grid_responses, _kinked_argmax, _own_row, comprehensive_value
from .consideration import consideration_slice, in_slice
from .errors import DomainError, GridLookupError, MethodUnsupported, SpecValidationError
from .model import (
    EXACT_TOL,
    FiniteRandomVariable,
    GameSpec,
    Grid,
    MeanChoice,
    Tabulated,
    Violation,
    _mixture,
    in_exact_family,
    require_valid,
)

Profile = tuple[float, ...]

#: Resolution of the default start lattice for the n-agent iterative search.
START_LATTICE_POINTS = 11
#: The default lattice has START_LATTICE_POINTS**n starts; cap n to keep it sane.
MAX_LATTICE_AGENTS = 4
_MAX_ITERATIONS = 500


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
    enumerating those finitely many candidates is exact (``_kinked_argmax``
    on one row).  A number that is not finite, or ``hi < lo``, raises
    ``DomainError`` before any candidate, and so does an objective that is
    not finite at a candidate.
    """
    return _argmax_tuples(*_kinked_argmax(a, b, k, kinks, lo, hi))[0]


def _argmax_tuples(x, top):
    """Each row's argmax set from ``_kinked_argmax``: its distinct top candidates, ascending."""
    return tuple(tuple(sorted(dict.fromkeys(col[t].tolist()))) for col, t in zip(x.T, top.T))


def _opponent_socials(game: GameSpec, i: int, opponents, grid: Grid) -> np.ndarray:
    """Agent ``i``'s social choices, a column, against rows of one choice in
    ``[0, grid.x_max]`` per other agent."""
    weights, total = _social_weights(game, i)
    _check_choices(opponents, game.n - 1, grid.x_max, "opponents")
    return _reference_points(np.asarray(opponents, dtype=float).T[:, :, None], weights, total)


def _argmax_sets(game: GameSpec, i: int, socials: np.ndarray, grid: Grid, restricted: bool,
                 method: str = "grid") -> tuple[tuple[float, ...], ...]:
    """Agent ``i``'s argmax set against each social choice: the grid points of ``_grid_responses``,
    or with ``method="exact"`` the closed form's, every row in one ``_kinked_argmax`` call."""
    agent, future, pts = game.agents[i], aggregate_beliefs(game, i).mean(), grid.points
    if method == "exact":
        return _argmax_tuples(*_kinked_argmax(*_exact_program(agent, future, socials[:, 0], grid)))
    return tuple(tuple(float(x) for x in pts[row_cols[row]])
                 for _, cols, _, near in _grid_responses(agent, future, socials, grid, restricted)
                 for row_cols, row in zip(np.broadcast_to(cols, near.shape), near))


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
    if method not in ("grid", "exact"):
        raise MethodUnsupported(f"unknown best-response method {method!r}")
    return _argmax_sets(game, i, socials, grid, False, method)[0]


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

    Only defined for two-agent games (the sweep is one-dimensional).  Every
    value is checked as ``best_response`` checks an opponent, before any
    payoff, and either method answers the whole sweep at once: the grid one
    in blocks of rows, the exact one in one closed-form call.
    """
    if game.n != 2:
        raise MethodUnsupported("best-response sweeps need a two-agent game")
    if method not in ("grid", "exact"):
        raise MethodUnsupported(f"unknown best-response method {method!r}")
    socials = _opponent_socials(game, i, np.asarray(opponent_values, dtype=float)[:, None], grid)
    sets = _argmax_sets(game, i, socials, grid, False, method)
    return BestResponseCurve(agent=i, opponent_values=tuple(opponent_values), argmax_sets=sets)


# ---------------------------------------------------------------------------
# tolerances


def is_exact_family(game: GameSpec) -> bool:
    """Whether every agent has quadratic utility and linear costs (``in_exact_family``)."""
    return all(map(in_exact_family, game.agents))


def _require_tolerance(tolerance: float | None) -> None:
    """Raise ``DomainError`` unless ``tolerance`` is ``None`` or a finite number >= 0."""
    if tolerance is not None and not 0 <= tolerance < np.inf:
        raise DomainError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def _tolerance(exact: bool, stats, tolerance: float | None):
    """``tolerance``, else the default regret tolerance from ``_tolerance_stat`` values.

    ``stats`` holds the statistics of the rows that one default reads on its last axis.
    For the exact (quadratic + linear) family the equilibria are exact and
    only float noise must be absorbed: ``1e-9 * (1 + max|U|)`` over the
    tables.  Otherwise a one-grid-step payoff Lipschitz bound: the largest
    payoff change between neighbouring own choices.  A default that is not
    finite, NaN included whatever the agents' order, raises ``DomainError``.
    """
    if tolerance is not None:
        return tolerance
    stat = np.max(stats, axis=-1)
    tolerance = 1e-9 * (1.0 + stat) if exact else stat
    if not np.isfinite(tolerance).all():
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
    payoff over their consideration slice (``_AgentRows.bests``), and
    ``member`` says per profile whether every choice lies in its
    consideration set.  With ``tol``, one or a column of one per profile,
    the standard test passes when every payoff is ``>= best - tol``; the
    after-deferral test needs ``member`` and every payoff ``>= rbest - tol``.
    The kind follows from the tests passed, and ``max_regret`` is the
    largest regret over them: each passing profile costs one certificate
    and its profile tuple.
    """
    standard = (values >= best - tol).all(axis=1)
    deferral = member & (values >= rbest - tol).all(axis=1)
    regret = np.maximum(np.where(standard, _regret(best, values), -np.inf),
                        np.where(deferral, _regret(rbest, values), -np.inf))
    rows = zip(profiles.tolist(), standard.tolist(), deferral.tolist(), regret.tolist())
    return [EquilibriumCertificate(tuple(p), _KINDS[s, d], r) for p, s, d, r in rows if s or d]


def _slices(game: GameSpec, grid: Grid, socials):
    """``(lo, hi, first, last)`` of each agent's ``consideration_slice``, one column per agent.

    ``socials[a]`` is a column of agent ``a``'s social choices.  An agent
    whose ``c1`` has slope zero has its peak's slice in every row.
    """
    parts = [consideration_slice(agent.utility, agent.c1, s, grid) for agent, s in zip(game.agents, socials)]
    return tuple(np.hstack(c) for c in zip(*parts))


def _bests(readers, bounds, stat, reach=None, restricted=False):
    """Each agent's ``_AgentRows.bests``, one column per agent: bests over the grid and over the
    slices of ``bounds`` (``_slices``), and statistics ``stat`` (``None`` for none).  The last
    agent's ``bests`` gets ``reach`` and ``restricted``: the two-agent pass 2 reads its rows."""
    parts = [(bounds[2][:, a], bounds[3][:, a]) for a in range(len(readers))]
    columns = [r.bests(p, stat) for r, p in zip(readers[:-1], parts)]
    columns.append(readers[-1].bests(parts[-1], stat, reach, restricted))
    return (np.stack(c, axis=1) for c in zip(*columns))


def _judge_rows(game: GameSpec, grid: Grid, profiles, tolerance: float | None):
    """The batch verdict: ``_certificates`` of rows of profiles, one choice per agent.

    Each agent's social choices are ``_reference_points``, its slices
    ``_slices``, and ``_bests`` reads its rows for its bests and a default
    tolerance per profile.  The payoff at a profile is
    ``comprehensive_value``, so a choice may lie off the grid; it is in its
    consideration set when it lies in its interval or grid slice, within
    ``EXACT_TOL``.  No rows, no kernel call.
    """
    if not len(profiles):
        return []
    xs, pts = np.array(profiles, dtype=float), grid.points
    socials, readers, values = [], [], []
    for i, agent in enumerate(game.agents):
        socials.append(_reference_points(np.delete(xs, i, axis=1).T[:, :, None], *_social_weights(game, i)))
        future = aggregate_beliefs(game, i).mean()
        readers.append(_AgentRows(agent, future, socials[i], grid))
        values.append([comprehensive_value(agent, p[i], s, future)
                       for p, s in zip(profiles, socials[i][:, 0].tolist())])
    bounds = _slices(game, grid, socials)
    exact = is_exact_family(game)
    best, rbest, stats = _bests(readers, bounds, exact if tolerance is None else None)
    tol = np.expand_dims(_tolerance(exact, stats, tolerance), -1)  # one per row
    lo, hi, first, last = bounds
    inside = (np.minimum(lo, pts[first]) - EXACT_TOL <= xs) & (xs <= np.maximum(hi, pts[last]) + EXACT_TOL)
    return _certificates(xs, np.array(values).T, best, rbest, inside.all(axis=1), tol)


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
    is the search's slice mask; a ``c1`` of slope zero makes the set its
    peak alone.  A tolerance is refused as in ``find_equilibria``.
    """
    _require_tolerance(tolerance)
    _check_profile(game, profile, grid.x_max)
    return next(iter(_judge_rows(game, grid, [profile], tolerance)), None)


# ---------------------------------------------------------------------------
# exhaustive two-agent search


def _two_player_find(game, grid, tolerance, restricted):
    """Test every grid profile ``(i1, i2)`` of a two-agent game, reading rows through ``_AgentRows``.

    Row ``j`` of agent ``a``'s payoff table holds their payoff for each own
    grid choice against the opponent's grid choice ``j``; agent 0 plays
    ``i1`` against ``i2`` and agent 1 plays ``i2`` against ``i1``.  No table
    is ever whole: the engine reads blocks of at most ``_BLOCK_CELLS`` cells,
    and a certified agent's windows, so at tolerances of float noise, the
    default's in the exact family, a search reads a few dozen cells per row
    instead of 3m, with the whole rows' results bit for bit.

    Pass 1 keeps O(m) results per agent (``_bests``): each row's best over
    the row and ``rbest`` over its slice, the slices' bounds and each row's
    default tolerance statistic, as ``_judge_rows`` takes them.  Reading an
    uncertified agent 1's rows whole, it also records each row's window of
    cells within ``reach`` of its searched best: ``reach`` is the tolerance
    when one is given, else, outside the exact family, the larger agent's
    ``step_bound`` on the one-step default.  Pass 2 reads agent 1's cells
    within ``tol`` of its best, on its certified windows, or on the recorded
    ones when ``tol ≤ reach``, else whole, and runs the searched test there
    (after deferral when ``restricted``, else standard).  So an uncertified
    agent 1's rows are read once, and about 2m² cells where 3m² were.  It
    evaluates agent 0's payoff only at the surviving profiles and runs agent
    0's test on them.  ``_certificates`` then runs both tests on the profiles
    that pass both agents' searched test, in the order of ``(i1, i2)``.
    """
    pts = grid.points
    exact = is_exact_family(game)
    socials = [_reference_points([pts[:, None]], *_social_weights(game, a)) for a in range(2)]
    futures = [aggregate_beliefs(game, a).mean() for a in range(2)]
    readers = [_AgentRows(agent, future, s, grid) for agent, future, s in zip(game.agents, futures, socials)]
    bounds = _slices(game, grid, socials)  # O(m) per agent, so every row at once
    # the exact family's default records no windows
    reach = tolerance if tolerance is not None else None if exact else np.max([r.step_bound() for r in readers])
    best, rbest, stats = _bests(readers, bounds, exact if tolerance is None else None, reach, restricted)
    tol = _tolerance(exact, stats.ravel(), tolerance)
    # the searched test: payoff >= limit - tol, and each choice in its slice after deferral
    limit = rbest if restricted else best
    first, last = bounds[2:]
    hits = []
    for rows, cols, values, inside in readers[1].blocks(tol, (first[:, 1], last[:, 1]) if restricted else None):
        ok = values >= limit[rows, 1:] - tol
        if restricted:
            ok &= inside
        r, c = np.nonzero(ok)
        i1, i2 = r + rows.start, np.broadcast_to(cols, ok.shape)[r, c]
        # agent 0's payoffs at the hits only, as columns so that w_1 = 0 keeps one value per hit
        v0 = readers[0].payoffs(i2, i1[:, None])[:, 0]
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
        rbest[at_opponent],
        in_slice(profiles, first[at_opponent], last[at_opponent]).all(axis=1),
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
    weights, each agent's aggregated beliefs' mean and their ``_own_row`` are
    computed once per search here, so their errors propagate before any
    iteration.  The restricted map reads ``consideration_slice``, whose
    validation of each utility and cost ``find_equilibria_after_deferral``
    also runs before any search.
    """
    pts = grid.points
    agents = []
    for i, agent in enumerate(game.agents):
        future = aggregate_beliefs(game, i).mean()
        agents.append((agent, [j for j in range(game.n) if j != i], _social_weights(game, i), future,
                       _own_row(agent, future, grid)))

    def sweep(state: np.ndarray) -> np.ndarray:
        updated = np.empty_like(state)
        xs = pts[state]
        for i, (agent, others, social_weights, future, base) in enumerate(agents):
            socials = _reference_points(xs[:, others].T[:, :, None], *social_weights)
            for rows, cols, _, near in _grid_responses(agent, future, socials, grid, restricted, base):
                updated[rows, i] = np.broadcast_to(cols, near.shape)[np.arange(len(near)), np.argmax(near, axis=1)]
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
    # unique rows come sorted, and grid points ascend, so profiles come sorted; the search
    # keeps the profiles that pass the test it iterates
    judged = _judge_rows(game, grid, grid.points[np.unique(fixed, axis=0)], tolerance)
    return [cert for cert in judged if _VERDICTS[cert.kind][restricted]]


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

    Every agent's utility and then every agent's current-distance cost must
    be valid (else ``SpecValidationError``), and the tolerance as for
    ``find_equilibria``, checked before any search.  An agent whose ``c1``
    has slope zero considers only their peak.  For more than two agents the
    iteration warns about non-converging starts as ``find_equilibria`` does.
    """
    _require_tolerance(tolerance)
    for agent in game.agents:
        require_valid(agent.utility)
    for agent in game.agents:
        require_valid(agent.c1)
    if game.n == 2:
        return _two_player_find(game, grid, tolerance, True)
    return _lattice_find(game, grid, tolerance, True, starts)
