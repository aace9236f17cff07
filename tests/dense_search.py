"""The two-agent search on whole payoff tables: a reference for the row-blocked
``_two_player_find``.

Agent ``a``'s table ``tables[a][j, k]`` is their payoff for own grid choice
``k`` against the opponent's grid choice ``j``: one kernel call with a column
of social choices, one per opponent grid choice.  Agent 0 plays ``i1``
against ``i2`` and agent 1 plays ``i2`` against ``i1``, so verdicts
``ok[a][j, k]`` in that layout become the profile mask ``ok[0].T & ok[1]``.
Every array here is m×m for m grid points, so keep ``m`` small.  The
verdicts of the hits come from ``_certificates``, which every engine shares;
the tables, tolerance, slices and masks are built here.
"""

from __future__ import annotations

import numpy as np

import deferral as d
from deferral.consideration import consideration_slice, in_slice
from deferral.game import _certificates, _reference_points, _social_weights
from deferral.model import require_valid


def _tolerance(game, tables, tolerance):
    """``tolerance``, else ``1e-9·(1 + max|U|)`` in the exact family and the
    largest one-step payoff change outside it, over the whole tables; a
    default that is not finite (NaN included) raises ``DomainError``."""
    if tolerance is not None:
        return tolerance
    if d.is_exact_family(game):
        tolerance = 1e-9 * (1.0 + np.max([np.abs(t).max() for t in tables]))
    else:
        with np.errstate(invalid="ignore"):  # -inf - (-inf)
            tolerance = np.max([np.abs(np.diff(t, axis=-1)).max() for t in tables])
    if not np.isfinite(tolerance):
        raise d.DomainError("the default tolerance is not finite")
    return float(tolerance)


def _slices(game, grid, socials, tables):
    """``rbest``, each row's best over its slice, and the m×m slice masks."""
    own = np.arange(len(grid.points))
    first, last = zip(*(consideration_slice(a.utility, a.c1, s, grid)[2:]
                        for a, s in zip(game.agents, socials)))
    masks = [in_slice(own, f, l) for f, l in zip(first, last)]
    rbest = [t.max(axis=-1, where=mask, initial=-np.inf) for t, mask in zip(tables, masks)]
    return np.stack(rbest, axis=1), masks


def dense_find(game, grid, tolerance, restricted):
    """Every grid profile at once; only the searched test is built on every profile."""
    pts = grid.points
    socials = [_reference_points([pts[:, None]], *_social_weights(game, a)) for a in range(2)]
    tables = [d.comprehensive_values(agent, grid, s, d.aggregate_beliefs(game, a).mean())
              for a, (agent, s) in enumerate(zip(game.agents, socials))]
    tol = _tolerance(game, tables, tolerance)
    best = np.stack([t.max(axis=1) for t in tables], axis=1)
    rbest, masks = _slices(game, grid, socials, tables)
    if restricted:
        ok = [mask & (t >= r[:, None] - tol) for t, mask, r in zip(tables, masks, rbest.T)]
    else:
        ok = [t >= b[:, None] - tol for t, b in zip(tables, best.T)]
    i1, i2 = np.nonzero(ok[0].T & ok[1])
    # agent a's entry of a per-row array sits in column a of the opponent's row
    at_opponent = np.stack([i2, i1], axis=1), np.arange(2)
    return _certificates(
        pts[np.stack([i1, i2], axis=1)],
        np.stack([tables[0][i2, i1], tables[1][i1, i2]], axis=1),
        best[at_opponent],
        rbest[at_opponent],
        masks[0][i2, i1] & masks[1][i1, i2],
        tol,
    )


def find_equilibria(game, grid, tolerance=None):
    """``deferral.find_equilibria`` of a two-agent game, on whole tables."""
    return dense_find(game, grid, tolerance, False)


def find_equilibria_after_deferral(game, grid, tolerance=None):
    """``deferral.find_equilibria_after_deferral`` of a two-agent game, on whole tables."""
    for spec in [a.utility for a in game.agents] + [a.c1 for a in game.agents]:
        require_valid(spec)  # every utility before any cost, as the public search checks them
    return dense_find(game, grid, tolerance, True)
