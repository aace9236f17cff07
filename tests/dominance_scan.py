"""The one-many dominance set by the exhaustive pairwise scan: a reference
independent of ``maximal_indices_grid``'s sort.

Point ``i`` weakly beats ``j`` when its utility is at least as high and its
cost at most as high; it strictly beats ``j`` when ``j`` does not weakly beat
it back.  Every pair is compared in two m×m boolean arrays, so keep ``m``
small.  The values come from the model's public functions, so nothing here
is private to ``deferral``.
"""

from __future__ import annotations

import numpy as np

import deferral as d


def undominated_scan(uv: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Indices of the points that no point strictly beats on ``(uv, cv)``, ascending."""
    weak = (uv[:, None] >= uv[None, :]) & (cv[:, None] <= cv[None, :])
    strict = weak & ~weak.T
    return np.flatnonzero(~strict.any(axis=0))


def maximal_indices_scan(u, c1, x_social, grid):
    """``maximal_indices_grid`` by the pairwise scan."""
    uv = d.model.utility_values(u, grid)
    cv = d.eval_cost(c1, np.abs(grid.points - x_social))
    return undominated_scan(uv, cv)
