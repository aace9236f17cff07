"""The grid argmax rebuilt by slicing: a reference independent of ``_grid_responses``.

Each function cuts the consideration slice (or the whole grid) out of the
comprehensive values by index and keeps every value within 1e-12 of the
slice's best, instead of masking the rest with ``-inf``.  The social
reference point is rebuilt from the model's definition too, so nothing here is
private to ``deferral``.  Exceptions come in the public functions' order: the
consideration interval, then the kernel.
"""

from __future__ import annotations

import numpy as np

import deferral as d
from deferral.consideration import interval_index_bounds


def _reference_point(game, i, opponents):
    """The opponent's choice when there is one other agent, else the weighted
    mean of the others' choices, renormalized over them: summed left to right
    and divided once.  Assumes valid aggregator weights."""
    if len(opponents) == 1:
        return float(opponents[0])
    agg = game.choice_aggregator
    weights = ([1.0] * len(opponents) if isinstance(agg, d.MeanChoice)
               else [w for j, w in enumerate(agg.weights) if j != i])
    acc = weights[0] * opponents[0]
    for w, x in zip(weights[1:], opponents[1:]):
        acc = acc + w * x
    return acc / sum(weights)


def interval_grid_indices(interval, grid):
    """Indices of the grid points identified with ``interval``: the slice of
    ``interval_index_bounds``, as an index array."""
    i_lo, i_hi = interval_index_bounds(interval.lo, interval.hi, grid)
    return np.arange(int(i_lo), int(i_hi) + 1)


def _argmax(vals, idx):
    """The best of ``vals[idx]`` and the indices within 1e-12 of it, ascending."""
    vals = vals[idx]
    best = vals.max()
    return best, idx[vals >= best - 1e-12]


def _slice(agent, x_social, grid):
    interval = d.consideration_interval(agent.utility, agent.c1, x_social)
    return interval_grid_indices(interval, grid)


def best_response(game, i, opponents, grid):
    x_social = _reference_point(game, i, opponents)
    future = d.aggregate_beliefs(game, i).mean()
    vals = d.comprehensive_values(game.agents[i], grid, x_social, future)
    return tuple(float(x) for x in grid.points[_argmax(vals, np.arange(len(vals)))[1]])


def deferral_best_response(game, i, opponents, grid):
    x_social = _reference_point(game, i, opponents)
    agent = game.agents[i]
    idx = _slice(agent, x_social, grid)
    vals = d.comprehensive_values(agent, grid, x_social, d.aggregate_beliefs(game, i).mean())
    return tuple(float(x) for x in grid.points[_argmax(vals, idx)[1]])


def second_stage_choice(agent, x_social, grid):
    idx = _slice(agent, x_social, grid)
    best, chosen = _argmax(d.comprehensive_values(agent, grid, x_social), idx)
    return d.ChoiceResult(tuple(float(x) for x in grid.points[chosen]), float(best))


def unconstrained_optimum(agent, x_social, grid):
    vals = d.comprehensive_values(agent, grid, x_social)
    return float(grid.points[_argmax(vals, np.arange(len(vals)))[1][0]])
