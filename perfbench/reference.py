"""Reference computations the benchmark checks the solver against.

Nothing here imports ``deferral``.  Every quantity is rebuilt from the model's
definitions with plain numpy: comprehensive utility
``U = u(x) - d1*|x - x_s| - d2*|x - f|`` (unit weights, linear costs), the
one-many dominance order, the consideration interval between the social
choice and the personal peak, the regret tolerance rules the README states,
and the grid conventions (points ``j * x_max / steps``, argmax ties within
1e-12, interval endpoints snapped to the nearest point with half-step ties
rounding inward).  Payoffs are formed in the same operation order as the
definitions the solver documents, so a profile whose regret sits exactly on
the tolerance is decided the same way on both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

TIE = 1e-12  # argmax tie width and degenerate-interval width of the model
BLOCK = 128  # opponent columns per block, so no m x m table is ever held


def grid_points(x_max: float, steps: int) -> np.ndarray:
    return np.arange(steps + 1, dtype=float) * x_max / steps


@dataclass(frozen=True)
class Agent:
    """One agent with linear costs: quadratic ``(a, b, k)`` or tabulated utility."""

    d1: float
    d2: float
    future: float
    quad: tuple[float, float, float] | None = None
    table: tuple[float, ...] | None = None

    def utility(self, pts: np.ndarray) -> np.ndarray:
        if self.quad is not None:
            a, b, k = self.quad
            return -a * pts * pts + b * pts + k
        return np.asarray(self.table, dtype=float)

    def utility_at(self, x: float, pts: np.ndarray) -> float:
        if self.quad is not None:
            a, b, k = self.quad
            return -a * x * x + b * x + k
        return float(self.table[int(round(x / (pts[1] - pts[0])))])

    def peak(self, pts: np.ndarray) -> float:
        if self.quad is not None:
            a, b, _ = self.quad
            return max(0.0, b / (2.0 * a))
        return float(pts[int(np.argmax(self.table))])

    def value(self, x: float, x_social: float, pts: np.ndarray) -> float:
        return self.utility_at(x, pts) - self.d1 * abs(x - x_social) - self.d2 * abs(x - self.future)


# ---------------------------------------------------------------------------
# grid conventions


def nearest_index(pts: np.ndarray, x: np.ndarray, tie_up: bool) -> np.ndarray:
    """Nearest grid index of each ``x``; exact half-step ties go up or down."""
    x = np.asarray(x, dtype=float)
    last = len(pts) - 1
    j = np.clip(np.searchsorted(pts, x), 1, last)
    below = x - pts[j - 1]
    above = pts[j] - x
    pick = np.where(below < above, j - 1, np.where(above < below, j, j if tie_up else j - 1))
    pick = np.where(pts[j] == x, j, pick)
    return np.where(x <= pts[0], 0, np.where(x >= pts[-1], last, pick))


def interval_index_range(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """First and last grid index of each closed interval ``[lo, hi]``.

    A zero-width interval maps to its nearest point (both neighbours when it
    sits exactly halfway); an interval between two neighbours that contains
    no point maps to the point nearest its centre.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    i_lo = nearest_index(pts, lo, tie_up=True)
    i_hi = nearest_index(pts, hi, tie_up=False)
    mid = nearest_index(pts, 0.5 * (lo + hi), tie_up=True)
    crossed = i_lo > i_hi
    i_lo, i_hi = np.where(crossed, mid, i_lo), np.where(crossed, mid, i_hi)
    flat = (hi - lo) <= 0.0
    near_lo = nearest_index(pts, lo, tie_up=False)
    near_hi = nearest_index(pts, lo, tie_up=True)
    d_lo, d_hi = np.abs(pts[near_lo] - lo), np.abs(pts[near_hi] - lo)
    f_lo = np.where(d_lo <= d_hi, near_lo, near_hi)
    f_hi = np.where(d_hi <= d_lo, near_hi, near_lo)
    return np.where(flat, f_lo, i_lo), np.where(flat, f_hi, i_hi)


def consideration_interval(agent: Agent, x_social, pts: np.ndarray):
    """Closed-form consideration interval between the social choice and the peak."""
    x_social = np.asarray(x_social, dtype=float)
    peak = agent.peak(pts)
    same = np.abs(x_social - peak) <= TIE
    lo = np.where(same, peak, np.minimum(x_social, peak))
    hi = np.where(same, peak, np.maximum(x_social, peak))
    return lo, hi


def grid_index_of(pts: np.ndarray, x: float) -> int | None:
    """Index of ``x`` if it is a grid point up to 12-significant-digit printing."""
    j = int(round(x / (pts[1] - pts[0])))
    if 0 <= j < len(pts) and abs(pts[j] - x) <= 1e-9 * max(1.0, abs(x)):
        return j
    return None


# ---------------------------------------------------------------------------
# single agent


def undominated_indices(agent: Agent, x_social: float, pts: np.ndarray) -> np.ndarray:
    """Grid points no other point strictly beats on both utility and distance cost."""
    u = agent.utility(pts)
    c = agent.d1 * np.abs(pts - x_social)
    keep = []
    for c0 in range(0, len(pts), BLOCK):
        j = slice(c0, c0 + BLOCK)
        beats = (u[:, None] >= u[None, j]) & (c[:, None] <= c[None, j])
        beaten_back = (u[None, j] >= u[:, None]) & (c[None, j] <= c[:, None])
        keep.append(~(beats & ~beaten_back).any(axis=0))
    return np.flatnonzero(np.concatenate(keep))


def kinked_argmax(agent: Agent, x_social: float, lo: float, hi: float) -> float:
    """Exact maximizer of a quadratic agent's U on ``[lo, hi]``.

    U is strictly concave with kinks at ``x_social`` and the future mean, so
    its maximizer is a bound, a kink or the stationary point of one linear
    piece; scoring every such candidate that lies in ``[lo, hi]`` finds it.
    """
    a, b, _ = agent.quad
    candidates = {lo, hi, x_social, agent.future}
    for s1, s2 in itertools.product((-1.0, 1.0), repeat=2):
        candidates.add((b + s1 * agent.d1 + s2 * agent.d2) / (2.0 * a))
    inside = [x for x in candidates if lo <= x <= hi]

    def value(x):
        return -a * x * x + b * x - agent.d1 * abs(x - x_social) - agent.d2 * abs(x - agent.future)

    return max(inside, key=value)


# ---------------------------------------------------------------------------
# two agents, every grid profile


def _payoff_block(agent: Agent, u: np.ndarray, own: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """``U[own, opp]`` for own points ``own`` (utilities ``u``) against ``opp``."""
    base = (u - agent.d2 * np.abs(own - agent.future))[:, None]
    return base - agent.d1 * np.abs(own[:, None] - opp[None, :])


@dataclass(frozen=True)
class Equilibrium:
    """A grid profile (one index per agent) and its two equilibrium tests."""

    profile: tuple[int, ...]
    standard: bool
    deferral: bool
    standard_regret: float
    deferral_regret: float

    @property
    def kind(self) -> str:
        if self.standard and self.deferral:
            return "both"
        return "standard" if self.standard else "after_deferral"

    @property
    def max_regret(self) -> float:
        if self.standard and self.deferral:
            return max(self.standard_regret, self.deferral_regret)
        return self.standard_regret if self.standard else self.deferral_regret


def two_agent_equilibria(agents, pts: np.ndarray, exact_family: bool):
    """Every grid profile that is a standard or after-deferral equilibrium.

    The tolerance follows the README: float noise ``1e-9 * (1 + max|U|)`` for
    quadratic utility with linear costs, otherwise the largest one-step change
    of U along an agent's own choice.  Returns ``(tolerance, equilibria)``
    with equilibria sorted by profile.
    """
    m = len(pts)
    u = [ag.utility(pts) for ag in agents]
    best, rbest, lo, hi = [], [], [], []
    scale = lipschitz = 0.0
    for a, ag in enumerate(agents):
        i_lo, i_hi = interval_index_range(pts, *consideration_interval(ag, pts, pts))
        own = np.arange(m)[:, None]
        b_a, r_a = np.empty(m), np.empty(m)
        for c0 in range(0, m, BLOCK):
            j = slice(c0, c0 + BLOCK)
            block = _payoff_block(ag, u[a], pts, pts[j])
            b_a[j] = block.max(axis=0)
            inside = (own >= i_lo[None, j]) & (own <= i_hi[None, j])
            r_a[j] = np.where(inside, block, -np.inf).max(axis=0)
            scale = max(scale, float(np.abs(block).max()))
            lipschitz = max(lipschitz, float(np.abs(np.diff(block, axis=0)).max()))
        best.append(b_a)
        rbest.append(r_a)
        lo.append(i_lo)
        hi.append(i_hi)
    tol = 1e-9 * (1.0 + scale) if exact_family else lipschitz

    found = []
    own = np.arange(m)[:, None]
    for c0 in range(0, m, BLOCK):
        j = slice(c0, c0 + BLOCK)
        cols = np.arange(m)[j][None, :]
        p0 = _payoff_block(agents[0], u[0], pts, pts[j])              # [i1, i2]
        p1 = _payoff_block(agents[1], u[1][j], pts[j], pts).T         # [i1, i2]
        ok0 = p0 >= best[0][None, j] - tol
        ok1 = p1 >= best[1][:, None] - tol
        member = ((own >= lo[0][None, j]) & (own <= hi[0][None, j])
                  & (cols >= lo[1][:, None]) & (cols <= hi[1][:, None]))
        dok = member & (p0 >= rbest[0][None, j] - tol) & (p1 >= rbest[1][:, None] - tol)
        sok = ok0 & ok1
        s_reg = np.maximum(np.maximum(best[0][None, j] - p0, best[1][:, None] - p1), 0.0)
        d_reg = np.maximum(np.maximum(rbest[0][None, j] - p0, rbest[1][:, None] - p1), 0.0)
        for i1, b in np.argwhere(sok | dok):
            found.append(Equilibrium((int(i1), int(c0 + b)), bool(sok[i1, b]), bool(dok[i1, b]),
                                     float(s_reg[i1, b]), float(d_reg[i1, b])))
    found.sort(key=lambda e: e.profile)
    return tol, found


# ---------------------------------------------------------------------------
# n agents, best-response iteration from the default start lattice

LATTICE_POINTS = 11
MAX_SWEEPS = 500


def _mean_of_others(pts: np.ndarray, current: np.ndarray, i: int) -> np.ndarray:
    others = [pts[current[:, j]] for j in range(current.shape[1]) if j != i]
    total = others[0]
    for x in others[1:]:
        total = total + x
    return total / len(others)


def _payoffs(agent: Agent, pts: np.ndarray, x_social: np.ndarray) -> np.ndarray:
    """U over the grid (columns) against each social choice (rows)."""
    u = agent.utility(pts)[None, :]
    return (u - agent.d1 * np.abs(pts[None, :] - x_social[:, None])) - agent.d2 * np.abs(pts - agent.future)


def _first_argmax(vals: np.ndarray) -> np.ndarray:
    best = vals.max(axis=1, keepdims=True)
    return np.argmax(vals >= best - TIE, axis=1)


def lattice_fixed_points(agents, pts: np.ndarray, restricted: bool):
    """Fixed points of simultaneous best responses from the default start lattice.

    Every start on the ``11**n`` lattice is snapped to the grid and iterated
    together, one row per start; ties go to the smallest grid point.  Starts
    still moving after 500 sweeps are dropped, as the solver does.
    Returns the fixed points, sorted.
    """
    n = len(agents)
    axis = np.linspace(0.0, float(pts[-1]), LATTICE_POINTS)
    starts = np.array(list(itertools.product(axis, repeat=n)))
    current = nearest_index(pts, starts, tie_up=True)
    fixed = set()
    own = np.arange(len(pts))[None, :]
    for _ in range(MAX_SWEEPS):
        if not len(current):
            break
        updated = np.empty_like(current)
        for i, ag in enumerate(agents):
            x_social = _mean_of_others(pts, current, i)
            vals = _payoffs(ag, pts, x_social)
            if restricted:
                i_lo, i_hi = interval_index_range(pts, *consideration_interval(ag, x_social, pts))
                vals = np.where((own >= i_lo[:, None]) & (own <= i_hi[:, None]), vals, -np.inf)
            updated[:, i] = _first_argmax(vals)
        still = (updated != current).any(axis=1)
        fixed.update(map(tuple, current[~still].tolist()))
        current = updated[still]
    return sorted(fixed)


def classify(agents, pts: np.ndarray, profile: tuple[int, ...]):
    """Both equilibrium tests at one grid profile of an n-agent game.

    Returns the verdict and the float-noise tolerance it was judged with.
    """
    n = len(agents)
    xs = pts[list(profile)]
    vectors, values, socials = [], [], []
    for i, ag in enumerate(agents):
        x_social = float(np.mean([xs[j] for j in range(n) if j != i]))
        socials.append(x_social)
        vectors.append(_payoffs(ag, pts, np.array([x_social]))[0])
        values.append(ag.value(float(xs[i]), x_social, pts))
    tol = 1e-9 * (1.0 + max(float(np.abs(v).max()) for v in vectors))
    s_reg = max(max(0.0, float(v.max()) - val) for v, val in zip(vectors, values))
    d_reg, member = 0.0, True
    for i, ag in enumerate(agents):
        lo, hi = consideration_interval(ag, socials[i], pts)
        i_lo, i_hi = interval_index_range(pts, lo, hi)
        lo_eff = min(float(lo), pts[int(i_lo)]) - TIE
        hi_eff = max(float(hi), pts[int(i_hi)]) + TIE
        member = member and lo_eff <= xs[i] <= hi_eff
        d_reg = max(d_reg, max(0.0, float(vectors[i][int(i_lo):int(i_hi) + 1].max()) - values[i]))
    return Equilibrium(tuple(profile), s_reg <= tol, member and d_reg <= tol, s_reg, d_reg), tol
