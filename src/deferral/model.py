"""Core model primitives.

Everything an agent is made of lives here: the personal utility families,
the distance-cost families, finite-support beliefs, the additive
comprehensive-utility form, the discretization grid shared by every numeric
oracle, and structural validation for all of it.

All types are immutable after construction and every operation is pure, so
they are safe to evaluate concurrently without synchronization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import KW_ONLY, astuple, dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DomainError, GridLookupError, SpecValidationError

#: Absolute tolerance used for exact-equality style checks (probability mass,
#: degenerate intervals, argmax ties).  All shipped scenarios use exact
#: rationals, so this only has to absorb float arithmetic noise.
EXACT_TOL = 1e-12


def near_best(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best value (last axis) and the mask of values within ``EXACT_TOL`` of it.

    This is the argmax tie rule of every grid search: the argmax set keeps
    each point within ``EXACT_TOL`` of the best, and its smallest point is
    the canonical one.
    """
    best = vals.max(axis=-1)
    return best, vals >= np.expand_dims(best, -1) - EXACT_TOL


@dataclass(frozen=True)
class Grid:
    """Uniform grid over ``[0, x_max]`` with points ``j * x_max / steps``.

    ``x_max`` is the one strategy bound: every solve on the grid takes it as
    the upper bound on every agent's choice.  The step size is the spatial
    tolerance attached to any grid-based answer.
    """

    x_max: float
    steps: int

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.arange(self.steps + 1, dtype=float) * self.x_max / self.steps
        pts.setflags(write=False)
        return pts

    @property
    def step(self) -> float:
        return self.x_max / self.steps

    def nearest_indices(self, x, *, tie_up: bool | np.ndarray = True) -> np.ndarray:
        """Index of the grid point nearest to each entry of ``x`` (vectorized).

        Points outside ``[0, x_max]`` snap to the boundary.  An exact
        half-step tie resolves upward where ``tie_up`` holds and downward
        elsewhere; ``tie_up`` is one flag or a boolean array broadcast
        against ``x``, so each entry can take its own direction.  Snapping an
        interval's ``lo`` up and its ``hi`` down rounds it inward.
        """
        pts = self.points
        x = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(pts, x), 1, self.steps)
        below, above = x - pts[j - 1], pts[j] - x
        return np.where((above < below) | ((above == below) & tie_up), j, j - 1)

    def index_of(self, x: float) -> int:
        """Index of ``x`` as an exact grid point, else ``GridLookupError`` (NaN included)."""
        j = int(self.nearest_indices(x))
        if not abs(self.points[j] - x) <= EXACT_TOL:
            raise GridLookupError(f"{x} is not a point of grid(x_max={self.x_max}, steps={self.steps})")
        return j


@dataclass(frozen=True)
class Quadratic:
    """Personal utility ``u(x) = -a x^2 + b x + k`` with curvature ``a > 0``.

    Strictly quasiconcave on the nonnegative half-line; ``peak`` is its
    unique maximizer there (the parabola vertex ``b / (2a)``, clamped to 0
    when the vertex falls below the domain).
    """

    a: float
    b: float
    k: float = 0.0

    @property
    def peak(self) -> float:
        return max(0.0, self.b / (2.0 * self.a))


@dataclass(frozen=True)
class Tabulated:
    """Personal utility given by values on a grid.

    Must rise strictly to a unique peak and fall strictly after it
    (strict quasiconcavity checked point by point).
    """

    values: tuple[float, ...]
    grid: Grid

    @cached_property
    def peak(self) -> float:
        return self.grid.points[int(np.argmax(self.values))]

    @cached_property
    def is_finite(self) -> bool:
        """Whether every value and the grid bound are finite."""
        return _finite(self.grid.x_max, *self.values)

    @cached_property
    def is_quasiconcave(self) -> bool:
        """Whether the values rise strictly to a unique peak then fall strictly."""
        vals = self.values
        peak = int(np.argmax(vals))
        return (all(vals[j] < vals[j + 1] for j in range(peak))
                and all(vals[j] > vals[j + 1] for j in range(peak, len(vals) - 1)))


UtilityFunction = Union[Quadratic, Tabulated]


@dataclass(frozen=True)
class LinearCost:
    """Cost ``c(delta) = d * delta`` with slope ``d >= 0``; ``d = 0`` is no social concern."""

    d: float


@dataclass(frozen=True)
class PowerCost:
    """Cost ``c(delta) = d * delta**p`` with ``d >= 0`` and exponent ``p >= 1``."""

    d: float
    p: float


CostFunction = Union[LinearCost, PowerCost]


@dataclass(frozen=True)
class FiniteRandomVariable:
    """Finite-support belief over a future social choice.

    Atoms are ``(value, probability)`` pairs with distinct nonnegative values
    and total mass one.
    """

    atoms: tuple[tuple[float, float], ...]

    def mean(self) -> float:
        return float(sum(v * p for v, p in self.atoms))


@dataclass(frozen=True)
class ComprehensiveUtilityForm:
    """Weighted additive comprehensive utility.

    ``U = w_u * u(x) - w_1 * c1(|x - x_s|) - w_2 * c2(|x - mean(x_f)|)``.
    Nonnegative weights keep U nondecreasing in utility and nonincreasing in
    both costs; the default (1, 1, 1) is the plain additive form.
    """

    w_u: float = 1.0
    w_1: float = 1.0
    w_2: float = 1.0


@dataclass(frozen=True)
class AgentSpec:
    """One agent's primitives.

    ``beliefs`` holds one finite random variable per other agent (a single
    entry standing for the whole society in single-agent problems).
    """

    utility: UtilityFunction
    c1: CostFunction
    c2: CostFunction
    beliefs: tuple[FiniteRandomVariable, ...]
    form: ComprehensiveUtilityForm = field(default_factory=ComprehensiveUtilityForm)


@dataclass(frozen=True)
class MeanChoice:
    """Reference point = arithmetic mean of the other agents' choices."""


@dataclass(frozen=True)
class WeightedChoice:
    """Reference point = weighted mean of the others' choices.

    ``weights`` has one entry per agent (self included); for agent ``i`` the
    entries over ``j != i`` are renormalized to sum to one, so they must not
    all be zero.
    """

    weights: tuple[float, ...]


ChoiceAggregator = Union[MeanChoice, WeightedChoice]


@dataclass(frozen=True)
class BeliefMixture:
    """Reference belief = mixture of the agent's per-opponent beliefs.

    ``weights`` aligns positionally with each agent's belief list (length
    ``n - 1``); ``None`` means the uniform mixture.
    """

    weights: tuple[float, ...] | None = None


@dataclass(frozen=True)
class GameSpec:
    """An n-agent game: agents plus the keyword-only choice and belief
    aggregators.  The strategy bound is the solving grid's ``x_max``."""

    agents: tuple[AgentSpec, ...]
    _: KW_ONLY
    choice_aggregator: ChoiceAggregator = field(default_factory=MeanChoice)
    belief_aggregator: BeliefMixture = field(default_factory=BeliefMixture)

    @property
    def n(self) -> int:
        return len(self.agents)


# ---------------------------------------------------------------------------
# evaluation


def require_nonnegative(what: str, x) -> None:
    """Raise ``DomainError`` unless ``x`` (a number, a tuple or an array) is finite and ``>= 0``."""
    values = np.asarray(x, dtype=float)
    if not ((values >= 0) & (values < np.inf)).all():
        raise DomainError(f"{what} must be finite and nonnegative, got {x}")


def eval_utility(u: UtilityFunction, x: float) -> float:
    """Personal utility at ``x >= 0``.

    Tabulated utilities are defined only on their grid points.  A value
    that is not finite raises ``DomainError``, as in ``utility_values``.
    """
    require_nonnegative("utility argument", x)
    value = -u.a * x * x + u.b * x + u.k if isinstance(u, Quadratic) else u.values[u.grid.index_of(x)]
    if not math.isfinite(value):
        raise DomainError(f"{type(u).__name__} utility is not finite at {x}")
    return value


def utility_values(u: UtilityFunction, grid: Grid) -> np.ndarray:
    """Vector of utility values on every grid point.

    Raises ``DomainError`` if a value is not finite, as when the
    coefficients of a valid quadratic overflow on the grid.
    """
    if isinstance(u, Quadratic):
        pts = grid.points
        with np.errstate(over="ignore", invalid="ignore"):
            vals = -u.a * pts * pts + u.b * pts + u.k
    elif u.grid != grid:
        raise GridLookupError("tabulated utility is bound to a different grid")
    else:
        vals = np.asarray(u.values, dtype=float)
    if not np.isfinite(vals).all():
        raise DomainError(f"{type(u).__name__} utility is not finite on every point of "
                          f"grid(x_max={grid.x_max}, steps={grid.steps})")
    return vals


def eval_cost(c: CostFunction, delta, weight: float = 1.0) -> float | np.ndarray:
    """``weight`` times the distance cost at finite ``delta >= 0``; accepts scalars or arrays.

    The one cost arithmetic: a zero slope or weight is zero without taking a
    power, and an overflow is ``+inf`` without a warning, so no cost is NaN.
    """
    if weight == 0.0 or c.d == 0.0:
        return 0.0 * delta
    with np.errstate(over="ignore"):
        if isinstance(c, LinearCost):
            return weight * (c.d * delta)
        return weight * (c.d * np.asarray(delta, dtype=np.float64)**c.p)


def cost_is_linear(c: CostFunction) -> bool:
    """Whether ``c`` is ``d * delta``: a linear cost, or a zero slope, zero everywhere."""
    return isinstance(c, LinearCost) or c.d == 0.0


def _mixture(beliefs, weights=None) -> FiniteRandomVariable:
    """The mixture of ``beliefs`` with ``weights``, uniform when ``None``: the one
    future reference point, whose mean ``belief_mean`` and the game's payoffs share."""
    if not beliefs:
        raise SpecValidationError([Violation("MissingBeliefs", "beliefs must be nonempty")])
    if weights is None:
        weights = (1.0 / len(beliefs),) * len(beliefs)
    if len(weights) != len(beliefs):
        raise SpecValidationError([Violation(
            "AggregatorWeightsInvalid", f"{len(weights)} mixture weights for {len(beliefs)} beliefs")])
    mixed: dict[float, float] = {}
    for w, rv in zip(weights, beliefs):
        if w == 0.0:
            continue
        for value, prob in rv.atoms:
            mixed[value] = mixed.get(value, 0.0) + w * prob
    return FiniteRandomVariable(atoms=tuple(sorted(mixed.items())))


def belief_mean(agent: AgentSpec) -> float:
    """Mean of the uniform mixture of the agent's own beliefs (``_mixture``)."""
    return _mixture(agent.beliefs).mean()


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with a stable machine-readable code."""

    code: str
    message: str


def _check(violations: list[Violation], ok: bool, code: str, message: str) -> None:
    if not ok:
        violations.append(Violation(code, message))


def _finite(*numbers: float) -> bool:
    return all(map(math.isfinite, numbers))


def _validate_utility(u: UtilityFunction, out: list[Violation], where: str) -> None:
    if isinstance(u, Quadratic):
        _check(out, u.a > 0, "NonPositiveCurvature", f"{where}: quadratic needs a > 0, got a={u.a}")
        _check(out, _finite(u.a, u.b, u.k), "NonFiniteParameter",
               f"{where}: quadratic coefficients must be finite")
        return
    vals = u.values
    if len(vals) != u.grid.steps + 1:
        out.append(Violation("TabulationLengthMismatch",
                             f"{where}: {len(vals)} values on a grid of {u.grid.steps + 1} points"))
        return
    if len(vals) == 0:
        out.append(Violation("EmptyTabulation", f"{where}: no values"))
        return
    _check(out, u.is_quasiconcave, "NotQuasiconcave",
           f"{where}: values must rise strictly to a unique peak then fall strictly")
    _check(out, u.is_finite, "NonFiniteParameter", f"{where}: values and grid bound must be finite")


def _validate_cost(c: CostFunction, out: list[Violation], where: str) -> None:
    _check(out, c.d >= 0, "NegativeCostSlope", f"{where}: d must be >= 0, got {c.d}")
    if isinstance(c, PowerCost):
        _check(out, c.p >= 1, "SubunitPowerExponent", f"{where}: p must be >= 1, got {c.p}")
    _check(out, _finite(*astuple(c)), "NonFiniteParameter", f"{where}: cost parameters must be finite")


def _validate_rv(v: FiniteRandomVariable, out: list[Violation], where: str) -> None:
    if not v.atoms:
        out.append(Violation("EmptyAtoms", f"{where}: belief has no atoms"))
        return
    values = [a[0] for a in v.atoms]
    _check(out, all(x >= 0 for x in values), "NegativeAtomValue", f"{where}: atom values must be nonnegative")
    _check(out, len(set(values)) == len(values), "DuplicateAtomValue", f"{where}: atom values must be distinct")
    _check(out, all(0 < p <= 1 for _, p in v.atoms), "AtomProbabilityOutOfRange",
           f"{where}: atom probabilities must lie in (0, 1]")
    mass = sum(p for _, p in v.atoms)
    _check(out, abs(mass - 1.0) <= EXACT_TOL, "ProbabilityMassNotOne",
           f"{where}: probabilities sum to {mass!r}")
    _check(out, math.isfinite(v.mean()), "NonFiniteMean", f"{where}: mean is not finite")


def _validate_form(f: ComprehensiveUtilityForm, out: list[Violation], where: str) -> None:
    _check(out, f.w_u >= 0 and f.w_1 >= 0 and f.w_2 >= 0, "NegativeWeight",
           f"{where}: weights must be nonnegative, got ({f.w_u}, {f.w_1}, {f.w_2})")
    _check(out, _finite(*astuple(f)), "NonFiniteParameter", f"{where}: weights must be finite")


def _validate_grid(g: Grid, out: list[Violation], where: str) -> None:
    _check(out, g.x_max > 0, "NonPositiveBound", f"{where}: x_max must be > 0, got {g.x_max}")
    _check(out, _finite(g.x_max), "NonFiniteParameter", f"{where}: x_max must be finite")
    _check(out, g.steps >= 1, "NonPositiveSteps", f"{where}: steps must be >= 1, got {g.steps}")
    limit = np.iinfo(np.intp).max // 8 - 1  # the most steps whose float64 points numpy can address
    _check(out, g.steps <= limit, "GridTooLarge", f"{where}: steps must be <= {limit}")
    if g.x_max > 0 and _finite(g.x_max) and 1 <= g.steps <= limit:
        # O(1) for the points j·x_max/steps: none overflows, and no two neighbours share a value
        tiny = sys.float_info.min
        _check(out, math.isfinite(g.x_max * g.steps) and g.x_max / g.steps >= tiny, "GridOutOfFloatRange",
               f"{where}: x_max·steps must be finite and the step x_max/steps >= {tiny}, "
               f"got x_max={g.x_max}, steps={g.steps}")


def _validate_agent(a: AgentSpec, out: list[Violation], where: str) -> None:
    _validate_utility(a.utility, out, f"{where}.utility")
    _validate_cost(a.c1, out, f"{where}.c1")
    _validate_cost(a.c2, out, f"{where}.c2")
    _validate_form(a.form, out, f"{where}.form")
    _check(out, len(a.beliefs) > 0, "MissingBeliefs", f"{where}: beliefs must be nonempty")
    for bi, b in enumerate(a.beliefs):
        _validate_rv(b, out, f"{where}.beliefs[{bi}]")


def _validate_game(g: GameSpec, out: list[Violation]) -> None:
    _check(out, g.n >= 2, "TooFewAgents", f"game needs n >= 2 agents, got {g.n}")
    for i, a in enumerate(g.agents):
        _validate_agent(a, out, f"agents[{i}]")
        if g.n >= 2:
            _check(out, len(a.beliefs) == g.n - 1, "BeliefCountMismatch",
                   f"agents[{i}]: {len(a.beliefs)} beliefs for {g.n - 1} opponents")
    if isinstance(g.choice_aggregator, WeightedChoice):
        w = g.choice_aggregator.weights
        ok = len(w) == g.n and all(x >= 0 for x in w) and abs(sum(w) - 1.0) <= EXACT_TOL
        _check(out, ok, "AggregatorWeightsInvalid",
               f"choice weights must be {g.n} nonnegative values summing to 1")
        if len(w) == g.n:
            for i in range(g.n):
                others = sum(x for j, x in enumerate(w) if j != i)
                _check(out, others > 0, "AggregatorWeightsInvalid",
                       f"agents[{i}]: choice weights over the other agents sum to {others}, need > 0")
    bw = g.belief_aggregator.weights
    if bw is not None:
        ok = len(bw) == g.n - 1 and all(x >= 0 for x in bw) and abs(sum(bw) - 1.0) <= EXACT_TOL
        _check(out, ok, "AggregatorWeightsInvalid",
               f"belief mixture weights must be {g.n - 1} nonnegative values summing to 1")


def validate(spec) -> list[Violation]:
    """Collect every violated invariant of a model object.

    Accepts any of the model types (utility, cost, belief, form, grid, agent,
    game).  An empty list means the object is well-formed; violations are
    returned rather than raised so callers can report all of them.
    """
    out: list[Violation] = []
    if isinstance(spec, GameSpec):
        _validate_game(spec, out)
    elif isinstance(spec, AgentSpec):
        _validate_agent(spec, out, "agent")
    elif isinstance(spec, (Quadratic, Tabulated)):
        _validate_utility(spec, out, "utility")
    elif isinstance(spec, (LinearCost, PowerCost)):
        _validate_cost(spec, out, "cost")
    elif isinstance(spec, FiniteRandomVariable):
        _validate_rv(spec, out, "belief")
    elif isinstance(spec, ComprehensiveUtilityForm):
        _validate_form(spec, out, "form")
    elif isinstance(spec, Grid):
        _validate_grid(spec, out, "grid")
    else:
        raise TypeError(f"cannot validate object of type {type(spec).__name__}")
    return out


def require_valid(spec) -> None:
    """Raise ``SpecValidationError`` if ``validate`` finds anything."""
    violations = validate(spec)
    if violations:
        raise SpecValidationError(violations)
