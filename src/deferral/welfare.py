"""Pareto comparison of strategy profiles and the deferral loss.

The deferral loss is the summed payoff shortfall of an equilibrium after
deferral relative to a standard equilibrium that Pareto dominates it; the
guarded entry point enforces all three preconditions (pure standard, pure
after-deferral, dominance) while ``welfare_gap`` computes the same sums
unguarded for exploration and discrepancy reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionViolated
from .game import EquilibriumKind, classify_profile, payoff
from .model import EXACT_TOL, GameSpec, Grid


@dataclass(frozen=True)
class WelfareReport:
    dominant: tuple[float, ...]
    dominated: tuple[float, ...]
    per_agent_gaps: tuple[float, ...]
    total: float


def _dominates(gaps: Sequence[float]) -> bool:
    """Whether no gap is negative and at least one exceeds 1e-12."""
    return all(g >= 0 for g in gaps) and any(g > EXACT_TOL for g in gaps)


def pareto_dominates(game: GameSpec, p: Sequence[float], q: Sequence[float]) -> bool:
    """True iff ``p`` gives every agent at least the payoff of ``q`` and at
    least one agent strictly more (strictness beyond 1e-12)."""
    return _dominates(welfare_gap(game, p, q).per_agent_gaps)


def welfare_gap(game: GameSpec, p: Sequence[float], q: Sequence[float]) -> WelfareReport:
    """Per-agent payoff gaps of ``p`` over ``q`` with no sign constraint."""
    gaps = tuple(payoff(game, i, p) - payoff(game, i, q) for i in range(game.n))
    return WelfareReport(
        dominant=tuple(float(x) for x in p),
        dominated=tuple(float(x) for x in q),
        per_agent_gaps=gaps,
        total=float(sum(gaps)),
    )


def deferral_loss(
    game: GameSpec,
    standard: Sequence[float],
    deferred: Sequence[float],
    grid: Grid,
    tolerance: float | None = None,
) -> WelfareReport:
    """Summed payoff shortfall of profile ``deferred`` relative to profile ``standard``.

    Preconditions, each verified by classifying the profiles:
    ``standard`` must be an equilibrium but not an equilibrium after deferral,
    ``deferred`` the reverse, and ``standard`` must Pareto dominate
    ``deferred``.  Violations raise ``PreconditionViolated`` with codes
    ``StandardKindMismatch``, ``DeferredKindMismatch``, ``NoParetoDominance``.
    """
    got = classify_profile(game, standard, grid, tolerance)
    if got is None or got.kind is not EquilibriumKind.STANDARD:
        raise PreconditionViolated(
            "StandardKindMismatch",
            f"profile {standard} classifies as "
            f"{got.kind.value if got else 'no equilibrium'}, need a pure standard equilibrium",
        )
    got = classify_profile(game, deferred, grid, tolerance)
    if got is None or got.kind is not EquilibriumKind.AFTER_DEFERRAL:
        raise PreconditionViolated(
            "DeferredKindMismatch",
            f"profile {deferred} classifies as "
            f"{got.kind.value if got else 'no equilibrium'}, need a pure equilibrium after deferral",
        )
    report = welfare_gap(game, standard, deferred)
    if not _dominates(report.per_agent_gaps):
        raise PreconditionViolated(
            "NoParetoDominance",
            f"{standard} does not Pareto dominate {deferred}",
        )
    return report
