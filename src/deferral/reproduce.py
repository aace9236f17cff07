"""Shipped reproduction cases and their discrepancy reports.

Each case runs a bundled scenario end to end and writes, next to the plain
result files, a discrepancy report that lines the solver's outputs up against
the reference constants the scenario is meant to reproduce.  The report
records agreement or disagreement; it never forces the solver toward the
reference values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .choice import comprehensive_value, detect_trap, second_stage_choice
from .errors import PreconditionViolated
from .game import (
    BestResponseCurve,
    EquilibriumCertificate,
    EquilibriumKind,
    best_response_curve,
    classify_profile,
    find_equilibria,
    find_equilibria_after_deferral,
    payoff,
)
from .model import Grid
from .output import fmt, write_csv
from .scenario import Scenario, parse_scenario
from .welfare import deferral_loss, welfare_gap

CASES = ("akerlof", "example42", "trap")

#: Reference constants each case is compared against.  For the two-agent
#: belief game the reference constants are internally inconsistent with the
#: payoff formulas they accompany, so agreement is recorded, not required.
REFERENCE = {
    "akerlof": {
        "diagonal_min": 0.0,   # (b - d) / 2a
        "diagonal_max": 2.0,   # (b + d) / 2a
    },
    "example42": {
        "b1_low_plateau": 1.75,
        "b1_high_plateau": 3.75,
        "b2_low_plateau": 4.0,
        "b2_high_plateau": 6.0,
        "equilibrium": (3.75, 4.0),
        "deferral_diagonal": (1.0, 3.75),
        "loss_vs_1_1": 32.125,
        "loss_vs_1.5_1.5": 21.625,
        "payoff1_at_2_2": -261.0,
        "payoff1_at_equilibrium": -262.875,
    },
    "trap": {
        "x_hat": 3.25,
        "interval": (1.0, 2.0),
        "trapped": 1.0,
    },
}


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    oracle: float
    reference: float
    note: str = ""


@dataclass(frozen=True)
class CaseResult:
    case: str
    rows: tuple[ReportRow, ...]
    files: tuple[Path, ...]


def load_bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped inside the package."""
    text = resources.files("deferral").joinpath(f"scenarios/{name}.json").read_text("utf-8")
    return parse_scenario(json.loads(text))


def write_equilibria(path: Path, certs: list[EquilibriumCertificate], n: int) -> Path:
    """Write equilibrium certificates of an ``n``-agent game: profile, kind, max regret."""
    header = [f"x_{i + 1}" for i in range(n)] + ["kind", "max_regret"]
    rows = [
        [fmt(x) for x in c.profile] + [c.kind.value, fmt(c.max_regret)]
        for c in certs
    ]
    return write_csv(path, header, rows)


def write_curve(path: Path, curve: BestResponseCurve) -> Path:
    """Write a best-response curve: opponent value, smallest best response, tie count."""
    rows = [
        (fmt(x), fmt(s[0]), str(len(s)))
        for x, s in zip(curve.opponent_values, curve.argmax_sets)
    ]
    return write_csv(path, ["opponent", "best_response", "tie_count"], rows)


def _sweep(grid: Grid, count: int = 81) -> list[float]:
    return [j * grid.x_max / (count - 1) for j in range(count)]


def _diagonal_extent(certs: list[EquilibriumCertificate]) -> tuple[float, float, float]:
    """(min, max, largest |x1 - x2|) over certificates; NaN extent when empty."""
    if not certs:
        return float("nan"), float("nan"), float("nan")
    lo = min(c.profile[0] for c in certs)
    hi = max(c.profile[0] for c in certs)
    skew = max(abs(c.profile[0] - c.profile[1]) for c in certs)
    return lo, hi, skew


def _run_pair(scenario: Scenario, out: Path):
    """Both searches of a two-agent case and both best-response curves, written to CSV."""
    game, grid = scenario.game, scenario.grid
    standard = find_equilibria(game, grid, scenario.tolerance)
    deferred = find_equilibria_after_deferral(game, grid, scenario.tolerance)
    curves = [best_response_curve(game, i, _sweep(grid), grid) for i in (0, 1)]
    files = [
        write_equilibria(out / "equilibria.csv", standard, 2),
        write_equilibria(out / "deferral_equilibria.csv", deferred, 2),
    ] + [write_curve(out / f"best_response_agent{i + 1}.csv", c) for i, c in enumerate(curves)]
    return standard, deferred, curves, files


def _run_akerlof(scenario: Scenario, out: Path) -> CaseResult:
    ref = REFERENCE["akerlof"]
    standard, deferred, _, files = _run_pair(scenario, out)
    s_lo, s_hi, s_skew = _diagonal_extent(standard)
    d_lo, d_hi, d_skew = _diagonal_extent(deferred)
    rows = (
        ReportRow("standard_diagonal_min", s_lo, ref["diagonal_min"]),
        ReportRow("standard_diagonal_max", s_hi, ref["diagonal_max"]),
        ReportRow("standard_max_asymmetry", s_skew, 0.0),
        ReportRow("deferral_diagonal_min", d_lo, ref["diagonal_min"]),
        ReportRow("deferral_diagonal_max", d_hi, ref["diagonal_max"]),
        ReportRow("deferral_max_asymmetry", d_skew, 0.0),
        ReportRow("deferral_equals_standard", float(
            [c.profile for c in standard] == [c.profile for c in deferred]), 1.0,
            "same equilibrium set with and without deferral"),
    )
    return CaseResult("akerlof", rows, tuple(files))


def _run_example42(scenario: Scenario, out: Path) -> CaseResult:
    game, grid = scenario.game, scenario.grid
    ref = REFERENCE["example42"]
    standard, deferred, curves, files = _run_pair(scenario, out)
    s_lo, s_hi, s_skew = _diagonal_extent(standard)
    d_lo, d_hi, d_skew = _diagonal_extent(deferred)
    ref_eq = ref["equilibrium"]
    ref_eq_cert = classify_profile(game, ref_eq, grid, scenario.tolerance)

    rows = [
        ReportRow("b1_low_plateau", curves[0].argmax_sets[0][0], ref["b1_low_plateau"],
                  "best response to opponent at 0"),
        ReportRow("b1_high_plateau", curves[0].argmax_sets[-1][0], ref["b1_high_plateau"],
                  "best response to opponent at the bound"),
        ReportRow("b2_low_plateau", curves[1].argmax_sets[0][0], ref["b2_low_plateau"],
                  "best response to opponent at 0"),
        ReportRow("b2_high_plateau", curves[1].argmax_sets[-1][0], ref["b2_high_plateau"],
                  "best response to opponent at the bound"),
        ReportRow("standard_count", float(len(standard)), 1.0,
                  "reference claims a unique equilibrium"),
        ReportRow("standard_diagonal_min", s_lo, ref_eq[0]),
        ReportRow("standard_diagonal_max", s_hi, ref_eq[0]),
        ReportRow("standard_max_asymmetry", s_skew, abs(ref_eq[0] - ref_eq[1])),
        ReportRow("reference_pair_is_standard",
                  float(ref_eq_cert is not None and ref_eq_cert.kind in
                        (EquilibriumKind.STANDARD, EquilibriumKind.BOTH)), 1.0),
        ReportRow("reference_pair_is_after_deferral",
                  float(ref_eq_cert is not None and ref_eq_cert.kind in
                        (EquilibriumKind.AFTER_DEFERRAL, EquilibriumKind.BOTH)), 0.0,
                  "reference itself states the pair fails the deferral test"),
        ReportRow("deferral_diagonal_min", d_lo, ref["deferral_diagonal"][0]),
        ReportRow("deferral_diagonal_max", d_hi, ref["deferral_diagonal"][1]),
        ReportRow("deferral_max_asymmetry", d_skew, 0.0),
        ReportRow("payoff1_at_2_2", payoff(game, 0, (2.0, 2.0)), ref["payoff1_at_2_2"]),
        ReportRow("payoff1_at_reference_pair", payoff(game, 0, ref_eq),
                  ref["payoff1_at_equilibrium"]),
        ReportRow("welfare_gap_total_vs_1_1",
                  welfare_gap(game, ref_eq, (1.0, 1.0)).total, ref["loss_vs_1_1"],
                  "unguarded gap of the reference pair over (1,1)"),
        ReportRow("welfare_gap_total_vs_1.5_1.5",
                  welfare_gap(game, ref_eq, (1.5, 1.5)).total, ref["loss_vs_1.5_1.5"],
                  "unguarded gap of the reference pair over (1.5,1.5)"),
    ]

    # Route the reference pair through the guarded loss; record the verdict.
    try:
        report = deferral_loss(game, ref_eq, (1.0, 1.0), grid, scenario.tolerance)
        rows.append(ReportRow("guarded_loss_vs_1_1", report.total, ref["loss_vs_1_1"]))
    except PreconditionViolated as exc:
        rows.append(ReportRow("guarded_loss_vs_1_1", float("nan"), ref["loss_vs_1_1"],
                              f"gate refused: {exc.code}"))
    return CaseResult("example42", tuple(rows), tuple(files))


def _run_trap(scenario: Scenario, out: Path) -> CaseResult:
    agent, grid, x_social = scenario.agent, scenario.grid, scenario.x_social
    ref = REFERENCE["trap"]
    report = detect_trap(agent, x_social, grid)
    choice = second_stage_choice(agent, x_social, grid)
    u_hat = comprehensive_value(agent, report.x_hat, x_social)
    files = [
        write_csv(out / "trap_report.csv", ["quantity", "value"], [
            ("x_hat", fmt(report.x_hat)),
            ("interval_lo", fmt(report.interval.lo)),
            ("interval_hi", fmt(report.interval.hi)),
            ("trapped", fmt(1.0 if report.trapped else 0.0)),
            ("utility_gap", fmt(report.utility_gap)),
            ("constrained_choice", fmt(choice.canonical)),
            ("constrained_value", fmt(choice.value)),
            ("unconstrained_value", fmt(u_hat)),
        ]),
    ]
    rows = (
        ReportRow("x_hat", report.x_hat, ref["x_hat"]),
        ReportRow("interval_lo", report.interval.lo, ref["interval"][0]),
        ReportRow("interval_hi", report.interval.hi, ref["interval"][1]),
        ReportRow("trapped", 1.0 if report.trapped else 0.0, ref["trapped"]),
    )
    return CaseResult("trap", rows, tuple(files))


_RUNNERS = {"akerlof": _run_akerlof, "example42": _run_example42, "trap": _run_trap}


def run_case(case: str, output_dir: str | Path) -> CaseResult:
    """Run one reproduction case, writing result files and the discrepancy report."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    out = Path(output_dir)
    result = _RUNNERS[case](load_bundled_scenario(case), out)
    report_path = write_csv(
        out / "discrepancy.csv",
        ["quantity", "oracle_value", "reference_value", "note"],
        [(r.quantity, fmt(r.oracle), fmt(r.reference), r.note) for r in result.rows],
    )
    return CaseResult(result.case, result.rows, result.files + (report_path,))
