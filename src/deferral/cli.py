"""Command-line front end.

Loads a scenario file, runs one operation, prints a human-readable summary to
stdout and writes machine-readable CSV files.  Error detail goes to stderr,
never into the CSV outputs.

Exit codes: 0 success, 2 scenario validation failure, 3 precondition failure
(for example a utility that is not finite on the grid, or a default regret
tolerance that is not finite) or a grid too large for memory, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .choice import detect_trap, second_stage_choice, two_criteria_certificate
from .consideration import consideration_interval, maximal_set_grid
from .errors import DeferralError, DomainError, ScenarioError, SpecValidationError
from .game import (
    EquilibriumCertificate,
    _check_profile,
    best_response_curve,
    find_equilibria,
    find_equilibria_after_deferral,
)
from .model import Grid, Tabulated, require_valid
from .output import fmt, write_csv
from .reproduce import CASES, run_case, write_curve, write_equilibria
from .scenario import Scenario, load_profile, load_scenario, require_steps, require_tolerance
from .welfare import deferral_loss

DEFAULT_OUTPUT_DIR = "deferral_out"


def _load(args) -> Scenario:
    """The command's scenario, checked against its mode, with the grid and tolerance overrides."""
    scenario = load_scenario(args.scenario)
    if scenario.mode != args.mode:
        raise ScenarioError(f"'{args.command}' needs a {args.mode} scenario, got {scenario.mode}")
    if args.steps is not None:
        grid = Grid(scenario.grid.x_max, require_steps(args.steps, "--steps"))
        require_valid(grid)
        agents = scenario.game.agents if scenario.game else (scenario.agent,)
        for i, agent in enumerate(agents):
            if isinstance(agent.utility, Tabulated) and grid != agent.utility.grid:
                where = f"agents[{i}]" if scenario.game else "agent"
                raise ScenarioError(f"--steps: {where} has a utility tabulated on "
                                    f"{scenario.grid.steps} steps, which --steps cannot change")
        scenario = replace(scenario, grid=grid)
    if args.tolerance is not None:
        scenario = replace(scenario, tolerance=require_tolerance(args.tolerance, "--tolerance"))
    return scenario


def _outdir(args, scenario: Scenario) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    if scenario.output_dir:
        return Path(scenario.output_dir)
    return Path(DEFAULT_OUTPUT_DIR)


def _cmd_consider(args, scenario: Scenario) -> int:
    agent, grid, x_social = scenario.agent, scenario.grid, scenario.x_social
    interval = consideration_interval(agent.utility, agent.c1, x_social)
    points = maximal_set_grid(agent.utility, agent.c1, x_social, grid)
    out = _outdir(args, scenario)
    write_csv(out / "consideration.csv", ["x"], [(fmt(x),) for x in points])
    print(f"consideration interval: [{fmt(interval.lo)}, {fmt(interval.hi)}]")
    print(f"grid maximal set: {len(points)} points spanning "
          f"[{fmt(points[0])}, {fmt(points[-1])}] (step {fmt(grid.step)})")
    return 0


def _cmd_choose(args, scenario: Scenario) -> int:
    agent, grid, x_social = scenario.agent, scenario.grid, scenario.x_social
    result = second_stage_choice(agent, x_social, grid)
    trap = detect_trap(agent, x_social, grid)
    out = _outdir(args, scenario)
    write_csv(out / "choose.csv",
              ["chosen", "value", "tie_count", "x_hat", "trapped", "utility_gap",
               "interval_lo", "interval_hi"],
              [(fmt(result.canonical), fmt(result.value), str(len(result.chosen)),
                fmt(trap.x_hat), fmt(1.0 if trap.trapped else 0.0), fmt(trap.utility_gap),
                fmt(trap.interval.lo), fmt(trap.interval.hi))])
    print(f"chosen: {fmt(result.canonical)} (ties: {len(result.chosen)}) "
          f"value: {fmt(result.value)}")
    print(f"unconstrained optimum: {fmt(trap.x_hat)}")
    print(f"trapped: {trap.trapped} utility gap: {fmt(trap.utility_gap)}")
    print(f"spatial tolerance: one grid step = {fmt(grid.step)}")
    return 0


def _cmd_certify(args, scenario: Scenario) -> int:
    agent, grid, x_social = scenario.agent, scenario.grid, scenario.x_social
    cert = two_criteria_certificate(agent, x_social, grid)
    out = _outdir(args, scenario)
    write_csv(out / "certify.csv",
              ["holds", "selection_size", "stage1_size"],
              [(fmt(1.0 if cert.holds else 0.0), str(len(cert.gamma)),
                str(len(cert.stage1_survivors)))])
    print(f"rational by two sequential criteria: {cert.holds}")
    print(f"stage-1 survivors: {len(cert.stage1_survivors)}; final selection: {len(cert.gamma)}")
    return 0


def _parse_sweep(spec: str, x_max: float) -> list[float]:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ScenarioError(f"--sweep must be lo:hi:n, got {spec!r}") from exc
    if n < 2 or not 0 <= lo <= hi <= x_max:
        raise ScenarioError(f"--sweep needs n >= 2 and 0 <= lo <= hi <= x_max = {fmt(x_max)}, "
                            f"got {spec!r}")
    return [lo + j * (hi - lo) / (n - 1) for j in range(n)]


def _cmd_best_response(args, scenario: Scenario) -> int:
    game, grid = scenario.game, scenario.grid
    if not 1 <= args.agent <= game.n:
        raise ScenarioError(f"--agent must be in 1..{game.n}, got {args.agent}")
    curve = best_response_curve(
        game, args.agent - 1, _parse_sweep(args.sweep, grid.x_max), grid, method=args.method
    )
    out = _outdir(args, scenario)
    path = write_curve(out / f"best_response_agent{args.agent}.csv", curve)
    print(f"best-response curve for agent {args.agent}: {len(curve.opponent_values)} "
          f"samples -> {path}")
    return 0


def _print_certificates(certs: list[EquilibriumCertificate]) -> None:
    if not certs:
        print("no equilibria found on this grid")
        return
    print(f"{len(certs)} equilibria:")
    shown = certs if len(certs) <= 12 else certs[:6] + certs[-6:]
    for c in shown:
        profile = ", ".join(fmt(x) for x in c.profile)
        print(f"  ({profile})  kind={c.kind.value}  max_regret={fmt(c.max_regret)}")
    if len(certs) > 12:
        print(f"  ... ({len(certs) - 12} more omitted; see CSV)")


def _cmd_equilibria(args, scenario: Scenario) -> int:
    game, grid = scenario.game, scenario.grid
    if args.deferral:
        certs = find_equilibria_after_deferral(game, grid, scenario.tolerance)
        name = "deferral_equilibria.csv"
    else:
        certs = find_equilibria(game, grid, scenario.tolerance)
        name = "equilibria.csv"
    out = _outdir(args, scenario)
    path = write_equilibria(out / name, certs, game.n)
    _print_certificates(certs)
    print(f"spatial tolerance: one grid step = {fmt(grid.step)}")
    print(f"wrote {path}")
    return 0


def _claimed(path: str, game, grid: Grid) -> tuple[float, ...]:
    """The profile in ``path``, checked as ``classify_profile`` checks it."""
    profile = load_profile(path)
    try:
        _check_profile(game, profile, grid.x_max)
    except DomainError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return profile


def _cmd_loss(args, scenario: Scenario) -> int:
    game, grid = scenario.game, scenario.grid
    # deferral_loss classifies both profiles and raises on the wrong kind
    report = deferral_loss(game, _claimed(args.standard, game, grid),
                           _claimed(args.deferred, game, grid), grid, scenario.tolerance)
    out = _outdir(args, scenario)
    write_csv(out / "loss.csv",
              [f"gap_{i + 1}" for i in range(game.n)] + ["total"],
              [[fmt(g) for g in report.per_agent_gaps] + [fmt(report.total)]])
    gaps = ", ".join(fmt(g) for g in report.per_agent_gaps)
    print(f"deferral loss: total {fmt(report.total)} (per agent: {gaps})")
    return 0


def _cmd_reproduce(args, _scenario: None) -> int:
    out = Path(args.output_dir) if args.output_dir else Path(DEFAULT_OUTPUT_DIR) / args.case
    result = run_case(args.case, out)
    width = max(len(r.quantity) for r in result.rows)
    print(f"case {result.case}: oracle vs reference")
    for r in result.rows:
        note = f"  ({r.note})" if r.note else ""
        print(f"  {r.quantity:<{width}}  oracle={fmt(r.oracle):>14}  "
              f"reference={fmt(r.reference):>10}{note}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deferral",
        description="Two-stage fundamental choice under social pressure: "
                    "consideration sets, deferred choice, and game equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, mode):
        """Register a command; ``mode`` is the scenario mode it loads, or ``None`` for none."""
        p = sub.add_parser(name, help=help_text)
        if mode is not None:
            p.add_argument("scenario", help="path to a scenario JSON file")
            p.add_argument("--steps", type=int, help="override the scenario grid resolution")
            p.add_argument("--tolerance", type=float, help="override the regret tolerance")
        p.add_argument("--output-dir", help="directory for CSV outputs")
        p.set_defaults(func=func, mode=mode)
        return p

    add("consider", _cmd_consider, "consideration interval and grid maximal set", "single_agent")
    add("choose", _cmd_choose, "second-stage choice, unconstrained optimum, trap report",
        "single_agent")
    add("certify", _cmd_certify, "two-sequential-criteria certificate", "single_agent")

    p = add("best-response", _cmd_best_response, "best-response curve over an opponent sweep",
            "game")
    p.add_argument("--agent", type=int, required=True, help="agent index (1-based)")
    p.add_argument("--sweep", required=True, help="opponent values as lo:hi:n")
    p.add_argument("--method", choices=("grid", "exact"), default="grid")

    p = add("equilibria", _cmd_equilibria,
            "find equilibria (add --deferral for the constrained kind)", "game")
    p.add_argument("--deferral", action="store_true",
                   help="search for equilibria after deferral instead")

    p = add("loss", _cmd_loss, "deferral loss between two equilibrium profiles", "game")
    p.add_argument("--standard", required=True, help="JSON file with the standard-equilibrium profile")
    p.add_argument("--deferred", required=True, help="JSON file with the after-deferral profile")

    p = add("reproduce", _cmd_reproduce, "run a shipped case and write its discrepancy report",
            None)
    p.add_argument("--case", choices=CASES, required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged, so calls share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, None if args.mode is None else _load(args))
    except (ScenarioError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeferralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower the grid's steps (scenario steps or --steps)", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
