"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
measured numbers (run pytest with ``-s`` to see them inline).  Randomized
criteria use fixed seeds so the suite is reproducible.
"""

import filecmp
import time

import numpy as np

import deferral as d
from conftest import point_mass, quad_agent, two_agent_game
from deferral.reproduce import load_bundled_scenario, run_case
from slice_argmax import interval_grid_indices

SEED = 20260811


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def _draw_stage_one(rng):
    u = d.Quadratic(rng.uniform(0.5, 5.0), rng.uniform(0.0, 20.0), rng.uniform(-5.0, 5.0))
    c1 = d.LinearCost(rng.uniform(1e-3, 10.0))
    x_social = float(rng.uniform(0.0, 10.0))
    return u, c1, x_social


def _draw_full_agent(rng):
    u, c1, x_social = _draw_stage_one(rng)
    agent = d.AgentSpec(
        utility=u,
        c1=c1,
        c2=d.LinearCost(rng.uniform(0.0, 10.0)),
        beliefs=(point_mass(rng.uniform(0.0, 20.0)),),
    )
    return agent, x_social


def test_criterion_1_interval_equivalence():
    rng = np.random.default_rng(SEED)
    grid = d.Grid(24.0, 800)
    started = time.perf_counter()
    for _ in range(200):
        u, c1, x_social = _draw_stage_one(rng)
        oracle = d.maximal_set_grid(u, c1, x_social, grid)
        closed = grid.points[interval_grid_indices(d.consideration_interval(u, c1, x_social), grid)]
        assert np.array_equal(oracle, closed)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"closed-form interval == grid oracle on 200 draws ({elapsed:.2f}s)")


def test_criterion_2_argmax_oracle():
    rng = np.random.default_rng(SEED)
    grid = d.Grid(24.0, 800)
    checked = 0
    for _ in range(200):
        agent, x_social = _draw_full_agent(rng)
        result = d.second_stage_choice(agent, x_social, grid)
        interval = d.consideration_interval(agent.utility, agent.c1, x_social)
        chosen = set(result.chosen)
        for x in grid.points[interval_grid_indices(interval, grid)]:
            value = d.comprehensive_value(agent, float(x), x_social)
            assert result.value >= value - 1e-12
            assert (float(x) in chosen) == (value >= result.value - 1e-12)
            checked += 1
    _report(2, f"argmax dominates every in-interval grid value ({checked} point checks)")


def test_criterion_3_sequential_criteria_certificate():
    rng = np.random.default_rng(SEED)
    grid = d.Grid(24.0, 400)
    slowest = 0.0
    for _ in range(100):
        agent, x_social = _draw_full_agent(rng)
        started = time.perf_counter()
        cert = d.two_criteria_certificate(agent, x_social, grid)
        slowest = max(slowest, time.perf_counter() - started)
        assert cert.holds
    assert slowest < 5.0
    _report(3, f"two-criteria certificate holds on 100 draws (slowest {slowest:.3f}s)")


def test_criterion_4_conformist_baseline():
    scenario = load_bundled_scenario("akerlof")
    game, grid = scenario.game, scenario.grid
    assert grid.steps == 1600
    started = time.perf_counter()
    standard = d.find_equilibria(game, grid)
    deferred = d.find_equilibria_after_deferral(game, grid)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    expected = [
        (float(x), float(x)) for x in grid.points if x <= 2.0 + grid.step / 2
    ]
    assert [c.profile for c in standard] == expected
    assert [c.profile for c in deferred] == expected
    assert expected[-1] == (2.0, 2.0)
    _report(4, f"conformist equilibria = diagonal [0, 2] ({len(expected)} profiles, "
               f"same set after deferral, {elapsed:.2f}s)")


def test_criterion_5_two_agent_symmetry():
    rng = np.random.default_rng(SEED)
    grid = d.Grid(8.0, 320)
    games = 0
    deferral_certs = 0
    symmetric_standard = 0
    while games < 50:
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(1.0, 8.0)
        if b / (2 * a) > 4.0:
            continue
        k = rng.uniform(-5.0, 5.0)

        def make_agent():
            c2 = d.LinearCost(0.0) if rng.uniform() < 0.3 else d.LinearCost(rng.uniform(0.0, 8.0))
            return quad_agent(
                a=a, b=b, k=k,
                c1=d.LinearCost(rng.uniform(0.3, 8.0)),
                c2=c2,
                belief=rng.uniform(0.0, 8.0),
            )

        game = two_agent_game(make_agent(), make_agent())
        deferred = d.find_equilibria_after_deferral(game, grid)
        assert deferred, "after-deferral set cannot be empty on this family"
        for cert in deferred:
            assert abs(cert.profile[0] - cert.profile[1]) <= grid.step + 1e-12
            deferral_certs += 1
        for cert in d.find_equilibria(game, grid):
            if cert.profile[0] == cert.profile[1]:
                assert cert.kind is d.EquilibriumKind.BOTH
                symmetric_standard += 1
        games += 1
    _report(5, f"symmetry held for {deferral_certs} after-deferral certificates and "
               f"{symmetric_standard} symmetric standard certificates across 50 games")


def test_criterion_6_worked_example_reproduction(tmp_path):
    scenario = load_bundled_scenario("example42")
    game, grid = scenario.game, scenario.grid
    result = run_case("example42", tmp_path)

    # (i) after-deferral set is diagonal; extent is reported against [1, 15/4]
    rows = {r.quantity: r for r in result.rows}
    assert rows["deferral_max_asymmetry"].oracle <= grid.step
    assert rows["deferral_diagonal_min"].reference == 1.0
    assert rows["deferral_diagonal_max"].reference == 3.75

    # (ii) the reference pair fails the after-deferral test: 4 sits outside
    # agent 2's interval against an opponent at 15/4
    cert = d.classify_profile(game, (3.75, 4.0), grid, scenario.tolerance)
    assert cert is None or cert.kind not in (
        d.EquilibriumKind.AFTER_DEFERRAL, d.EquilibriumKind.BOTH
    )
    interval = d.consideration_interval(game.agents[1].utility, game.agents[1].c1, 3.75)
    assert interval.hi == 3.75 < 4.0
    assert rows["reference_pair_is_after_deferral"].oracle == 0.0 == \
        rows["reference_pair_is_after_deferral"].reference

    # (iii) discrepancy report exists with oracle-vs-reference columns for
    # the reference constants
    for quantity, reference in (
        ("b1_low_plateau", 1.75),
        ("b2_low_plateau", 4.0),
        ("standard_diagonal_max", 3.75),
        ("welfare_gap_total_vs_1_1", 32.125),
        ("welfare_gap_total_vs_1.5_1.5", 21.625),
    ):
        assert rows[quantity].reference == reference
    report_csv = tmp_path / "discrepancy.csv"
    assert report_csv.exists()

    # internal consistency: every certificate in the emitted CSVs re-verifies
    reverified = 0
    for name in ("equilibria.csv", "deferral_equilibria.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x_1,x_2,kind,max_regret"
        for line in lines[1:]:
            x1, x2, kind, regret = line.split(",")
            profile = (float(x1), float(x2))
            again = d.classify_profile(game, profile, grid, scenario.tolerance)
            assert again is not None
            assert again.kind.value == kind
            assert float(regret) <= again.max_regret + 1e-9
            assert again.max_regret <= 1e-5
            reverified += 1
    _report(6, f"worked-example reproduction: {reverified} certificates re-verified, "
               f"report with {len(result.rows)} oracle-vs-reference rows")


def test_criterion_7_trap_property(trap_agent):
    rng = np.random.default_rng(SEED)
    grid = d.Grid(24.0, 800)
    for _ in range(100):
        if rng.uniform() < 0.5:
            c1 = d.LinearCost(rng.uniform(1e-3, 10.0))
        else:
            c1 = d.PowerCost(rng.uniform(1e-3, 10.0), rng.uniform(1.0, 2.5))
        agent = quad_agent(
            a=rng.uniform(0.5, 5.0), b=rng.uniform(0.0, 16.0), k=rng.uniform(-5.0, 5.0),
            c1=c1,
            c2=d.LinearCost(rng.uniform(0.0, 10.0)),
            belief=rng.uniform(0.0, 20.0),
            weights=(1.0, 1.0, 0.0),
        )
        report = d.detect_trap(agent, float(rng.uniform(0.0, 10.0)), grid)
        assert not report.trapped
        assert report.utility_gap == 0.0

    trap_grid = d.Grid(10.0, 4000)
    report = d.detect_trap(trap_agent, 2.0, trap_grid)
    assert report.trapped
    assert abs(report.x_hat - 3.25) <= trap_grid.step
    assert report.interval == d.ClosedInterval(1.0, 2.0)
    _report(7, "no trap on 100 draws without future weight; extreme-belief scenario "
               f"trapped at x_hat={report.x_hat}")


def test_criterion_8_reproduce_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_case("akerlof", first)
    run_case("akerlof", second)
    names = sorted(p.name for p in first.glob("*.csv"))
    assert names, "reproduce must write CSV files"
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name
        assert (first / name).read_bytes() == (second / name).read_bytes()
    _report(8, f"byte-identical CSVs across two runs ({', '.join(names)})")
