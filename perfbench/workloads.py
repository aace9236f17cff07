"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload writes its scenario files once, then repeats a round of
operations.  Each operation is a list of ``deferral`` command lines run in
process through ``deferral.cli.main``, writing CSVs into the operation's own
output directory.  ``verify`` checks those CSVs against ``reference`` and
returns one message per disagreement; an empty list means correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from reference import Agent

REPRODUCE_CASES = ("akerlof", "example42", "trap")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= 1e-9 * (scale + abs(want))


def _agent_json(agent: dict) -> Agent:
    """Reference agent from a scenario's agent object (linear or zero costs)."""
    def slope(cost):
        return cost["d"] if cost["variant"] == "linear" else 0.0

    util = agent["utility"]
    means = [sum(v * p for v, p in belief) for belief in agent["beliefs"]]
    future = float(np.mean(means))
    if util["variant"] == "quadratic":
        return Agent(slope(agent["c1"]), slope(agent["c2"]), future,
                     quad=(util["a"], util["b"], util.get("k", 0.0)))
    return Agent(slope(agent["c1"]), slope(agent["c2"]), future, table=tuple(util["values"]))


def _linear(d: float) -> dict:
    return {"variant": "linear", "d": d}


# ---------------------------------------------------------------------------
# checks shared by several workloads


def check_equilibria(path: Path, pts: np.ndarray, expected, tol: float) -> list[str]:
    """Compare an equilibria CSV row by row with the reference certificates."""
    header, rows = read_csv(path)
    n = len(header) - 2
    got = []
    for row in rows:
        idx = tuple(ref.grid_index_of(pts, float(x)) for x in row[:n])
        if None in idx:
            return [f"{path.name}: profile ({', '.join(row[:n])}) is not on the grid"]
        got.append((idx, row[n], float(row[n + 1])))
    want = {e.profile: e for e in expected}
    have = {g[0] for g in got}
    problems = []
    missing = [p for p in want if p not in have]
    extra = [p for p in have if p not in want]

    def show(p):
        return "(" + ", ".join(f"{pts[i]:.6g}" for i in p) + ")"

    if missing:
        problems.append(f"{path.name}: {len(missing)} certificate(s) missing, e.g. {show(missing[0])}")
    if extra:
        problems.append(f"{path.name}: {len(extra)} certificate(s) not equilibria, e.g. {show(extra[0])}")
    if len(have) != len(got):
        problems.append(f"{path.name}: duplicate certificates")
    if [g[0] for g in got] != sorted(g[0] for g in got):
        problems.append(f"{path.name}: certificates not sorted by profile")
    for profile, kind, regret in got:
        e = want.get(profile)
        if e is None:
            continue
        if kind != e.kind:
            problems.append(f"{path.name}: {show(profile)} has kind {kind}, want {e.kind}")
        if regret > tol or not _close(regret, e.max_regret, tol):
            problems.append(f"{path.name}: {show(profile)} max_regret {regret!r}, "
                            f"want {e.max_regret!r} within tolerance {tol!r}")
    return problems[:8]


def check_curve(path: Path, agent: Agent, pts: np.ndarray) -> list[str]:
    """Best responses must sit within one grid step of the exact maximizer."""
    _, rows = read_csv(path)
    step = pts[1] - pts[0]
    problems = []
    for opp, br, ties in rows:
        exact = ref.kinked_argmax(agent, float(opp), 0.0, float(pts[-1]))
        if abs(float(br) - exact) > step * (1 + 1e-9) or int(ties) < 1:
            problems.append(f"{path.name}: best response {br} to {opp}, exact {exact:.6g}")
    if len(rows) != 81:
        problems.append(f"{path.name}: {len(rows)} sweep rows, want 81")
    return problems[:8]


def check_rows(path: Path, want: dict[str, float]) -> list[str]:
    """Discrepancy-report rows whose oracle value has a closed form."""
    _, rows = read_csv(path)
    got = {r[0]: float(r[1]) for r in rows}
    problems = []
    for quantity, value in want.items():
        if quantity not in got:
            problems.append(f"{path.name}: row {quantity} missing")
        elif not _close(got[quantity], value, 1.0):
            problems.append(f"{path.name}: {quantity} = {got[quantity]!r}, want {value!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs plus one round of operations; subclasses fill these in."""

    name = ""

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.src = src
        self.rng = np.random.default_rng(seed % 2**63)
        self.scenarios: list[Path] = []

    def _write(self, name: str, data: dict) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(data), encoding="utf-8")
        self.scenarios.append(path)
        return path

    def operations(self, out: Path) -> list[list[list[str]]]:
        """One entry per operation of a round: the command lines it runs,
        writing into ``out / str(position)``."""
        raise NotImplementedError

    def verify(self, position: int, out: Path) -> list[str]:
        """Check the CSVs operation ``position`` wrote into ``out / str(position)``."""
        raise NotImplementedError


class Reproduce(Workload):
    """``deferral reproduce`` for every bundled case; the seed orders the cases."""

    name = "reproduce"

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.cases = tuple(self.rng.permutation(REPRODUCE_CASES))
        self.scenarios = [src / "deferral" / "scenarios" / f"{c}.json" for c in REPRODUCE_CASES]

    def operations(self, out):
        return [[["reproduce", "--case", c, "--output-dir", str(out / "0" / c)] for c in self.cases]]

    def _params(self, case):
        return json.loads((self.src / "deferral" / "scenarios" / f"{case}.json").read_text("utf-8"))

    def verify(self, position, out):
        out = out / str(position)
        return self.verify_akerlof(out / "akerlof") + self.verify_example42(out / "example42") \
            + self.verify_trap(out / "trap")

    def _game(self, case):
        data = self._params(case)
        pts = ref.grid_points(data["x_max"], data["steps"])
        return data, pts, [_agent_json(a) for a in data["agents"]]

    def verify_akerlof(self, out: Path) -> list[str]:
        data, pts, agents = self._game("akerlof")
        a, b, _ = agents[0].quad
        lo, hi = (b - agents[0].d1) / (2 * a), (b + agents[0].d1) / (2 * a)
        diagonal = [(j, j) for j in range(len(pts)) if lo - 1e-9 <= pts[j] <= hi + 1e-9]
        tol, found = ref.two_agent_equilibria(agents, pts, exact_family=True)
        problems = []
        for name, test in (("equilibria.csv", "standard"), ("deferral_equilibria.csv", "deferral")):
            want = [e for e in found if getattr(e, test)]
            if [e.profile for e in want] != diagonal:
                problems.append(f"akerlof: reference {test} set is not the diagonal [{lo}, {hi}]")
            problems += check_equilibria(out / name, pts, want, tol)
        for i in (0, 1):
            problems += check_curve(out / f"best_response_agent{i + 1}.csv", agents[i], pts)
        problems += check_rows(out / "discrepancy.csv", {
            "standard_diagonal_min": lo, "standard_diagonal_max": hi, "standard_max_asymmetry": 0.0,
            "deferral_diagonal_min": lo, "deferral_diagonal_max": hi, "deferral_max_asymmetry": 0.0,
            "deferral_equals_standard": 1.0,
        })
        return problems

    def verify_example42(self, out: Path) -> list[str]:
        data, pts, agents = self._game("example42")
        tol, found = ref.two_agent_equilibria(agents, pts, exact_family=True)
        standard = [e for e in found if e.standard]
        deferred = [e for e in found if e.deferral]
        problems = check_equilibria(out / "equilibria.csv", pts, standard, tol)
        problems += check_equilibria(out / "deferral_equilibria.csv", pts, deferred, tol)
        for i in (0, 1):
            problems += check_curve(out / f"best_response_agent{i + 1}.csv", agents[i], pts)

        def u(i, p):
            return agents[i].value(p[i], p[1 - i], pts)

        def gap(p, q):
            return sum(u(i, p) - u(i, q) for i in (0, 1))

        def extent(certs):
            xs = [pts[e.profile[0]] for e in certs]
            skew = max(abs(pts[e.profile[0]] - pts[e.profile[1]]) for e in certs)
            return min(xs), max(xs), skew

        pair = (3.75, 4.0)
        at_pair, _ = ref.classify(agents, pts, tuple(ref.grid_index_of(pts, x) for x in pair))
        s_lo, s_hi, s_skew = extent(standard)
        d_lo, d_hi, d_skew = extent(deferred)
        x_max = float(pts[-1])
        problems += check_rows(out / "discrepancy.csv", {
            "standard_count": float(len(standard)),
            "standard_diagonal_min": s_lo, "standard_diagonal_max": s_hi,
            "standard_max_asymmetry": s_skew,
            "deferral_diagonal_min": d_lo, "deferral_diagonal_max": d_hi,
            "deferral_max_asymmetry": d_skew,
            "reference_pair_is_standard": float(at_pair.standard),
            "reference_pair_is_after_deferral": float(at_pair.deferral),
            "payoff1_at_2_2": u(0, (2.0, 2.0)),
            "payoff1_at_reference_pair": u(0, pair),
            "welfare_gap_total_vs_1_1": gap(pair, (1.0, 1.0)),
            "welfare_gap_total_vs_1.5_1.5": gap(pair, (1.5, 1.5)),
            # the guarded loss refuses a pair that is no pure standard equilibrium
            **({} if at_pair.kind == "standard" else {"guarded_loss_vs_1_1": math.nan}),
        })
        _, rows = read_csv(out / "discrepancy.csv")
        got = {r[0]: float(r[1]) for r in rows}
        step = pts[1] - pts[0]
        for name, i, opp in (("b1_low_plateau", 0, 0.0), ("b1_high_plateau", 0, x_max),
                             ("b2_low_plateau", 1, 0.0), ("b2_high_plateau", 1, x_max)):
            exact = ref.kinked_argmax(agents[i], opp, 0.0, x_max)
            if name not in got or abs(got[name] - exact) > step * (1 + 1e-9):
                problems.append(f"discrepancy.csv: {name} = {got.get(name)}, exact {exact:.6g}")
        return problems

    def verify_trap(self, out: Path) -> list[str]:
        data = self._params("trap")
        pts = ref.grid_points(data["x_max"], data["steps"])
        agent = _agent_json(data["agent"])
        x_s = data["x_s"]
        lo, hi = (float(v) for v in ref.consideration_interval(agent, x_s, pts))
        x_hat = ref.kinked_argmax(agent, x_s, 0.0, float(pts[-1]))
        chosen = ref.kinked_argmax(agent, x_s, lo, hi)
        step = pts[1] - pts[0]
        trapped = x_hat < lo - step or x_hat > hi + step
        _, rows = read_csv(out / "trap_report.csv")
        got = {r[0]: float(r[1]) for r in rows}
        problems = []
        for name, want in (("x_hat", x_hat), ("constrained_choice", chosen)):
            if abs(got.get(name, math.inf) - want) > step * (1 + 1e-9):
                problems.append(f"trap_report.csv: {name} = {got.get(name)}, exact {want:.6g}")
        v_hat, v_chosen = agent.value(got["x_hat"], x_s, pts), agent.value(got["constrained_choice"], x_s, pts)
        problems += check_rows(out / "trap_report.csv", {
            "interval_lo": lo, "interval_hi": hi, "trapped": float(trapped),
            "utility_gap": v_hat - v_chosen if trapped else 0.0,
            "constrained_value": v_chosen, "unconstrained_value": v_hat,
        })
        problems += check_rows(out / "discrepancy.csv", {
            "x_hat": got["x_hat"], "interval_lo": lo, "interval_hi": hi, "trapped": float(trapped),
        })
        return problems


class PairTabulated(Workload):
    """``equilibria`` with and without ``--deferral`` on two bell-shaped utilities.

    The shapes are fixed; the seed translates the whole game by up to 60 grid
    steps and may swap the agents.  The equilibrium set stays clear of the
    grid's ends, so every seed does the same work.
    """

    name = "pair_tabulated"
    x_max, steps = 8.0, 1600
    peaks, sigma, height, d1, d2, centre = (720, 880), 2.0, 6.0, 2.0, 0.5, 800

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.shift = int(self.rng.integers(-60, 61))
        order = self.peaks if self.rng.integers(2) == 0 else self.peaks[::-1]
        j = np.arange(self.steps + 1)
        step = self.x_max / self.steps
        future = (self.centre + self.shift) * self.x_max / self.steps
        self.agents = []
        for peak in order:
            z = (j - (peak + self.shift)) * step / self.sigma
            values = tuple(float(v) for v in self.height * np.exp(-0.5 * z * z))
            self.agents.append(Agent(self.d1, self.d2, future, table=values))
        self.scenario = self._write("pair.json", {
            "mode": "game", "x_max": self.x_max, "steps": self.steps,
            "agents": [{"utility": {"variant": "tabulated", "values": list(a.table)},
                        "c1": _linear(a.d1), "c2": _linear(a.d2),
                        "beliefs": [[[a.future, 1.0]]]} for a in self.agents],
        })

    def operations(self, out):
        out = str(out / "0")
        return [[["equilibria", str(self.scenario), "--output-dir", out],
                 ["equilibria", str(self.scenario), "--deferral", "--output-dir", out]]]

    def verify(self, position, out):
        pts = ref.grid_points(self.x_max, self.steps)
        tol, found = ref.two_agent_equilibria(self.agents, pts, exact_family=False)
        out = out / str(position)
        return (check_equilibria(out / "equilibria.csv", pts, [e for e in found if e.standard], tol)
                + check_equilibria(out / "deferral_equilibria.csv", pts,
                                   [e for e in found if e.deferral], tol))


class LatticeTrio(Workload):
    """``equilibria`` with and without ``--deferral`` on a 3-agent quadratic game.

    The seed permutes the agents and adds a constant to each utility.  Neither
    changes any choice, and the start lattice is symmetric, so every seed runs
    the same number of best responses.
    """

    name = "lattice_trio"
    x_max, steps = 8.0, 400
    base = ((2.0, 4.0, 1.0), (1.0, 6.0, 1.5), (2.0, 10.0, 1.0))  # (a, b, d1); peaks 1, 3, 2.5
    d2, belief = 0.5, 4.0

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        self.agents = [Agent(d1, self.d2, self.belief, quad=(a, b, float(self.rng.integers(0, 10))))
                       for a, b, d1 in (self.base[i] for i in self.rng.permutation(3))]
        self.scenario = self._write("trio.json", {
            "mode": "game", "x_max": self.x_max, "steps": self.steps,
            "agents": [{"utility": {"variant": "quadratic", "a": a.quad[0], "b": a.quad[1], "k": a.quad[2]},
                        "c1": _linear(a.d1), "c2": _linear(a.d2),
                        "beliefs": [[[self.belief, 1.0]]] * 2} for a in self.agents],
        })

    def operations(self, out):
        out = str(out / "0")
        return [[["equilibria", str(self.scenario), "--output-dir", out],
                 ["equilibria", str(self.scenario), "--deferral", "--output-dir", out]]]

    def verify(self, position, out):
        pts = ref.grid_points(self.x_max, self.steps)
        out = out / str(position)
        problems = []
        for name, restricted, test in (("equilibria.csv", False, "standard"),
                                       ("deferral_equilibria.csv", True, "deferral")):
            fixed = ref.lattice_fixed_points(self.agents, pts, restricted)
            judged = [ref.classify(self.agents, pts, p) for p in fixed]
            certs = [c for c, _ in judged]
            if not all(getattr(c, test) for c in certs):
                problems.append(f"{name}: a reference fixed point fails the {test} test")
            tol = max((t for _, t in judged), default=0.0)
            problems += check_equilibria(out / name, pts, certs, tol)
        return problems


class AgentSweep(Workload):
    """``consider``, ``choose`` and ``certify`` for one seeded agent.

    A round visits eight fixed social choices, one operation each; the grid
    size fixes the cost of the O(m^2) dominance oracle whatever the seed.
    """

    name = "agent_sweep"
    x_max, steps = 8.0, 4000
    sweep = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5)

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir, src)
        r = self.rng
        a = float(r.uniform(0.5, 2.0))
        peak = float(r.uniform(1.0, 7.0))
        atoms = sorted(float(v) for v in r.uniform(0.0, self.x_max, 2))
        self.agent_json = {
            "utility": {"variant": "quadratic", "a": a, "b": 2 * a * peak, "k": float(r.uniform(0, 5))},
            "c1": _linear(float(r.uniform(0.5, 3.0))), "c2": _linear(float(r.uniform(0.5, 3.0))),
            "beliefs": [[[atoms[0], 0.5], [atoms[1], 0.5]]],
        }
        self.agent = _agent_json(self.agent_json)
        self.paths = [self._write(f"agent{p}.json", {
            "mode": "single_agent", "x_max": self.x_max, "steps": self.steps, "x_s": x_s,
            "agent": self.agent_json}) for p, x_s in enumerate(self.sweep)]

    def operations(self, out):
        return [[[cmd, str(path), "--output-dir", str(out / str(p))] for cmd in ("consider", "choose", "certify")]
                for p, path in enumerate(self.paths)]

    def verify(self, position, out):
        agent, x_s, out = self.agent, self.sweep[position], out / str(position)
        pts = ref.grid_points(self.x_max, self.steps)
        step = pts[1] - pts[0]
        problems = []
        lo, hi = (float(v) for v in ref.consideration_interval(agent, x_s, pts))
        survivors = ref.undominated_indices(agent, x_s, pts)
        _, rows = read_csv(out / "consideration.csv")
        got = [ref.grid_index_of(pts, float(r[0])) for r in rows]
        if got != survivors.tolist():
            problems.append(f"consideration.csv: {len(got)} points, the dominance scan keeps "
                            f"{len(survivors)} on [{pts[survivors[0]]:.6g}, {pts[survivors[-1]]:.6g}]")
        if abs(pts[survivors[0]] - lo) > step or abs(pts[survivors[-1]] - hi) > step:
            problems.append(f"dominance scan disagrees with the interval [{lo:.6g}, {hi:.6g}]")

        values = ref._payoffs(agent, pts, np.array([x_s]))[0]
        i_lo, i_hi = (int(i) for i in ref.interval_index_range(pts, lo, hi))
        inside = values[i_lo:i_hi + 1]
        ties = np.flatnonzero(inside >= inside.max() - ref.TIE) + i_lo
        x_hat = float(pts[int(np.argmax(values))])
        trapped = x_hat < lo - step or x_hat > hi + step
        chosen = float(pts[ties[0]])
        exact_hat = ref.kinked_argmax(agent, x_s, 0.0, self.x_max)
        exact_choice = ref.kinked_argmax(agent, x_s, lo, hi)
        if abs(x_hat - exact_hat) > step or abs(chosen - exact_choice) > step:
            problems.append("grid argmax disagrees with the kinked-concave maximizer")
        v_hat, v_chosen = agent.value(x_hat, x_s, pts), agent.value(chosen, x_s, pts)
        header, rows = read_csv(out / "choose.csv")
        row = dict(zip(header, (float(v) for v in rows[0])))
        want = {"chosen": chosen, "value": v_chosen, "tie_count": float(len(ties)), "x_hat": x_hat,
                "trapped": float(trapped), "utility_gap": v_hat - v_chosen if trapped else 0.0,
                "interval_lo": lo, "interval_hi": hi}
        for key, value in want.items():
            if key not in row or not _close(row[key], value, 1.0):
                problems.append(f"choose.csv: {key} = {row.get(key)!r}, want {value!r}")
        gamma = survivors[values[survivors] >= values[survivors].max() - ref.TIE]
        header, rows = read_csv(out / "certify.csv")
        row = dict(zip(header, (float(v) for v in rows[0])))
        for key, value in (("holds", float(gamma.tolist() == ties.tolist())),
                           ("selection_size", float(len(gamma))), ("stage1_size", float(len(survivors)))):
            if row.get(key) != value:
                problems.append(f"certify.csv: {key} = {row.get(key)!r}, want {value!r}")
        return problems


WORKLOADS = {w.name: w for w in (Reproduce, PairTabulated, LatticeTrio, AgentSweep)}
