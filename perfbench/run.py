"""Benchmark of the deferral solver.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each run measures one workload (or each in turn with ``all``) in its own fresh
worker process: a closed loop with one client running operations back to
back through ``deferral.cli.main``.  The worker first runs one untimed round,
whose outputs this process checks against ``reference``; every timed
operation must then write the same CSV bytes as that round.  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``tracing.METRICS``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reproduce", "pair_tabulated", "lattice_trio", "agent_sweep")
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("ops_per_s", "1/s"),
              ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"))
COLD_STARTS = 9   # setup_s is the median of this many fresh interpreters
DEADLINE_S = 170  # a run must end within 180 s


# ---------------------------------------------------------------------------
# inside the fresh interpreters


def _solver():
    """Import ``deferral`` from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import deferral
    import deferral.cli

    if Path(deferral.__file__).resolve().parent != SRC / "deferral":
        raise SystemExit(f"deferral imported from {deferral.__file__}, not from {SRC}")
    return deferral


def _prepare(args):
    """Import the solver, write the seeded inputs and load them through it."""
    deferral = _solver()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir), SRC)
    for path in workload.scenarios:
        deferral.load_scenario(path)
    return deferral, workload


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _run_operation(cli, argvs) -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return all(cli.main(argv) == 0 for argv in argvs)


def cold_start(args) -> None:
    _prepare(args)
    print("ready", time.monotonic(), flush=True)


def worker(args) -> None:
    deferral, workload = _prepare(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.trace_alloc = True
    warm_dir, timed_dir = Path(args.workdir) / "warm", Path(args.workdir) / "timed"
    timed = workload.operations(timed_dir)

    warm_ok, warm_digest = [], []
    for p, argvs in enumerate(workload.operations(warm_dir)):
        warm_ok.append(_run_operation(deferral.cli, argvs))
        warm_digest.append(_digest(warm_dir / str(p)) if warm_ok[-1] else "")
    totals, threads = None, []
    if tracer:
        tracer.trace_alloc = False
        tracer.drain()
        tracer.counters.clear()
        totals = Counter()
        spans_file = OUT / "traces" / f"{args.workload}.csv"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text("op,thread,span,parent,name,start,end\n", encoding="utf-8")

    durations, cpu, same = [], [], [0] * len(timed)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for p, argvs in enumerate(timed):
            shutil.rmtree(timed_dir / str(p), ignore_errors=True)  # digest only this run's files
            c0, t0 = time.process_time(), time.perf_counter()
            ok = _run_operation(deferral.cli, argvs)
            t1, c1 = time.perf_counter(), time.process_time()
            durations.append(t1 - t0)
            cpu.append(c1 - c0)
            same[p] += ok and _digest(timed_dir / str(p)) == warm_digest[p]
            if tracer:
                spans = tracer.drain()
                threads.append(tracing.fold(spans, totals))
                tracing.write_spans(spans_file, len(durations), spans)
    elapsed = time.perf_counter() - start

    result = {"warm_ok": warm_ok, "same": same, "rounds": len(durations) // len(timed)}
    if tracer:
        result["per_layer"] = tracing.per_layer(totals, len(durations), threads,
                                              tracer.alloc_peaks, tracer.counters)
    else:
        result["metrics"] = {
            "op_s_p50": statistics.median(durations),
            "ops_per_s": len(durations) / elapsed,
            "cpu_s_per_op": statistics.median(cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------------------
# the driving process


def _child(role: str, args, workdir: Path, timeout: float) -> tuple[float, str]:
    """Run this file in a fresh interpreter; return its spawn time and last line."""
    # No interpreter writes bytecode, whatever the caller's environment says,
    # so a cold start does not depend on the runs before it.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if not args.trace:
        # One worker thread for the timed n-agent search: with the default two,
        # wall time on a 2-vCPU guest swings with the hypervisor's CPU steal
        # (32% between two sets of runs), far beyond any bound.  The traced
        # run keeps the caller's setting, by default the solver's own pool.
        env["DEFERRAL_WORKERS"] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    workdir.mkdir(parents=True)
    spawned = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{role} for {args.workload} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{role} for {args.workload} exited with code {proc.returncode}")
    return spawned, stdout.strip().splitlines()[-1]


def failed_operations(rounds: int, same: list[int], verified: list[bool]) -> int:
    """Operations that failed, over one untimed and ``rounds`` timed rounds.

    Position ``p`` of the round failed its checks unless ``verified[p]``;
    ``same[p]`` of its timed runs wrote the same bytes as its untimed run.
    A position that failed its checks fails every run; otherwise a timed run
    fails when its bytes differ.
    """
    return sum(rounds - s if ok else rounds + 1 for s, ok in zip(same, verified))


def run_workload(args, deadline: float) -> dict:
    import workloads  # needs numpy, which cold starts must import themselves

    base = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    def cold_starts(first: int, count: int) -> list[float]:
        times = []
        for k in range(first, first + count):
            spawned, line = _child("setup", args, base / f"setup{k}", deadline - time.monotonic())
            word, ready = line.split()
            if word != "ready":
                raise SystemExit(f"cold start printed {line!r}")
            times.append(float(ready) - spawned)
        return times

    try:
        # cold starts before and after the worker, so setup_s samples the
        # machine at both ends of the run rather than during a few seconds
        before = 0 if args.trace else COLD_STARTS // 2 + 1
        setup = cold_starts(0, before)
        _, line = _child("worker", args, base / "worker", deadline - time.monotonic() - 15)
        report = json.loads(line)
        if not args.trace:
            setup += cold_starts(before, COLD_STARTS - before)

        workload = workloads.WORKLOADS[args.workload](args.seed, base / "check", SRC)
        verified = []
        for p, ok in enumerate(report["warm_ok"]):
            try:
                problems = workload.verify(p, base / "worker" / "warm") if ok else ["the solver failed"]
            except Exception as exc:  # unreadable or missing output is a failed check
                problems = [f"outputs could not be checked: {exc!r}"]
            for message in problems:
                print(f"{args.workload} operation {p}: {message}", file=sys.stderr)
            verified.append(not problems)
        rounds = report["rounds"]
        attempted = len(verified) * (rounds + 1)
        failed = failed_operations(rounds, report["same"], verified)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if args.trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in report["per_layer"].items()}
    else:
        values = dict(report["metrics"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "worker"), default="run", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "setup":
        cold_start(args)
        return 0
    if args.role == "worker":
        worker(args)
        return 0

    if not (SRC / "deferral" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC / 'deferral'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    if args.workload != "all":
        print(json.dumps(run_workload(args, deadline)))
        return 0
    results = {}
    for name in WORKLOADS:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        results[name] = run_workload(one, time.monotonic() + DEADLINE_S)
        print(name, json.dumps(results[name]), flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
