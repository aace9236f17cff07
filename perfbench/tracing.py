"""Per-layer spans for the traced run.

``Tracer.install`` replaces each layer's public functions with timing
wrappers in the namespaces of the ``deferral`` modules that call them; no
file of the solver changes.  A wrapper records a span (name, parent, start,
end) in a per-thread list plus the time its child spans took, so a layer's
self time is its span minus the spans it caused.  Spans stay in memory while
an operation runs and are written out after it, outside its timer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

# span name -> (defining module, functions, modules whose globals call them)
LAYERS = {
    "consideration.oracle": ("consideration", ("maximal_indices_grid",), ("consideration", "choice")),
    "consideration.interval": ("consideration", ("consideration_interval",), ("cli", "choice", "game")),
    "model.validate": ("model", ("require_valid",), ("consideration",)),
    "choice.kernel": ("choice", ("comprehensive_values",), ("choice", "game")),
    "choice.select": ("choice", ("second_stage_choice", "unconstrained_optimum", "detect_trap",
                                 "two_criteria_certificate"), ("cli", "reproduce", "choice")),
    "game.search": ("game", ("find_equilibria", "find_equilibria_after_deferral"), ("cli", "reproduce")),
    "game.best_response": ("game", ("best_response", "deferral_best_response"), ("game",)),
    "game.classify": ("game", ("classify_profile",), ("game", "reproduce", "welfare", "cli")),
    "game.curve": ("game", ("best_response_curve",), ("reproduce", "cli")),
    "welfare": ("welfare", ("welfare_gap", "deferral_loss", "pareto_dominates"), ("reproduce", "welfare", "cli")),
    "scenario.load": ("scenario", ("load_scenario", "parse_scenario"), ("cli", "reproduce")),
    "output.write": ("output", ("write_csv",), ("cli", "reproduce")),
    "reproduce": ("reproduce", ("run_case",), ("cli",)),
    "cli": ("cli", ("main",), ("cli",)),
}

#: Per-layer metrics, per operation: (name, unit, better).
METRICS = (
    ("consideration.oracle_s", "s", "lower"), ("consideration.oracle_calls", "count", "lower"),
    ("consideration.interval_s", "s", "lower"), ("consideration.interval_calls", "count", "lower"),
    ("model.validate_s", "s", "lower"), ("model.validate_calls", "count", "lower"),
    ("choice.kernel_s", "s", "lower"), ("choice.kernel_calls", "count", "lower"),
    ("choice.select_s", "s", "lower"),
    ("game.search_s", "s", "lower"), ("game.search_alloc_mb", "MB", "lower"),
    ("game.certificates", "count", "higher"),
    ("game.lattice_s", "s", "lower"),
    ("game.best_response_s", "s", "lower"), ("game.best_response_calls", "count", "lower"),
    ("game.worker_threads", "count", "lower"),
    ("game.classify_s", "s", "lower"), ("game.classify_calls", "count", "lower"),
    ("game.curve_s", "s", "lower"),
    ("welfare.s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("output.write_s", "s", "lower"), ("output.bytes", "bytes", "lower"),
    ("reproduce.self_s", "s", "lower"), ("cli.self_s", "s", "lower"),
)

NAME, PARENT, START, END, CHILD = range(5)


class Tracer:
    """Span recorder shared by every wrapper it installs."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[tuple[threading.Thread, list]] = []
        self.counters: Counter = Counter()
        self.trace_alloc = False  # measure tracemalloc peaks inside two-agent searches
        self.alloc_peaks: list[int] = []

    def _records(self) -> tuple[list, list]:
        local = self._local
        if not hasattr(local, "records"):
            local.records, local.stack = [], []
            self._threads.append((threading.current_thread(), local.records))
        return local.records, local.stack

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            records, stack = self._records()
            span = [name(args) if callable(name) else name, stack[-1] if stack else -1,
                    time.perf_counter(), 0.0, 0.0]
            stack.append(len(records))
            records.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if stack:
                    records[stack[-1]][CHILD] += span[END] - span[START]
            if after is not None:
                after(result)
            return result
        return timed

    def _search(self, fn):
        def search(game, *args, **kwargs):
            if not self.trace_alloc or game.n != 2:
                return fn(game, *args, **kwargs)
            tracemalloc.start()
            try:
                return fn(game, *args, **kwargs)
            finally:
                self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return search

    def install(self) -> None:
        """Wrap every layer function in each namespace that calls it."""
        def search_name(args):
            return "game.search" if args[0].n == 2 else "game.lattice"

        def count_certificates(certs):
            self.counters["game.certificates"] += len(certs)

        def count_bytes(path):
            self.counters["output.bytes"] += Path(path).stat().st_size

        for layer, (home, functions, callers) in LAYERS.items():
            for fname in functions:
                original = getattr(importlib.import_module(f"deferral.{home}"), fname)
                if layer == "game.search":
                    wrapper = self._wrap(search_name, self._search(original), count_certificates)
                elif layer == "output.write":
                    wrapper = self._wrap(layer, original, count_bytes)
                else:
                    wrapper = self._wrap(layer, original)
                for caller in callers:
                    module = importlib.import_module(f"deferral.{caller}")
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)

    def drain(self) -> list[tuple[threading.Thread, list]]:
        """Hand over and forget every span recorded since the last drain."""
        spans = []
        alive = []
        for thread, records in self._threads:
            spans.append((thread, list(records)))
            records.clear()
            if thread.is_alive():
                alive.append((thread, records))
        self._threads = alive
        return spans


def fold(spans, totals: Counter) -> int:
    """Add one operation's self times and call counts to ``totals``.

    Returns how many distinct threads ran best responses.
    """
    threads = set()
    for thread, records in spans:
        for span in records:
            name = span[NAME]
            totals[name + ".self"] += span[END] - span[START] - span[CHILD]
            totals[name + ".calls"] += 1
            if name == "game.best_response":
                threads.add(thread)
    return len(threads)


def write_spans(path: Path, op: int, spans) -> None:
    """Append one operation's spans as CSV: op, thread, span, parent, name, start, end."""
    with path.open("a", encoding="utf-8") as f:
        for thread, records in spans:
            f.writelines(f"{op},{thread.ident},{i},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r}\n"
                         for i, s in enumerate(records))


def per_layer(totals: Counter, ops: int, threads: list[int], alloc_peaks: list[int],
              counters: Counter) -> dict[str, float]:
    """Per-operation value of every metric in ``METRICS``."""
    def self_s(*names):
        return sum(totals[n + ".self"] for n in names) / ops

    def calls(name):
        return totals[name + ".calls"] / ops

    values = {
        "consideration.oracle_s": self_s("consideration.oracle"),
        "consideration.oracle_calls": calls("consideration.oracle"),
        "consideration.interval_s": self_s("consideration.interval"),
        "consideration.interval_calls": calls("consideration.interval"),
        "model.validate_s": self_s("model.validate"),
        "model.validate_calls": calls("model.validate"),
        "choice.kernel_s": self_s("choice.kernel"),
        "choice.kernel_calls": calls("choice.kernel"),
        "choice.select_s": self_s("choice.select"),
        "game.search_s": self_s("game.search"),
        "game.search_alloc_mb": max(alloc_peaks, default=0) / 2**20,
        "game.certificates": counters["game.certificates"] / ops,
        "game.lattice_s": self_s("game.lattice"),
        "game.best_response_s": self_s("game.best_response"),
        "game.best_response_calls": calls("game.best_response"),
        "game.worker_threads": sorted(threads)[len(threads) // 2] if threads else 0,
        "game.classify_s": self_s("game.classify"),
        "game.classify_calls": calls("game.classify"),
        "game.curve_s": self_s("game.curve"),
        "welfare.s": self_s("welfare"),
        "scenario.load_s": self_s("scenario.load"),
        "output.write_s": self_s("output.write"),
        "output.bytes": counters["output.bytes"] / ops,
        "reproduce.self_s": self_s("reproduce"),
        "cli.self_s": self_s("cli"),
    }
    return values
