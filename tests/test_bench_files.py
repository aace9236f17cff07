"""Every committed ``BENCH_*.json`` is a whole before-and-after benchmark record.

A record holds the output of ``perfbench/run.py --workload all`` for the
parent commit and for the change, and the core count of the machine that
ran both.  Each side must cover every workload of ``BENCHMARK.json``, with
every operation correct and every end-to-end metric present.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_is_whole(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record["cores"], int) and record["cores"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for side in ("parent", "change"):
        results = record[side]["results"]
        assert sorted(results) == sorted(w["name"] for w in BENCHMARK["workloads"]), side
        for workload, run in results.items():
            where = f"{side} {workload}"
            assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0, where
            for name, unit in units.items():
                metric = run["metrics"][name]
                assert metric["unit"] == unit, f"{where} {name}"
                assert math.isfinite(metric["value"]) and metric["value"] > 0, f"{where} {name}"
