"""The benchmark's output checks must reject planted wrong answers.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs one round at its benchmark size; every test then corrupts one
CSV the way a faulty solver might and expects ``verify`` to object.  The untouched
outputs must pass, so a check that rejects everything cannot hide either.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import deferral.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _solve(tmp_path_factory, cls):
    workdir = tmp_path_factory.mktemp(cls.name)
    workload = cls(3, workdir, SRC)
    for argvs in workload.operations(workdir / "out"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert all(deferral.cli.main(argv) == 0 for argv in argvs)
    return workload, workdir / "out"


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    return _solve(tmp_path_factory, workloads.PairTabulated)


@pytest.fixture(scope="module")
def trio(tmp_path_factory):
    return _solve(tmp_path_factory, workloads.LatticeTrio)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _solve(tmp_path_factory, workloads.AgentSweep)


@pytest.fixture(scope="module")
def reproduce(tmp_path_factory):
    return _solve(tmp_path_factory, workloads.Reproduce)


def _planted(solved, tmp_path, position, name, edit):
    """Copy the outputs, apply ``edit`` to the lines of one CSV, verify."""
    workload, out = solved
    copy = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    shutil.copytree(out, copy)
    path = copy / str(position) / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return workload.verify(position, copy)


def _set(lines, quantity, value):
    """Replace a named cell: a column of a one-row CSV or a report row."""
    header = lines[0].split(",")
    if quantity in header:
        row = lines[1].split(",")
        row[header.index(quantity)] = value
        return [lines[0], ",".join(row)]
    return [",".join([quantity, value] + line.split(",")[2:]) if line.split(",")[0] == quantity
            else line for line in lines]


def _shift_first(lines, step):
    row = lines[1].split(",")
    row[0] = format(float(row[0]) + step, ".12g")
    return [lines[0], ",".join(row)] + lines[2:]


@pytest.mark.parametrize("name", ["pair", "trio", "sweep", "reproduce"])
def test_correct_outputs_pass(name, request):
    workload, out = request.getfixturevalue(name)
    positions = len(workload.operations(out))
    assert all(workload.verify(p, out) == [] for p in range(positions))


@pytest.mark.parametrize("name,csv", [("pair", "equilibria.csv"), ("pair", "deferral_equilibria.csv"),
                                      ("trio", "equilibria.csv"), ("trio", "deferral_equilibria.csv")])
def test_profile_shifted_by_one_step(name, csv, request, tmp_path):
    workload = request.getfixturevalue(name)[0]
    step = workload.x_max / workload.steps
    assert _planted(request.getfixturevalue(name), tmp_path, 0, csv, lambda ls: _shift_first(ls, step))


@pytest.mark.parametrize("name,csv", [("pair", "equilibria.csv"), ("trio", "deferral_equilibria.csv")])
def test_dropped_certificate(name, csv, request, tmp_path):
    assert _planted(request.getfixturevalue(name), tmp_path, 0, csv, lambda ls: ls[:1] + ls[2:])


def test_added_certificate(pair, tmp_path):
    workload = pair[0]
    extra = f"0,{workload.x_max:.12g},standard,0"
    assert _planted(pair, tmp_path, 0, "equilibria.csv", lambda ls: ls[:1] + [extra] + ls[1:])


def test_duplicated_certificate(trio, tmp_path):
    assert _planted(trio, tmp_path, 0, "equilibria.csv", lambda ls: ls[:2] + ls[1:])


def test_wrong_kind(pair, tmp_path):
    def relabel(lines):
        row = lines[1].split(",")
        row[2] = "after_deferral" if row[2] != "after_deferral" else "both"
        return [lines[0], ",".join(row)] + lines[2:]

    assert _planted(pair, tmp_path, 0, "equilibria.csv", relabel)


def test_wrong_interval_endpoint(sweep, tmp_path):
    step = sweep[0].x_max / sweep[0].steps

    def widen(lines):
        hi = float(dict(zip(lines[0].split(","), lines[1].split(",")))["interval_hi"])
        return _set(lines, "interval_hi", format(hi + step, ".12g"))

    assert _planted(sweep, tmp_path, 2, "choose.csv", widen)
    assert _planted(sweep, tmp_path, 2, "consideration.csv", lambda ls: ls[:-1])


def test_flipped_trap_flag(sweep, reproduce, tmp_path):
    def flip(lines):
        trapped = dict(zip(lines[0].split(","), lines[1].split(",")))["trapped"]
        return _set(lines, "trapped", "0" if trapped == "1" else "1")

    assert all(_planted(sweep, tmp_path, p, "choose.csv", flip) for p in range(len(sweep[0].sweep)))
    assert _planted(reproduce, tmp_path, 0, "trap/trap_report.csv",
                    lambda ls: _set(ls, "trapped", "0"))


def test_wrong_closed_form_row(reproduce, tmp_path):
    assert _planted(reproduce, tmp_path, 0, "example42/discrepancy.csv",
                    lambda ls: _set(ls, "payoff1_at_2_2", "-261"))


def test_akerlof_diagonal_cut_short(reproduce, tmp_path):
    assert _planted(reproduce, tmp_path, 0, "akerlof/deferral_equilibria.csv", lambda ls: ls[:-1])


def test_failed_operations_count():
    # one position verified, one not: its untimed run and every timed run fail
    assert run.failed_operations(rounds=4, same=[4, 4], verified=[True, False]) == 5
    # a timed run whose bytes differ from the checked round fails on its own
    assert run.failed_operations(rounds=4, same=[3, 4], verified=[True, True]) == 1
