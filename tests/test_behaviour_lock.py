"""Behaviour lock: every subcommand's CSVs compared with committed outputs.

Each subcommand runs with ``--tiny --seed 0`` on ``data/lock/lock.ini`` and
its CSVs are compared with the expected copies in ``data/lock/<command>/``.
``attack`` also runs at full size (the default 64 x 64 planner grid over 41
steps, without ``--tiny``) against ``data/lock/attack-full/``.
Headers, row counts, strings and integer fields must match exactly; float
fields must agree within RTOL/ATOL, which leaves room for a refactor that
reorders floating-point sums but not for one that changes a result.

To refresh the expected files after a deliberate change of results, run from
the repository root, for each command:

    PYTHONPATH=src python -m csbsim.cli <command> --tiny --seed 0 \\
        --config tests/data/lock/lock.ini --out tests/data/lock/<command>

and the same without ``--tiny`` for ``attack`` into ``tests/data/lock/attack-full``.

Two more checks run the BLAS-heavy subcommands and require the same bytes
each way. One runs them in this process with numpy's OpenBLAS at two threads
and at one (skipped under another BLAS); ``main`` holds OpenBLAS to one
thread, so that check calls the subcommands without it. The other runs them
in a child process limited to one CPU against this process on every CPU it
may use; mixture_mis runs MI_WORKERS workers in both, two threads on one
CPU in the child.
"""

import dataclasses
import math
import os
import subprocess
import sys

import pytest

import csbsim
from csbsim import cli
from csbsim.cli import load_config, main

LOCK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "lock")
# (expected-copy directory, subcommand, extra flags)
CASES = [(command, command, ["--tiny"]) for command in ("beam-pattern", "smi-sweep", "attack", "ser", "apn-dist")]
CASES.append(("attack-full", "attack", []))
RTOL = 1e-9
ATOL = 1e-12
# Columns written as integers; every other non-string column is a float.
INT_COLUMNS = {
    "apn_dist.csv": {"g"},
    "smi_theory.csv": {"eve_grid_i", "g"},
    "ser_sweep.csv": {"trials"},
    "eve_constellation.csv": {"true_symbol_index"},
}


def _read(path):
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == "", f"{path} does not end in a newline"
    return lines[0], [line.split(",") for line in lines[1:-1]]


def _field_matches(value, expected, is_int):
    if value == expected:
        return True
    if is_int:
        return False
    try:
        a, b = float(value), float(expected)
    except ValueError:  # strings and empty fields match only exactly
        return False
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


@pytest.mark.parametrize("case,command,flags", CASES, ids=[case for case, _, _ in CASES])
def test_outputs_match_locked_copies(case, command, flags, tmp_path, capsys):
    expected_dir = os.path.join(LOCK_DIR, case)
    argv = [command, *flags, "--seed", "0", "--config", os.path.join(LOCK_DIR, "lock.ini")]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(expected_dir))
    for name in sorted(os.listdir(expected_dir)):
        header, rows = _read(os.path.join(tmp_path, name))
        exp_header, exp_rows = _read(os.path.join(expected_dir, name))
        assert header == exp_header, name
        assert len(rows) == len(exp_rows), name
        int_cols = INT_COLUMNS.get(name, set())
        columns = exp_header.split(",")
        for r, (row, exp_row) in enumerate(zip(rows, exp_rows)):
            assert len(row) == len(exp_row), f"{name} row {r + 1}"
            for col, value, expected in zip(columns, row, exp_row):
                assert _field_matches(value, expected, col in int_cols), (
                    f"{name} row {r + 1} column {col}: {value!r} != {expected!r}"
                )


COMMANDS = ["beam-pattern", "smi-sweep", "ser"]


def test_one_blas_thread_writes_identical_bytes(tmp_path):
    get, set_threads = cli._openblas("get_num_threads"), cli._openblas("set_num_threads")
    if get is None or set_threads is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    cfg = dataclasses.replace(load_config(os.path.join(LOCK_DIR, "lock.ini")), tiny=True, seed=0)
    for threads in (2, 1):
        set_threads(threads)
        assert get() == threads
        for command in COMMANDS:
            os.makedirs(tmp_path / str(threads) / command)
            for name, table in cli._COMMANDS[command](cfg).items():
                cli._write_csv(str(tmp_path / str(threads) / command / name), *table)
    for command in COMMANDS:
        names = sorted(os.listdir(tmp_path / "2" / command))
        assert names == sorted(os.listdir(tmp_path / "1" / command))
        for name in names:
            one = (tmp_path / "1" / command / name).read_bytes()
            assert (tmp_path / "2" / command / name).read_bytes() == one, f"{command}: {name}"


# A child process that runs each named subcommand --tiny on a config into
# <out>/<command>, on one of this process's CPUs:
# python -c CHILD <config> <out> <command>...
CHILD = """
import os, sys
from csbsim.cli import main
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
config, out, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
for command in commands:
    assert main([command, "--tiny", "--seed", "0", "--config", config, "--out", os.path.join(out, command)]) == 0
"""


def test_one_cpu_writes_identical_bytes(tmp_path, capsys):
    config = os.path.join(LOCK_DIR, "lock.ini")
    src = os.path.dirname(os.path.dirname(os.path.abspath(csbsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        [sys.executable, "-c", CHILD, config, str(tmp_path / "one"), *COMMANDS],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    ) as child:
        for command in COMMANDS:
            argv = [command, "--tiny", "--seed", "0", "--config", config]
            assert main(argv + ["--out", str(tmp_path / "all" / command)]) == 0
        stderr = child.communicate()[1]
    assert child.returncode == 0, stderr
    for command in COMMANDS:
        names = sorted(os.listdir(tmp_path / "all" / command))
        assert names == sorted(os.listdir(tmp_path / "one" / command))
        for name in names:
            one = (tmp_path / "one" / command / name).read_bytes()
            assert (tmp_path / "all" / command / name).read_bytes() == one, f"{command}: {name}"
    capsys.readouterr()
