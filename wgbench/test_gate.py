"""The gate must catch a flipped table entry, a changed CSV byte and a failed exit.

Uses three small jobs of the ``tables`` workload, so it runs in seconds:

    python3 -m pytest wgbench/test_gate.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from spawner import Spawner  # noqa: E402

sys.path.insert(0, str(run.SRC))
import gate  # noqa: E402
import workloads  # noqa: E402

NAMES = (
    "table-unitary-n4-tau_symbolic-json",
    "table-orthogonal-n3-tau_symbolic-json",
    "table-unitary-n5-tau_drawn-csv",
)
OTHER_SEED = workloads.DEFAULT_SEED + 1  # no digests, so only the structural checks act


@pytest.fixture(scope="module")
def spawner():
    with Spawner() as s:
        yield s


@pytest.fixture(scope="module")
def outputs(spawner, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("gate")
    env = run.job_env(workdir / "cache")
    jobs = [j for j in workloads.jobs("tables", workloads.DEFAULT_SEED) if j.name in NAMES]
    assert len(jobs) == len(NAMES)
    return {j.name: (j, spawner.execute(run.weingarten_argv(j), env, workdir)) for j in jobs}


def error_rate(outputs, seed: int = workloads.DEFAULT_SEED, tamper=None) -> float:
    check = gate.Gate("tables", seed, json.loads(run.DIGESTS.read_text()))
    errors = []
    for name, (job, res) in outputs.items():
        rc, out = res.rc, res.out
        if tamper is not None and name in tamper:
            rc, out = tamper[name](job, check, rc, out)
        errors.append(check.check(job, rc, out))
    return sum(1 for e in errors if e) / len(errors)


def flip_table_entry(job, check, rc, out):
    """Replace one entry of the checked row by another value of that row."""
    payload = json.loads(out)
    row = payload["weingarten"][check._row(job, len(payload["basis"]))]
    j = next(k for k in range(1, len(row)) if row[k] != row[0])
    row[0] = row[j]
    return rc, json.dumps(payload).encode() + b"\n"


def change_csv_byte(job, check, rc, out):
    """Change the last digit of the checked row of a CSV table."""
    lines = out.split(b"\n")
    r = check._row(job, len(lines) - 2) + 1
    line = bytearray(lines[r])
    k = max(i for i, c in enumerate(line) if chr(c).isdigit())
    line[k] = ord("1") if line[k] != ord("1") else ord("2")
    lines[r] = bytes(line)
    return rc, b"\n".join(lines)


def test_untouched_outputs_pass(outputs):
    assert error_rate(outputs) == 0
    assert error_rate(outputs, OTHER_SEED) == 0


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, OTHER_SEED])
def test_flipped_table_entry_raises_error_rate(outputs, seed):
    assert error_rate(outputs, seed, {NAMES[0]: flip_table_entry}) > 0
    assert error_rate(outputs, seed, {NAMES[1]: flip_table_entry}) > 0


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, OTHER_SEED])
def test_changed_csv_byte_raises_error_rate(outputs, seed):
    assert error_rate(outputs, seed, {NAMES[2]: change_csv_byte}) > 0


def test_nonzero_exit_raises_error_rate(spawner, outputs, tmp_path):
    failing = spawner.execute([sys.executable, "-m", "weingarten", "table", "--group", "unitary", "--n", "0"],
                          run.job_env(tmp_path / "cache"), tmp_path)
    assert failing.rc != 0
    assert error_rate(outputs, tamper={NAMES[0]: lambda job, check, rc, out: (failing.rc, out)}) > 0
