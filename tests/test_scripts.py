"""Smoke tests of the two scripts, each run as its own process."""

import json
import subprocess
import sys
from pathlib import Path

from weingarten import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv, env):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        env=env, capture_output=True, text=True, timeout=600,
    )


def test_build_tables_writes_what_the_cli_writes(tmp_path, python_env):
    outdir = tmp_path / "tables"
    proc = run_script(
        "build_tables.py", "--outdir", str(outdir), "--tau", "7/2",
        "--max-unitary", "2", "--max-orthogonal", "2", env=python_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(outdir.iterdir())) == 8
    reference = tmp_path / "reference.json"
    for group in ("unitary", "orthogonal"):
        for n in (1, 2):
            for tau, tag in (("symbolic", "symbolic"), ("7/2", "tau7_2")):
                argv = ["table", "--group", group, "--n", str(n), "--tau", tau]
                assert cli.main([*argv, "--out", str(reference)]) == 0
                written = outdir / f"{group}-n{n}-{tag}.json"
                assert written.read_bytes() == reference.read_bytes(), written.name


def test_mc_crosscheck_prints_two_grid_reports(python_env):
    proc = run_script("mc_crosscheck.py", "--samples", "2000", "--seeds", "1", "--json",
                      env=python_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    keys = {"group", "n", "tau", "samples", "seed", "moments", "max_abs_z", "threshold",
            "failures"}
    reports = [json.loads(line) for line in lines[:2]]
    assert [set(r) for r in reports] == [keys, keys]
    assert [(r["group"], r["n"], r["tau"]) for r in reports] == [
        ("unitary", 2, 3), ("orthogonal", 2, 4)
    ]
    assert all(r["samples"] == 2000 and r["seed"] == 1 for r in reports)
    worst = max(r["max_abs_z"] for r in reports)
    assert lines[2] == f"worst |z| across runs: {worst:.3f}"


def test_mc_crosscheck_exits_1_when_a_grid_fails(python_env):
    proc = run_script("mc_crosscheck.py", "--threshold", "0.5", "--samples", "2000",
                      "--seeds", "1", env=python_env)
    assert proc.returncode == 1, proc.stderr
    assert "FAILURES" in proc.stdout


def test_mc_crosscheck_rejects_too_few_samples(python_env):
    for samples in ("0", "1", "99"):
        proc = run_script("mc_crosscheck.py", "--samples", samples, env=python_env)
        assert proc.returncode == 2
        assert "--samples" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_mc_crosscheck_rejects_a_negative_seed_or_a_threshold_nothing_can_pass(python_env):
    # a negative seed ended in numpy's traceback with exit 1, the failed-grid
    # code; at a NaN threshold every grid passed
    for option, value in (("--seeds", "-1"), ("--threshold", "nan"), ("--threshold", "inf"),
                          ("--threshold", "0"), ("--threshold", "-4"), ("--threshold", "four")):
        proc = run_script("mc_crosscheck.py", "--samples", "2000", option, value, env=python_env)
        assert proc.returncode == 2, (option, value)
        assert option in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_build_tables_rejects_a_bad_tau_or_a_negative_size(tmp_path, python_env):
    # --tau 1/0 ended in a ZeroDivisionError traceback with exit 1, and
    # negative sizes wrote no file and exited 0
    outdir = tmp_path / "tables"
    for argv, option in ((["--tau", "1/0"], "--tau"),
                         (["--max-unitary", "-3", "--max-orthogonal", "-1"], "--max-unitary"),
                         (["--max-orthogonal", "-1"], "--max-orthogonal")):
        proc = run_script("build_tables.py", "--outdir", str(outdir), *argv, env=python_env)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("usage: ") and option in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "" and not outdir.exists()
