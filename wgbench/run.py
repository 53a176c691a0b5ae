#!/usr/bin/env python3
"""Benchmark of the weingarten command line, one job process at a time.

    python3 wgbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  A run first times set-up several times: a fresh process importing
weingarten, then ``weingarten characters --n K`` into an empty cache for each
K that the workload's orthogonal tables load.  It then replays the
workload's fixed job list in a closed loop with a single client until
``--seconds`` are used up, and checks every output (gate.py).  With
``--trace 1`` untraced passes alternate with passes whose jobs run under
tracer.py, and the per-layer metrics are reported instead.  The last line
of standard output is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".wgbench_tmp"
DIGESTS = BENCH_DIR / "digests.json"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from spawner import Spawner  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COUNTS = (
    "symcore.perm_products", "symcore.cycle_decomps", "orthogonal.loop_type_calls",
    "orthogonal.histograms_built", "unitary.entries", "coeffring.rational_reductions",
    "coeffring.render_calls", "exactmat.entry_products", "groupalg.products",
    "groupalg.term_pairs", "young.character_calls", "haarmc.samples",
)


class BenchError(Exception):
    """The program cannot be benchmarked here; no result is printed."""


def job_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WG_CACHE_DIR"] = str(cache_dir)
    # one BLAS thread: on a shared two-core machine it gave steadier CPU times than two
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def weingarten_argv(job, trace_path: Path | None = None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "weingarten", *job.argv]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *job.argv]


def setup_once(spawner: Spawner, ks: list[int], cache_dir: Path, workdir: Path) -> float:
    """Fresh import plus one `characters --n K` per K into an empty cache."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    env = job_env(cache_dir)
    probe_code = "import sys, weingarten; sys.stdout.write(weingarten.__file__)"
    probe = spawner.execute([sys.executable, "-c", probe_code], env, workdir)
    if probe.rc != 0 or Path(probe.out.decode()).resolve().parent != (SRC / "weingarten").resolve():
        raise BenchError(f"cannot import weingarten from {SRC}: {probe.err.decode()[-400:]}")
    total = probe.wall_s
    for k in ks:
        res = spawner.execute([sys.executable, "-m", "weingarten", "characters", "--n", str(k)], env, workdir)
        if res.rc != 0 or not (cache_dir / f"characters-n{k}.json").is_file():
            raise BenchError(f"characters --n {k} failed: {res.err.decode()[-400:]}")
        total += res.wall_s
    return total


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path, spawner: Spawner):
        import gate  # needs src/ on sys.path

        self.jobs = workloads.jobs(workload, seed)
        self.gate = gate.Gate(workload, seed, json.loads(DIGESTS.read_text()))
        self.workdir = workdir
        self.spawner = spawner
        self.cache_dir = workdir / "cache"
        self.attempted = 0
        self.failed = 0
        self.counts_repeat = True
        # per job, one sample per untraced pass
        self.job_wall_s: dict[str, list[float]] = {job.name: [] for job in self.jobs}
        self.job_rss_kb: dict[str, list[int]] = {job.name: [] for job in self.jobs}

    def setup(self, min_reps: int, min_seconds: float = 0.0) -> list[float]:
        ks = workloads.cache_sizes(self.jobs)
        times: list[float] = []
        while len(times) < min_reps or sum(times) < min_seconds:
            times.append(setup_once(self.spawner, ks, self.cache_dir, self.workdir))
        return times

    def run_pass(self, traced: bool = False) -> tuple[float, list[dict]]:
        """One pass over the job list; returns its wall time and the job traces."""
        env = job_env(self.cache_dir)
        wall, traces = 0.0, []
        for job in self.jobs:
            trace_path = self.workdir / "trace.json" if traced else None
            res = self.spawner.execute(weingarten_argv(job, trace_path), env, self.workdir)
            wall += res.wall_s
            if not traced:
                self.job_wall_s[job.name].append(res.wall_s)
                self.job_rss_kb[job.name].append(res.maxrss_kb)
            errors = self.gate.check(job, res.rc, res.out)
            if traced:
                try:
                    trace = json.loads(trace_path.read_text())
                    trace["output_bytes"] = len(res.out)
                    traces.append(trace)
                except (OSError, ValueError):
                    errors.append("job wrote no trace")
            self.attempted += 1
            if errors:
                self.failed += 1
                print(f"FAIL {job.name}: {'; '.join(errors)} {res.err.decode()[-300:]}", file=sys.stderr)
        return wall, traces


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "threads": {var: "1" for var in THREAD_VARS}}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median_sum(samples: dict[str, list[float]]) -> float:
    """Each job's median over the passes, summed: one slow pass moves it less."""
    return sum(statistics.median(v) for v in samples.values())


def measure(runner: Runner, seconds: float) -> dict:
    setups = runner.setup(SETUP_MIN_REPS, SETUP_MIN_S)
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + max(walls) <= seconds:
        walls.append(runner.run_pass()[0])
    print(f"passes {len(walls)} wall_s {[round(w, 3) for w in walls]} setup_s {[round(s, 3) for s in setups]}")
    return {
        "wall_s": metric(_median_sum(runner.job_wall_s), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(statistics.median(v) for v in runner.job_rss_kb.values()) / 1024, "MB"),
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    runner.setup(1)
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + max(plain) + max(traced) <= seconds:
        plain.append(runner.run_pass()[0])
        wall, traces = runner.run_pass(traced=True)
        traced.append(wall)
        passes.append(traces)
    totals = [_pass_totals(p) for p in passes]
    runner.counts_repeat = all(t["counts"] == totals[0]["counts"] for t in totals)
    if not runner.counts_repeat:
        print("FAIL count metrics differ between traced passes", file=sys.stderr)
    print(f"passes {len(passes)} plain {[round(w, 3) for w in plain]} traced {[round(w, 3) for w in traced]}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(statistics.median(t["self_s"][layer] for t in totals), "s")
    counts = totals[0]["counts"]
    for name in COUNTS:
        metrics[name] = metric(counts[name], "count")
    calls = counts["young.idempotent_calls"]
    metrics["young.idempotent_hit_ratio"] = metric(counts["young.idempotent_hits"] / calls if calls else 0.0, "ratio")
    metrics["young.cache_load_s"] = metric(statistics.median(t["cache_load_s"] for t in totals), "s")
    metrics["cli.output_bytes"] = metric(counts["cli.output_bytes"], "bytes")
    metrics["trace.overhead_ratio"] = metric(statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def _pass_totals(traces: list[dict]) -> dict:
    self_s = {layer: sum(t["self_s"][layer] for t in traces) for layer in LAYERS}
    counts: dict[str, int] = {}
    for t in traces:
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
    counts["cli.output_bytes"] = sum(t["output_bytes"] for t in traces)
    return {"self_s": self_s, "counts": counts, "cache_load_s": sum(t["young.cache_load_s"] for t in traces)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weingarten" / "__init__.py").is_file():
        print(f"no weingarten package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        with Spawner() as spawner:
            runner = Runner(args.workload, args.seed, workdir, spawner)
            print("env " + json.dumps(environment()))
            measure_fn = measure_traced if args.trace else measure
            metrics = measure_fn(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if runner.gate.mc_verdicts:
        print("mc 4-SE verdicts " + json.dumps(runner.gate.mc_verdicts))
    print(f"error_rate {runner.failed / runner.attempted:.4f} ({runner.failed}/{runner.attempted} jobs failed)")
    result = {
        "correct": runner.failed == 0 and runner.counts_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
