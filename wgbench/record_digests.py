#!/usr/bin/env python3
"""Record the sha256 of every exact job's output at the default seed.

    python3 wgbench/record_digests.py

Run it only at a commit whose outputs are the reference: JSON and CSV
outputs must stay byte-identical, so later commits are checked against
these digests rather than re-recording them.  It also prints the Monte-Carlo
verdicts, which must both pass at the default seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, TMP_ROOT, job_env, setup_once, weingarten_argv
from spawner import Spawner
import workloads


def main() -> int:
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="digests-", dir=TMP_ROOT))
    record = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    ok = True
    try:
        with Spawner() as spawner:
            for workload in workloads.WORKLOADS:
                jobs = workloads.jobs(workload, workloads.DEFAULT_SEED)
                cache_dir = workdir / "cache"
                setup_once(spawner, workloads.cache_sizes(jobs), cache_dir, workdir)
                entries = record["workloads"][workload] = {}
                for job in jobs:
                    res = spawner.execute(weingarten_argv(job), job_env(cache_dir), workdir)
                    print(f"{workload:12s} {job.name:45s} rc={res.rc} bytes={len(res.out)}")
                    ok = ok and res.rc == 0
                    if job.exact:
                        entries[job.name] = {"argv": " ".join(job.argv),
                                             "sha256": hashlib.sha256(res.out).hexdigest()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not ok:
        print("a job failed at the default seed; digests not written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
