"""Start job processes from a small helper and report exit code, wall time and peak RSS.

A process's ``ru_maxrss`` also counts the memory of the process it was
forked from, up to its exec.  run.py grows as it imports the package and
checks outputs, so its children would report its size instead of their own.
The helper stays small: run.py starts it once (``Spawner``), and it starts
every job.  Protocol: one JSON request per line on stdin, one JSON reply per
line on stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

JOB_TIMEOUT_S = 60


@dataclass
class Exec:
    rc: int
    wall_s: float
    maxrss_kb: int
    out: bytes
    err: bytes


def _run_job(argv: list[str], env: dict, cwd: str, out_path: str, err_path: str) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        exited = False
        try:
            # wait without reaping, so a late kill can only hit this zombie
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            exited = True
        finally:
            timer.cancel()
            timer.join()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


class Spawner:
    """Client side: one helper process, jobs run one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def execute(self, argv: list[str], env: dict, workdir: Path) -> Exec:
        """Run one process to completion; time it and read its own peak RSS."""
        out_path, err_path = workdir / "stdout", workdir / "stderr"
        request = {"argv": argv, "env": env, "cwd": str(workdir), "out": str(out_path), "err": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Exec(reply["rc"], reply["wall_s"], reply["maxrss_kb"], out_path.read_bytes(), err_path.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = _run_job(req["argv"], req["env"], req["cwd"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
