"""Job lists of the four benchmark workloads.

Every job is one ``python -m weingarten ...`` process.  The seed picks every
numeric tau, from ``TAU_RANGE``, which lies above every n used, so no shape is
excluded, and it sets the ``mc --seed``.  The two degenerate jobs keep tau = 1,
where shapes are excluded on purpose.  Job names do not depend on the seed;
they key the digests recorded at ``DEFAULT_SEED``.

The lists are desk-sized so that one pass takes a few seconds and a run of
twenty seconds repeats it several times (see README.md for what was left out
and why).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

DEFAULT_SEED = 1
TAU_RANGE = range(6, 14)
MC_SAMPLES = 200_000
WORKLOADS = ("tables", "verify_pinv", "algebra", "haar_mc")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    kind: str  # "table", "gram", "verify" or "mc"
    group: str = ""
    n: int = 0
    tau: str = "symbolic"
    fmt: str = "json"
    lines: int = 0  # "ok" lines a verify job prints

    @property
    def exact(self) -> bool:
        return self.kind != "mc"

    @property
    def basis_size(self) -> int:
        if self.group == "unitary":
            return factorial(self.n)
        return factorial(2 * self.n) // (2**self.n * factorial(self.n))


def _table(kind: str, group: str, n: int, tau: str = "symbolic", fmt: str = "json") -> Job:
    argv = (kind, "--group", group, "--n", str(n), "--tau", tau, "--format", fmt)
    label = tau if tau in ("symbolic", "1") else "drawn"
    return Job(f"{kind}-{group}-n{n}-tau_{label}-{fmt}", argv, kind, group, n, tau, fmt)


def _verify(suite: str, n: int, lines: int, *extra: str) -> Job:
    return Job(f"verify-{suite}-n{n}", ("verify", "--suite", suite, "--n", str(n), *extra), "verify", lines=lines)


def _mc(group: str, n: int, tau: int, seed: int) -> Job:
    argv = ("mc", "--group", group, "--n", str(n), "--tau", str(tau),
            "--samples", str(MC_SAMPLES), "--seed", str(seed))
    return Job(f"mc-{group}-n{n}-tau{tau}", argv, "mc", group, n, str(tau))


def jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one workload, with the numeric taus drawn from the seed."""
    rng = random.Random(seed)

    def draw() -> str:
        return str(rng.choice(TAU_RANGE))

    if workload == "tables":
        tau_u, tau_o = draw(), draw()
        return [
            _table("table", "unitary", 4),
            _table("table", "unitary", 5),
            _table("table", "unitary", 5, tau_u),
            _table("table", "unitary", 5, tau_u, "csv"),
            _table("table", "orthogonal", 3),
            _table("table", "orthogonal", 4),
            _table("table", "orthogonal", 4, tau_o),
            _table("table", "orthogonal", 4, tau_o, "csv"),
            _table("table", "unitary", 3, "1"),
            _table("table", "orthogonal", 2, "1"),
            _table("gram", "orthogonal", 4),
        ]
    if workload == "verify_pinv":
        tau = draw()
        tau1, tau2 = (str(t) for t in rng.sample(TAU_RANGE, 2))
        return [
            _verify("pseudoinverse", 3, 6, "--tau", tau),
            _verify("commute", 3, 3, "--tau", tau1, "--tau2", tau2),
        ]
    if workload == "algebra":
        tau = draw()
        return [
            _verify("jucys", 6, 6),
            _verify("oid", 4, 4),
            _verify("idempotents", 4, 4),
            _verify("central", 5, 5),
            _verify("doubling", 2, 2),
            _verify("keyid", 4, 4),
            _verify("stability", 4, 4, "--tau", tau),
        ]
    if workload == "haar_mc":
        mc_seed = seed % 2**32
        return [_mc("unitary", 2, 3, mc_seed), _mc("orthogonal", 2, 4, mc_seed)]
    raise ValueError(f"unknown workload {workload!r}")


def cache_sizes(job_list: list[Job]) -> list[int]:
    """Character-table sizes K that the orthogonal table jobs load (S_2n)."""
    return sorted({2 * j.n for j in job_list if j.kind == "table" and j.group == "orthogonal"})
