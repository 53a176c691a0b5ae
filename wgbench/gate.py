"""Correctness gate: each job's exit code and output are checked.

A job fails when any check fails.  Exact jobs must exit 0.  Table and gram outputs must
parse, carry the documented keys, and use the canonical basis, which is
rebuilt here independently.  Their Gram matrix must equal tau^(cycles) or
tau^(loops), also recomputed here.  One seeded row of every Weingarten matrix
must satisfy (GWG)[r] = G[r] and (WGW)[r] = W[r] exactly.  At the default
seed every exact output must match the sha256 digest recorded in
digests.json.  An ``mc`` job fails only when it crashes or its report is
malformed; its 4-SE verdict is recorded and not counted.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from weingarten.coeffring import TAU, parse, render
from workloads import DEFAULT_SEED, Job

TABLE_KEYS = {"group", "n", "tau", "basis", "gram", "weingarten", "excluded"}
GRAM_KEYS = {"group", "n", "tau", "basis", "gram"}
MC_KEYS = {"group", "n", "tau", "samples", "seed", "moments", "max_abs_z", "threshold", "failures"}


class GateError(Exception):
    pass


# -- independent basis and Gram matrix ----------------------------------------

def _pairings(points: tuple[int, ...]):
    """Partner maps of all pairings of `points`, lexicographic on pair lists."""
    if not points:
        yield {}
        return
    a = points[0]
    for idx in range(1, len(points)):
        for rest in _pairings(points[1:idx] + points[idx + 1:]):
            yield {a: points[idx], points[idx]: a, **rest}


@lru_cache(maxsize=None)
def basis(group: str, n: int) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """Canonical basis labels and the 1-based one-line form of each element."""
    if group == "unitary":
        perms = list(itertools.permutations(range(1, n + 1)))
        labels = ["[" + ",".join(map(str, p)) + "]" for p in perms]
    else:
        maps = list(_pairings(tuple(range(1, 2 * n + 1))))
        perms = [tuple(m[i] for i in range(1, 2 * n + 1)) for m in maps]
        labels = ["".join(f"({a},{m[a]})" for a in sorted(m) if a < m[a]) for m in maps]
    return tuple(labels), tuple(perms)


def _cycles(images: list[int]) -> int:
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = images[i] - 1
    return count


@lru_cache(maxsize=None)
def gram_exponents(group: str, n: int) -> tuple[tuple[int, ...], ...]:
    """k[i][j] with G[i][j] = tau^k: cycles of s_i^-1 s_j, or loops of (p_i, p_j)."""
    _, perms = basis(group, n)
    if group == "unitary":
        inverses = []
        for p in perms:
            inv = [0] * n
            for i, v in enumerate(p, start=1):
                inv[v - 1] = i
            inverses.append(inv)
        return tuple(tuple(_cycles([inv[v - 1] for v in q]) for q in perms) for inv in inverses)
    return tuple(tuple(_cycles([p[v - 1] for v in q]) // 2 for q in perms) for p in perms)


def _tau_value(tau: str):
    return TAU if tau == "symbolic" else Fraction(tau)


def excluded_shapes(group: str, n: int, tau: str) -> set[str]:
    """Shapes whose content product vanishes at a numeric tau."""
    if tau == "symbolic":
        return set()
    t = Fraction(tau)
    out = set()
    for lam in _partitions(n, n):
        cells = [(i, j) for i, row in enumerate(lam, start=1) for j in range(1, row + 1)]
        if group == "unitary":
            factors = [t + j - i for i, j in cells]
        else:
            factors = [t + 2 * j - 1 - i for i, j in cells]
        if 0 in factors:
            out.add("[" + ",".join(map(str, lam)) + "]")
    return out


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


# -- exact row identities -----------------------------------------------------

class _Ring:
    """Interns ring values by canonical text, so equal entries share one id."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.values: list = []

    def of_value(self, value) -> int:
        text = render(value)
        idx = self.ids.get(text)
        if idx is None:
            idx = self.ids[text] = len(self.values)
            self.values.append(value)
        return idx

    def of_text(self, text: str) -> int:
        idx = self.ids.get(text)
        if idx is not None:
            return idx
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise GateError(f"entry {text!r} does not parse: {exc}") from None
        if render(value) != text:
            raise GateError(f"entry {text!r} is not in canonical form")
        return self.of_value(value)

    def row_times(self, row: list[int], columns: list[tuple[int, ...]]) -> list[int]:
        """Exact row-times-matrix product, with equal terms grouped by count.

        sum_k x[k] * M[k][j] is computed as sum over distinct (x, m) value pairs
        of count * x * m; columns with the same pair counts share one sum.
        """
        sums: dict = {}
        products: dict = {}
        out = []
        for col in columns:
            signature = tuple(sorted(Counter(zip(row, col)).items()))
            idx = sums.get(signature)
            if idx is None:
                acc = None
                for pair, count in signature:
                    p = products.get(pair)
                    if p is None:
                        p = products[pair] = self.values[pair[0]] * self.values[pair[1]]
                    term = p * count
                    acc = term if acc is None else acc + term
                idx = sums[signature] = self.of_value(acc)
            out.append(idx)
        return out


def check_row_identities(w_text: list[list[str]], group: str, n: int, tau: str, r: int) -> None:
    """(GWG)[r] = G[r], (WGW)[r] = W[r] and W[r][j] = W[j][r], exactly."""
    ring = _Ring()
    w = [[ring.of_text(x) for x in row] for row in w_text]
    powers = [ring.of_value(_tau_value(tau) ** k) for k in range(n + 1)]
    g = [[powers[k] for k in row] for row in gram_exponents(group, n)]
    w_cols, g_cols = list(zip(*w)), list(zip(*g))
    if ring.row_times(ring.row_times(g[r], w_cols), g_cols) != g[r]:
        raise GateError(f"(GWG)[{r}] != G[{r}]")
    if ring.row_times(ring.row_times(w[r], g_cols), w_cols) != w[r]:
        raise GateError(f"(WGW)[{r}] != W[{r}]")
    if list(w_cols[r]) != w[r]:
        raise GateError(f"W is not symmetric in row {r}")


# -- per-kind checks ----------------------------------------------------------

class Gate:
    """Checks the jobs of one workload run; remembers Monte-Carlo verdicts."""

    def __init__(self, workload: str, seed: int, digests: dict):
        self.seed = seed
        self.digests = digests.get("workloads", {}).get(workload, {}) if seed == DEFAULT_SEED else None
        self.json_tables: dict[tuple, list[list[str]]] = {}
        self.mc_verdicts: dict[str, bool] = {}

    def check(self, job: Job, rc: int, out: bytes) -> list[str]:
        """Errors of one job run; an empty list means the job passed."""
        errors = []
        if job.exact and rc != 0:
            errors.append(f"exit code {rc}")
        try:
            if job.kind in ("table", "gram"):
                self._check_table(job, out)
            elif job.kind == "verify":
                self._check_verify(job, out)
            else:
                self._check_mc(job, rc, out)
        except GateError as exc:
            errors.append(str(exc))
        if self.digests is not None and job.exact:
            recorded = self.digests.get(job.name)
            if recorded is None or recorded["argv"] != " ".join(job.argv):
                errors.append("no digest recorded for this job")
            elif hashlib.sha256(out).hexdigest() != recorded["sha256"]:
                errors.append("output differs from the recorded digest")
        return errors

    def _row(self, job: Job, size: int) -> int:
        return random.Random(f"{self.seed}:{job.name}").randrange(size)

    def _check_table(self, job: Job, out: bytes) -> None:
        labels, _ = basis(job.group, job.n)
        if job.fmt == "csv":
            rows = list(csv.reader(io.StringIO(out.decode())))
            if not rows or rows[0] != [""] + list(labels):
                raise GateError("CSV header is not the canonical basis")
            body = rows[1:]
            if [row[0] for row in body] != list(labels) or any(len(row) != len(labels) + 1 for row in body):
                raise GateError("CSV rows do not match the basis")
            w = [row[1:] for row in body]
            twin = self.json_tables.get((job.group, job.n, job.tau))
            if twin is not None and twin != w:
                raise GateError("CSV and JSON Weingarten matrices differ")
            check_row_identities(w, job.group, job.n, job.tau, self._row(job, len(labels)))
            return
        try:
            payload = json.loads(out)
        except ValueError as exc:
            raise GateError(f"output is not JSON: {exc}") from None
        keys = TABLE_KEYS if job.kind == "table" else GRAM_KEYS
        if not isinstance(payload, dict) or set(payload) != keys:
            raise GateError(f"keys are not {sorted(keys)}")
        expected_tau = "symbolic" if job.tau == "symbolic" else render(Fraction(job.tau))
        if (payload["group"], payload["n"], payload["tau"]) != (job.group, job.n, expected_tau):
            raise GateError("group, n or tau does not match the command")
        if payload["basis"] != list(labels) or len(labels) != job.basis_size:
            raise GateError("basis is not the canonical basis")
        powers = [render(_tau_value(job.tau) ** k) for k in range(job.n + 1)]
        gram = [[powers[k] for k in row] for row in gram_exponents(job.group, job.n)]
        if payload["gram"] != gram:
            raise GateError("Gram matrix is not tau^(cycles or loops)")
        if job.kind == "gram":
            return
        w = payload["weingarten"]
        if not isinstance(w, list) or len(w) != len(labels) or any(
            not isinstance(row, list) or len(row) != len(labels) or not all(isinstance(x, str) for x in row)
            for row in w
        ):
            raise GateError("Weingarten matrix is not square over the basis")
        if set(payload["excluded"]) != excluded_shapes(job.group, job.n, job.tau) or len(
            payload["excluded"]
        ) != len(set(payload["excluded"])):
            raise GateError("excluded shapes are wrong")
        check_row_identities(w, job.group, job.n, job.tau, self._row(job, len(labels)))
        self.json_tables[(job.group, job.n, job.tau)] = w

    def _check_verify(self, job: Job, out: bytes) -> None:
        lines = out.decode().splitlines()
        if len(lines) != job.lines or not all(line.startswith("ok  ") for line in lines):
            raise GateError(f"expected {job.lines} 'ok' lines, got {lines!r}")

    def _check_mc(self, job: Job, rc: int, out: bytes) -> None:
        if rc not in (0, 1):
            raise GateError(f"exit code {rc}")
        try:
            report = json.loads(out)
        except ValueError as exc:
            raise GateError(f"report is not JSON: {exc}") from None
        if not isinstance(report, dict) or set(report) != MC_KEYS:
            raise GateError(f"report keys are not {sorted(MC_KEYS)}")
        argv = dict(zip(job.argv[1::2], job.argv[2::2]))
        tau, n = int(argv["--tau"]), int(argv["--n"])
        expected = {"group": job.group, "n": n, "tau": tau, "samples": int(argv["--samples"]),
                    "seed": int(argv["--seed"]), "moments": tau ** (4 * n), "threshold": 4.0}
        if any(report[k] != v for k, v in expected.items()):
            raise GateError("report does not describe the requested grid")
        z, failures = report["max_abs_z"], report["failures"]
        if not isinstance(z, (int, float)) or not math.isfinite(z) or z < 0 or not isinstance(failures, list):
            raise GateError("max_abs_z or failures malformed")
        if (rc == 0) != (not failures) or (z > 4.0) != bool(failures):
            raise GateError("exit code, failures and max_abs_z disagree")
        self.mc_verdicts[job.name] = rc == 0
