"""Monte-Carlo estimation of Haar moments, checked against exact predictions.

This is the package's only inexact module.  Matrices are drawn Haar-uniformly
by orthonormalizing a Ginibre matrix and fixing the phases (signs) of the
triangular factor's diagonal; without that correction QR output is *not* Haar
distributed.  Moment estimates come with standard errors and are compared to
the exact rational predictions obtained from the Weingarten tables:

    unitary:     E[prod U(r_k,c_k) prod conj(U)(r'_k,c'_k)]
                 = sum over sigma, rho in S_n of
                   [r = r' after sigma][c = c' after rho] * w(sigma rho^-1)
    orthogonal:  E[prod O(r_k,c_k)]
                 = sum over pairings pi, pi' of
                   [r constant on pi][c constant on pi'] * W(pi, pi')

Acceptance is statistical: every predicted moment within `threshold` standard
errors (default 4).  At 4 SE a single Gaussian check false-fails with
probability ~6e-5, so a fixed-seed grid of a few thousand correlated moments
is expected to pass; the seed freezes the outcome either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt

import numpy as np

from .coeffring import render
from .orthogonal import loop_type, wg_value_orthogonal
from .symcore import enumerate_pairings, partitions_of, permutations_of, type_matrix
from .unitary import wg_function_unitary

_BATCH = 4096  # fixed batch size keeps seeded runs bit-reproducible


@dataclass(frozen=True)
class MomentSpec:
    """One Haar moment: entry factors of a group element and its conjugates."""

    group: str
    tau: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    conj_rows: tuple[int, ...] = ()
    conj_cols: tuple[int, ...] = ()
    samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.group not in ("unitary", "orthogonal"):
            raise ValueError(f"unknown group {self.group!r}")
        if self.tau < 1:
            raise ValueError(f"tau must be a positive integer, got {self.tau}")
        if len(self.rows) != len(self.cols) or len(self.conj_rows) != len(self.conj_cols):
            raise ValueError("row/column index tuples must have equal lengths")
        if self.group == "orthogonal" and self.conj_rows:
            raise ValueError("orthogonal moments take no conjugate factors")
        for idx in (*self.rows, *self.cols, *self.conj_rows, *self.conj_cols):
            if not 1 <= idx <= self.tau:
                raise ValueError(f"index {idx} outside 1..{self.tau}")

    def to_json_dict(self) -> dict:
        payload = {
            "group": self.group,
            "tau": self.tau,
            "rows": list(self.rows),
            "cols": list(self.cols),
        }
        if self.group == "unitary":
            payload["conj_rows"] = list(self.conj_rows)
            payload["conj_cols"] = list(self.conj_cols)
        return payload


@dataclass
class MomentReport:
    """Empirical estimate vs exact prediction, with the z-score between them."""

    spec: MomentSpec
    estimate: float
    stderr: float
    exact: Fraction
    z: float

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "estimate": self.estimate,
            "stderr": self.stderr,
            "exact": render(self.exact),
            "z": self.z,
            "samples": self.spec.samples,
            "seed": self.spec.seed,
        }


def _haar_batch(group: str, tau: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of Haar samples via Ginibre + QR with diagonal phase fixing."""
    if group == "unitary":
        z = (
            rng.standard_normal((count, tau, tau))
            + 1j * rng.standard_normal((count, tau, tau))
        ) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[:, None, :]
        return q
    z = rng.standard_normal((count, tau, tau))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * np.sign(d)[:, None, :]
    return q


def sample_haar(group: str, tau: int, seed: int) -> np.ndarray:
    """One Haar-distributed matrix (unitary or real orthogonal)."""
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"unknown group {group!r}")
    if tau < 1:
        raise ValueError(f"tau must be positive, got {tau}")
    return _haar_batch(group, tau, 1, np.random.default_rng(seed))[0]


def predict_moment(spec: MomentSpec) -> Fraction:
    """Exact rational value of the Haar moment via the Weingarten expansion."""
    tau = Fraction(spec.tau)
    if spec.group == "unitary":
        if len(spec.rows) != len(spec.conj_rows):
            return Fraction(0)  # unbalanced degree vanishes by phase invariance
        n = len(spec.rows)
        if n == 0:
            return Fraction(1)
        values = {mu: wg_function_unitary(mu, tau) for mu in partitions_of(n)}
        total = Fraction(0)
        perms = permutations_of(n)
        row_matches = [
            s for s in perms
            if all(spec.rows[k] == spec.conj_rows[s[k] - 1] for k in range(n))
        ]
        col_matches = [
            s for s in perms
            if all(spec.cols[k] == spec.conj_cols[s[k] - 1] for k in range(n))
        ]
        for sigma in row_matches:
            for rho in col_matches:
                total += values[(sigma * rho.inverse()).cycle_type()]
        return total
    degree = len(spec.rows)
    if degree % 2 == 1:
        return Fraction(0)  # odd orthogonal moments vanish by sign invariance
    if degree == 0:
        return Fraction(1)
    n = degree // 2
    pairings = enumerate_pairings(n)
    values = {mu: wg_value_orthogonal(mu, tau) for mu in partitions_of(n)}
    row_matches = [
        pi for pi in pairings
        if all(spec.rows[a - 1] == spec.rows[b - 1] for a, b in pi.pairs())
    ]
    col_matches = [
        pi for pi in pairings
        if all(spec.cols[a - 1] == spec.cols[b - 1] for a, b in pi.pairs())
    ]
    total = Fraction(0)
    for pi in row_matches:
        for rho in col_matches:
            total += values[loop_type(pi, rho)]
    return total


def estimate_moment(spec: MomentSpec) -> MomentReport:
    """Seeded empirical mean and standard error against the exact prediction."""
    if spec.samples < 100:
        raise ValueError(f"need at least 100 samples, got {spec.samples}")
    rng = np.random.default_rng(spec.seed)
    total = 0.0
    total_sq = 0.0
    remaining = spec.samples
    while remaining:
        count = min(_BATCH, remaining)
        q = _haar_batch(spec.group, spec.tau, count, rng)
        vals = np.ones(count, dtype=q.dtype)
        for r, c in zip(spec.rows, spec.cols):
            vals = vals * q[:, r - 1, c - 1]
        for r, c in zip(spec.conj_rows, spec.conj_cols):
            vals = vals * np.conj(q[:, r - 1, c - 1])
        x = vals.real
        total += float(np.sum(x))
        total_sq += float(np.sum(x * x))
        remaining -= count
    s = spec.samples
    mean = total / s
    variance = max(0.0, (total_sq - s * mean * mean) / (s - 1))
    stderr = sqrt(variance / s)
    exact = predict_moment(spec)
    if stderr > 0.0:
        z = (mean - float(exact)) / stderr
    else:
        z = 0.0 if abs(mean - float(exact)) < 1e-12 else float("inf")
    return MomentReport(spec=spec, estimate=mean, stderr=stderr, exact=exact, z=z)


# -- full-grid cross-checks ---------------------------------------------------


@dataclass
class GridReport:
    """All degree-(n, n) (or degree-2n) moments of one group at once."""

    group: str
    n: int
    tau: int
    samples: int
    seed: int
    moment_count: int
    max_abs_z: float
    threshold: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "n": self.n,
            "tau": self.tau,
            "samples": self.samples,
            "seed": self.seed,
            "moments": self.moment_count,
            "max_abs_z": self.max_abs_z,
            "threshold": self.threshold,
            "failures": self.failures,
        }


def _tensor_power_flat(q: np.ndarray, n: int) -> np.ndarray:
    """Per-sample n-fold Kronecker power, flattened to (samples, tau^n * tau^n)."""
    count, tau = q.shape[0], q.shape[1]
    m = q
    dim = tau
    for _ in range(n - 1):
        m = np.einsum("sab,scd->sacbd", m, q).reshape(count, dim * tau, dim * tau)
        dim *= tau
    return m.reshape(count, dim * dim)


def _unitary_prediction_tensor(n: int, tau: int) -> np.ndarray:
    dim = tau**n
    multi = list(itertools.product(range(tau), repeat=n))
    perms = permutations_of(n)
    # sigma rho^-1 is conjugate to rho^-1 sigma, the inverse of sigma^-1 rho
    types, index = type_matrix(perms)
    values = [float(wg_function_unitary(mu, Fraction(tau))) for mu in types]
    pred = np.zeros((dim, dim, dim, dim))
    deltas = {}
    for s in perms:
        d = np.zeros((dim, dim), dtype=bool)
        for a_idx, a in enumerate(multi):
            for c_idx, c in enumerate(multi):
                if all(a[k] == c[s[k] - 1] for k in range(n)):
                    d[a_idx, c_idx] = True
        deltas[s] = d
    for i, sigma in enumerate(perms):
        for j, rho in enumerate(perms):
            w = values[index[i][j]]
            pred += w * (
                deltas[sigma][:, None, :, None] & deltas[rho][None, :, None, :]
            )
    return pred


def _orthogonal_prediction_tensor(n: int, tau: int) -> np.ndarray:
    dim = tau ** (2 * n)
    multi = list(itertools.product(range(tau), repeat=2 * n))
    pairings = enumerate_pairings(n)
    types, index = type_matrix(pairings)
    values = [float(wg_value_orthogonal(mu, Fraction(tau))) for mu in types]
    deltas = {}
    for pi in pairings:
        deltas[pi] = np.array(
            [all(idx[a - 1] == idx[b - 1] for a, b in pi.pairs()) for idx in multi],
            dtype=bool,
        )
    pred = np.zeros((dim, dim))
    for i, pi in enumerate(pairings):
        for j, rho in enumerate(pairings):
            pred += values[index[i][j]] * np.outer(deltas[pi], deltas[rho])
    return pred


def grid_crosscheck(
    group: str, n: int, tau: int, samples: int, seed: int, threshold: float = 4.0
) -> GridReport:
    """Estimate every balanced degree-(n, n) unitary (or degree-2n orthogonal)
    entry moment in one pass and z-score it against the exact prediction.

    Sample accumulation uses one fixed-size batch loop and a fixed sequence of
    matrix products per batch, so the run is deterministic for a given seed.
    """
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"unknown group {group!r}")
    rng = np.random.default_rng(seed)
    dim = tau**n
    sum_re = np.zeros((dim * dim, dim * dim))
    sum_sq = np.zeros((dim * dim, dim * dim))
    remaining = samples
    while remaining:
        count = min(_BATCH, remaining)
        flat = _tensor_power_flat(_haar_batch(group, tau, count, rng), n)
        if group == "unitary":
            re, im = np.ascontiguousarray(flat.real), np.ascontiguousarray(flat.imag)
            sum_re += re.T @ re + im.T @ im
            sum_sq += (re * re).T @ (re * re)
            sum_sq += 2.0 * (re * im).T @ (re * im)
            sum_sq += (im * im).T @ (im * im)
        else:
            sum_re += flat.T @ flat
            sum_sq += (flat * flat).T @ (flat * flat)
        remaining -= count
    if group == "unitary":
        mean = (sum_re / samples).reshape(dim, dim, dim, dim)
        mean_sq = (sum_sq / samples).reshape(dim, dim, dim, dim)
        pred = _unitary_prediction_tensor(n, tau)
    else:
        # index (a1 b1 a2 b2) -> (a1 a2 b1 b2): rows and columns interleave
        full = tau ** (2 * n)
        mean = _regroup_pair_axes(sum_re / samples, dim).reshape(full, full)
        mean_sq = _regroup_pair_axes(sum_sq / samples, dim).reshape(full, full)
        pred = _orthogonal_prediction_tensor(n, tau)

    variance = np.maximum(mean_sq - mean * mean, 0.0)
    stderr = np.sqrt(variance * (samples / (samples - 1)) / samples)
    diff = mean - pred
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            stderr > 0,
            diff / np.where(stderr > 0, stderr, 1.0),
            np.where(np.abs(diff) < 1e-12, 0.0, np.inf),
        )
    abs_z = np.abs(z)
    failures = [
        {"index": [int(v) for v in idx], "z": float(z[idx])}
        for idx in zip(*np.nonzero(abs_z > threshold))
    ]
    return GridReport(
        group=group,
        n=n,
        tau=tau,
        samples=samples,
        seed=seed,
        moment_count=int(z.size),
        max_abs_z=float(abs_z.max()),
        threshold=threshold,
        failures=failures[:64],
    )


def _regroup_pair_axes(mat: np.ndarray, dim: int) -> np.ndarray:
    """Reorder ((a1,b1),(a2,b2)) matrix entries into ((a1,a2),(b1,b2))."""
    t = mat.reshape(dim, dim, dim, dim)  # (a1, b1, a2, b2)
    return np.ascontiguousarray(t.transpose(0, 2, 1, 3))
