"""Monte-Carlo estimation of Haar moments, checked against exact predictions.

This is the package's only inexact module.  A Haar sample is the Q of the one
z = QR of a Ginibre matrix whose R has a positive diagonal (Mezzadri,
arXiv:math-ph/0609050): Gram-Schmidt run twice, equal to a phase-fixed LAPACK
QR up to the last bits.  Moment estimates come with standard errors and are
compared to the exact rational predictions obtained from the Weingarten
functions.  Both groups use one model: a moment of degree n has 2n factor
positions (for U, the n plain factors, then the n conjugate factors), an index
tuple over them "ties" a pairing when it is constant on each pair, and

    E[prod of entries] = sum over basis pairings pi, rho of
                         [rows tie pi][cols tie rho] * Wg(loop type of pi, rho)

The orthogonal basis is every pairing of the 2n positions.  The unitary basis
is the bipartite pairings {k, n + sigma(k)}, sigma in S_n, and the loop type
of two of them is the cycle type of sigma^-1 rho.

A grid pairs every column of the n-fold tensor power of a sample with every
other, but a column is a product of n entries in some order, so only the
C(tau^2 + n - 1, n) distinct products are built, accumulated and scored: one
mean, standard error, prediction and z per pair of distinct products, and
grid indices only for the worst moments reported.  Each batch is drawn whole
through `_haar_batch`, so the seeded stream is the one `estimate_moment` reads.
A block of samples at a time, the products are built by prefix extension:
listed with factors ascending, in lexicographic order, the degree-k products
that extend a degree-(k-1) product p are the contiguous run p * q_j, j >=
last(p), so each degree takes one multiply per shorter product, associated
left to right as a fold over the factors would be.  No stage holds the
products of more than one block, or any array over the tau^(4n) grid.
Seeded grids are deterministic.  Moments that differ only by the order of
their first (U: plain) n factors, or of their last n, share one z, so equal
|z| list in index order.

Acceptance is statistical: every predicted moment within `threshold` standard
errors (default 4).  At 4 SE a single Gaussian check false-fails with
probability ~6e-5, so a fixed-seed grid of a few thousand correlated moments
is expected to pass; the seed freezes the outcome either way.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import inf, sqrt

import numpy as np

from .coeffring import render
from .orthogonal import wg_value_orthogonal
from .symcore import Pairing, cross_type_matrix, enumerate_pairings, permutations_of
from .unitary import wg_function_unitary

_BATCH = 4096  # fixed batch size keeps seeded runs bit-reproducible
_BLOCK = 512  # samples whose products are built and accumulated at once; bounds the temporaries
_VALUES = {"unitary": wg_function_unitary, "orthogonal": wg_value_orthogonal}


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

    @property
    def degree(self) -> int | None:
        """The n of the moment's Weingarten expansion, or None when it vanishes.

        Unbalanced unitary moments vanish by phase invariance, odd orthogonal
        ones by sign invariance.
        """
        if self.group == "unitary":
            return len(self.rows) if len(self.rows) == len(self.conj_rows) else None
        return len(self.rows) // 2 if len(self.rows) % 2 == 0 else None


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


def _ginibre(group: str, tau: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of Ginibre matrices: real standard normal entries, or complex ones
    with E|z|^2 = 1."""
    z = rng.standard_normal((count, tau, tau))
    if group == "unitary":
        z = (z + 1j * rng.standard_normal((count, tau, tau))) / np.sqrt(2.0)
    return z


def _haar_batch(group: str, tau: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of Haar samples: orthonormalized Ginibre matrices."""
    return _orthonormalize(_ginibre(group, tau, count, rng))


def _orthonormalize(z: np.ndarray) -> np.ndarray:
    """Q of each full-rank z = QR in a stack, R's diagonal positive: Gram-Schmidt
    with every projection run twice, so Q stays orthonormal for ill-conditioned z."""
    q = z.copy()
    for j in range(z.shape[-1]):
        prev, v = q[:, :, :j], q[:, :, j]
        for _ in range(2):  # "twice is enough"
            v = v - np.einsum("bik,bk->bi", prev, np.einsum("bik,bi->bk", prev.conj(), v))
        q[:, :, j] = v / np.sqrt(np.einsum("bi,bi->b", v.conj(), v).real)[:, None]
    return q


def _basis(group: str, n: int) -> list[Pairing]:
    """The group's Weingarten basis as pairings of the 2n factor positions."""
    if group == "unitary":
        return [
            Pairing.from_pairs((k, n + s) for k, s in enumerate(sigma, start=1))
            for sigma in permutations_of(n)
        ]
    return enumerate_pairings(n)


def _ties(idx, pairing: Pairing) -> bool:
    """True when the index tuple is constant on every pair of the pairing."""
    return all(idx[a - 1] == idx[b - 1] for a, b in pairing.pairs())


def predict_moment(spec: MomentSpec) -> Fraction:
    """Exact rational value of the Haar moment via the Weingarten expansion."""
    n = spec.degree
    if n is None:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    basis = _basis(spec.group, n)
    rows, cols = spec.rows + spec.conj_rows, spec.cols + spec.conj_cols
    row_matches = [p for p in basis if _ties(rows, p)]
    col_matches = [p for p in basis if _ties(cols, p)]
    return _tied_sum(spec.group, spec.tau, row_matches, col_matches)


def _tied_types(rows: Sequence[Pairing], cols: Sequence[Pairing]) -> Counter:
    """How many pairs of a row-tied and a column-tied pairing have each loop type."""
    if not rows or not cols:
        return Counter()
    types, index = cross_type_matrix(rows, cols)
    return Counter({types[k]: c for k, c in Counter(k for row in index for k in row).items()})


def _tied_sum(group: str, tau: int, rows: Sequence[Pairing], cols: Sequence[Pairing]) -> Fraction:
    """Wg(loop type) summed over every pair of a row-tied and a column-tied pairing."""
    value = _VALUES[group]
    counts = _tied_types(rows, cols)
    return sum((value(mu, Fraction(tau)) * c for mu, c in counts.items()), Fraction(0))


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
    moments: int
    max_abs_z: float
    threshold: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return asdict(self)  # the JSON keys are the fields, in order


def _factor_columns(n: int, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct product of n entries once, as `fac[k, c]`: flat index
    a*tau + b of factor k of product c, factors ascending; and `cmap`: the
    product of each tensor-power column (a1..an, b1..bn), C order."""
    idx = np.indices((tau,) * (2 * n)).reshape(2 * n, -1)
    fac, cmap = np.unique(np.sort(idx[:n] * tau + idx[n:], axis=0), axis=1, return_inverse=True)
    return fac, cmap.reshape(-1)


def _product_steps(fac: np.ndarray, entries: int) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """How to build the products of `fac` by prefix extension, degree by degree.

    With factors ascending and products in lexicographic order, the degree-k
    products that extend a degree-(k-1) product p are one contiguous run,
    p * q_j for j >= last(p).  One step per degree k >= 2: the number of
    degree-k products, and (r, j, offset) per degree-(k-1) product r, whose
    run starts at degree-k row `offset`.  Raises ValueError unless the last
    degree lists the columns of `fac` in their order.
    """
    prefixes = [(j,) for j in range(entries)]
    steps = []
    for _ in fac[1:]:
        step, extended = [], []
        for r, p in enumerate(prefixes):
            step.append((r, p[-1], len(extended)))
            extended.extend(p + (j,) for j in range(p[-1], entries))
        steps.append((len(extended), step))
        prefixes = extended
    if not np.array_equal(np.array(prefixes).T, fac):
        raise ValueError("prefix extension does not reproduce the factor products' order")
    return steps


def _grid_sums(group: str, tau: int, samples: int, seed: int, fac: np.ndarray):
    """Sample sums of Re(x_c conj(x_d)) and its square for every pair of
    distinct factor products c, d (the columns of `fac`).  Each batch is drawn
    through `_haar_batch`; then, _BLOCK samples at a time, the products are
    built by prefix extension, one contiguous multiply per shorter product,
    left to right as a fold over the factors would, and accumulated."""
    steps = _product_steps(fac, tau * tau)
    rng = np.random.default_rng(seed)
    sum_re, sum_sq = np.zeros((2, fac.shape[1], fac.shape[1]))
    remaining = samples
    while remaining:
        count = min(_BATCH, remaining)
        batch = _haar_batch(group, tau, count, rng).reshape(count, -1).T  # entries by sample
        for start in range(0, count, _BLOCK):
            qT = np.ascontiguousarray(batch[:, start:start + _BLOCK])
            rows = qT
            for size, step in steps:  # one degree at a time
                prev, rows = rows, np.empty((size, qT.shape[1]), qT.dtype)
                for r, j, off in step:
                    np.multiply(prev[r], qT[j:], out=rows[off:off + len(qT) - j])
            if group == "unitary":
                re, im = np.ascontiguousarray(rows.real), np.ascontiguousarray(rows.imag)
                # one operand per product, so numpy takes its symmetric A @ A.T path
                rr, ri, ii = re * re, re * im, im * im
                sum_re += re @ re.T + im @ im.T
                sum_sq += rr @ rr.T
                sum_sq += 2.0 * (ri @ ri.T)
                sum_sq += ii @ ii.T
            else:
                sq = rows * rows
                sum_re += rows @ rows.T
                sum_sq += sq @ sq.T
        remaining -= count
    return sum_re, sum_sq


def _class_predictions(group: str, n: int, tau: int, fac: np.ndarray) -> np.ndarray:
    """Float prediction of the moment of every pair of distinct factor products.

    Entry (c, d) is the moment whose row indices over the 2n factor positions
    are those of c's factors, then d's, and whose column indices likewise,
    rounded once from the exact sum over the basis pairings they tie.  Row and
    column index tuples with the same tied pairings share one exact sum, and
    each loop type's Weingarten value is computed once.
    """
    basis = _basis(group, n)
    multi = itertools.product(range(tau), repeat=2 * n)
    ties = [tuple(p for p in basis if _ties(idx, p)) for idx in multi]
    kinds = {t: k for k, t in enumerate(dict.fromkeys(ties))}
    counts = [[_tied_types(a, b) for b in kinds] for a in kinds]
    value = _VALUES[group]  # looked up per call, so a test can swap it
    types = {mu for row in counts for cell in row for mu in cell}
    wg = {mu: value(mu, Fraction(tau)) for mu in types}
    exact = np.array([
        [float(sum((wg[mu] * c for mu, c in cell.items()), Fraction(0))) for cell in row]
        for row in counts
    ])
    which = np.array([kinds[t] for t in ties], dtype=np.intp).reshape(tau**n, tau**n)
    # the row (column) indices of each product's factors, as a C-order multi-index
    rows, cols = (np.ravel_multi_index(tuple(v), (tau,) * n) for v in np.divmod(fac, tau))
    return exact[which[np.ix_(rows, rows)], which[np.ix_(cols, cols)]]


def _class_z(group: str, n: int, tau: int, samples: int, sums, fac: np.ndarray) -> np.ndarray:
    """z-score of every pair of distinct factor products, from their sample sums."""
    sum_re, sum_sq = sums
    mean = sum_re / samples
    variance = np.maximum(sum_sq / samples - mean * mean, 0.0)
    stderr = np.sqrt(variance * (samples / (samples - 1)) / samples)
    diff = mean - _class_predictions(group, n, tau, fac)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(stderr > 0, diff / stderr, np.where(np.abs(diff) < 1e-12, 0.0, np.inf))


def _worst_failures(group: str, n: int, tau: int, z: np.ndarray, cmap: np.ndarray,
                    threshold: float) -> list[dict]:
    """The 64 grid moments with the largest |z| past the threshold, largest
    first, equal |z| in grid index order; each takes the z of its pair of
    factor products.

    Grid indices are U (rows, cols, conj rows, conj cols), each over n factors,
    and O (rows, cols) over 2n factors.  A moment pairs tensor-power columns
    i = (A, B) and j = (A', B'), so its flat grid position is a row part of i
    plus a column part of j.
    """
    dim = tau**n
    big, small = np.divmod(np.arange(dim * dim), dim)  # A and B of each column
    if group == "unitary":  # (A, B, A', B')
        shape = (dim,) * 4
        row_part, col_part = (big * dim + small) * dim**2, big * dim + small
    else:  # (A A', B B')
        shape = (dim * dim,) * 2
        row_part, col_part = big * dim**3 + small * dim, big * dim**2 + small
    members = np.split(np.argsort(cmap, kind="stable"),
                       np.cumsum(np.bincount(cmap, minlength=z.shape[0]))[:-1])
    abs_z = np.abs(z).ravel()
    failing = np.flatnonzero(abs_z > threshold)
    failing = failing[np.argsort(-abs_z[failing], kind="stable")]
    worst: list[tuple[int, float]] = []
    for _, level in itertools.groupby(failing, key=abs_z.__getitem__):
        found = []
        for k in level:
            c, d = divmod(int(k), z.shape[1])
            where = row_part[members[c]][:, None] + col_part[members[d]]
            found.extend((int(f), float(z[c, d])) for f in where.ravel())
        worst.extend(sorted(found)[:64 - len(worst)])
        if len(worst) == 64:
            break
    return [
        {"index": [int(v) for v in np.unravel_index(f, shape)], "z": value}
        for f, value in worst
    ]


def grid_crosscheck(
    group: str, n: int, tau: int, samples: int, seed: int, threshold: float = 4.0
) -> GridReport:
    """Estimate every balanced degree-(n, n) unitary (or degree-2n orthogonal)
    entry moment in one pass and z-score it against the exact prediction."""
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"unknown group {group!r}")
    if samples < 100 or n < 1 or tau < 1:
        raise ValueError(f"need samples >= 100, n >= 1 and tau >= 1, got {samples}, {n}, {tau}")
    if not 0 < threshold < inf:  # no |z| exceeds NaN, and every |z| exceeds a negative one
        raise ValueError(f"need a finite positive threshold, got {threshold}")
    fac, cmap = _factor_columns(n, tau)
    z = _class_z(group, n, tau, samples, _grid_sums(group, tau, samples, seed, fac), fac)
    return GridReport(
        group, n, tau, samples, seed, moments=tau ** (4 * n),
        max_abs_z=float(np.abs(z).max()), threshold=threshold,
        failures=_worst_failures(group, n, tau, z, cmap, threshold),
    )
