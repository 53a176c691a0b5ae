"""Exact tables and dense-matrix helpers shared by the two Weingarten modules.

Matrices are plain lists of row lists whose entries live in any of the
package's coefficient rings; everything here is exact, nothing is numeric.

Both groups' tables come out of ``weingarten_table``.  Each Gram entry and
each Weingarten entry depends only on the double-coset type of its basis pair
(``symcore.type_matrix``): the Gram entry is tau^(parts of the type) and the
Weingarten entry is the group's class-function value on the type.  So every
value is computed once per type, stored as one shared object in all entries of
that type, and rendered once per type.

The identity checks run on one row.  Both Weingarten matrices and both Gram
matrices are invariant under a group acting transitively on the basis (left
multiplication on S_n, conjugation on pairings), and a product of invariant
matrices is invariant again, so it is fixed by its row at the base index.
The row checks first prove that invariance and transitivity from the
generators' index maps, then compare that single row, in O(N^2) dictionary
work and a handful of exact ring operations.  ``mat_mul`` is the dense O(N^3)
product, kept as the reference the tests compare against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .coeffring import invert, is_symbolic, render
from .symcore import Partition, generator_index_maps, partitions_of, type_matrix


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                x = row_a[t]
                if not x:
                    continue
                y = b[t][j]
                if not y:
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Fraction(0))
        out.append(row)
    return out


def pseudo_inverse_check(gram, wg) -> PseudoInverseReport:
    """Dense O(N^3) check by exact multiplication, the reference for the tests.

    Production paths use ``row_pseudo_inverse_check``, which needs only one
    row.  Failures are reported, never raised.
    """
    gw = mat_mul(gram, wg)
    return PseudoInverseReport(
        gwg_equals_g=mat_mul(gw, gram) == gram,
        wgw_equals_w=mat_mul(wg, gw) == wg,
        w_symmetric=mat_is_symmetric(wg),
    )


def mat_identity(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_is_symmetric(a) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


@dataclass
class PseudoInverseReport:
    """Outcome of the exact pseudo-inverse identities GWG=G, WGW=W, W=W^T.

    `invariant` is the structure the one-row check rests on: both matrices are
    invariant under the generators and the base index's orbit is the whole
    basis.  When it fails the identities are not established and read False.
    The dense products need no structure and leave it True.
    """

    gwg_equals_g: bool
    wgw_equals_w: bool
    w_symmetric: bool
    invariant: bool = True

    @property
    def ok(self) -> bool:
        return self.invariant and self.gwg_equals_g and self.wgw_equals_w and self.w_symmetric


# pair (a, b) of value numbers packed into one int; far above any count of distinct values
_SHIFT = 32


class _Values:
    """Distinct ring values, numbered once; equal values share a number.

    Matrices become rows of numbers, so invariance is integer comparison, and
    a row times a matrix sums each column by counting its (row value, matrix
    value) pairs.  Both memos are keyed by value numbers alone, so every
    product and every sum of one pair multiset is computed once per check.
    """

    def __init__(self):
        self.number: dict = {}
        self.values: list = []
        self._products: dict[int, object] = {}
        self._sums: dict[frozenset, int] = {}

    def of(self, x) -> int:
        k = self.number.get(x)
        if k is None:
            k = self.number[x] = len(self.values)
            self.values.append(x)
        return k

    def matrix(self, rows) -> list[list[int]]:
        """Number the entries, hashing each distinct object by value once.

        Table entries are a few shared objects, so each entry is looked up by
        id() first.  `rows` keeps every entry alive for this call, so no id is
        reused while the map exists; the map dies with the call.
        """
        by_id: dict[int, int] = {}
        out = []
        for row in rows:
            ids = list(map(id, row))
            numbers = list(map(by_id.get, ids))
            if None in numbers:
                for j, x in enumerate(row):
                    if numbers[j] is None:
                        numbers[j] = by_id[ids[j]] = self.of(x)
            out.append(numbers)
        return out

    def row_times(self, row: list[int], columns: list[tuple[int, ...]]) -> list[int]:
        shifted = [a << _SHIFT for a in row]
        out = []
        for col in columns:
            signature = frozenset(Counter(map(add, shifted, col)).items())
            k = self._sums.get(signature)
            if k is None:
                k = self._sums[signature] = self.of(self._sum(signature))
            out.append(k)
        return out

    def _sum(self, signature):
        acc = Fraction(0)
        mask = (1 << _SHIFT) - 1
        for pair, count in signature:
            term = self._products.get(pair)
            if term is None:
                term = self._products[pair] = self.values[pair >> _SHIFT] * self.values[pair & mask]
            acc = acc + (term if count == 1 else term * count)
        return acc


def _orbit_covers(maps, size: int) -> bool:
    """Every map permutes range(size) and index 0 reaches every index."""
    everything = set(range(size))
    if any(len(p) != size or set(p) != everything for p in maps):
        return False
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for p in maps:
            if p[i] not in seen:
                seen.add(p[i])
                frontier.append(p[i])
    return len(seen) == size


def _invariant(m: list[list[int]], maps) -> bool:
    """m[p[i]][p[j]] == m[i][j] for every map p and every i, j."""
    return all(
        [m[p[i]][k] for k in p] == m[i]
        for p in maps
        for i in range(len(m))
    )


def _structured(maps, *matrices) -> bool:
    if not maps:
        return False
    size = len(maps[0])
    if any(len(m) != size or any(len(row) != size for row in m) for m in matrices):
        return False
    return _orbit_covers(maps, size) and all(_invariant(m, maps) for m in matrices)


def row_pseudo_inverse_check(gram, wg, maps) -> PseudoInverseReport:
    """GWG=G, WGW=W on the base row, W=W^T, after proving the structure.

    `maps` are the generators' index maps on the basis (entry i is the index
    of g . basis[i], or None when the image is missing); index 0 is the base.
    Invariance under the generators gives invariance under the group they
    generate, and an orbit covering the basis makes every row an image of
    row 0, so the two identities hold everywhere once they hold there.
    Failures are reported, never raised.
    """
    values = _Values()
    g, w = values.matrix(gram), values.matrix(wg)
    if not _structured(maps, g, w):
        return PseudoInverseReport(False, False, False, invariant=False)
    g_cols, w_cols = list(zip(*g)), list(zip(*w))
    return PseudoInverseReport(
        gwg_equals_g=values.row_times(values.row_times(g[0], w_cols), g_cols) == g[0],
        wgw_equals_w=values.row_times(values.row_times(w[0], g_cols), w_cols) == w[0],
        w_symmetric=all(list(col) == row for row, col in zip(w, w_cols)),
    )


def row_commutation_check(a, b, maps) -> bool:
    """AB = BA, compared on the base row after proving the same structure."""
    values = _Values()
    ai, bi = values.matrix(a), values.matrix(b)
    if not _structured(maps, ai, bi):
        return False
    return values.row_times(ai[0], list(zip(*bi))) == values.row_times(bi[0], list(zip(*ai)))


def tau_powers(tau, n: int) -> list:
    """[1, tau, tau^2, ..., tau^n], each power one shared object."""
    powers = [Fraction(1)]
    for _ in range(n):
        powers.append(powers[-1] * tau)
    return powers


def content_product(lam: Partition, tau, alpha: int):
    """c_lam = product over the boxes (i, j) of lam of (tau + alpha(j-1) - (i-1)).

    alpha = 1 gives the unitary eigenvalue product of (tau + j - i), alpha = 2
    the orthogonal one of (tau + 2j - 1 - i).
    """
    lam = Partition(lam)
    acc = None
    for i, j in lam.cells():
        factor = tau + Fraction(alpha * (j - 1) - (i - 1))
        acc = factor if acc is None else acc * factor
    return acc if acc is not None else Fraction(1)


def spectral_sum(n: int, tau, alpha: int, weight):
    """Sum over the shapes lam of n with c_lam != 0 of weight(lam) / c_lam.

    c_lam is content_product(lam, tau, alpha).  Leaving out the shapes where
    it vanishes is the pseudo-inverse prescription; they are a table's
    excluded shapes.  Both groups' Weingarten values are such sums.
    """
    total = None
    for lam in partitions_of(n):
        c = content_product(lam, tau, alpha)
        if not c:
            continue
        w = weight(lam)
        if not w:
            continue
        term = invert(c) * w
        total = term if total is None else total + term
    return total if total is not None else Fraction(0)


def render_matrix(matrix) -> list[list[str]]:
    """Text of every entry, each distinct entry object rendered once.

    ``weingarten_table`` shares one value object among all entries of a type,
    so its matrices render once per type, not once per entry.
    """
    texts = {id(x): x for row in matrix for x in row}
    for key, x in texts.items():
        texts[key] = render(x)
    return [[texts[id(x)] for x in row] for row in matrix]


@dataclass
class WeingartenTable:
    """Gram and Weingarten matrices of U(tau) or O(tau) for one (n, tau).

    The basis is S_n for the unitary group and the pairings of {1,...,2n} for
    the orthogonal one; `excluded` lists the shapes whose c_lam vanishes at
    tau.  A Gram-only table has no Weingarten matrix, and its JSON form has
    neither that matrix nor the excluded shapes.
    """

    group: str
    n: int
    tau: object
    basis: list
    gram: list[list]
    weingarten: list[list] | None = None
    excluded: list[Partition] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        payload = {
            "group": self.group,
            "n": self.n,
            "tau": "symbolic" if is_symbolic(self.tau) else render(Fraction(self.tau)),
            "basis": [p.to_text() for p in self.basis],
            "gram": render_matrix(self.gram),
        }
        if self.weingarten is not None:
            payload["weingarten"] = render_matrix(self.weingarten)
            payload["excluded"] = [p.to_text() for p in self.excluded]
        return payload

    def pseudo_inverse_report(self) -> PseudoInverseReport:
        """GWG=G, WGW=W and W=W^T by the one-row check on this table's basis."""
        maps = generator_index_maps(self.basis)
        return row_pseudo_inverse_check(self.gram, self.weingarten, maps)


def weingarten_table(
    group: str, n: int, tau, basis, value=None, alpha: int | None = None
) -> WeingartenTable:
    """Assemble a table from the type matrix of `basis`.

    The Gram entry of a type is tau^(its number of parts), the Weingarten
    entry is value(type, tau), and the excluded shapes are those whose
    content_product(lam, tau, alpha) vanishes (none when tau is symbolic).
    With value None only the Gram matrix is built.
    """
    if n < 1:
        raise ValueError(f"{group} tables require n >= 1, got {n}")
    types, index = type_matrix(basis)
    powers = tau_powers(tau, n)
    gram_of = [powers[len(mu)] for mu in types]
    gram = [[gram_of[k] for k in row] for row in index]
    if value is None:
        return WeingartenTable(group, n, tau, basis, gram)
    wg_of = [value(mu, tau) for mu in types]
    wg = [[wg_of[k] for k in row] for row in index]
    excluded = [lam for lam in partitions_of(n) if not content_product(lam, tau, alpha)]
    return WeingartenTable(group, n, tau, basis, gram, wg, excluded)
