"""Exact tables and type-algebra identities shared by the two Weingarten modules.

Both groups' tables come out of ``weingarten_table``.  Each Gram entry and
each Weingarten entry depends only on the double-coset type of its basis
pair: tau^(parts of the type), and the group's class-function value on it.
So a table holds one exact value of each per type, and no N x N list.  Only
rendering needs the type of every pair: JSON and CSV are written one matrix
row at a time, each row carried from the type algebra's row 0 and joined
through it from texts rendered once per type.

Symbolic values share one denominator.  Every c_lam(t) is a product of linear
factors t + k, k a content of lam, so each divides D(t), the product of
(t + k) to the largest multiplicity of k over the shapes of n.  A value at
tau = TAU is one integer numerator, the sum of weight(lam) * D / c_lam over
the weights' common denominator, with the factors of D that divide it
divided out by synthetic division: no polynomial gcd, and one check at an
integer point against the direct rational sum.

The identity checks run in the type algebra.  The type of a basis pair is
invariant under a group acting transitively on the basis (left
multiplication on S_n, conjugation on pairings), so a product of two
functions of the type is again one, fixed by its row at the base index, and
row 0 of it is given by p(n)-sized structure constants: the class algebra of
S_n for U(t), the Hecke algebra of (S_2n, H_n) for O(t).  ``_type_algebra``
proves transitivity from the generators' index maps and walks row 0, then
builds the constants and the transpose of each type from N * p(n) cycle
walks, once per group and n; tables, rendering, checks, idempotents and the
``central`` suite of ``verify`` share it.  A symbolic table's identities are
proved at integer points (`_points`), with no rational-function arithmetic.

The same algebra gives the orthogonal Weingarten values.  The Gram element
G(t), with value t^(parts) on each type, acts on the lam-component by
c_lam(t) = ``content_product(lam, t, ALPHA[group])``, so ``type_idempotents``
interpolates the primitive idempotents E_lam from G at one probe t0 where
the c_lam(t0) are distinct, and proves them before returning.  The
Weingarten value on a type is then the sum of E_lam / c_lam(tau).
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .coeffring import TAU, TauRational, _at, _divide_out, _linear_product, _numerators, _poly
from .coeffring import is_symbolic, render
from .symcore import (
    Partition,
    _orbit_covers,
    carried_index,
    cross_type_matrix,
    enumerate_pairings,
    generator_index_maps,
    partitions_of,
    permutations_of,
)

# each group's canonical basis: S_n, and the pairings of {1,...,2n}
BASES = {"unitary": permutations_of, "orthogonal": enumerate_pairings}
# each group's alpha in the content products c_lam (see `content_product`)
ALPHA = {"unitary": 1, "orthogonal": 2}

TypeAlgebra = namedtuple("TypeAlgebra", "basis types maps row constants transposes")


class PseudoInverseReport(
    namedtuple("PseudoInverseReport", "gwg_equals_g wgw_equals_w w_symmetric invariant", defaults=(True,))
):
    """Outcome of the exact pseudo-inverse identities GWG=G, WGW=W, W=W^T.

    `invariant` is the structure the type-algebra check rests on: the
    generators permute the basis in one orbit, and the table's basis and
    types are those its type algebra was built on.  When it fails the
    identities read False.  The dense products leave it True.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(self)


@lru_cache(maxsize=None)
def _type_algebra(group: str, n: int):
    """The type algebra of the group's basis at n, or None when its structure fails.

    The structure holds when the generators' index maps permute the basis in
    one orbit and no pair (k, r_g) has a type that row 0 lacks.  Returns its
    basis, types, maps and row 0: types are numbered as they first appear in
    row 0, so the identity type is 0, r_g is that first column of type g,
    constants[g][(a, b)] counts the k with type(0, k) = a and
    type(k, r_g) = b, and transposes[g] is the type of (r_g, r_0), r_0 being
    b_0.  Shared by every caller: nothing returned may be changed.
    """
    basis = BASES[group](n)
    maps = generator_index_maps(basis)
    if not _orbit_covers(maps, len(basis)):
        return None
    types, (row,) = cross_type_matrix([basis[0]], basis)
    reps = [basis[row.index(g)] for g in range(len(types))]
    number = {mu: g for g, mu in enumerate(types)}
    rep_types, index = cross_type_matrix(basis, reps)
    renumber = [number.get(mu) for mu in rep_types]
    if None in renumber:
        return None
    constants = [Counter() for _ in types]
    for a, bs in zip(row, index):
        for g, b in enumerate(bs):
            constants[g][a, renumber[b]] += 1
    transposes = [renumber[index[row.index(g)][0]] for g in range(len(types))]
    return TypeAlgebra(basis, types, maps, row, constants, transposes)


def _table_algebra(table):
    """The type algebra of the table's group and n, or None unless it proved the table's basis and types."""
    algebra = _type_algebra(table.group, table.n)
    if algebra is None or algebra.basis != table.basis or algebra.types != table.types:
        return None
    return algebra


def _product(constants, a, b) -> list:
    """Values per type of AB from those of A and B: row 0 of AB at each r_g."""
    return [sum(a[x] * b[y] * k for (x, y), k in c.items()) for c in constants]


def type_commutation_check(a, b) -> bool:
    """AB = BA for two matrices read through tables of one basis, in its type algebra."""
    algebra = _table_algebra(a.table)
    if algebra is None or _table_algebra(b.table) != algebra:
        return False
    constants = algebra.constants
    return _product(constants, a.values, b.values) == _product(constants, b.values, a.values)


def _probe(n: int, alpha: int) -> int:
    """The first positive integer t0 at which the c_lam(t0) of the shapes of n are distinct."""
    shapes, t0 = partitions_of(n), 1
    while len({content_product(lam, t0, alpha) for lam in shapes}) < len(shapes):
        t0 += 1
    return t0


def type_idempotents(group: str, n: int):
    """Primitive idempotents E_lam of the type algebra of the group's basis, as values per type.

    G(t0) has value t0^(parts) on each type and acts on the lam-component by
    c_lam = content_product(lam, t0, ALPHA[group]); with the c_lam distinct,
    E_lam = product over mu != lam of (G(t0) - c_mu) / (c_lam - c_mu).
    Returns (types, {lam: E_lam's value on each type}) after proving the
    structure, that every E_lam is nonzero with G(t0) E_lam = c_lam E_lam, and
    that the E_lam sum to the unit.  Each E_lam is a polynomial in G(t0), so
    these give E_lam E_mu = delta E_lam.  Raises ValueError naming the first
    identity that fails.
    """
    algebra = _type_algebra(group, n)
    if algebra is None:
        raise ValueError("type idempotents: the basis fails the type-algebra structure proof")
    types, constants, alpha = algebra.types, algebra.constants, ALPHA[group]
    t0, shapes = _probe(n, alpha), partitions_of(n)
    c = {lam: content_product(lam, t0, alpha) for lam in shapes}
    if len(set(c.values())) < len(shapes):
        raise ValueError(f"type idempotents: two c_lam({t0}) coincide")
    gram = [Fraction(t0) ** len(mu) for mu in types]
    unit = [Fraction(int(g == 0)) for g in range(len(types))]
    idempotents = {}
    for lam in shapes:
        e = unit
        for mu in shapes:
            if mu != lam:
                scale = 1 / (c[lam] - c[mu])
                factor = [(x - c[mu] * u) * scale for x, u in zip(gram, unit)]
                e = factor if e is unit else _product(constants, e, factor)
        if not any(e) or _product(constants, gram, e) != [c[lam] * x for x in e]:
            raise ValueError(f"type idempotents: G E_lam != c_lam E_lam at lam = {lam.to_text()}")
        idempotents[lam] = e
    if [sum(col) for col in zip(*idempotents.values())] != unit:
        raise ValueError("type idempotents: the E_lam do not sum to the unit")
    return types, idempotents


def tau_powers(tau, n: int) -> list:
    """[1, tau, tau^2, ..., tau^n]."""
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
    excluded shapes.  Both groups' Weingarten values are such sums.  tau is
    a rational or the indeterminate TAU (`_symbolic_sum`); any other
    TauRational is a ValueError.
    """
    if isinstance(tau, TauRational):
        if tau != TAU:
            raise ValueError(f"spectral sums take TAU or a rational tau, not {render(tau)}")
        return _symbolic_sum(n, alpha, weight)
    total = Fraction(0)
    for lam in partitions_of(n):
        c = content_product(lam, tau, alpha)
        if c and (w := weight(lam)):
            total += w / c
    return total


@lru_cache(maxsize=None)
def _cofactors(n: int, alpha: int):
    """The shared denominator D of the c_lam(t) of the shapes of n, and each D / c_lam.

    c_lam(t) is the product of (t + k) over the contents k = alpha(j-1) - (i-1)
    of lam's boxes, so D, the product of (t + k) to the largest multiplicity
    of k over the shapes, is a multiple of every c_lam.  Returns ({k: its
    multiplicity in D}, {lam: integer coefficients of D / c_lam, ascending}),
    shared by every caller: neither may be changed.
    """
    contents = {
        lam: Counter(alpha * (j - 1) - (i - 1) for i, j in lam.cells()) for lam in partitions_of(n)
    }
    top = Counter()
    for c in contents.values():
        top |= c
    return top, {lam: _linear_product(top - c) for lam, c in contents.items()}


def _symbolic_sum(n: int, alpha: int, weight):
    """spectral_sum at tau = TAU, over the shared denominator D of `_cofactors`.

    No c_lam(t) vanishes.  The numerator sum of weight(lam) * (D / c_lam) is
    formed in integers over the least common denominator of the weights,
    then every linear factor of D that divides it is divided out by
    synthetic division.  What is left is D's other factors, so the result is
    the reduced TauRational with monic denominator that a running sum of
    TauRationals gives.  The value is checked at t = n, where every factor
    t + k is at least 1, against the direct Fraction sum; a mismatch is a
    ValueError.
    """
    top, cofactors = _cofactors(n, alpha)
    weights = {lam: Fraction(w) for lam in cofactors if (w := weight(lam))}
    if not weights:
        return Fraction(0)
    scale = lcm(*(w.denominator for w in weights.values()))
    num = [0] * max(map(len, cofactors.values()))
    for lam, w in weights.items():
        a = w.numerator * (scale // w.denominator)
        for d, c in enumerate(cofactors[lam]):
            num[d] += a * c
    while num and not num[-1]:
        num.pop()
    if not num:
        return TauRational(0)
    num, left = _divide_out(num, top)
    den = _linear_product(left)
    direct = sum((w / content_product(lam, n, alpha) for lam, w in weights.items()), Fraction(0))
    if Fraction(_at(num, n), scale * _at(den, n)) != direct:
        raise ValueError(f"spectral sum: the reduced value differs from the direct sum at t = {n}")
    return TauRational._raw(_poly(Fraction(c, scale) for c in num), _poly(den))


def integer_points(n: int, degree: int) -> range:
    """degree + 1 integers from n: polynomials of degree at most `degree` that agree there are equal.

    Every factor t + k of D is at least 1 there, since each content k is at least 1 - n.
    """
    return range(n, n + degree + 1)


def _points(group: str, n: int, gram: list, weingarten: list):
    """Symbolic Gram and Weingarten values at enough integer points to prove GWG = G and WGW = W.

    None unless every Gram value is a polynomial and every Weingarten
    denominator divides D, the shared denominator of `_cofactors`.  With
    d = deg D, m the largest degree of D W_g and n_G that of G_g,
    D (GWG - G) is a polynomial on each type of degree at most
    max(2 n_G + m, n_G + d), and D^2 (WGW - W) one of degree at most
    max(n_G + 2 m, m + d).  D is nonzero at `integer_points`, so both
    identities hold at every t once they hold at the larger degree + 1.
    """
    top, _ = _cofactors(n, ALPHA[group])
    values = [x if isinstance(x, TauRational) else TauRational(x) for x in gram + weingarten]
    gram, weingarten = values[:len(gram)], values[len(gram):]
    if any(len(x.den) > 1 for x in gram) or any(len(_divide_out(x.den, top)[0]) > 1 for x in weingarten):
        return None
    d = sum(top.values())
    n_g = max(len(x.num) - 1 for x in gram)
    m = max((len(x.num) - len(x.den) + d for x in weingarten if x), default=0)
    degree = max(2 * n_g + m, n_g + d, n_g + 2 * m, m + d)
    return [
        ([_at(x.num, t) for x in gram], [_at(x.num, t) / _at(x.den, t) for x in weingarten])
        for t in integer_points(n, degree)
    ]


def _csv_fields(texts: list[str]) -> list[str]:
    """Each nonempty one-line text as a CSV writer writes it in a row of several fields."""
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([text] for text in texts)
    return buf.getvalue().split("\n")[:-1]


class TypeRows:
    """A matrix with one value per type of a table's basis pairs, read row by row through its index."""

    def __init__(self, table: WeingartenTable, values: list):
        self.table = table
        self.values = values

    def __len__(self) -> int:
        return len(self.table.basis)

    def __getitem__(self, i: int) -> list:
        return list(map(self.values.__getitem__, self.table.index[i]))


class WeingartenTable:
    """Gram and Weingarten matrices of U(tau) or O(tau) for one (n, tau), one value per type.

    The basis is S_n for the unitary group and the pairings of {1,...,2n} for
    the orthogonal one; `types` are the double-coset types of basis pairs,
    numbered as row 0 meets them; `excluded` lists the shapes whose c_lam
    vanishes at tau.  A Gram-only table has no Weingarten values, and its
    JSON form has neither that matrix nor the excluded shapes.
    """

    def __init__(self, group: str, n: int, tau, basis: list, types: list[Partition],
                 gram_by_type: list, weingarten_by_type: list | None = None,
                 excluded: list[Partition] | None = None):
        self.group = group
        self.n = n
        self.tau = tau
        self.basis = basis
        self.types = types
        self.gram_by_type = gram_by_type
        self.weingarten_by_type = weingarten_by_type
        self.excluded = [] if excluded is None else excluded

    @cached_property
    def index(self) -> list[list[int]]:
        """The N x N type index, carried from row 0 of the type algebra that proved the basis and types."""
        algebra = _table_algebra(self)
        if algebra is None:
            raise ValueError(f"{self.group} table: the basis or types are not those its type algebra proved")
        return carried_index(algebra.maps, algebra.row)

    @property
    def gram(self) -> TypeRows:
        return TypeRows(self, self.gram_by_type)

    @property
    def weingarten(self) -> TypeRows | None:
        return None if self.weingarten_by_type is None else TypeRows(self, self.weingarten_by_type)

    def json_chunks(self):
        """The table's JSON text and a newline, one matrix row per chunk.

        Every proof and rendering runs before the first chunk.
        """
        index, values = self.index, {"gram": self.gram_by_type, "weingarten": self.weingarten_by_type}
        texts = {name: [json.dumps(render(x)) for x in v] for name, v in values.items() if v is not None}
        tau = "symbolic" if is_symbolic(self.tau) else render(Fraction(self.tau))
        basis = [p.to_text() for p in self.basis]
        yield json.dumps({"group": self.group, "n": self.n, "tau": tau, "basis": basis})[:-1]
        for name, text in texts.items():
            yield f', "{name}": ['
            for k, row in enumerate(index):
                yield (", [" if k else "[") + ", ".join(map(text.__getitem__, row)) + "]"
            yield "]"
        if self.weingarten_by_type is not None:
            yield ', "excluded": ' + json.dumps([p.to_text() for p in self.excluded])
        yield "}\n"

    def csv_chunks(self):
        """W (G for a Gram-only table) as CSV under a header of basis labels, one line per chunk.

        Every proof and rendering runs before the first chunk.
        """
        index = self.index
        values = self.gram_by_type if self.weingarten_by_type is None else self.weingarten_by_type
        labels = _csv_fields([p.to_text() for p in self.basis])
        texts = _csv_fields([render(x) for x in values])
        yield "," + ",".join(labels) + "\n"
        for label, row in zip(labels, index):
            yield label + "," + ",".join(map(texts.__getitem__, row)) + "\n"

    def pseudo_inverse_report(self) -> PseudoInverseReport:
        """GWG=G, WGW=W and W=W^T in the type algebra of this table's basis.

        Every row is an image of row 0, where the products are computed per
        type, symbolic values' at the integer points of `_points`.  With
        G = A/p and W = B/q for integer A and B, GWG = G is ABA = pqA and
        WGW = W is BAB = pqB, compared in integers.  W is symmetric because
        each type is closed under transposition: (r_g, 0) has type g.
        Failures are reported, never raised.
        """
        algebra = _table_algebra(self)
        if algebra is None:
            return PseudoInverseReport(False, False, False, invariant=False)
        constants = algebra.constants
        g, w = self.gram_by_type, self.weingarten_by_type
        symmetric = algebra.transposes == list(range(len(g)))
        symbolic = any(isinstance(x, TauRational) for x in g + w)
        points = _points(self.group, self.n, g, w) if symbolic else [(g, w)]
        if points is None:
            return PseudoInverseReport(False, False, symmetric)
        gwg = wgw = True
        for g, w in points:
            (p, a), (q, b) = _numerators(g), _numerators(w)
            ab = _product(constants, a, b)
            gwg = gwg and _product(constants, ab, a) == [p * q * x for x in a]
            wgw = wgw and _product(constants, b, ab) == [p * q * x for x in b]
        return PseudoInverseReport(gwg, wgw, symmetric)


def weingarten_table(group: str, n: int, tau, value=None) -> WeingartenTable:
    """Assemble a table on the group's basis from its type algebra.

    The Gram value of a type is tau^(its number of parts), the Weingarten
    value is value(type, tau), and the excluded shapes are those whose
    content_product(lam, tau, ALPHA[group]) vanishes (none when tau is symbolic).
    With value None only the Gram values are built.
    """
    if n < 1:
        raise ValueError(f"{group} tables require n >= 1, got {n}")
    algebra = _type_algebra(group, n)
    if algebra is None:
        raise ValueError(f"{group} table: the basis fails the type-algebra structure proof")
    basis, types = algebra.basis, algebra.types
    powers = tau_powers(tau, n)
    gram = [powers[len(mu)] for mu in types]
    if value is None:
        return WeingartenTable(group, n, tau, basis, types, gram)
    excluded = [] if is_symbolic(tau) else [
        lam for lam in partitions_of(n) if not content_product(lam, tau, ALPHA[group])
    ]
    return WeingartenTable(group, n, tau, basis, types, gram, [value(mu, tau) for mu in types], excluded)
