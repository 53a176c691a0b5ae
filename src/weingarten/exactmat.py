"""Exact tables and type-algebra identities shared by the two Weingarten modules.

Matrices are plain lists of row lists whose entries live in any of the
package's coefficient rings; everything here is exact, nothing is numeric.

Both groups' tables come out of ``weingarten_table``.  Each Gram entry and
each Weingarten entry depends only on the double-coset type of its basis pair
(``symcore.type_matrix``): the Gram entry is tau^(parts of the type) and the
Weingarten entry is the group's class-function value on the type.  So every
value is computed once per type and stored as one shared object in all entries
of that type; a table keeps the type index, and its JSON and CSV text is
rendered and encoded once per type and joined through that index.

Symbolic values share one denominator.  Every c_lam(t) is a product of linear
factors t + k, k a content of lam, so each divides D(t), the product of
(t + k) to the largest multiplicity of k over the shapes of n.  A value at
tau = TAU is one integer numerator, the sum of weight(lam) * D / c_lam over
the weights' common denominator, with the factors of D that divide it
divided out by synthetic division: no polynomial gcd, and one check at an
integer point against the direct rational sum.

The identity checks run in the type algebra.  Both Weingarten matrices and
both Gram matrices are invariant under a group acting transitively on the
basis (left multiplication on S_n, conjugation on pairings), so a product of
them is fixed by its row at the base index.  Row 0 of a product of two
functions of the type is again a function of the type, given by p(n)-sized
structure constants: the class algebra of S_n for U(t), the Hecke algebra of
(S_2n, H_n) for O(t).  The checks first prove invariance and transitivity
from the generators' index maps and that row 0 is constant on each type, then
build the constants from N * p(n) cycle walks and compare p(n) values.

The same algebra gives the orthogonal Weingarten values.  The Gram element
G(t), with value t^(parts) on each type, acts on the lam-component by
c_lam(t) = ``content_product(lam, t, alpha)``, so ``type_idempotents``
interpolates the primitive idempotents E_lam from G at one probe t0 where
the c_lam(t0) are distinct, and proves them before returning.  The
Weingarten value on a type is then the sum of E_lam / c_lam(tau).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .coeffring import TAU, TauPolynomial, TauRational, invert, is_symbolic, render
from .symcore import (
    Partition,
    _orbit_covers,
    cross_type_matrix,
    generator_index_maps,
    partitions_of,
    type_matrix,
)


def mat_is_symmetric(a) -> bool:
    # list comparison checks identity first, so shared entries cost no __eq__
    return all(list(col) == row for row, col in zip(a, zip(*a)))


class PseudoInverseReport:
    """Outcome of the exact pseudo-inverse identities GWG=G, WGW=W, W=W^T.

    `invariant` is the structure the type-algebra check rests on: both
    matrices are invariant under the generators, the base index's orbit is
    the whole basis, and row 0 of each is constant on each double-coset type.
    When it fails the identities are not established and read False.
    The dense products need no structure and leave it True.
    """

    def __init__(self, gwg_equals_g: bool, wgw_equals_w: bool, w_symmetric: bool,
                 invariant: bool = True):
        self.gwg_equals_g = gwg_equals_g
        self.wgw_equals_w = wgw_equals_w
        self.w_symmetric = w_symmetric
        self.invariant = invariant

    def __eq__(self, other):
        if not isinstance(other, PseudoInverseReport):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return f"PseudoInverseReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def ok(self) -> bool:
        return self.invariant and self.gwg_equals_g and self.wgw_equals_w and self.w_symmetric


def _invariant(m, maps) -> bool:
    """m[p[i]][p[j]] == m[i][j] for every map p and every i, j."""
    return all([m[p[i]][k] for k in p] == m[i] for p in maps for i in range(len(m)))


def _type_algebra(basis, *matrices):
    """Structure constants of the type algebra and each matrix's value per type.

    Returns None unless the structure holds: every matrix is square of size
    len(basis) and invariant under the generators' index maps, index 0's
    orbit is the whole basis, row 0 of every matrix is constant on each type,
    and no pair has a type that row 0 lacks.  Otherwise returns (types,
    constants, values): types are numbered as they first appear in row 0, so
    the identity type is 0, r_g is that first column of type g,
    constants[g][(a, b)] counts the k with type(0, k) = a and
    type(k, r_g) = b, and values[i][g] is matrix i's entry at (0, r_g).
    """
    size, maps = len(basis), generator_index_maps(basis)
    square = all(len(m) == size and all(len(row) == size for row in m) for m in matrices)
    if not (square and _orbit_covers(maps, size) and all(_invariant(m, maps) for m in matrices)):
        return None
    types, (row,) = cross_type_matrix([basis[0]], basis)
    reps = [row.index(g) for g in range(len(types))]
    values = [[m[0][k] for k in reps] for m in matrices]
    if not all(m[0][k] == v[g] for m, v in zip(matrices, values) for k, g in enumerate(row)):
        return None
    number = {mu: g for g, mu in enumerate(types)}
    rep_types, index = cross_type_matrix(basis, [basis[k] for k in reps])
    renumber = [number.get(mu) for mu in rep_types]
    if None in renumber:
        return None
    constants = [Counter() for _ in types]
    for a, bs in zip(row, index):
        for g, b in enumerate(bs):
            constants[g][a, renumber[b]] += 1
    return types, constants, values


def _product(constants, a, b) -> list:
    """Values per type of AB from those of A and B: row 0 of AB at each r_g."""
    return [sum((a[x] * b[y] * k for (x, y), k in c.items()), Fraction(0)) for c in constants]


def type_pseudo_inverse_check(gram, wg, basis) -> PseudoInverseReport:
    """GWG=G, WGW=W in the type algebra of `basis`, and W=W^T entrywise.

    Invariance under the generators gives invariance under the group they
    generate, and an orbit covering the basis makes every row an image of
    row 0, so the identities hold everywhere once they hold on row 0.  Row 0
    of each product is computed per double-coset type from the structure
    constants.  Failures are reported, never raised.
    """
    algebra = _type_algebra(basis, gram, wg)
    if algebra is None:
        return PseudoInverseReport(False, False, False, invariant=False)
    _, constants, (g, w) = algebra
    gw = _product(constants, g, w)
    return PseudoInverseReport(
        gwg_equals_g=_product(constants, gw, g) == g,
        wgw_equals_w=_product(constants, w, gw) == w,
        w_symmetric=mat_is_symmetric(wg),
    )


def type_commutation_check(a, b, basis) -> bool:
    """AB = BA, compared in the type algebra of `basis` after proving the structure."""
    algebra = _type_algebra(basis, a, b)
    if algebra is None:
        return False
    _, constants, (x, y) = algebra
    return _product(constants, x, y) == _product(constants, y, x)


def _probe(n: int, alpha: int) -> int:
    """The first positive integer t0 at which the c_lam(t0) of the shapes of n are distinct."""
    shapes, t0 = partitions_of(n), 1
    while len({content_product(lam, t0, alpha) for lam in shapes}) < len(shapes):
        t0 += 1
    return t0


def type_idempotents(n: int, basis, alpha: int):
    """Primitive idempotents E_lam of the type algebra of `basis`, as values per type.

    G(t0) has value t0^(parts) on each type and acts on the lam-component by
    c_lam = content_product(lam, t0, alpha); with the c_lam distinct,
    E_lam = product over mu != lam of (G(t0) - c_mu) / (c_lam - c_mu).
    Returns (types, {lam: E_lam's value on each type}) after proving the
    structure, that every E_lam is nonzero with G(t0) E_lam = c_lam E_lam, and
    that the E_lam sum to the unit.  Each E_lam is a polynomial in G(t0), so
    these give E_lam E_mu = delta E_lam.  Raises ValueError naming the first
    identity that fails.
    """
    algebra = _type_algebra(basis)
    if algebra is None:
        raise ValueError("type idempotents: the basis fails the type-algebra structure proof")
    types, constants, _ = algebra
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
    excluded shapes.  Both groups' Weingarten values are such sums.  tau is
    a rational or the indeterminate TAU (`_symbolic_sum`); any other
    TauRational is a ValueError.
    """
    if isinstance(tau, TauRational):
        if tau != TAU:
            raise ValueError(f"spectral sums take TAU or a rational tau, not {render(tau)}")
        return _symbolic_sum(n, alpha, weight)
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


def _linear_product(factors) -> list[int]:
    """Coefficients, ascending, of the product of (t + k)^m over {k: m}."""
    poly = [1]
    for k, m in sorted(factors.items()):
        for _ in range(m):
            poly = [a + k * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def _synthetic_division(poly: list[int], root: int) -> tuple[list[int], int]:
    """Quotient and remainder of poly (ascending) by t - root."""
    quotient, carry = [0] * (len(poly) - 1), 0
    for d in range(len(poly) - 1, 0, -1):
        carry = poly[d] + root * carry
        quotient[d - 1] = carry
    return quotient, poly[0] + root * carry


def _at(poly: list[int], t: int) -> int:
    """poly (ascending) evaluated at t, by Horner's rule."""
    value = 0
    for c in reversed(poly):
        value = value * t + c
    return value


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
    left = {}
    for k, m in top.items():
        while m:
            quotient, rest = _synthetic_division(num, -k)
            if rest:
                break
            num, m = quotient, m - 1
        left[k] = m
    den = _linear_product(left)
    direct = sum((w / content_product(lam, n, alpha) for lam, w in weights.items()), Fraction(0))
    if Fraction(_at(num, n), scale * _at(den, n)) != direct:
        raise ValueError(f"spectral sum: the reduced value differs from the direct sum at t = {n}")
    return TauRational._raw(TauPolynomial(Fraction(c, scale) for c in num), TauPolynomial(den))


def type_texts(matrix, index) -> list[str]:
    """render() of each type's value in `matrix`, read at its first column in row 0.

    Row 0 of a ``symcore.type_matrix`` index meets every type, in the order
    they are numbered, and a table's matrices are constant on each type.
    """
    row = index[0]
    return [render(matrix[0][row.index(g)]) for g in range(max(row) + 1)]


def render_matrix(matrix, index) -> list[list[str]]:
    """Text of every entry of a matrix constant on the types of `index`, one render per type."""
    texts = type_texts(matrix, index)
    return [list(map(texts.__getitem__, row)) for row in index]


def _json_matrix(matrix, index) -> str:
    """``json.dumps(render_matrix(matrix, index))``, each type's text encoded once."""
    texts = [json.dumps(text) for text in type_texts(matrix, index)]
    return "[" + ", ".join("[" + ", ".join(map(texts.__getitem__, row)) + "]" for row in index) + "]"


class WeingartenTable:
    """Gram and Weingarten matrices of U(tau) or O(tau) for one (n, tau).

    The basis is S_n for the unitary group and the pairings of {1,...,2n} for
    the orthogonal one; `excluded` lists the shapes whose c_lam vanishes at
    tau.  A Gram-only table has no Weingarten matrix, and its JSON form has
    neither that matrix nor the excluded shapes.  Both matrices are functions
    of the double-coset type, and `index` is the basis's type index
    (``symcore.type_matrix``) that they are rendered through; a table made
    without one types its basis when it is rendered.
    """

    def __init__(self, group: str, n: int, tau, basis: list, gram: list[list],
                 weingarten: list[list] | None = None, excluded: list[Partition] | None = None,
                 index: list[list[int]] | None = None):
        self.group = group
        self.n = n
        self.tau = tau
        self.basis = basis
        self.gram = gram
        self.weingarten = weingarten
        self.excluded = [] if excluded is None else excluded
        self.index = index

    def _type_index(self) -> list[list[int]]:
        return self.index if self.index is not None else type_matrix(self.basis)[1]

    def _head(self) -> dict:
        return {
            "group": self.group,
            "n": self.n,
            "tau": "symbolic" if is_symbolic(self.tau) else render(Fraction(self.tau)),
            "basis": [p.to_text() for p in self.basis],
        }

    def to_json_dict(self) -> dict:
        index = self._type_index()
        payload = self._head()
        payload["gram"] = render_matrix(self.gram, index)
        if self.weingarten is not None:
            payload["weingarten"] = render_matrix(self.weingarten, index)
            payload["excluded"] = [p.to_text() for p in self.excluded]
        return payload

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, each matrix encoded once per type."""
        index = self._type_index()
        parts = [json.dumps(self._head())[:-1], ', "gram": ', _json_matrix(self.gram, index)]
        if self.weingarten is not None:
            parts += [', "weingarten": ', _json_matrix(self.weingarten, index),
                      ', "excluded": ', json.dumps([p.to_text() for p in self.excluded])]
        return "".join(parts) + "}"

    def pseudo_inverse_report(self) -> PseudoInverseReport:
        """GWG=G, WGW=W and W=W^T in the type algebra of this table's basis."""
        return type_pseudo_inverse_check(self.gram, self.weingarten, self.basis)


def weingarten_table(
    group: str, n: int, tau, basis, value=None, alpha: int | None = None
) -> WeingartenTable:
    """Assemble a table from the type matrix of `basis`.

    The Gram entry of a type is tau^(its number of parts), the Weingarten
    entry is value(type, tau), and the excluded shapes are those whose
    content_product(lam, tau, alpha) vanishes (none when tau is symbolic).
    With value None only the Gram matrix is built.  Every entry of a type
    is one shared value object.
    """
    if n < 1:
        raise ValueError(f"{group} tables require n >= 1, got {n}")
    types, index = type_matrix(basis)
    powers = tau_powers(tau, n)
    gram_of = [powers[len(mu)] for mu in types]
    gram = [list(map(gram_of.__getitem__, row)) for row in index]
    if value is None:
        return WeingartenTable(group, n, tau, basis, gram, index=index)
    wg_of = [value(mu, tau) for mu in types]
    wg = [list(map(wg_of.__getitem__, row)) for row in index]
    excluded = [] if is_symbolic(tau) else [
        lam for lam in partitions_of(n) if not content_product(lam, tau, alpha)
    ]
    return WeingartenTable(group, n, tau, basis, gram, wg, excluded, index)
