"""Sparse group-algebra arithmetic in C[S_n] with exact rational coefficients.

Coefficients are ``fractions.Fraction``.  Sums and scalar multiples also
take :class:`~weingarten.coeffring.TauRational` ones, but differences and
products do not: a product of two elements sums integer numerators over a
common denominator in one kernel, and a symbolic identity is checked by
products at integer values of t.  Elements are immutable by convention: no
method mutates ``terms`` after construction.  The kernel is plain Python,
so no product loads numpy.

This module owns the Jucys-Murphy elements, the two product expansions that
reproduce Gram matrices (all permutations weighted by cycle count for the
unitary case, odd-indexed factors for the orthogonal case), and the
hyperoctahedral averaging projector.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .coeffring import render
from .symcore import Permutation


class AlgebraElement:
    """Finitely supported map from S_n to a coefficient ring."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        if terms:
            self.terms = {p: c for p, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def unit(cls, n: int, coeff=Fraction(1)) -> "AlgebraElement":
        return cls(n, {Permutation.identity(n): coeff})

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n)

    @classmethod
    def basis(cls, sigma: Permutation, coeff=Fraction(1)) -> "AlgebraElement":
        return cls(len(sigma), {sigma: coeff})

    def coefficient(self, sigma: Permutation):
        return self.terms.get(sigma, Fraction(0))

    def sorted_terms(self):
        """Terms in the canonical (lexicographic one-line) permutation order."""
        return [(p, self.terms[p]) for p in sorted(self.terms)]

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} vs {other.n}")
        out = dict(self.terms)
        for p, c in other.terms.items():
            prev = out.get(p)
            out[p] = c if prev is None else prev + c
        return AlgebraElement(self.n, out)

    def __neg__(self):
        return AlgebraElement(self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff) -> "AlgebraElement":
        if not coeff:
            return AlgebraElement(self.n)
        return AlgebraElement(self.n, {p: c * coeff for p, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError(f"ambient size mismatch: {self.n} vs {other.n}")
        # the kernel drops zero sums itself, so skip the filter in __init__
        product = object.__new__(AlgebraElement)
        product.n, product.terms = self.n, _mul_fractions(self.n, self.terms, other.terms)
        return product

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def antipode(self) -> "AlgebraElement":
        """Linear extension of sigma -> sigma^{-1}; reverses products."""
        return AlgebraElement(self.n, {p.inverse(): c for p, c in self.terms.items()})

    def embed(self, m: int) -> "AlgebraElement":
        """Promote into C[S_m], m >= n, each permutation fixing n+1..m."""
        if m < self.n:
            raise ValueError(f"cannot embed S_{self.n} element into S_{m}")
        if m == self.n:
            return self
        tail = tuple(range(self.n + 1, m + 1))
        return AlgebraElement(m, {Permutation(p + tail): c for p, c in self.terms.items()})

    def to_json_dict(self) -> dict[str, str]:
        return {p.to_text(): render(c) for p, c in self.sorted_terms()}

    def __repr__(self):
        if not self.terms:
            return f"AlgebraElement(S_{self.n}, 0)"
        body = " + ".join(f"({render(c)})*{p.to_text()}" for p, c in self.sorted_terms()[:6])
        more = "" if len(self.terms) <= 6 else f" ... [{len(self.terms)} terms]"
        return f"AlgebraElement(S_{self.n}, {body}{more})"


def _common_denominator(terms: dict):
    """(D, numerators over D) of nonempty Fraction coefficients; TypeError for any other."""
    coeffs = terms.values()
    for c in coeffs:
        if type(c) is not Fraction:
            raise TypeError(f"C[S_n] products take Fraction coefficients, not {type(c).__name__}")
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _mul_fractions(n: int, a_terms: dict, b_terms: dict) -> dict:
    """Product of two Fraction-valued term dicts in integer numerators over one denominator.

    r = p * q, r[i] = p[q[i] - 1], is q's one-line bytes translated through a
    256-byte table holding p from offset 1, so it runs in C and the bytes key
    hashes once.  A coefficient that is not a Fraction is a TypeError, and
    n > 255, whose images do not fit a byte, a ValueError.
    """
    if n > 255:
        raise ValueError(f"C[S_n] products need n <= 255, got {n}")
    if not (a_terms and b_terms):
        return {}
    (den_a, num_a), (den_b, num_b) = _common_denominator(a_terms), _common_denominator(b_terms)
    pad = bytes(255 - n)
    tables = [b"\0" + bytes(p) + pad for p in a_terms]
    sums: dict = {}
    get = sums.get
    for q, v in zip(b_terms, num_b):
        for r, u in zip(map(bytes(q).translate, tables), num_a):
            sums[r] = get(r, 0) + u * v
    den = den_a * den_b
    shared = lru_cache(maxsize=None)(lambda s: Fraction(s, den))  # one per distinct numerator
    return {Permutation(r): shared(s) for r, s in sums.items() if s}


def jm_element(k: int, n: int) -> AlgebraElement:
    """Jucys-Murphy element: sum of transpositions (i k) for i < k; zero at k=1."""
    if not 1 <= k <= n:
        raise ValueError(f"jm_element requires 1 <= k <= {n}, got {k}")
    return AlgebraElement(
        n, {Permutation.transposition(i, k, n): Fraction(1) for i in range(1, k)}
    )


def _tau_plus(m: AlgebraElement, tau) -> AlgebraElement:
    return m + AlgebraElement.unit(m.n, Fraction(1)).scale(tau)


def jm_product_unitary(n: int, tau) -> AlgebraElement:
    """Expand (tau + m_1)(tau + m_2)...(tau + m_n) in C[S_n] at a rational tau.

    By Jucys' classical identity this equals the sum over all of S_n of
    tau^(number of cycles) times the permutation; callers verify rather than
    assume that.  Each coefficient is a polynomial of degree at most n in tau.
    """
    if n < 1:
        raise ValueError(f"jm_product_unitary requires n >= 1, got {n}")
    acc = _tau_plus(jm_element(1, n), tau)
    for k in range(2, n + 1):
        acc = acc * _tau_plus(jm_element(k, n), tau)
    return acc


def jm_product_orthogonal(n: int, tau) -> AlgebraElement:
    """Expand (tau + m_(2n-1))...(tau + m_3)(tau + m_1) in C[S_2n] at a rational tau.

    The odd-indexed Jucys-Murphy elements commute, so the value is order
    independent; the descending order is fixed anyway so that the expansion
    bookkeeping matches the coset-representative recursion term by term.
    """
    if n < 1:
        raise ValueError(f"jm_product_orthogonal requires n >= 1, got {n}")
    acc = _tau_plus(jm_element(1, 2 * n), tau)
    for k in range(2, n + 1):
        acc = _tau_plus(jm_element(2 * k - 1, 2 * n), tau) * acc
    return acc


@lru_cache(maxsize=None)
def hyperoctahedral_elements(n: int) -> tuple[Permutation, ...]:
    """The stabilizer of the adjacent pairing inside S_2n, canonically ordered.

    Each element sends the pair {2i-1, 2i} to some pair {2j-1, 2j}, the
    pairs permuted by one sigma in S_n, each one either flipped or not.
    Size is 2^n * n!.
    """
    if n < 1:
        raise ValueError(f"hyperoctahedral_elements requires n >= 1, got {n}")
    elements = []
    for order in itertools.permutations(range(1, n + 1)):
        for flips in itertools.product((False, True), repeat=n):
            images = []
            for j, flip in zip(order, flips):
                images.extend((2 * j, 2 * j - 1) if flip else (2 * j - 1, 2 * j))
            elements.append(Permutation(images))
    return tuple(sorted(elements))


def hyperoctahedral_generators(n: int) -> list[Permutation]:
    """(1 2) and the n-1 swaps of adjacent pairs, which generate H_n."""
    gens = [Permutation.transposition(1, 2, 2 * n)]
    for k in range(1, n):
        images = list(range(1, 2 * n + 1))
        images[2 * k - 2:2 * k + 2] = (2 * k + 1, 2 * k + 2, 2 * k - 1, 2 * k)
        gens.append(Permutation(images))
    return gens


def average_projector(n: int) -> AlgebraElement:
    """Uniform average over the hyperoctahedral subgroup of S_2n (idempotent)."""
    elements = hyperoctahedral_elements(n)
    w = Fraction(1, len(elements))
    return AlgebraElement(2 * n, {h: w for h in elements})
