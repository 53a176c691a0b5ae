"""Orthogonal-group Weingarten calculus on the pair-partition basis.

The invariants are indexed by pairings of {1,...,2n}; the Gram matrix is
tau^(number of loops obtained by pasting two pairings).  Everything happens
inside C[S_2n]: the span of the pairings is realized as the image of right
multiplication by the hyperoctahedral averaging projector, with standard
basis sigma_pi * P_H where sigma_pi conjugates the adjacent pairing to pi.

The Weingarten matrix comes out of the Collins-Matsumoto formula

    W = sum over lam with c_lam != 0 of E_lam / c_lam,
    c_lam = product over boxes (i,j) of (tau + 2j - 1 - i),

where E_lam is the projector onto the 2lam-component of the pairing module.
(S_2n, H_n) is a Gelfand pair, so the matrices commuting with the action on
pairings form the commutative Hecke algebra, one basis element per loop type
of a pair (pi, pi'), and the E_lam are its primitive idempotents.
``exactmat.type_idempotents`` builds them from the Gram element once per n,
with the structure and the idempotent identities proved; each one is also
checked against dim(2lam) on two loop types.  A Weingarten value is then
p(n) scaled sums on its loop type, and a table
(``exactmat.weingarten_table``) holds one value per loop type, which is
what keeps the 10 395-pairing case affordable.

P_H X is constant on each right coset H y, labelled by the pairing
y^-1 pi_0 y, with value (1/|H|) * (sum of X over H y): ``coset_sums`` forms
these sums without a product.  The ``stability`` suite checks that |H| P_H G
and |H| G P_H are invariant under the generators of H and agree at every coset
representative, that each representative r of pi has r pi_0 r^-1 = pi, and
that |H| P_H G equals row 0 of the Gram matrix at every pairing, which makes
the matrix of G on the pairing basis the Gram matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactmat import (
    ALPHA,
    WeingartenTable,
    spectral_sum,
    type_idempotents,
    weingarten_table,
)
from .symcore import (
    Pairing,
    Partition,
    Permutation,
    double_shape,
    hook_dimension,
)


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = number of pairings of 2n points."""
    out = 1
    for k in range(3, 2 * n, 2):
        out *= k
    return out


def adjacent_pairing(n: int) -> Pairing:
    """The base point (1 2)(3 4)...(2n-1 2n) of the conjugation action."""
    if n < 1:
        raise ValueError(f"adjacent_pairing requires n >= 1, got {n}")
    images = []
    for k in range(1, n + 1):
        images.extend((2 * k, 2 * k - 1))
    return Pairing(images)


def coset_representative(pi: Pairing) -> Permutation:
    """Deterministic coset representative, by recursion on the last point.

    If pi already pairs (2n-1, 2n), extend the representative of the
    restriction; otherwise conjugate by the transposition moving pi(2n) up to
    2n-1 and recurse.  The adjacent pairing maps to the identity, and the
    chosen representatives are exactly the permutations appearing in the
    expansion of the odd Jucys-Murphy product.
    """
    size = len(pi)
    if size == 2:
        return Permutation.identity(2)
    if pi[size - 1] == size - 1:
        inner = coset_representative(Pairing(pi[: size - 2]))
        return Permutation(tuple(inner) + (size - 1, size))
    swap = Permutation.transposition(pi[size - 1], size - 1, size)
    return swap * coset_representative(pi.conjugate_by(swap))


def gram_orthogonal(n: int, tau):
    """(2n-1)!! square Gram matrix over the canonical pairing basis, rows read through the type index."""
    return weingarten_table("orthogonal", n, tau).gram


_HISTOGRAM_CACHE: dict = {}  # always empty; only wgbench/tracer.py still reads it


@lru_cache(maxsize=None)
def _idempotents_by_type(n: int) -> dict[Partition, dict[Partition, Fraction]]:
    """{loop type mu: {lam: E_lam(mu)}}, each E_lam checked on two types.

    E_lam is r = dim(2lam)/(2n-1)!! at the identity type, and r/(n(n-1)) times
    the sum of 2j - 1 - i over the boxes (i, j) of lam at the type (2, 1^(n-2)).
    """
    types, idempotents = type_idempotents("orthogonal", n)
    pairings = double_factorial_odd(n)
    swap = types.index(Partition((2,) + (1,) * (n - 2))) if n > 1 else None
    for lam, e in idempotents.items():
        rank = Fraction(hook_dimension(double_shape(lam)), pairings)
        if e[0] != rank:
            raise ValueError(f"E_lam(identity) != dim(2lam)/(2n-1)!! at lam = {lam.to_text()}")
        contents = sum(part * (part - i) for i, part in enumerate(lam, start=1))
        if swap is not None and e[swap] != rank * contents / (n * (n - 1)):
            raise ValueError(f"E_lam(2,1^(n-2)) != its content formula at lam = {lam.to_text()}")
    return {mu: {lam: e[g] for lam, e in idempotents.items()} for g, mu in enumerate(types)}


def wg_value_orthogonal(mu: Partition, tau):
    """Weingarten entry for a pair of pairings of loop type mu."""
    mu = Partition(mu)
    return spectral_sum(mu.weight, tau, ALPHA["orthogonal"], _idempotents_by_type(mu.weight)[mu].__getitem__)


def weingarten_orthogonal(n: int, tau) -> WeingartenTable:
    """Gram and Weingarten matrices of O(tau) on the canonical pairing basis."""
    return weingarten_table("orthogonal", n, tau, wg_value_orthogonal)


def coset_label(sigma: Permutation) -> Pairing:
    """sigma^-1 pi_0 sigma (pi_0 adjacent), the label of H sigma; sigma H has sigma^-1's.

    pi_0 pairs the 0-based points x and x ^ 1, so the label maps i to
    sigma^-1(pi_0(sigma(i))) without pi_0 being built.
    """
    inverse = sigma.inverse()
    return Pairing(inverse[(s - 1) ^ 1] for s in sigma)


def coset_sums(n: int, x) -> dict[Pairing, object]:
    """|H| * P_H x by coset label: (P_H x)(y) is the sum of x over H y, over |H|.

    |H| * (x P_H)(y) is coset_sums(n, x.antipode()) at the label of y^-1.
    Labels whose sum is zero are absent; no product is formed.
    """
    if x.n != 2 * n:
        raise ValueError(f"coset sums need an element of C[S_{2 * n}], got C[S_{x.n}]")
    sums: dict = {}
    for sigma, c in x.terms.items():
        label = coset_label(sigma)
        prev = sums.get(label)
        sums[label] = c if prev is None else prev + c
    return {label: c for label, c in sums.items() if c}
