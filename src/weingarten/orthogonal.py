"""Orthogonal-group Weingarten calculus on the pair-partition basis.

The invariants are indexed by pairings of {1,...,2n}; the Gram matrix is
tau^(number of loops obtained by pasting two pairings).  Everything happens
inside C[S_2n]: the span of the pairings is realized as the image of right
multiplication by the hyperoctahedral averaging projector, with standard
basis sigma_pi * P_H where sigma_pi conjugates the adjacent pairing to pi.

The Weingarten matrix comes out of the Collins-Matsumoto formula

    W_(pi,pi') = sum over lam with c_lam != 0 of
                 (P_doubled(lam))_(pi,pi') / c_lam,
    c_lam = product over boxes (i,j) of (tau + 2j - 1 - i),

with central-projector entries

    (P_2lam)_(pi,pi') = dim(2lam)/(2n)! *
                        sum over {sigma : sigma pi' sigma^-1 = pi} of
                        chi_2lam(sigma).

That sum runs over a single left coset of the centralizer of pi' (order
2^n n!), and its value depends only on the loop-length type of the pair
(pi, pi') (simultaneous conjugation moves any pair to any other of the same
type while permuting the coset).  Table assembly (``exactmat.weingarten_table``)
therefore computes one value, from one cycle-type histogram, per loop type,
which is what keeps the 945-pairing case affordable.

P_H X is constant on each right coset H y, labelled by the pairing
y^-1 pi_0 y, with value (1/|H|) * (sum of X over H y): ``coset_sums`` forms
these sums without a product, and ``pairing_basis_matrix`` reads X's matrix
on the pairing basis off them.  The ``stability`` suite checks that |H| P_H G
and |H| G P_H are invariant under the generators of H, agree at every coset
representative, and that the matrix read off P_H G is the Gram matrix.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

from .exactmat import WeingartenTable, content_product, spectral_sum, weingarten_table
from .groupalg import AlgebraElement, hyperoctahedral_elements
from .symcore import (
    Pairing,
    Partition,
    Permutation,
    double_shape,
    enumerate_pairings,
    hook_dimension,
)
from .young import character


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


def loop_type(pi: Pairing, rho: Pairing) -> Partition:
    """Loop lengths of the pasting of two pairings, as a partition of n.

    The permutation product splits every loop through 2m points into two
    m-cycles, so halving the cycle-type multiplicities recovers the loops.
    """
    counts = Counter(len(c) for c in (pi * rho).cycles())
    sizes = []
    for length, count in counts.items():
        sizes.extend([length] * (count // 2))
    return Partition(sorted(sizes, reverse=True))


def gram_orthogonal(n: int, tau):
    """(2n-1)!! square Gram matrix over the canonical pairing basis."""
    return weingarten_table("orthogonal", n, tau, enumerate_pairings(n)).gram


def c_orthogonal(lam: Partition, tau):
    """Eigenvalue product for the orthogonal case: prod (tau + 2j - 1 - i)."""
    return content_product(lam, tau, 2)


def conjugating_permutation(src: Pairing, dst: Pairing) -> Permutation:
    """Some sigma with sigma src sigma^-1 = dst, by matching pair lists in order."""
    if len(src) != len(dst):
        raise ValueError("pairings must have the same size")
    images = [0] * len(src)
    for (a, b), (c, d) in zip(src.pairs(), dst.pairs()):
        images[a - 1], images[b - 1] = c, d
    return Permutation(images)


def _loop_type_representative(mu: Partition) -> Pairing:
    """A pairing whose pasting against the adjacent pairing has loops mu."""
    images = []
    offset = 0
    for m in mu:
        block = list(range(offset + 2, offset + 2 * m + 1)) + [offset + 1]
        # cyclic shift of the block: pairs (s+2,s+3),(s+4,s+5),...,(s+2m,s+1)
        partner = {}
        for idx in range(0, 2 * m, 2):
            a, b = block[idx], block[idx + 1]
            partner[a] = b
            partner[b] = a
        images.extend(partner[offset + i] for i in range(1, 2 * m + 1))
        offset += 2 * m
    return Pairing(images)


_HISTOGRAM_CACHE: dict[tuple[int, ...], Counter] = {}


def coset_cycle_type_histogram(mu: Partition) -> Counter:
    """Cycle-type counts over {sigma : sigma conjugates pi' to pi}, fixed loop type.

    The multiset of cycle types is the same for every pair (pi, pi') of loop
    type mu and for every choice of base conjugator, so it is cached per type.
    """
    mu = Partition(mu)
    key = tuple(mu)
    cached = _HISTOGRAM_CACHE.get(key)
    if cached is not None:
        return cached
    n = mu.weight
    # the centralizer of the adjacent pairing is H_n itself
    sigma0 = conjugating_permutation(adjacent_pairing(n), _loop_type_representative(mu))
    hist = Counter((sigma0 * h).cycle_type() for h in hyperoctahedral_elements(n))
    _HISTOGRAM_CACHE[key] = hist
    return hist


def _coset_character_sum(lam: Partition, hist: Counter) -> Fraction:
    """dim(2lam)/(2n)! times the sum of count * chi_2lam over a coset histogram."""
    lam2 = double_shape(lam)
    total = sum(count * character(lam2, ct) for ct, count in hist.items())
    return Fraction(hook_dimension(lam2) * total, factorial(lam2.weight))


def wg_value_orthogonal(mu: Partition, tau):
    """Weingarten entry for a pair of pairings of loop type mu."""
    mu = Partition(mu)
    hist = coset_cycle_type_histogram(mu)
    return spectral_sum(mu.weight, tau, 2, lambda lam: _coset_character_sum(lam, hist))


def weingarten_orthogonal(n: int, tau) -> WeingartenTable:
    """Gram and Weingarten matrices of O(tau) on the canonical pairing basis."""
    return weingarten_table("orthogonal", n, tau, enumerate_pairings(n), wg_value_orthogonal, 2)


def coset_label(sigma: Permutation) -> Pairing:
    """sigma^-1 pi_0 sigma (pi_0 adjacent), the label of H sigma; sigma H has sigma^-1's."""
    return adjacent_pairing(len(sigma) // 2).conjugate_by(sigma.inverse())


def coset_sums(n: int, x: AlgebraElement) -> dict[Pairing, object]:
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


def pairing_basis_matrix(n: int, x: AlgebraElement):
    """Matrix of X on the pairing basis: entry (i, j) is |H| * (P_H X)(r_j^-1 r_i).

    Expand sigma_pi * P * X over the standard basis sigma_pi' * P: the cosets
    sigma_pi' H are disjoint, so the entry is the coset sum of X at the label
    of r_j^-1 r_i, which is (r_j pi_0 r_j^-1) conjugated by r_i^-1.
    """
    sums, zero = coset_sums(n, x), Fraction(0)
    inverses = [coset_representative(pi).inverse() for pi in enumerate_pairings(n)]
    lefts = [coset_label(r_inv) for r_inv in inverses]
    return [[sums.get(left.conjugate_by(r_inv), zero) for left in lefts] for r_inv in inverses]
