"""Verification suites: the paper's chain of identities, checked size by size.

Each suite is a generator over n = 1..max_n that yields ``(label, ok)``
pairs.  The ``verify`` subcommand prints them and the acceptance tests call
`run`; no other module holds a copy of a check (the two table contracts call
the type-algebra checks of ``exactmat``).  ``oid``, ``stability`` and
``pseudoinverse`` prove each size in Fractions at integer values of t, as many
as its degree needs, unless ``tau`` is given: then n >= NUMERIC_FROM use tau.

The suites follow the compact proof: the unitary and odd Jucys-Murphy
expansions (``jucys``, ``oid``), Young's idempotents (``idempotents``) and
the central projectors against the character formula (``central``), the
doubling proposition (``doubling``), the projector key identity (``keyid``),
the stability lemma (``stability``), and the two contracts of the finished
tables (``pseudoinverse``, ``commute``).  Every comparison is exact.

No suite multiplies two idempotents or projectors in C[S_n]: orthogonality
follows from Jucys-Murphy eigenvalues, or from central projectors' class values
in the class algebra of ``exactmat._type_algebra``, whose row 0 also types
``central``; P_H enters only through sums over the cosets of H_n.  The other
suites type by one row of ``symcore.cross_type_matrix`` (`_type_row`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .coeffring import TAU, _numerators
from .exactmat import (
    BASES, _product, _type_algebra, integer_points, tau_powers, type_commutation_check,
    weingarten_table,
)
from .groupalg import (
    AlgebraElement,
    hyperoctahedral_elements,
    hyperoctahedral_generators,
    jm_element,
    jm_product_orthogonal,
    jm_product_unitary,
)
from .orthogonal import (
    coset_label,
    coset_representative,
    coset_sums,
    double_factorial_odd,
    weingarten_orthogonal,
)
from .symcore import (
    Permutation, cross_type_matrix, double_tableau, hook_dimension, partitions_of, standard_tableaux,
)
from .unitary import weingarten_unitary
from .young import _extend_idempotent, central_idempotent, character, young_idempotent

# largest doubling n run without deep=True; 2n = 8 takes minutes
DOUBLING_TOP = 3
# largest 2n at which doubling also reads P_H e(T) off the coset sums of e(T)
DIRECT_PRODUCT_TOP = 6
# first size checked at an explicit tau: the benchmark's stored outputs of
# `pseudoinverse --n 3 --tau T` and `stability --n 4 --tau T` keep n <= 3 symbolic
NUMERIC_FROM = 4


def _parameter(n: int, tau):
    """The symbolic t, or tau from n = NUMERIC_FROM on when it is given, with its label."""
    if tau is None or n < NUMERIC_FROM:
        return TAU, "symbolic"
    return tau, f"tau={tau}"


def _type_row(group: str, n: int):
    """The group's basis at n, and the double-coset type of each element against basis[0].

    basis[0] is the identity of S_n or the adjacent pairing pi_0, so a type
    has one part per cycle of a permutation, or per loop of a pairing with pi_0.
    """
    basis = BASES[group](n)
    types, (row,) = cross_type_matrix(basis[:1], basis)
    return basis, [types[k] for k in row]


def _is_central(z: AlgebraElement) -> bool:
    """z is fixed by conjugation with each s_k = (k k+1), which generate S_n."""
    swaps = (Permutation.transposition(k, k + 1, z.n) for k in range(1, z.n))
    return all({s * p * s: c for p, c in z.terms.items()} == z.terms for s in swaps)


def _is_character_expansion(z: AlgebraElement, lam, perms, types) -> bool:
    """z = dim(lam)/n! sum_sigma chi_lam(sigma^-1) sigma, coefficient by coefficient.

    sigma^-1 has the cycle type of sigma, so chi is read once per class of the type row.
    """
    scale = Fraction(hook_dimension(lam), factorial(z.n))
    chi = {mu: scale * character(lam, mu) for mu in set(types)}
    return z == AlgebraElement(z.n, {p: chi[mu] for p, mu in zip(perms, types)})


def _jucys(max_n, tau, tau2, deep):
    # both sides, n factors t + m_k and powers t^k with k <= n, are polynomials
    # of degree at most n in t, so the identity holds once it does at n + 1 points
    for n in range(1, max_n + 1):
        perms, types = _type_row("unitary", n)
        ok = True
        for t in integer_points(n, n):
            powers = tau_powers(t, n)
            rhs = AlgebraElement(n, {s: powers[len(mu)] for s, mu in zip(perms, types)})
            ok = ok and jm_product_unitary(n, t) == rhs
        yield f"jucys identity n={n}", ok


def _oid(max_n, tau, tau2, deep):
    # the odd JM product is the sum of the coset representatives, each weighted
    # by t^(loops against the adjacent pairing), one term per pairing; both
    # sides have degree at most n in t, as in `_jucys`
    for n in range(1, max_n + 1):
        t, label = _parameter(n, tau)
        pairings, types = _type_row("orthogonal", n)
        reps = [coset_representative(pi) for pi in pairings]
        expected = double_factorial_odd(n)
        ok = len(set(reps)) == expected
        for t in integer_points(n, n) if t is TAU else [t]:
            powers = tau_powers(t, n)
            lhs = jm_product_orthogonal(n, t)
            rhs = AlgebraElement(2 * n, {r: powers[len(mu)] for r, mu in zip(reps, types)})
            ok = ok and lhs == rhs
        yield f"odd JM expansion n={n} ({label})", ok


def _idempotents(max_n, tau, tau2, deep):
    # JM eigenvectors e(T) with distinct contents, nonzero and summing to 1 give
    # e(T) e(T') = δ e(T): (c_k(T) - c_k(T')) e(T) e(T') = 0 for T != T' (some k
    # has c_k(T) != c_k(T')), and e(T)^2 = e(T) sum e(T') = e(T)
    for n in range(1, max_n + 1):
        tableaux = [t for lam in partitions_of(n) for t in standard_tableaux(lam)]
        idems = [young_idempotent(t) for t in tableaux]
        contents = {tuple(t.content(k) for k in range(1, n + 1)) for t in tableaux}
        ok = len(contents) == len(tableaux) and all(idems)
        ok = ok and sum(idems, AlgebraElement.zero(n)) == AlgebraElement.unit(n)
        for t, e in zip(tableaux, idems):
            for k in range(1, n + 1):
                target = e.scale(Fraction(t.content(k)))
                m = jm_element(k, n)
                ok = ok and m * e == target and e * m == target
        yield f"orthogonal idempotents complete n={n} ({len(tableaux)} tableaux)", ok


def _central(max_n, tau, tau2, deep):
    # each z_lam, a sum of Young's idempotents, must equal its character
    # expansion, the z_lam must sum to 1, and each must be central before its
    # class values are read: a central z is its values at the r_g of the class
    # algebra, where z_lam z_mu = δ z_lam is proved in numerators over one D
    for n in range(1, max_n + 1):
        label = f"central idempotents, both routes n={n}"
        algebra = _type_algebra("unitary", n)
        if algebra is None:
            yield label, False
            continue
        perms, row, constants = algebra.basis, algebra.row, algebra.constants
        shapes = partitions_of(n)
        projs = [central_idempotent(lam) for lam in shapes]
        types = [algebra.types[g] for g in row]
        ok = all(_is_character_expansion(z, lam, perms, types) for z, lam in zip(projs, shapes))
        ok = ok and sum(projs, AlgebraElement.zero(n)) == AlgebraElement.unit(n)
        ok = ok and all(map(_is_central, projs))
        if ok:
            reps = [perms[row.index(g)] for g in range(len(algebra.types))]
            den, nums = _numerators([z.terms.get(r, 0) for z in projs for r in reps])
            values = [nums[k:k + len(reps)] for k in range(0, len(nums), len(reps))]
            ok = all(_product(constants, a, b) == [den * x if a is b else 0 for x in a]
                     for a in values for b in values)
        yield label, ok


def _pseudoinverse(max_n, tau, tau2, deep):
    for group, build in (("unitary", weingarten_unitary), ("orthogonal", weingarten_orthogonal)):
        for n in range(1, max_n + 1):
            t, label = _parameter(n, tau)
            yield f"pseudo-inverse {group} n={n} ({label})", build(n, t).pseudo_inverse_report().ok


def _doubling(max_n, tau, tau2, deep):
    # the size-2n idempotents that survive left averaging over H_n are exactly
    # those of the doubled tableaux.  e(T) survives when its sum over H_n, the
    # identity coset, is nonzero: that sum is |H_n| tr(P_H e(T)), tr the
    # normalized regular trace, and P_H and e(T) are self-adjoint idempotents,
    # so tr((P_H e)(P_H e)^*) = tr(P_H e P_H) = tr(P_H e), and tr is faithful
    # on positive elements.  Up to DIRECT_PRODUCT_TOP this criterion must also
    # agree with P_H e(T) != 0, read off all the coset sums of e(T)
    for n in range(1, (max_n if deep else min(max_n, DOUBLING_TOP)) + 1):
        size = 2 * n
        elements = hyperoctahedral_elements(n)
        survivors, agree = set(), True
        for lam in partitions_of(size):
            for t in standard_tableaux(lam):
                e = _extend_idempotent(t)
                alive = bool(sum(e.terms.get(h, 0) for h in elements))
                if size <= DIRECT_PRODUCT_TOP:
                    agree = agree and bool(coset_sums(n, e)) == alive
                if alive:
                    survivors.add(t.rows)
        expected = {
            double_tableau(t).rows for lam in partitions_of(n) for t in standard_tableaux(lam)
        }
        even_rows = all(len(row) % 2 == 0 for rows in survivors for row in rows)
        yield f"doubling survivors 2n={size}", agree and survivors == expected and even_rows


def _keyid(max_n, tau, tau2, deep):
    # P_H * (m_2k - m_(2k-1) - 1) vanishes identically for every k <= n, i.e.
    # every right-coset sum of m_2k - m_(2k-1) - 1 is zero
    for n in range(1, max_n + 1):
        size = 2 * n
        unit = AlgebraElement.unit(size)
        ok = all(
            not coset_sums(n, jm_element(2 * k, size) - jm_element(2 * k - 1, size) - unit)
            for k in range(1, n + 1)
        )
        yield f"projector key identity n={n}", ok


def _stability(max_n, tau, tau2, deep):
    # a = |H| P_H G and b = |H| G P_H as coset sums: invariant under the
    # generators of H (so bi-invariant), equal at every coset representative
    # (which meets every double coset, so P_H G = G P_H), and a gives Gram.
    # The matrix of G on the pairing basis has entry (i, j) = a(r_i^-1 pi_j r_i);
    # once r_i pi_0 r_i^-1 = pi_i, loops(pi_i, pi_j) = loops(pi_0, r_i^-1 pi_j r_i),
    # and x -> r_i^-1 x r_i permutes the pairings, so that matrix is the Gram
    # matrix exactly when a equals Gram row 0 at every pairing.  Each check
    # compares sums of G's coefficients, of degree at most n in t, as in `_jucys`
    for n in range(1, max_n + 1):
        t, label = _parameter(n, tau)
        pairings, types = _type_row("orthogonal", n)
        reps = [coset_representative(pi) for pi in pairings]
        ok = all(coset_label(r.inverse()) == pi for pi, r in zip(pairings, reps))
        for t in integer_points(n, n) if t is TAU else [t]:
            g = jm_product_orthogonal(n, t)
            a, b = coset_sums(n, g), coset_sums(n, g.antipode())
            ok = ok and all(
                {pi.conjugate_by(h): c for pi, c in f.items()} == f
                for f in (a, b)
                for h in hyperoctahedral_generators(n)
            )
            ok = ok and all(a.get(coset_label(r)) == b.get(coset_label(r.inverse())) for r in reps)
            powers = tau_powers(t, n)
            ok = ok and all(a.get(pi, 0) == powers[len(mu)] for pi, mu in zip(pairings, types))
        yield f"stability lemma n={n} ({label})", ok


def commute_parameters(tau, tau2) -> tuple[Fraction, Fraction]:
    """The two ``commute`` parameters, default 3 and 7; ValueError when equal."""
    t1 = tau if tau is not None else Fraction(3)
    t2 = tau2 if tau2 is not None else Fraction(7)
    if t1 == t2:
        raise ValueError("parameters must be distinct for a meaningful check")
    return t1, t2


def _commute(max_n, tau, tau2, deep):
    # Gram matrices at two parameter values commute; both are functions of
    # the pairings' loop type, so the products are compared in the type algebra
    t1, t2 = commute_parameters(tau, tau2)
    for n in range(1, max_n + 1):
        g1 = weingarten_table("orthogonal", n, Fraction(t1)).gram
        g2 = weingarten_table("orthogonal", n, Fraction(t2)).gram
        ok = type_commutation_check(g1, g2)
        yield f"Gram commutation n={n} (tau={t1},{t2})", ok


# each suite with its default desk-scale cap on n, which the CLI's --force lifts
SUITES = {
    "jucys": (6, _jucys),
    "oid": (5, _oid),
    "idempotents": (5, _idempotents),
    "central": (5, _central),
    "pseudoinverse": (5, _pseudoinverse),
    "doubling": (4, _doubling),
    "keyid": (4, _keyid),
    "stability": (4, _stability),
    "commute": (4, _commute),
}


def run(suite: str, max_n: int, tau=None, tau2=None, deep: bool = False):
    """Yield ``(label, ok)`` for each check of `suite` at n = 1..max_n, as it runs."""
    return SUITES[suite][1](max_n, tau, tau2, deep)
