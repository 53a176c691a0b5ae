"""Verification suites: the paper's chain of identities, checked size by size.

Each suite is a generator over n = 1..max_n that yields ``(label, ok)``
pairs.  The ``verify`` subcommand prints them and the acceptance tests call
`run`; no other module holds a copy of a check (the two table contracts call
the type-algebra checks of ``exactmat``).  ``oid``, ``stability`` and
``pseudoinverse`` prove each size in Fractions at integer values of t, as many
as its degree needs, unless ``tau`` is given: then n >= NUMERIC_FROM use tau.

The suites follow the compact proof: the unitary and odd Jucys-Murphy
expansions (``jucys``, ``oid``), Young's idempotents and the central
projectors (``idempotents``, ``central``), the doubling proposition
(``doubling``), the projector key identity (``keyid``), the stability lemma
(``stability``), and the two contracts of the finished tables
(``pseudoinverse``, ``commute``).  Every comparison is exact.

No suite multiplies two idempotents or projectors: orthogonality follows
from Jucys-Murphy eigenvalues, or from centrality plus one coefficient per
class, and P_H enters only through coset sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .coeffring import TAU
from .exactmat import integer_points, tau_powers, type_commutation_check
from .groupalg import (
    AlgebraElement,
    average_projector,
    hyperoctahedral_generators,
    jm_element,
    jm_product_orthogonal,
    jm_product_unitary,
)
from .orthogonal import (
    adjacent_pairing,
    coset_label,
    coset_representative,
    coset_sums,
    double_factorial_odd,
    gram_orthogonal,
    weingarten_orthogonal,
)
from .symcore import (
    Permutation,
    cross_type_matrix,
    double_tableau,
    enumerate_pairings,
    partitions_of,
    permutations_of,
    standard_tableaux,
)
from .unitary import weingarten_unitary
from .young import _extend_idempotent, central_idempotent, young_idempotent

# default desk-scale cap on each suite's n; the CLI's --force lifts them
CAPS = {
    "jucys": 6,
    "oid": 5,
    "idempotents": 5,
    "central": 5,
    "pseudoinverse": 5,
    "doubling": 4,
    "keyid": 4,
    "stability": 4,
    "commute": 4,
}
# largest doubling n run without deep=True; 2n = 8 takes minutes
DOUBLING_TOP = 3
# largest 2n at which doubling also reads P * e(T) off the coset sums of e(T)
DIRECT_PRODUCT_TOP = 6
# first size checked at an explicit tau: the benchmark's stored outputs of
# `pseudoinverse --n 3 --tau T` and `stability --n 4 --tau T` keep n <= 3 symbolic
NUMERIC_FROM = 4


def _parameter(n: int, tau):
    """The symbolic t, or tau from n = NUMERIC_FROM on when it is given, with its label."""
    if tau is None or n < NUMERIC_FROM:
        return TAU, "symbolic"
    return tau, f"tau={tau}"


def _is_central(z: AlgebraElement) -> bool:
    """z is fixed by conjugation with each s_k = (k k+1), which generate S_n."""
    swaps = (Permutation.transposition(k, k + 1, z.n) for k in range(1, z.n))
    return all({s * p * s: c for p, c in z.terms.items()} == z.terms for s in swaps)


def _central_products_orthogonal(projs, n: int) -> bool:
    """(z_i z_j)(sigma) = δ_ij z_i(sigma) at one sigma per class, in numerators over D."""
    perms = permutations_of(n)
    den = lcm(*(c.denominator for z in projs for c in z.terms.values()))
    nums = [{p: c.numerator * (den // c.denominator) for p, c in z.terms.items()} for z in projs]
    for sigma in {p.cycle_type(): p for p in perms}.values():
        pairs = [(p, p.inverse() * sigma) for p in perms]
        for a in nums:
            for b in nums:
                total = sum(a.get(p, 0) * b.get(q, 0) for p, q in pairs)
                if total != (den * a.get(sigma, 0) if a is b else 0):
                    return False
    return True


def _projector_pairing_trace(proj: AlgebraElement, e: AlgebraElement) -> Fraction:
    """Identity coefficient of proj * e, i.e. the normalized regular trace.

    Both factors are self-adjoint idempotents (antipode-invariant, rational),
    so the full product vanishes exactly when this single coefficient does:
    tr((Pe)(Pe)^*) = tr(PeP) = tr(Pe) by idempotence and cyclicity, and the
    regular trace is faithful on positive elements.
    """
    total = Fraction(0)
    terms = e.terms
    for h, w in proj.terms.items():
        c = terms.get(h)
        if c is not None:
            total += w * c
    return total


def _gram_row(n: int):
    """The pairings, and the loops of each against the adjacent pairing: Gram row 0 is t^loops."""
    pairings = enumerate_pairings(n)
    types, index = cross_type_matrix([adjacent_pairing(n)], pairings)
    return pairings, [len(types[k]) for k in index[0]]


def _jucys(max_n, tau, tau2, deep):
    # both sides, n factors t + m_k and powers t^k with k <= n, are polynomials
    # of degree at most n in t, so the identity holds once it does at n + 1 points
    for n in range(1, max_n + 1):
        perms = permutations_of(n)
        cycles = [s.num_cycles() for s in perms]
        ok = True
        for t in integer_points(n, n):
            powers = tau_powers(t, n)
            rhs = AlgebraElement(n, {s: powers[k] for s, k in zip(perms, cycles)})
            ok = ok and jm_product_unitary(n, t) == rhs
        yield f"jucys identity n={n}", ok


def _oid(max_n, tau, tau2, deep):
    # the odd JM product is the sum of the coset representatives, each weighted
    # by t^(loops against the adjacent pairing), one term per pairing; both
    # sides have degree at most n in t, as in `_jucys`
    for n in range(1, max_n + 1):
        t, label = _parameter(n, tau)
        pairings, loops = _gram_row(n)
        reps = [coset_representative(pi) for pi in pairings]
        expected = double_factorial_odd(n)
        ok = len(set(reps)) == expected
        for t in integer_points(n, n) if t is TAU else [t]:
            powers = tau_powers(t, n)
            lhs = jm_product_orthogonal(n, t)
            rhs = AlgebraElement(2 * n, {r: powers[k] for r, k in zip(reps, loops)})
            ok = ok and len(lhs) == expected and lhs == rhs
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
    # products of central elements are central, so once each z_lam is proved
    # central their products are checked at one permutation per class
    for n in range(1, max_n + 1):
        shapes = partitions_of(n)
        projs = [central_idempotent(lam, "tableau-sum") for lam in shapes]
        ok = projs == [central_idempotent(lam, "character") for lam in shapes]
        ok = ok and sum(projs, AlgebraElement.zero(n)) == AlgebraElement.unit(n)
        ok = ok and all(map(_is_central, projs)) and _central_products_orthogonal(projs, n)
        yield f"central idempotents, both routes n={n}", ok


def _pseudoinverse(max_n, tau, tau2, deep):
    for group, build in (("unitary", weingarten_unitary), ("orthogonal", weingarten_orthogonal)):
        for n in range(1, max_n + 1):
            t, label = _parameter(n, tau)
            yield f"pseudo-inverse {group} n={n} ({label})", build(n, t).pseudo_inverse_report().ok


def _doubling(max_n, tau, tau2, deep):
    # the size-2n idempotents that survive left averaging over H_n are exactly
    # those of the doubled tableaux; up to DIRECT_PRODUCT_TOP the trace
    # criterion must also agree with P * e(T) != 0, read off the coset sums
    for n in range(1, (max_n if deep else min(max_n, DOUBLING_TOP)) + 1):
        size = 2 * n
        proj = average_projector(n)
        survivors, agree = set(), True
        for lam in partitions_of(size):
            for t in standard_tableaux(lam):
                e = _extend_idempotent(t)
                alive = bool(_projector_pairing_trace(proj, e))
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
        pairings, loops = _gram_row(n)
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
            ok = ok and all(a.get(pi, 0) == powers[k] for pi, k in zip(pairings, loops))
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
        g1 = gram_orthogonal(n, Fraction(t1))
        g2 = gram_orthogonal(n, Fraction(t2))
        ok = type_commutation_check(g1, g2)
        yield f"Gram commutation n={n} (tau={t1},{t2})", ok


SUITES = {
    "jucys": _jucys,
    "oid": _oid,
    "idempotents": _idempotents,
    "central": _central,
    "pseudoinverse": _pseudoinverse,
    "doubling": _doubling,
    "keyid": _keyid,
    "stability": _stability,
    "commute": _commute,
}


def run(suite: str, max_n: int, tau=None, tau2=None, deep: bool = False):
    """Yield ``(label, ok)`` for each check of `suite` at n = 1..max_n, as it runs."""
    return SUITES[suite](max_n, tau, tau2, deep)
