"""Verification suites: the paper's chain of identities, checked size by size.

Each suite is a generator over n = 1..max_n that yields ``(label, ok)``
pairs.  The ``verify`` subcommand prints them and the acceptance tests call
`run`; neither holds a copy of a check.  Sizes past a suite's symbolic range
use the numeric parameter ``tau`` (default 7).
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import TAU
from .groupalg import AlgebraElement, jm_element, jm_product_unitary
from .orthogonal import (
    verify_doubling,
    verify_gram_commutation,
    verify_key_identity,
    verify_oid,
    verify_stability_lemma,
    weingarten_orthogonal,
)
from .symcore import partitions_of, permutations_of, standard_tableaux
from .unitary import weingarten_unitary
from .young import central_idempotent, young_idempotent

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


def _parameter(n: int, symbolic_up_to: int, tau):
    """The symbolic t up to `symbolic_up_to`, then tau (default 7), with its label."""
    if n <= symbolic_up_to:
        return TAU, "symbolic"
    t = tau if tau is not None else Fraction(7)
    return t, f"tau={t}"


def _complete_orthogonal(elements, n: int) -> bool:
    """e_i e_j = δ_ij e_i for every pair, and the e_i sum to the unit of C[S_n]."""
    ok = True
    for i, e in enumerate(elements):
        for j, f in enumerate(elements):
            prod = e * f
            ok = ok and (prod == e if i == j else not prod)
    return ok and sum(elements, AlgebraElement.zero(n)) == AlgebraElement.unit(n)


def _jucys(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        lhs = jm_product_unitary(n, TAU)
        rhs = AlgebraElement(n, {s: TAU**s.num_cycles() for s in permutations_of(n)})
        yield f"jucys identity n={n}", lhs == rhs


def _oid(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        t, label = _parameter(n, 4, tau)
        yield f"odd JM expansion n={n} ({label})", verify_oid(n, t).ok


def _idempotents(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        tableaux = [t for lam in partitions_of(n) for t in standard_tableaux(lam)]
        idems = [young_idempotent(t) for t in tableaux]
        ok = _complete_orthogonal(idems, n)
        # each idempotent diagonalises every JM element, with its tableau's contents
        for t, e in zip(tableaux, idems):
            for k in range(1, n + 1):
                target = e.scale(Fraction(t.content(k)))
                m = jm_element(k, n)
                ok = ok and m * e == target and e * m == target
        yield f"orthogonal idempotents complete n={n} ({len(tableaux)} tableaux)", ok


def _central(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        shapes = partitions_of(n)
        projs = [central_idempotent(lam, "tableau-sum") for lam in shapes]
        ok = projs == [central_idempotent(lam, "character") for lam in shapes]
        yield f"central idempotents, both routes n={n}", ok and _complete_orthogonal(projs, n)


def _pseudoinverse(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        t, label = _parameter(n, 4, tau)
        report = weingarten_unitary(n, t).pseudo_inverse_report()
        yield f"pseudo-inverse unitary n={n} ({label})", report.ok
    for n in range(1, min(max_n, 4) + 1):
        t, label = _parameter(n, 3, tau)
        report = weingarten_orthogonal(n, t).pseudo_inverse_report()
        yield f"pseudo-inverse orthogonal n={n} ({label})", report.ok


def _doubling(max_n, tau, tau2, deep):
    for n in range(1, (max_n if deep else min(max_n, DOUBLING_TOP)) + 1):
        yield f"doubling survivors 2n={2 * n}", verify_doubling(n).ok


def _keyid(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        ok = all(verify_key_identity(n, k) for k in range(1, n + 1))
        yield f"projector key identity n={n}", ok


def _stability(max_n, tau, tau2, deep):
    for n in range(1, max_n + 1):
        t, label = _parameter(n, 3, tau)
        yield f"stability lemma n={n} ({label})", verify_stability_lemma(n, t).ok


def _commute(max_n, tau, tau2, deep):
    t1 = tau if tau is not None else Fraction(3)
    t2 = tau2 if tau2 is not None else Fraction(7)
    for n in range(1, max_n + 1):
        yield f"Gram commutation n={n} (tau={t1},{t2})", verify_gram_commutation(n, t1, t2)


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
