"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All checks are exact except the Monte-Carlo cross-check, whose tolerance is
pinned at 4 standard errors with a fixed seed (see criterion 11).
"""

import time
from fractions import Fraction

import pytest
import sympy
from oracles import centralizer_order, mat_identity, mat_mul

from weingarten import verify
from weingarten.coeffring import TAU, render
from weingarten.haarmc import grid_crosscheck
from weingarten.orthogonal import weingarten_orthogonal
from weingarten.symcore import Partition, hook_dimension, partitions_of
from weingarten.unitary import weingarten_unitary
from weingarten.young import character_table

MC_SEED = 1  # frozen; both grids pass the 4-SE bound at this seed
MC_SAMPLES = 200_000


def _conclude(number, name, ok, started):
    elapsed = time.time() - started
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {name}"


def _suites_pass(*calls) -> bool:
    """Every check of each (suite, max_n, *params) call to `verify.run` passes."""
    return all(ok for suite, max_n, *params in calls for _, ok in verify.run(suite, max_n, *params))


def test_criterion_01_unitary_jm_identity():
    started = time.time()
    ok = _suites_pass(("jucys", 6))
    _conclude(1, "JM product identity (unitary), symbolic, n=1..6", ok, started)


def test_criterion_02_orthogonal_jm_identity():
    started = time.time()
    ok = _suites_pass(("oid", 4))
    _conclude(2, "odd JM product identity (orthogonal), symbolic, n=1..4", ok, started)


def test_criterion_03_young_machinery_exhaustive():
    started = time.time()
    ok = _suites_pass(("idempotents", 5), ("central", 5))
    _conclude(3, "orthogonal idempotents + JM diagonalization + routes, n<=5", ok, started)


def test_criterion_04_doubling_proposition():
    started = time.time()
    ok = _suites_pass(("doubling", 3))
    _conclude(4, "vanishing/doubling survivors at 2n=2,4,6", ok, started)


def test_criterion_05_key_identity():
    started = time.time()
    ok = _suites_pass(("keyid", 4))
    _conclude(5, "projector key identity, all k<=n<=4", ok, started)


def test_criterion_06_stability_lemma():
    started = time.time()
    ok = _suites_pass(("stability", 4))
    _conclude(6, "stability lemma, symbolic n<=4", ok, started)


def test_criterion_07_pseudo_inverse_contract():
    started = time.time()
    ok = True
    for n in range(1, 6):
        ok = ok and weingarten_unitary(n, TAU).pseudo_inverse_report().ok
    ok = ok and weingarten_unitary(5, Fraction(7)).pseudo_inverse_report().ok
    for n in range(1, 5):
        ok = ok and weingarten_orthogonal(n, TAU).pseudo_inverse_report().ok
    ok = ok and weingarten_orthogonal(4, Fraction(7)).pseudo_inverse_report().ok
    ok = ok and weingarten_orthogonal(5, Fraction(7)).pseudo_inverse_report().ok
    ok = ok and weingarten_orthogonal(5, TAU).pseudo_inverse_report().ok
    ok = ok and weingarten_orthogonal(6, Fraction(7)).pseudo_inverse_report().ok
    ok = ok and weingarten_orthogonal(6, TAU).pseudo_inverse_report().ok
    ok = ok and weingarten_unitary(6, TAU).pseudo_inverse_report().ok
    # degenerate parameters with nonempty excluded sets
    table = weingarten_unitary(3, Fraction(1))
    ok = ok and [tuple(p) for p in table.excluded] == [(2, 1), (1, 1, 1)]
    ok = ok and table.pseudo_inverse_report().ok
    table = weingarten_orthogonal(2, Fraction(1))
    ok = ok and [tuple(p) for p in table.excluded] == [(1, 1)]
    ok = ok and table.pseudo_inverse_report().ok
    _conclude(
        7, "GWG=G, WGW=W, W symmetric in the type algebra, symbolic U n<=6 and O n<=6 "
        "(proved at integer points), O n=5 and n=6 at tau=7 (incl. degenerate tau)", ok, started,
    )


def test_criterion_08_invertible_regime():
    started = time.time()
    u = weingarten_unitary(3, Fraction(5))
    o = weingarten_orthogonal(3, Fraction(8))
    ok = mat_mul(u.weingarten, u.gram) == mat_identity(len(u.basis))
    ok = ok and mat_mul(o.weingarten, o.gram) == mat_identity(len(o.basis))
    _conclude(8, "W G = identity, unitary (3, tau=5) and orthogonal (3, tau=8)", ok, started)


def test_criterion_09_closed_form_spot_values():
    started = time.time()
    t = sympy.Symbol("t")

    u = weingarten_unitary(2, TAU)
    ok = render(u.weingarten[0][0]) == "1/(t^2 - 1)"
    ok = ok and render(u.weingarten[0][1]) == "(-1)/(t^3 - t)"
    gram_u = sympy.Matrix([[t**2, t], [t, t**2]])
    inv_u = gram_u.inv()
    ok = ok and sympy.simplify(inv_u[0, 0] - 1 / (t**2 - 1)) == 0
    ok = ok and sympy.simplify(inv_u[0, 1] + 1 / (t * (t**2 - 1))) == 0

    o = weingarten_orthogonal(2, TAU)
    ok = ok and render(o.weingarten[0][0]) == "(t + 1)/(t^3 + t^2 - 2*t)"
    ok = ok and render(o.weingarten[0][1]) == "(-1)/(t^3 + t^2 - 2*t)"
    gram_o = sympy.Matrix([[t**2, t, t], [t, t**2, t], [t, t, t**2]])
    inv_o = gram_o.inv()
    ok = ok and sympy.simplify(inv_o[0, 0] - (t + 1) / (t * (t - 1) * (t + 2))) == 0
    ok = ok and sympy.simplify(inv_o[0, 1] + 1 / (t * (t - 1) * (t + 2))) == 0
    _conclude(9, "n=2 closed forms vs independent symbolic inversion", ok, started)


def test_criterion_10_gram_commutation():
    started = time.time()
    ok = _suites_pass(("commute", 4, Fraction(3), Fraction(7)))
    _conclude(10, "orthogonal Gram commutation at (tau1,tau2)=(3,7), n<=4", ok, started)


def test_criterion_11_monte_carlo_crosscheck():
    started = time.time()
    unitary = grid_crosscheck("unitary", 2, 3, MC_SAMPLES, seed=MC_SEED)
    orthogonal = grid_crosscheck("orthogonal", 2, 4, MC_SAMPLES, seed=MC_SEED)
    ok = unitary.ok and orthogonal.ok
    print(
        f"    unitary grid max|z|={unitary.max_abs_z:.2f} over {unitary.moments} moments; "
        f"orthogonal max|z|={orthogonal.max_abs_z:.2f} over {orthogonal.moments}"
    )
    _conclude(11, "Monte-Carlo |z|<=4, unitary (2, tau=3) and orthogonal (2, tau=4)", ok, started)


def test_criterion_12_character_table():
    started = time.time()
    ok = True
    for n in range(1, 9):
        parts = partitions_of(n)
        values = character_table(n)["values"]
        zs = [centralizer_order(mu) for mu in parts]
        for j in range(len(parts)):
            for k in range(len(parts)):
                col = sum(values[i][j] * values[i][k] for i in range(len(parts)))
                ok = ok and col == (zs[j] if j == k else 0)
        for i in range(len(parts)):
            for j in range(len(parts)):
                row = sum(
                    Fraction(values[i][k] * values[j][k], zs[k])
                    for k in range(len(parts))
                )
                ok = ok and row == (1 if i == j else 0)
        ones = parts.index(Partition((1,) * n))
        for lam, row in zip(parts, values):
            ok = ok and row[ones] == hook_dimension(lam)
    _conclude(12, "character table orthogonality + dimensions, n<=8", ok, started)
