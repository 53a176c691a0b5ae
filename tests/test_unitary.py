import random
from fractions import Fraction

import pytest
import sympy
from oracles import (
    character_projector,
    gram_unitary,
    inverse,
    jm_product_at_tau,
    map_coefficients,
    mat_identity,
    mat_mul,
    num_cycles,
    pseudo_inverse_check,
    regular_matrix,
    table_json_dict,
    table_with,
)

from weingarten.coeffring import TAU, parse, render
from weingarten.exactmat import content_product
from weingarten.groupalg import AlgebraElement
from weingarten.symcore import Partition, partitions_of, permutations_of
from weingarten.unitary import weingarten_unitary, wg_function_unitary


def test_c_unitary_examples():
    assert content_product(Partition((2,)), TAU, 1) == TAU * (TAU + 1)
    assert content_product(Partition((1, 1)), TAU, 1) == TAU * (TAU + -1)
    assert content_product(Partition((1, 1, 1)), Fraction(2), 1) == 0
    assert content_product(Partition((3, 1)), Fraction(2), 1) != 0


def test_gram_unitary_small():
    assert list(gram_unitary(1, TAU)) == [[TAU]]
    g2 = list(gram_unitary(2, TAU))
    assert g2 == [[TAU * TAU, TAU], [TAU, TAU * TAU]]
    for n in (1, 2, 3):
        g = gram_unitary(n, TAU)
        for i in range(len(g)):
            assert g[i][i] == TAU**n


def _sympy_wg_matrix(n):
    """Oracle: invert the symbolic Gram matrix directly with sympy."""
    t = sympy.Symbol("t")
    basis = permutations_of(n)
    gram = sympy.Matrix(
        len(basis),
        len(basis),
        lambda i, j: t ** num_cycles(basis[i].inverse() * basis[j]),
    )
    return gram.inv(), t, basis


def test_wg_function_closed_forms_match_sympy_inverse():
    assert render(wg_function_unitary(Partition((1,)), TAU)) == "1/t"
    w11 = wg_function_unitary(Partition((1, 1)), TAU)
    w2 = wg_function_unitary(Partition((2,)), TAU)
    assert render(w11) == "1/(t^2 - 1)"
    assert render(w2) == "(-1)/(t^3 - t)"

    inv, t, basis = _sympy_wg_matrix(2)
    # basis [12, 21]: diagonal entries have cycle type (1,1), off-diagonal (2)
    assert sympy.simplify(inv[0, 0] - sympy.sympify("1/(t**2-1)", locals={"t": t})) == 0
    assert sympy.simplify(inv[0, 1] + sympy.sympify("1/(t*(t**2-1))", locals={"t": t})) == 0


def test_weingarten_matrix_equals_sympy_inverse_n3():
    table = weingarten_unitary(3, TAU)
    inv, t, basis = _sympy_wg_matrix(3)
    for i in range(6):
        for j in range(6):
            ours = sympy.sympify(
                render(table.weingarten[i][j]).replace("^", "**"), locals={"t": t}
            )
            assert sympy.simplify(ours - inv[i, j]) == 0


def test_weingarten_unitary_n1_numeric():
    table = weingarten_unitary(1, Fraction(7))
    assert list(table.weingarten) == [[Fraction(1, 7)]]
    assert list(table.gram) == [[Fraction(7)]]
    assert table.excluded == []


def test_degenerate_tau_1_n3():
    table = weingarten_unitary(3, Fraction(1))
    assert [tuple(p) for p in table.excluded] == [(2, 1), (1, 1, 1)]
    report = pseudo_inverse_check(table.gram, table.weingarten)
    assert report.ok
    # G is singular here: all entries are 1
    assert all(x == 1 for row in table.gram for x in row)


def test_pseudo_inverse_symbolic_small():
    for n in (1, 2, 3):
        table = weingarten_unitary(n, TAU)
        report = pseudo_inverse_check(table.gram, table.weingarten)
        assert report.gwg_equals_g and report.wgw_equals_w and report.w_symmetric


def test_inverse_regime_wg_is_matrix_inverse():
    table = weingarten_unitary(3, Fraction(5))
    assert mat_mul(table.weingarten, table.gram) == mat_identity(6)
    assert mat_mul(table.gram, table.weingarten) == mat_identity(6)


def test_pseudo_inverse_detects_a_bad_value():
    # the identity type's value, on the diagonal of W
    table = weingarten_unitary(2, Fraction(3))
    values = table.weingarten_by_type
    bad = table_with(table, weingarten_by_type=[values[0] + 1, *values[1:]])
    assert list(bad.weingarten)[0][0] == list(table.weingarten)[0][0] + 1
    assert not bad.pseudo_inverse_report().ok
    assert not pseudo_inverse_check(list(bad.gram), list(bad.weingarten)).ok


def test_g_equals_sum_of_scaled_projectors_up_to_5():
    for n in range(1, 6):
        g = jm_product_at_tau(n, range(1, n + 1))
        total = AlgebraElement.zero(n)
        for lam in partitions_of(n):
            c = content_product(lam, TAU, 1)
            total = total + map_coefficients(character_projector(lam), lambda x, c=c: x * c)
        assert g == total


def test_weingarten_matrix_is_regular_matrix_of_w_element():
    # dual route: assemble W as a group-algebra element from the projectors
    for n in (2, 3):
        table = weingarten_unitary(n, TAU)
        w_alg = AlgebraElement.zero(n)
        for lam in partitions_of(n):
            inv_c = inverse(content_product(lam, TAU, 1))
            w_alg = w_alg + map_coefficients(character_projector(lam), lambda x, f=inv_c: f * x)
        for side in ("left", "right"):
            assert regular_matrix(w_alg, permutations_of(n), side) == list(table.weingarten)


def test_wg_entries_depend_only_on_cycle_type():
    rng = random.Random(20260810)
    for n in (3, 4, 5):
        table = weingarten_unitary(n, Fraction(7))
        basis = table.basis
        index = {p: i for i, p in enumerate(basis)}
        for _ in range(34):
            i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
            rho = basis[rng.randrange(len(basis))]
            # left translation conjugates sigma'' sigma'^-1, preserving its type
            ti, tj = index[rho * basis[i]], index[rho * basis[j]]
            assert table.weingarten[i][j] == table.weingarten[ti][tj]
            assert table.gram[i][j] == table.gram[ti][tj]


def test_excluded_shapes_symbolic_empty():
    assert weingarten_unitary(4, TAU).excluded == []
    assert [tuple(p) for p in weingarten_unitary(2, Fraction(1)).excluded] == [(1, 1)]


def test_table_json_shape():
    table = weingarten_unitary(2, TAU)
    payload = table_json_dict(table)
    assert payload["group"] == "unitary"
    assert payload["tau"] == "symbolic"
    assert payload["basis"] == ["[1,2]", "[2,1]"]
    assert payload["weingarten"][0][0] == "1/(t^2 - 1)"
    assert payload["weingarten"][0][1] == "(-1)/(t^3 - t)"
    assert parse(payload["gram"][0][0]) == TAU * TAU
