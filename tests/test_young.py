from fractions import Fraction
from math import factorial

import pytest
from oracles import (
    basis_element,
    centralizer_order,
    character_projector,
    mat_is_symmetric,
    num_cycles,
    regular_matrix,
)

from weingarten.groupalg import AlgebraElement, jm_element
from weingarten.symcore import (
    Partition,
    StandardTableau,
    hook_dimension,
    partitions_of,
    permutations_of,
    standard_tableaux,
)
from weingarten.young import central_idempotent, character, character_table, young_idempotent


def test_trivial_and_sign_characters():
    for n in (2, 3, 4, 5):
        for mu in partitions_of(n):
            assert character(Partition((n,)), mu) == 1
    assert character(Partition((1, 1, 1)), Partition((2, 1))) == -1
    assert character(Partition((1, 1, 1)), Partition((3,))) == 1


def test_s3_table_exact():
    # rows are shapes, columns are classes, both in canonical order
    # [(3),(2,1),(1,1,1)]
    assert character_table(3)["values"] == [
        [1, 1, 1],
        [-1, 0, 2],
        [1, -1, 1],
    ]
    assert character(Partition((2, 1)), Partition((3,))) == -1
    assert character(Partition((2, 1)), Partition((1, 1, 1))) == 2


def test_weight_mismatch_raises():
    with pytest.raises(ValueError):
        character(Partition((2, 1)), Partition((2, 2)))


def test_orthogonality_relations_up_to_8():
    for n in range(1, 9):
        parts = partitions_of(n)
        values = character_table(n)["values"]
        zs = [centralizer_order(mu) for mu in parts]
        # column orthogonality
        for j, mu in enumerate(parts):
            for k, nu in enumerate(parts):
                s = sum(values[i][j] * values[i][k] for i in range(len(parts)))
                assert s == (zs[j] if j == k else 0)
        # row orthogonality
        for i in range(len(parts)):
            for j in range(len(parts)):
                s = sum(
                    Fraction(values[i][k] * values[j][k], zs[k])
                    for k in range(len(parts))
                )
                assert s == (1 if i == j else 0)


def test_dimension_column():
    for n in range(1, 9):
        ones = Partition((1,) * n)
        for lam in partitions_of(n):
            assert character(lam, ones) == hook_dimension(lam)


def test_centralizer_order():
    assert centralizer_order(Partition((1, 1, 1))) == 6
    assert centralizer_order(Partition((2, 1))) == 2
    assert centralizer_order(Partition((3,))) == 3
    assert centralizer_order(Partition((2, 2, 1))) == 8


# -- idempotents ---------------------------------------------------------------


def test_single_box_idempotent_is_unit():
    assert young_idempotent(StandardTableau([[1]])) == AlgebraElement.unit(1)


def test_two_box_idempotent():
    e = young_idempotent(StandardTableau([[1, 2]]))
    expected = AlgebraElement(2, {
        p: Fraction(1, 2) for p in permutations_of(2)
    })
    assert e == expected
    m2 = jm_element(2, 2)
    assert m2 * e == e


def test_hook_shape_jm_eigenvalues():
    ta = young_idempotent(StandardTableau([[1, 2], [3]]))
    tb = young_idempotent(StandardTableau([[1, 3], [2]]))
    m2, m3 = jm_element(2, 3), jm_element(3, 3)
    assert m2 * ta == ta and m3 * ta == ta.scale(Fraction(-1))
    assert m2 * tb == tb.scale(Fraction(-1)) and m3 * tb == tb
    assert not jm_element(1, 3) * ta


def _all_tableaux(n):
    return [t for lam in partitions_of(n) for t in standard_tableaux(lam)]


def test_complete_orthogonal_idempotents_up_to_4():
    for n in range(1, 5):
        tableaux = _all_tableaux(n)
        idems = [young_idempotent(t) for t in tableaux]
        total = AlgebraElement.zero(n)
        for i, e in enumerate(idems):
            total = total + e
            for j, f in enumerate(idems):
                prod = e * f
                if i == j:
                    assert prod == e
                else:
                    assert not prod
        assert total == AlgebraElement.unit(n)


def test_jm_diagonalization_up_to_4():
    for n in range(1, 5):
        for t in _all_tableaux(n):
            e = young_idempotent(t)
            for k in range(1, n + 1):
                m = jm_element(k, n)
                target = e.scale(Fraction(t.content(k)))
                assert m * e == target
                assert e * m == target


# -- central idempotents ---------------------------------------------------


def test_symmetrizer_and_antisymmetrizer():
    n = 4
    sym = central_idempotent(Partition((n,)))
    expected = AlgebraElement(n, {p: Fraction(1, factorial(n)) for p in permutations_of(n)})
    assert sym == expected
    alt = central_idempotent(Partition((1,) * n))
    signs = {
        p: Fraction((-1) ** (n - num_cycles(p)), factorial(n)) for p in permutations_of(n)
    }
    assert alt == AlgebraElement(n, signs)


def test_both_routes_agree_up_to_4():
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert central_idempotent(lam) == character_projector(lam)


def test_central_orthogonality_and_resolution():
    for n in range(1, 5):
        projs = [central_idempotent(lam) for lam in partitions_of(n)]
        total = AlgebraElement.zero(n)
        for i, p in enumerate(projs):
            total = total + p
            for j, q in enumerate(projs):
                prod = p * q
                if i == j:
                    assert prod == p
                else:
                    assert not prod
        assert total == AlgebraElement.unit(n)


def test_central_idempotents_commute_with_everything():
    n = 4
    for lam in partitions_of(n):
        p = central_idempotent(lam)
        for sigma in permutations_of(n)[:8]:
            d = basis_element(sigma)
            assert p * d == d * p


def test_central_regular_matrix_symmetric_up_to_4():
    for n in range(1, 5):
        basis = permutations_of(n)
        for lam in partitions_of(n):
            mat = regular_matrix(central_idempotent(lam), basis, side="left")
            assert mat_is_symmetric(mat)
