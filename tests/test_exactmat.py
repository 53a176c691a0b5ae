"""The one-row identity checks against the dense products they replace."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weingarten.coeffring import TAU
from weingarten.exactmat import (
    mat_mul,
    pseudo_inverse_check,
    row_commutation_check,
    row_pseudo_inverse_check,
)
from weingarten.orthogonal import gram_orthogonal, loop_type, weingarten_orthogonal
from weingarten.symcore import Permutation, enumerate_pairings, generator_index_maps, permutations_of
from weingarten.unitary import weingarten_unitary

BUILDERS = {"unitary": weingarten_unitary, "orthogonal": weingarten_orthogonal}


def _row_check(table, basis=None):
    maps = generator_index_maps(table.basis if basis is None else basis)
    return row_pseudo_inverse_check(table.gram, table.weingarten, maps)


def _copy(matrix):
    return [row[:] for row in matrix]


def _fresh(matrix):
    """Entrywise copy: equal values, no object shared with `matrix` or within the copy."""
    return [
        [Fraction(x.numerator, x.denominator) if isinstance(x, Fraction) else copy.deepcopy(x) for x in row]
        for row in matrix
    ]


@pytest.mark.parametrize(
    "group, n, tau",
    [("unitary", n, TAU) for n in (1, 2, 3)]
    + [("unitary", 4, Fraction(7)), ("unitary", 3, Fraction(1))]
    + [("orthogonal", n, TAU) for n in (1, 2, 3)]
    + [("orthogonal", 3, Fraction(8)), ("orthogonal", 2, Fraction(1))],
)
def test_row_check_agrees_with_dense_oracle(group, n, tau):
    table = BUILDERS[group](n, tau)
    report = _row_check(table)
    assert report == pseudo_inverse_check(table.gram, table.weingarten)
    assert report.ok and report.invariant


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([("unitary", n) for n in (1, 2, 3)] + [("orthogonal", n) for n in (1, 2)]),
    st.fractions(min_value=0, max_value=50, max_denominator=12),
)
def test_row_check_agrees_with_dense_oracle_at_random_tau(case, offset):
    group, n = case
    tau = n + offset + Fraction(1, 13)  # strictly above n
    table = BUILDERS[group](n, tau)
    assert _row_check(table) == pseudo_inverse_check(table.gram, table.weingarten)


@pytest.mark.parametrize(
    "group, n, tau",
    [("unitary", 3, TAU), ("unitary", 4, Fraction(7)), ("orthogonal", 2, TAU), ("orthogonal", 3, Fraction(8))],
)
def test_entries_are_numbered_by_value_not_by_object(group, n, tau):
    # table entries are shared objects; a copy with none shared must check the same
    table = BUILDERS[group](n, tau)
    gram, wg = _fresh(table.gram), _fresh(table.weingarten)
    assert all(len({id(x) for row in m for x in row}) == len(m) ** 2 for m in (gram, wg))
    report = row_pseudo_inverse_check(gram, wg, generator_index_maps(table.basis))
    assert report == pseudo_inverse_check(gram, wg) == _row_check(table)
    assert report.ok and report.invariant


@pytest.mark.parametrize(
    "group, n, tau", [("unitary", 3, TAU), ("unitary", 4, Fraction(7)), ("orthogonal", 3, Fraction(8))]
)
@pytest.mark.parametrize("which", ["gram", "weingarten"])
def test_one_off_base_row_entry_fails_invariance(group, n, tau, which):
    table = BUILDERS[group](n, tau)
    size = len(table.basis)
    for i, j in [(1, 0), (size - 1, size - 2), (size // 2, size - 1)]:
        bad = _copy(getattr(table, which))
        bad[i][j] = bad[i][j] + 1
        gram, wg = (bad, table.weingarten) if which == "gram" else (table.gram, bad)
        report = row_pseudo_inverse_check(gram, wg, generator_index_maps(table.basis))
        assert not report.invariant
        assert not report.ok


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
def test_invariant_perturbation_fails_the_row_identities(group, n, tau):
    table = BUILDERS[group](n, tau)
    basis = table.basis
    if group == "unitary":
        kind = [[(s.inverse() * t).cycle_type() for t in basis] for s in basis]
    else:
        kind = [[loop_type(p, q) for q in basis] for p in basis]
    target = kind[0][-1]
    bad = [
        [w + 1 if k == target else w for w, k in zip(row, kinds)]
        for row, kinds in zip(table.weingarten, kind)
    ]
    report = row_pseudo_inverse_check(table.gram, bad, generator_index_maps(basis))
    assert report.invariant and report.w_symmetric
    assert not report.gwg_equals_g and not report.wgw_equals_w
    assert report == pseudo_inverse_check(table.gram, bad)


def test_change_off_the_base_entry_of_the_row_is_seen():
    """E from delta_(12) - delta_(23): G E G is zero at the base entry only."""
    table = weingarten_unitary(3, Fraction(5))
    s12, s23 = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    e, _ = _group_matrix(3, lambda x: Fraction(int(x == s12) - int(x == s23)))
    bad = [[w + d for w, d in zip(row, drow)] for row, drow in zip(table.weingarten, e)]
    report = row_pseudo_inverse_check(table.gram, bad, generator_index_maps(table.basis))
    assert report.invariant and not report.gwg_equals_g
    assert report == pseudo_inverse_check(table.gram, bad)


def test_action_with_two_orbits_fails_the_structure_check():
    # row 0 satisfies both identities, row 1 does not; no map links them
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    wg = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    report = row_pseudo_inverse_check(gram, wg, [[0, 1]])
    assert not report.invariant and not report.ok
    assert not row_commutation_check(gram, wg, [[0, 1]])  # they commute, but unproven
    assert not pseudo_inverse_check(gram, wg).ok


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_basis_with_one_element_swapped_out_fails(group):
    table = BUILDERS[group](3, TAU)
    basis = list(table.basis)
    basis[-1] = basis[0]
    assert not _row_check(table, basis).ok
    basis[-1] = Permutation.identity(len(basis[0]) + 1)
    assert not _row_check(table, basis).ok
    basis[-1] = Permutation((2, 3, 1) + tuple(range(4, len(basis[0]) + 1)))
    assert not _row_check(table, basis).ok


def test_generator_maps_of_s1_fix_the_single_element():
    assert generator_index_maps(permutations_of(1)) == [[0]]


def _group_matrix(n, f):
    """M[s][t] = f(s^-1 t): invariant under left multiplication on S_n."""
    basis = permutations_of(n)
    return [[f(s.inverse() * t) for t in basis] for s in basis], basis


def test_commutation_check_agrees_with_dense_products():
    for n in (1, 2, 3):
        g1, g2 = gram_orthogonal(n, Fraction(3)), gram_orthogonal(n, Fraction(7))
        maps = generator_index_maps(enumerate_pairings(n))
        assert row_commutation_check(g1, g2, maps)
        assert mat_mul(g1, g2) == mat_mul(g2, g1)
    # two invariant matrices from non-commuting elements of C[S_3]
    s12, s23 = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    a, basis = _group_matrix(3, lambda x: Fraction(int(x == s12)))
    b, _ = _group_matrix(3, lambda x: Fraction(int(x == s23)))
    assert not row_commutation_check(a, b, generator_index_maps(basis))
    assert mat_mul(a, b) != mat_mul(b, a)


def test_commutation_check_rejects_a_non_invariant_matrix():
    g1, g2 = gram_orthogonal(3, Fraction(3)), gram_orthogonal(3, Fraction(7))
    bad = _copy(g2)
    bad[4][2] = bad[4][2] + 1
    assert not row_commutation_check(g1, bad, generator_index_maps(enumerate_pairings(3)))
