"""The type-algebra identity checks against the dense products they replace."""

import copy
import json
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_type, mat_mul, pseudo_inverse_check, running_sum_spectral_sum

from weingarten import exactmat
from weingarten.coeffring import TAU, TauRational, render
from weingarten.exactmat import (
    _product,
    _type_algebra,
    spectral_sum,
    type_commutation_check,
    type_idempotents,
    type_pseudo_inverse_check,
)
from weingarten.orthogonal import _idempotents_by_type, gram_orthogonal, weingarten_orthogonal
from weingarten.symcore import (
    Partition,
    Permutation,
    cross_type_matrix,
    enumerate_pairings,
    generator_index_maps,
    hook_dimension,
    partitions_of,
    permutations_of,
    type_matrix,
)
from weingarten.unitary import weingarten_unitary, wg_function_unitary
from weingarten.young import character

BUILDERS = {"unitary": weingarten_unitary, "orthogonal": weingarten_orthogonal}


def _type_check(table, basis=None):
    basis = table.basis if basis is None else basis
    return type_pseudo_inverse_check(table.gram, table.weingarten, basis)


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
def test_type_check_agrees_with_dense_oracle(group, n, tau):
    table = BUILDERS[group](n, tau)
    report = _type_check(table)
    assert report == pseudo_inverse_check(table.gram, table.weingarten)
    assert report.ok and report.invariant


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([("unitary", n) for n in (1, 2, 3)] + [("orthogonal", n) for n in (1, 2)]),
    st.fractions(min_value=0, max_value=50, max_denominator=12),
)
def test_type_check_agrees_with_dense_oracle_at_random_tau(case, offset):
    group, n = case
    tau = n + offset + Fraction(1, 13)  # strictly above n
    table = BUILDERS[group](n, tau)
    assert _type_check(table) == pseudo_inverse_check(table.gram, table.weingarten)


@pytest.mark.parametrize(
    "group, n, tau",
    [("unitary", 3, TAU), ("unitary", 4, Fraction(7)), ("orthogonal", 2, TAU), ("orthogonal", 3, Fraction(8))],
)
def test_entries_are_compared_by_value_not_by_object(group, n, tau):
    # table entries are shared objects; a copy with none shared must check the same
    table = BUILDERS[group](n, tau)
    gram, wg = _fresh(table.gram), _fresh(table.weingarten)
    assert all(len({id(x) for row in m for x in row}) == len(m) ** 2 for m in (gram, wg))
    report = type_pseudo_inverse_check(gram, wg, table.basis)
    assert report == pseudo_inverse_check(gram, wg) == _type_check(table)
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
        report = type_pseudo_inverse_check(gram, wg, table.basis)
        assert not report.invariant
        assert not report.ok


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
def test_invariant_perturbation_fails_the_identities(group, n, tau):
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
    report = type_pseudo_inverse_check(table.gram, bad, basis)
    assert report.invariant and report.w_symmetric
    assert not report.gwg_equals_g and not report.wgw_equals_w
    assert report == pseudo_inverse_check(table.gram, bad)


def test_change_off_the_base_entry_of_the_row_is_seen():
    """E from delta_(12) - delta_(23): G E G is zero at the base entry only.

    E is left-invariant but not constant on cycle types, so the type check
    rejects it before any product.
    """
    table = weingarten_unitary(3, Fraction(5))
    s12, s23 = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    e, _ = _group_matrix(3, lambda x: Fraction(int(x == s12) - int(x == s23)))
    bad = [[w + d for w, d in zip(row, drow)] for row, drow in zip(table.weingarten, e)]
    report = type_pseudo_inverse_check(table.gram, bad, table.basis)
    assert not report.ok and not report.invariant
    assert not pseudo_inverse_check(table.gram, bad).gwg_equals_g


def test_action_with_two_orbits_fails_the_structure_check(monkeypatch):
    # row 0 satisfies both identities, row 1 does not; no map links them
    monkeypatch.setattr(exactmat, "generator_index_maps", lambda basis: [[0, 1]])
    basis = permutations_of(2)
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    wg = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    report = type_pseudo_inverse_check(gram, wg, basis)
    assert not report.invariant and not report.ok
    assert not type_commutation_check(gram, wg, basis)  # they commute, but unproven
    assert not pseudo_inverse_check(gram, wg).ok


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_basis_with_one_element_swapped_out_fails(group):
    table = BUILDERS[group](3, TAU)
    basis = list(table.basis)
    basis[-1] = basis[0]
    assert not _type_check(table, basis).ok
    basis[-1] = Permutation.identity(len(basis[0]) + 1)
    assert not _type_check(table, basis).ok
    basis[-1] = Permutation((2, 3, 1) + tuple(range(4, len(basis[0]) + 1)))
    assert not _type_check(table, basis).ok


def test_generator_maps_of_s1_fix_the_single_element():
    assert generator_index_maps(permutations_of(1)) == [[0]]


def _group_matrix(n, f):
    """M[s][t] = f(s^-1 t): invariant under left multiplication on S_n."""
    basis = permutations_of(n)
    return [[f(s.inverse() * t) for t in basis] for s in basis], basis


def test_commutation_check_agrees_with_dense_products():
    for n in (1, 2, 3):
        g1, g2 = gram_orthogonal(n, Fraction(3)), gram_orthogonal(n, Fraction(7))
        assert type_commutation_check(g1, g2, enumerate_pairings(n))
        assert mat_mul(g1, g2) == mat_mul(g2, g1)
    # two invariant matrices from non-commuting elements of C[S_3]
    s12, s23 = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    a, basis = _group_matrix(3, lambda x: Fraction(int(x == s12)))
    b, _ = _group_matrix(3, lambda x: Fraction(int(x == s23)))
    assert not type_commutation_check(a, b, basis)
    assert mat_mul(a, b) != mat_mul(b, a)


def test_commutation_check_rejects_a_non_invariant_matrix():
    g1, g2 = gram_orthogonal(3, Fraction(3)), gram_orthogonal(3, Fraction(7))
    bad = _copy(g2)
    bad[4][2] = bad[4][2] + 1
    assert not type_commutation_check(g1, bad, enumerate_pairings(3))


def _row_times(row, matrix):
    """Row vector times matrix, entry by entry over every column."""
    return [
        sum((x * m[r] for x, m in zip(row, matrix)), Fraction(0)) for r in range(len(matrix))
    ]


TYPE_CASES = (
    [("unitary", n, Fraction(7)) for n in (1, 2, 3, 4, 5)]
    + [("orthogonal", n, Fraction(7)) for n in (1, 2, 3, 4)]
    + [("unitary", 4, TAU), ("orthogonal", 3, TAU), ("unitary", 3, Fraction(1)), ("orthogonal", 2, Fraction(1))]
)


@pytest.mark.parametrize("group, n, tau", TYPE_CASES)
def test_type_algebra_holds_on_every_column(group, n, tau):
    # the reduction counts only at one column per type; every other column of
    # the same type must give the same counts and the same product entries
    table = BUILDERS[group](n, tau)
    gram, wg = table.gram, table.weingarten
    _, constants, (g, w) = _type_algebra(table.basis, gram, wg)
    _, index = type_matrix(table.basis)
    row = index[0]
    for r in range(len(row)):
        assert Counter((row[k], index[k][r]) for k in range(len(row))) == constants[row[r]]
    gw = _product(constants, g, w)
    assert _row_times(gram[0], wg) == [gw[t] for t in row]
    assert _row_times(_row_times(gram[0], wg), gram) == [_product(constants, gw, g)[t] for t in row]
    assert _row_times(_row_times(wg[0], gram), wg) == [_product(constants, w, gw)[t] for t in row]


@pytest.mark.parametrize("group, n, tau", TYPE_CASES)
def test_structure_constants_count_classes(group, n, tau):
    table = BUILDERS[group](n, tau)
    _, constants, _ = _type_algebra(table.basis, table.gram, table.weingarten)
    row = type_matrix(table.basis)[1][0]
    identity = row[0]
    for gamma, c in enumerate(constants):
        sums = Counter()
        for (alpha, _), count in c.items():
            sums[alpha] += count
        assert sums == Counter(row)
        assert {beta: k for (alpha, beta), k in c.items() if alpha == identity} == {gamma: 1}
        assert {alpha: k for (alpha, beta), k in c.items() if beta == identity} == {gamma: 1}


def _merged_walk(keep, drop):
    """The type walk with type `drop` reported as `keep`."""
    def walk(rows, cols):
        types, index = cross_type_matrix(rows, cols)
        renamed = [keep if mu == drop else mu for mu in types]
        distinct = list(dict.fromkeys(renamed))
        number = [distinct.index(mu) for mu in renamed]
        return distinct, [[number[t] for t in row] for row in index]
    return walk


def _unseen_walk(drop):
    """The type walk with type `drop` renamed to a new type, past row 0 only."""
    def walk(rows, cols):
        types, index = cross_type_matrix(rows, cols)
        if len(rows) > 1:
            types = [Partition((9, 9)) if mu == drop else mu for mu in types]
        return types, index
    return walk


@pytest.mark.parametrize("group, tau", [("unitary", Fraction(5)), ("orthogonal", Fraction(8))])
@pytest.mark.parametrize(
    "walk",
    [
        _merged_walk(Partition((2, 1)), Partition((3,))),
        _merged_walk(Partition((1, 1, 1)), Partition((2, 1))),
        _unseen_walk(Partition((3,))),
    ],
)
def test_wrong_type_walk_fails(monkeypatch, group, tau, walk):
    table = BUILDERS[group](3, tau)
    monkeypatch.setattr(exactmat, "cross_type_matrix", walk)
    report = table.pseudo_inverse_report()
    assert not report.ok and not report.invariant
    assert not type_commutation_check(table.gram, table.weingarten, table.basis)


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
def test_one_constant_off_by_one_fails(monkeypatch, group, n, tau):
    table = BUILDERS[group](n, tau)
    types, constants, values = _type_algebra(table.basis, table.gram, table.weingarten)
    assert table.pseudo_inverse_report().ok
    for gamma, c in enumerate(constants):
        for pair in c:
            bad = [Counter(x) for x in constants]
            bad[gamma][pair] += 1
            monkeypatch.setattr(exactmat, "_type_algebra", lambda *args: (types, bad, values))
            assert not table.pseudo_inverse_report().ok


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
def test_one_wrong_value_per_type_fails(monkeypatch, group, n, tau):
    table = BUILDERS[group](n, tau)
    types, constants, values = _type_algebra(table.basis, table.gram, table.weingarten)
    for i, gamma in [(i, gamma) for i in range(2) for gamma in range(len(constants))]:
        bad = [list(v) for v in values]
        bad[i][gamma] += 1
        monkeypatch.setattr(exactmat, "_type_algebra", lambda *args: (types, constants, bad))
        assert not table.pseudo_inverse_report().ok


@pytest.mark.parametrize("n", range(1, 6))
def test_class_algebra_idempotents_are_the_central_idempotents(n):
    # on S_n with alpha = 1 the E_lam are dim(lam) chi_lam / n!, a known
    # answer that owes nothing to the orthogonal route
    types, idempotents = type_idempotents(n, permutations_of(n), 1)
    assert list(idempotents) == partitions_of(n)
    for lam, e in idempotents.items():
        assert e == [Fraction(hook_dimension(lam) * character(lam, mu), factorial(n)) for mu in types]
    for g, mu in enumerate(types):
        for tau in (TAU, Fraction(7), Fraction(2)):
            value = spectral_sum(n, tau, 1, lambda lam: idempotents[lam][g])
            assert value == wg_function_unitary(mu, tau)


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("basis_of, alpha", [(enumerate_pairings, 1), (permutations_of, 2)])
def test_the_other_groups_alpha_raises(n, basis_of, alpha):
    with pytest.raises(ValueError, match="G E_lam != c_lam E_lam"):
        type_idempotents(n, basis_of(n), alpha)


# -- symbolic values over one shared denominator --------------------------------


def _unitary_weight(n, mu):
    return lambda lam: Fraction(hook_dimension(lam) * character(lam, mu), factorial(n))


def _orthogonal_weight(n, mu):
    return _idempotents_by_type(n)[mu].__getitem__


SYMBOLIC_CASES = [("unitary", n, 1) for n in range(1, 7)] + [("orthogonal", n, 2) for n in range(1, 6)]


@pytest.mark.parametrize("group, n, alpha", SYMBOLIC_CASES)
def test_symbolic_sum_equals_the_running_sum_on_every_type(group, n, alpha):
    weight_of = _unitary_weight if group == "unitary" else _orthogonal_weight
    for mu in partitions_of(n):
        weight = weight_of(n, mu)
        value = spectral_sum(n, TAU, alpha, weight)
        expected = running_sum_spectral_sum(n, TAU, alpha, weight)
        assert isinstance(value, TauRational)
        assert value.num.coeffs == expected.num.coeffs
        assert value.den.coeffs == expected.den.coeffs


def test_symbolic_sum_of_zero_weights_is_zero():
    assert spectral_sum(3, TAU, 1, lambda lam: 0) == 0
    cancel = {Partition((2,)): Fraction(1), Partition((1, 1)): Fraction(0)}
    assert spectral_sum(2, TAU, 1, cancel.__getitem__) == running_sum_spectral_sum(
        2, TAU, 1, cancel.__getitem__)


@pytest.mark.parametrize("alpha", [1, 2])
def test_a_cofactor_missing_one_linear_factor_trips_the_guard(monkeypatch, alpha):
    n = 4
    top, cofactors = exactmat._cofactors(n, alpha)
    lam = Partition((n,))
    contents = Counter(alpha * (j - 1) - (i - 1) for i, j in lam.cells())
    k = next(iter(top - contents))
    short, rest = exactmat._synthetic_division(cofactors[lam], -k)
    assert rest == 0
    bad = {**cofactors, lam: short}
    monkeypatch.setattr(exactmat, "_cofactors", lambda *args: (top, bad))
    with pytest.raises(ValueError, match="direct sum"):
        spectral_sum(n, TAU, alpha, _unitary_weight(n, Partition((1,) * n)))


@pytest.mark.parametrize("tau", [TAU + 1, TAU * TAU, TauRational(7)], ids=["t+1", "t^2", "7"])
def test_spectral_sum_takes_no_other_tau_rational(tau):
    with pytest.raises(ValueError, match="spectral sums take TAU"):
        spectral_sum(2, tau, 1, lambda lam: Fraction(1))


# -- rendering through the type index ---------------------------------------------


@pytest.mark.parametrize("group, n, tau", [
    ("unitary", 3, TAU), ("unitary", 4, Fraction(7, 2)), ("unitary", 3, Fraction(1)),
    ("orthogonal", 3, TAU), ("orthogonal", 3, Fraction(-2)), ("orthogonal", 2, Fraction(1)),
])
def test_rendering_through_the_type_index_matches_every_entry(group, n, tau):
    table = BUILDERS[group](n, tau)
    payload = table.to_json_dict()
    assert payload["gram"] == [[render(x) for x in row] for row in table.gram]
    assert payload["weingarten"] == [[render(x) for x in row] for row in table.weingarten]
    assert table.to_json_text() == json.dumps(payload)


def test_a_table_made_without_an_index_renders_the_same():
    table = weingarten_orthogonal(3, TAU)
    bare = exactmat.WeingartenTable(
        group=table.group, n=table.n, tau=table.tau, basis=table.basis,
        gram=table.gram, weingarten=table.weingarten, excluded=table.excluded,
    )
    assert bare.to_json_text() == table.to_json_text()
