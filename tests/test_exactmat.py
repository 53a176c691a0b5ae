"""The type-algebra identity checks against the dense products they replace."""

import json
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cycle_type,
    dense_type_matrix,
    loop_type,
    mat_mul,
    pseudo_inverse_check,
    running_sum_report,
    running_sum_spectral_sum,
    table_json_dict,
    table_with,
)

from weingarten import cli, coeffring, exactmat, symcore
from weingarten.coeffring import TAU, TauRational, render
from weingarten.exactmat import (
    PseudoInverseReport,
    _product,
    _type_algebra,
    spectral_sum,
    type_commutation_check,
    type_idempotents,
    weingarten_table,
)
from weingarten.orthogonal import _idempotents_by_type, weingarten_orthogonal
from weingarten.symcore import (
    Partition,
    Permutation,
    cross_type_matrix,
    generator_index_maps,
    hook_dimension,
    partitions_of,
    permutations_of,
)
from weingarten.unitary import weingarten_unitary, wg_function_unitary
from weingarten.young import character

BUILDERS = {"unitary": weingarten_unitary, "orthogonal": weingarten_orthogonal}


def _dense_check(table):
    """The dense products' report on the table's matrices, each row read through its index."""
    return pseudo_inverse_check(list(table.gram), list(table.weingarten))


def _fresh(values):
    """A copy with equal values and no object shared with `values` or within the copy."""
    return [Fraction(x.numerator, x.denominator) if isinstance(x, Fraction) else x * 1 for x in values]


@pytest.mark.parametrize(
    "group, n, tau",
    [("unitary", n, TAU) for n in (1, 2, 3)]
    + [("unitary", 4, Fraction(7)), ("unitary", 3, Fraction(1))]
    + [("orthogonal", n, TAU) for n in (1, 2, 3)]
    + [("orthogonal", 3, Fraction(8)), ("orthogonal", 2, Fraction(1))],
)
def test_type_check_agrees_with_dense_oracle(group, n, tau):
    table = BUILDERS[group](n, tau)
    report = table.pseudo_inverse_report()
    assert report == _dense_check(table)
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
    assert table.pseudo_inverse_report() == _dense_check(table)


@pytest.mark.parametrize(
    "group, n, tau",
    [("unitary", 3, TAU), ("unitary", 4, Fraction(7)), ("orthogonal", 2, TAU), ("orthogonal", 3, Fraction(8))],
)
def test_values_are_compared_by_value_not_by_object(group, n, tau):
    # a table's values may be shared objects; a copy with none shared must check the same
    table = BUILDERS[group](n, tau)
    fresh = table_with(table, gram_by_type=_fresh(table.gram_by_type),
                       weingarten_by_type=_fresh(table.weingarten_by_type))
    for old, new in ((table.gram_by_type, fresh.gram_by_type),
                     (table.weingarten_by_type, fresh.weingarten_by_type)):
        assert new == old and not {id(x) for x in new} & {id(x) for x in old}
    report = fresh.pseudo_inverse_report()
    assert report == table.pseudo_inverse_report() == _dense_check(fresh)
    assert report.ok and report.invariant


def _renamed_last_type(types):
    return types[:-1] + [Partition((9, 9))]


@pytest.mark.parametrize(
    "group, n, tau", [("unitary", 3, TAU), ("unitary", 4, Fraction(7)), ("orthogonal", 3, Fraction(8))]
)
@pytest.mark.parametrize(
    "numbering", [lambda types: types[::-1], _renamed_last_type], ids=["reversed", "renamed"]
)
def test_a_type_numbering_other_than_row_0s_fails_the_structure(group, n, tau, numbering):
    # the values stay those of the right types, only their numbering moves
    table = BUILDERS[group](n, tau)
    bad = table_with(table, types=numbering(table.types))
    report = bad.pseudo_inverse_report()
    assert not report.invariant and not report.ok
    assert not type_commutation_check(bad.gram, table.gram)
    with pytest.raises(ValueError, match="not those its type algebra proved"):
        "".join(bad.json_chunks())


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
def test_a_perturbation_on_one_type_fails_the_identities(group, n, tau):
    table = BUILDERS[group](n, tau)
    basis = table.basis
    if group == "unitary":
        target = cycle_type(basis[0].inverse() * basis[-1])
    else:
        target = loop_type(basis[0], basis[-1])
    bad = table_with(table, weingarten_by_type=[
        w + 1 if mu == target else w for w, mu in zip(table.weingarten_by_type, table.types)
    ])
    assert list(bad.weingarten)[0][-1] == list(table.weingarten)[0][-1] + 1
    report = bad.pseudo_inverse_report()
    assert report.invariant and report.w_symmetric
    assert not report.gwg_equals_g and not report.wgw_equals_w
    assert report == _dense_check(bad)


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
@pytest.mark.parametrize("which", ["gram_by_type", "weingarten_by_type"])
def test_one_wrong_value_per_type_fails(group, n, tau, which):
    table = BUILDERS[group](n, tau)
    for g in range(len(table.types)):
        values = list(getattr(table, which))
        values[g] += 1
        bad = table_with(table, **{which: values})
        assert not bad.pseudo_inverse_report().ok
        assert not _dense_check(bad).ok


def test_action_with_two_orbits_fails_the_structure_check(monkeypatch):
    # identity maps prove no orbit past index 0, however right the values are
    table = weingarten_unitary(2, Fraction(3))
    monkeypatch.setattr(exactmat, "generator_index_maps", lambda basis: [list(range(len(basis)))])
    _type_algebra.cache_clear()
    report = table.pseudo_inverse_report()
    assert not report.invariant and not report.ok
    assert not type_commutation_check(table.gram, table.gram)  # it commutes, but unproven
    with pytest.raises(ValueError, match="structure proof"):
        weingarten_unitary(2, Fraction(3))
    with pytest.raises(ValueError, match="structure proof"):
        type_idempotents("unitary", 2)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_basis_with_one_element_swapped_out_fails(group):
    table = BUILDERS[group](3, TAU)
    basis = list(table.basis)
    basis[-1] = basis[0]
    assert not table_with(table, basis=basis).pseudo_inverse_report().ok
    basis[-1] = Permutation.identity(len(basis[0]) + 1)
    assert not table_with(table, basis=basis).pseudo_inverse_report().ok
    basis[-1] = Permutation((2, 3, 1) + tuple(range(4, len(basis[0]) + 1)))
    assert not table_with(table, basis=basis).pseudo_inverse_report().ok
    with pytest.raises(ValueError, match="not those its type algebra proved"):
        "".join(table_with(table, basis=basis).csv_chunks())


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("change", ["dropped", "duplicated"])
def test_a_basis_with_one_element_dropped_or_duplicated_fails_the_proof(monkeypatch, group, change):
    # the generators' maps then leave the basis, or miss the first copy
    real = exactmat.BASES[group]

    def changed(n):
        basis = real(n)
        return basis[:5] + basis[6:] if change == "dropped" else basis + [basis[2]]

    monkeypatch.setitem(exactmat.BASES, group, changed)
    assert _type_algebra(group, 3) is None
    with pytest.raises(ValueError, match="structure proof"):
        weingarten_table(group, 3, Fraction(7))


def test_generator_maps_of_s1_fix_the_single_element():
    assert generator_index_maps(permutations_of(1)) == [[0]]


def test_commutation_check_agrees_with_dense_products():
    for n in (1, 2, 3):
        g1, g2 = (weingarten_table("orthogonal", n, Fraction(t)).gram for t in (3, 7))
        assert type_commutation_check(g1, g2)
        assert mat_mul(list(g1), list(g2)) == mat_mul(list(g2), list(g1))


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_commutation_check_rejects_constants_that_do_not_commute(monkeypatch, group):
    # the Gram values of two parameters separate (a, b) from (b, a) whenever
    # a and b have different numbers of parts
    g1 = weingarten_table(group, 3, Fraction(3)).gram
    g2 = weingarten_table(group, 3, Fraction(7)).gram
    algebra = _type_algebra(group, 3)
    bad = [Counter(c) for c in algebra.constants]
    bad[1][0, 1] += 1
    monkeypatch.setattr(exactmat, "_type_algebra", lambda *args: algebra._replace(constants=bad))
    assert not type_commutation_check(g1, g2)


def test_commutation_check_rejects_matrices_on_two_bases():
    g1 = weingarten_table("orthogonal", 3, Fraction(3)).gram
    g2 = weingarten_table("orthogonal", 2, Fraction(7)).gram
    assert not type_commutation_check(g1, g2)
    assert not type_commutation_check(g1, weingarten_table("unitary", 3, Fraction(7)).gram)


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
    gram, wg = list(table.gram), list(table.weingarten)
    g, w = table.gram_by_type, table.weingarten_by_type
    constants = _type_algebra(group, n).constants
    index = table.index
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
    algebra = _type_algebra(group, n)
    constants, row = algebra.constants, table.index[0]
    identity = row[0]
    for gamma, c in enumerate(constants):
        sums = Counter()
        for (alpha, _), count in c.items():
            sums[alpha] += count
        assert sums == Counter(row)
        assert {beta: k for (alpha, beta), k in c.items() if alpha == identity} == {gamma: 1}
        assert {alpha: k for (alpha, beta), k in c.items() if beta == identity} == {gamma: 1}
    # the index is the dense walk's, whose column 0 is its row 0
    assert algebra.transposes == list(range(len(constants)))
    assert [index_row[0] for index_row in table.index] == row


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_one_constant_walk_per_group_and_n(monkeypatch, group):
    # builds, JSON and CSV renders, reports, commutation checks and
    # idempotents share one proof: one map build, one walk of row 0 and one
    # N x p(n) walk, under either module's name
    calls = Counter()
    maps_of, walk = symcore.generator_index_maps, symcore.cross_type_matrix

    def counted_maps(basis):
        calls["maps"] += 1
        return maps_of(basis)

    def counted_walk(rows, cols):
        calls[len(rows), len(cols)] += 1
        return walk(rows, cols)

    for module in (symcore, exactmat):
        monkeypatch.setattr(module, "generator_index_maps", counted_maps)
        monkeypatch.setattr(module, "cross_type_matrix", counted_walk)
    for n in (3, 4):
        calls.clear()
        for tau in (TAU, Fraction(7)):
            table = BUILDERS[group](n, tau)
            assert table.pseudo_inverse_report().ok
            assert "".join(table.json_chunks()) and "".join(table.csv_chunks())
        g2, g3 = (weingarten_table(group, n, Fraction(t)).gram for t in (2, 3))
        assert type_commutation_check(g2, g3)
        type_idempotents(group, n)
        size, p = len(table.basis), len(partitions_of(n))
        assert calls == {"maps": 1, (1, size): 1, (size, p): 1}


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


def _transposed_walk(drop, keep):
    """The type walk with the transpose of type `drop`, the type of (r_g, r_0), reported as `keep`.

    Only the identity column of the N x p(n) walk changes, at the rows of the representatives.
    """
    def walk(rows, cols):
        types, index = cross_type_matrix(rows, cols)
        if len(rows) > 1 and len(cols) > 1:
            index = [list(row) for row in index]
            for rep in cols:
                row = index[rows.index(rep)]
                if types[row[0]] == drop:
                    row[0] = types.index(keep)
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
    _type_algebra.cache_clear()
    report = table.pseudo_inverse_report()
    assert not report.ok and not report.invariant
    assert not type_commutation_check(table.gram, table.weingarten)


@pytest.mark.parametrize("group, tau", [("unitary", Fraction(5)), ("orthogonal", Fraction(8))])
@pytest.mark.parametrize("drop, keep", [((3,), (1, 1, 1)), ((2, 1), (3,))])
def test_a_type_not_closed_under_transposition_fails(monkeypatch, group, tau, drop, keep):
    table = BUILDERS[group](3, tau)
    monkeypatch.setattr(exactmat, "cross_type_matrix", _transposed_walk(Partition(drop), Partition(keep)))
    _type_algebra.cache_clear()
    report = table.pseudo_inverse_report()
    assert report.invariant and not report.w_symmetric and not report.ok


@pytest.mark.parametrize("group, tau", [("unitary", Fraction(5)), ("orthogonal", Fraction(8))])
@pytest.mark.parametrize("keep, drop", [((2, 1), (3,)), ((1, 1, 1), (2, 1))])
def test_two_merged_types_fail_the_report(monkeypatch, group, tau, keep, drop):
    # the table and the constants are built on the merged types, each value
    # the true one of its type; the orthogonal values fail their own proof first
    true = BUILDERS[group](3, tau)
    value = dict(zip(true.types, true.weingarten_by_type))
    monkeypatch.setattr(exactmat, "cross_type_matrix", _merged_walk(Partition(keep), Partition(drop)))
    _type_algebra.cache_clear()
    table = weingarten_table(group, 3, tau, lambda mu, t: value[mu])
    assert len(table.types) == 2
    assert not table.pseudo_inverse_report().ok
    if group == "orthogonal":
        _idempotents_by_type.cache_clear()
        with pytest.raises(ValueError, match="type idempotents"):
            weingarten_orthogonal(3, tau)


@pytest.mark.parametrize("group, n, tau", [("unitary", 3, Fraction(5)), ("orthogonal", 3, Fraction(8))])
def test_one_constant_off_by_one_fails(monkeypatch, group, n, tau):
    table = BUILDERS[group](n, tau)
    algebra = _type_algebra(group, n)
    assert table.pseudo_inverse_report().ok
    for gamma, c in enumerate(algebra.constants):
        for pair in c:
            bad = [Counter(x) for x in algebra.constants]
            bad[gamma][pair] += 1
            monkeypatch.setattr(exactmat, "_type_algebra", lambda *args: algebra._replace(constants=bad))
            assert not table.pseudo_inverse_report().ok


@pytest.mark.parametrize("n", range(1, 6))
def test_class_algebra_idempotents_are_the_central_idempotents(n):
    # on S_n with alpha = 1 the E_lam are dim(lam) chi_lam / n!, a known
    # answer that owes nothing to the orthogonal route
    types, idempotents = type_idempotents("unitary", n)
    assert list(idempotents) == partitions_of(n)
    for lam, e in idempotents.items():
        assert e == [Fraction(hook_dimension(lam) * character(lam, mu), factorial(n)) for mu in types]
    for g, mu in enumerate(types):
        for tau in (TAU, Fraction(7), Fraction(2)):
            value = spectral_sum(n, tau, 1, lambda lam: idempotents[lam][g])
            assert value == wg_function_unitary(mu, tau)


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("group, alpha", [("orthogonal", 1), ("unitary", 2)])
def test_the_other_groups_alpha_raises(monkeypatch, n, group, alpha):
    monkeypatch.setitem(exactmat.ALPHA, group, alpha)
    with pytest.raises(ValueError, match="G E_lam != c_lam E_lam"):
        type_idempotents(group, n)


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
        assert value.num == expected.num
        assert value.den == expected.den


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
    short, rest = coeffring._synthetic_division(cofactors[lam], -k)
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
    payload = table_json_dict(table)
    assert payload["gram"] == [[render(table.gram_by_type[t]) for t in row] for row in table.index]
    assert "".join(table.json_chunks()) == json.dumps(payload) + "\n"


def test_the_index_is_built_only_when_rendered():
    table = weingarten_orthogonal(3, TAU)
    table.pseudo_inverse_report()
    chunks = table.json_chunks()
    assert "index" not in vars(table)
    first = next(chunks)
    assert vars(table)["index"] == dense_type_matrix(table.basis)[1]
    assert first + "".join(chunks) == json.dumps(table_json_dict(table)) + "\n"


# -- symbolic identities at integer points ----------------------------------------


def test_the_report_is_a_named_tuple_with_the_old_repr():
    report = PseudoInverseReport(True, False, True)
    assert report.invariant and not report.ok and PseudoInverseReport(True, True, True).ok
    assert not PseudoInverseReport(True, True, True, invariant=False).ok
    assert report == PseudoInverseReport(gwg_equals_g=True, wgw_equals_w=False, w_symmetric=True, invariant=True)
    assert repr(report) == (
        "PseudoInverseReport(gwg_equals_g=True, wgw_equals_w=False, w_symmetric=True, invariant=True)"
    )


def _vanishing_at(points, over):
    """prod (t - p) over the points, divided by the polynomial `over` (ascending integer coefficients)."""
    num = TauRational(1)
    for p in points:
        num = num * (TAU + -p)
    return TauRational(num.num, tuple(over))


@pytest.mark.parametrize("group, n", [("unitary", 3), ("unitary", 4), ("orthogonal", 3)])
def test_one_point_short_lets_a_perturbation_vanishing_there_through(monkeypatch, group, n):
    # W_0 + prod (t - p) / D equals W_0 at every point but the last of the
    # honest table's; its denominator still divides D.  A perturbation that
    # vanishes at that many points raises the degree of D W past the honest
    # bound, so the cut is to the honest table's points.
    table = BUILDERS[group](n, TAU)
    count = len(exactmat._points(group, n, table.gram_by_type, table.weingarten_by_type))
    cut = range(n, n + count - 1)
    top, _ = exactmat._cofactors(n, exactmat.ALPHA[group])
    w = list(table.weingarten_by_type)
    w[0] = w[0] + _vanishing_at(cut, exactmat._linear_product(top))
    perturbed = table_with(table, weingarten_by_type=w)
    assert perturbed.pseudo_inverse_report() == PseudoInverseReport(False, False, True)
    monkeypatch.setattr(exactmat, "integer_points", lambda n, degree: cut)
    assert perturbed.pseudo_inverse_report().ok


@pytest.mark.parametrize("group, n", [("unitary", 3), ("unitary", 4), ("orthogonal", 3)])
@pytest.mark.parametrize("numerator", [[1], [0, 1, 0, 0, -5]], ids=["constant", "degree-4"])
def test_the_degree_bound_covers_the_symbolic_errors(group, n, numerator):
    # D (GWG - G) and D^2 (WGW - W), formed over reduced TauRationals for a
    # perturbed W, are polynomials of degree below the number of points
    table = BUILDERS[group](n, TAU)
    top, _ = exactmat._cofactors(n, exactmat.ALPHA[group])
    d = TauRational(tuple(exactmat._linear_product(top)))
    g, w = table.gram_by_type, list(table.weingarten_by_type)
    w[-1] = w[-1] + TauRational(tuple(numerator), d.num)
    count = len(exactmat._points(group, n, g, w))
    constants = _type_algebra(group, n).constants
    gw = _product(constants, g, w)
    errors = [(x + -1 * y) * d for x, y in zip(_product(constants, gw, g), g)]
    errors += [(x + -1 * y) * d * d for x, y in zip(_product(constants, w, gw), w)]
    assert any(errors)
    assert all(e.is_polynomial() and len(e.num) - 1 < count for e in errors if e)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("matrix", ["gram_by_type", "weingarten_by_type"])
@pytest.mark.parametrize("root", [3, 100], ids=["root-at-the-first-point", "root-far-off"])
def test_a_denominator_outside_d_fails_without_raising(group, matrix, root):
    # a Gram value must be a polynomial and a Weingarten denominator divide D;
    # t - 3 vanishes at the first point, where evaluating would divide by zero
    table = BUILDERS[group](3, TAU)
    values = list(getattr(table, matrix))
    values[1] = values[1] + _vanishing_at([], [-root, 1])
    report = table_with(table, **{matrix: values}).pseudo_inverse_report()
    assert report == PseudoInverseReport(False, False, True)


@pytest.mark.parametrize(
    "group, n", [("unitary", n) for n in range(1, 7)] + [("orthogonal", n) for n in range(1, 6)]
)
def test_the_report_agrees_with_the_running_sum_oracle(group, n):
    table = BUILDERS[group](n, TAU)
    assert table.pseudo_inverse_report() == running_sum_report(table) == PseudoInverseReport(True, True, True)


@pytest.mark.parametrize("group, n", [(group, n) for group in BUILDERS for n in range(1, 5)])
def test_the_report_agrees_with_the_running_sum_oracle_on_a_doubled_value(group, n):
    table = BUILDERS[group](n, TAU)
    w = list(table.weingarten_by_type)
    w[-1] = w[-1] * 2
    doubled = table_with(table, weingarten_by_type=w)
    assert doubled.pseudo_inverse_report() == running_sum_report(doubled) == PseudoInverseReport(False, False, True)


def test_the_symbolic_checks_take_no_polynomial_gcd_or_division(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a polynomial gcd or division on the check path")

    monkeypatch.setattr(coeffring, "poly_gcd", refuse)
    monkeypatch.setattr(coeffring, "_poly_divmod", refuse)
    assert cli.main(["verify", "--suite", "all", "--n", "4"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    for n in range(1, 7):
        assert weingarten_unitary(n, TAU).pseudo_inverse_report().ok
        assert weingarten_orthogonal(n, TAU).pseudo_inverse_report().ok
