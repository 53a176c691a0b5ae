from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    conjugating_permutation,
    jm_product_at_tau,
    loop_product,
    coset_cycle_type_histogram,
    histogram_wg_value_orthogonal,
    loop_type,
    loop_type_representative,
    map_coefficients,
    mat_identity,
    mat_mul,
    materialized_pairing_basis_matrix,
    pairing_centralizer,
    projector_entry,
    pseudo_inverse_check,
    table_json_dict,
    weingarten_matrix_from_central_idempotents,
)

from weingarten import exactmat, haarmc, orthogonal, symcore, verify, young
from weingarten.coeffring import TAU, TauRational, render
from weingarten.exactmat import _type_algebra, content_product, spectral_sum, type_idempotents
from weingarten.groupalg import (
    AlgebraElement,
    average_projector,
    hyperoctahedral_elements,
    jm_product_orthogonal,
)
from weingarten.orthogonal import (
    adjacent_pairing,
    coset_label,
    coset_representative,
    coset_sums,
    double_factorial_odd,
    gram_orthogonal,
    weingarten_orthogonal,
    wg_value_orthogonal,
)
from weingarten.symcore import (
    Pairing,
    Partition,
    Permutation,
    double_shape,
    enumerate_pairings,
    hook_dimension,
    partitions_of,
    permutations_of,
)
from weingarten.young import central_idempotent


def test_adjacent_pairing():
    assert adjacent_pairing(1).to_text() == "(1,2)"
    assert adjacent_pairing(2).to_text() == "(1,2)(3,4)"
    assert tuple(adjacent_pairing(3)) == (2, 1, 4, 3, 6, 5)


def test_adjacent_stabilizer_size():
    beta = adjacent_pairing(3)
    stab = [s for s in permutations_of(6) if beta.conjugate_by(s) == beta]
    assert len(stab) == 48  # 6!/15


def test_coset_representative_of_base_is_identity():
    for n in (1, 2, 3, 4):
        rep = coset_representative(adjacent_pairing(n))
        assert rep == Permutation.identity(2 * n)


def test_coset_representative_recursion_value():
    # pi(4)=2 < 3, so conjugate by (2 3) and recurse; the representative is (2 3)
    rep = coset_representative(Pairing.from_text("(1,3)(2,4)"))
    assert rep == Permutation.from_images([1, 3, 2, 4])
    rep2 = coset_representative(Pairing.from_text("(1,4)(2,3)"))
    assert rep2 == Permutation.from_images([3, 2, 1, 4])


def test_coset_representative_conjugation_exhaustive():
    for n in (1, 2, 3, 4):
        base = adjacent_pairing(n)
        seen = set()
        for pi in enumerate_pairings(n):
            rep = coset_representative(pi)
            assert base.conjugate_by(rep) == pi
            seen.add(rep)
        assert len(seen) == double_factorial_odd(n)


def test_gram_orthogonal_figure_entry():
    pi = Pairing.from_text("(1,2)(3,5)(4,6)")
    rho = Pairing.from_text("(1,2)(3,6)(4,5)")
    basis = enumerate_pairings(3)
    g = gram_orthogonal(3, TAU)
    i, j = basis.index(pi), basis.index(rho)
    assert g[i][j] == TAU * TAU


def test_gram_orthogonal_n2():
    t2, t = TAU * TAU, TAU
    assert list(gram_orthogonal(2, TAU)) == [[t2, t, t], [t, t2, t], [t, t, t2]]


def test_gram_diagonal():
    for n in (1, 2, 3):
        g = gram_orthogonal(n, TAU)
        for i in range(len(g)):
            assert g[i][i] == TAU**n


def test_c_orthogonal_examples():
    assert content_product(Partition((2,)), TAU, 2) == TAU * (TAU + 2)
    assert content_product(Partition((1, 1)), TAU, 2) == TAU * (TAU + -1)
    assert content_product(Partition((1, 1)), Fraction(1), 2) == 0


def test_loop_type_halves_cycles():
    for n in (2, 3):
        ps = enumerate_pairings(n)
        for pi in ps:
            for rho in ps:
                mu = loop_type(pi, rho)
                assert mu.weight == n
                assert 2 * len(mu) == (pi * rho).num_cycles()


def test_pairing_centralizer_is_conjugation_stabilizer():
    for n in (1, 2, 3):
        for pi in enumerate_pairings(n)[:4]:
            fast = set(pairing_centralizer(pi))
            brute = {s for s in permutations_of(2 * n) if pi.conjugate_by(s) == pi}
            assert fast == brute


def test_projector_entry_n1():
    b = adjacent_pairing(1)
    assert projector_entry(Partition((1,)), b, b) == 1


def test_projector_entries_n2_hand_values():
    b = adjacent_pairing(2)
    o = Pairing.from_text("(1,3)(2,4)")
    assert projector_entry(Partition((2,)), b, b) == Fraction(1, 3)
    assert projector_entry(Partition((1, 1)), b, b) == Fraction(2, 3)
    assert projector_entry(Partition((2,)), b, o) == Fraction(1, 3)
    assert projector_entry(Partition((1, 1)), b, o) == Fraction(-1, 3)


def test_projector_entry_symmetric_and_resolution_up_to_3():
    for n in (1, 2, 3):
        basis = enumerate_pairings(n)
        for lam in partitions_of(n):
            mat = [[projector_entry(lam, pi, rho) for rho in basis] for pi in basis]
            for i in range(len(basis)):
                for j in range(len(basis)):
                    assert mat[i][j] == mat[j][i]
        for i, pi in enumerate(basis):
            for j, rho in enumerate(basis):
                total = sum(projector_entry(lam, pi, rho) for lam in partitions_of(n))
                assert total == (1 if i == j else 0)


def test_projector_entry_independent_of_conjugator():
    # recompute one entry with a second, different sigma0 (spec: any coset
    # representative gives the same value)
    b = adjacent_pairing(2)
    o = Pairing.from_text("(1,3)(2,4)")
    s0 = conjugating_permutation(o, b)
    flip = Permutation.from_images([3, 1, 4, 2])  # another conjugator
    assert o.conjugate_by(flip) == b
    assert s0 != flip
    for lam in partitions_of(2):
        direct = projector_entry(lam, b, o, sigma0=s0)
        other = projector_entry(lam, b, o, sigma0=flip)
        cached = projector_entry(lam, b, o)
        assert direct == other == cached
    with pytest.raises(ValueError):
        projector_entry(Partition((2,)), b, o, sigma0=Permutation.identity(4))


def test_histogram_over_h_n_matches_centralizer_enumeration_up_to_5():
    # the oracle histogram enumerates H_n from groupalg; the reference walks
    # pairing_centralizer of the adjacent pairing through projector_entry's
    # explicit-sigma0 branch, and both must give every value the same
    for n in range(1, 6):
        base = adjacent_pairing(n)
        centralizer = pairing_centralizer(base)
        for mu in partitions_of(n):
            target = loop_type_representative(mu)
            s0 = conjugating_permutation(base, target)
            direct = Counter((s0 * c).cycle_type() for c in centralizer)
            assert coset_cycle_type_histogram(mu) == direct
            if n <= 4:
                reference = spectral_sum(
                    n, Fraction(9), 2, lambda lam: projector_entry(lam, target, base, sigma0=s0)
                )
                assert wg_value_orthogonal(mu, Fraction(9)) == reference


@pytest.mark.parametrize(
    "n, taus",
    [(n, (TAU, Fraction(7), Fraction(1), Fraction(2), Fraction(3))) for n in range(1, 6)]
    + [(6, (Fraction(7),))],
)
def test_values_agree_with_the_histogram_oracle(n, taus):
    # the idempotent route against S_2n characters summed over H_n cosets,
    # at symbolic t, an invertible tau and the singular tau = 1, 2, 3
    for tau in taus:
        for mu in partitions_of(n):
            assert wg_value_orthogonal(mu, tau) == histogram_wg_value_orthogonal(mu, tau)


def test_no_table_path_walks_h_n():
    weingarten_orthogonal(4, TAU)
    weingarten_orthogonal(4, Fraction(9))
    haarmc._class_predictions("orthogonal", 2, 4, haarmc._factor_columns(2, 4)[0])
    assert hyperoctahedral_elements.cache_info().currsize == 0
    assert not young._CHAR_MEMO


@pytest.mark.parametrize("n", range(1, 5))
def test_every_constant_off_by_one_raises(monkeypatch, n):
    algebra = _type_algebra("orthogonal", n)
    type_idempotents("orthogonal", n)
    for gamma, c in enumerate(algebra.constants):
        for pair in c:
            bad = [Counter(x) for x in algebra.constants]
            bad[gamma][pair] += 1
            monkeypatch.setattr(exactmat, "_type_algebra",
                                lambda *args, bad=bad: algebra._replace(constants=bad))
            with pytest.raises(ValueError, match="type idempotents"):
                type_idempotents("orthogonal", n)


@pytest.mark.parametrize("n", range(2, 5))
def test_two_swapped_labels_fail_the_rank_check(monkeypatch, n):
    # the first two shapes of n have doubled shapes of different dimension
    def swapped(*args):
        types, idempotents = type_idempotents(*args)
        first, second = list(idempotents)[:2]
        idempotents[first], idempotents[second] = idempotents[second], idempotents[first]
        return types, idempotents

    monkeypatch.setattr(orthogonal, "type_idempotents", swapped)
    with pytest.raises(ValueError, match="dim\\(2lam\\)"):
        wg_value_orthogonal(Partition((n,)), Fraction(7))


def test_swapped_labels_of_equal_rank_fail_the_second_type(monkeypatch):
    # (4,4) and (2,2,2,2) both have 14 standard tableaux, so only the value
    # at the loop type (2, 1, 1) tells E_(2,2) and E_(1,1,1,1) apart
    a, b = Partition((2, 2)), Partition((1, 1, 1, 1))
    assert hook_dimension(double_shape(a)) == hook_dimension(double_shape(b))

    def swapped(*args):
        types, idempotents = type_idempotents(*args)
        idempotents[a], idempotents[b] = idempotents[b], idempotents[a]
        return types, idempotents

    monkeypatch.setattr(orthogonal, "type_idempotents", swapped)
    with pytest.raises(ValueError, match="content formula at lam = \\[2,2\\]"):
        wg_value_orthogonal(Partition((4,)), Fraction(7))


@pytest.mark.parametrize("n", range(2, 5))
def test_a_probe_with_two_equal_eigenvalues_raises(monkeypatch, n):
    # every c_lam has the factor t of the box (1, 1), so all vanish at t0 = 0
    monkeypatch.setattr(exactmat, "_probe", lambda n, alpha: 0)
    with pytest.raises(ValueError, match="coincide"):
        weingarten_orthogonal(n, TAU)


def test_weingarten_n2_closed_forms_and_sympy_oracle():
    table = weingarten_orthogonal(2, TAU)
    diag = table.weingarten[0][0]
    off = table.weingarten[0][1]
    assert render(diag) == "(t + 1)/(t^3 + t^2 - 2*t)"
    assert render(off) == "(-1)/(t^3 + t^2 - 2*t)"

    t = sympy.Symbol("t")
    gram = sympy.Matrix([[t**2, t, t], [t, t**2, t], [t, t, t**2]])
    inv = gram.inv()
    assert sympy.simplify(
        inv[0, 0] - sympy.sympify("(t+1)/(t*(t-1)*(t+2))", locals={"t": t})
    ) == 0
    assert sympy.simplify(
        sympy.sympify(render(off).replace("^", "**"), locals={"t": t}) - inv[0, 1]
    ) == 0


def test_weingarten_orthogonal_n1():
    table = weingarten_orthogonal(1, Fraction(4))
    assert list(table.weingarten) == [[Fraction(1, 4)]]
    assert list(table.gram) == [[Fraction(4)]]


def test_degenerate_tau1_n2():
    table = weingarten_orthogonal(2, Fraction(1))
    assert [tuple(p) for p in table.excluded] == [(1, 1)]
    report = pseudo_inverse_check(table.gram, table.weingarten)
    assert report.ok


def test_pseudo_inverse_symbolic_up_to_3():
    for n in (1, 2, 3):
        table = weingarten_orthogonal(n, TAU)
        assert pseudo_inverse_check(table.gram, table.weingarten).ok


def test_invertible_regime_n3_tau8():
    table = weingarten_orthogonal(3, Fraction(8))
    assert mat_mul(table.weingarten, table.gram) == mat_identity(15)


def _suite_passes(suite, max_n, *params):
    return all(ok for _, ok in verify.run(suite, max_n, *params))


def test_verify_oid_small():
    assert _suite_passes("oid", 3)


def test_verify_oid_numeric_tau():
    # an explicit tau replaces the symbolic proof from n = 4 on
    checks = list(verify.run("oid", 5, Fraction(7)))
    assert checks[-1] == ("odd JM expansion n=5 (tau=7)", True)
    assert all(ok for _, ok in checks)


def test_stability_lemma_small():
    assert _suite_passes("stability", 3)


def test_stability_builds_the_adjacent_pairing_once_per_size(monkeypatch):
    # coset_label reads pi_0 off the point pairing x <-> x ^ 1; only the Gram
    # row of each size builds pi_0
    built = Counter()
    make = orthogonal.adjacent_pairing

    def counted(n):
        built[n] += 1
        return make(n)

    monkeypatch.setattr(orthogonal, "adjacent_pairing", counted)
    monkeypatch.setattr(verify, "adjacent_pairing", counted)
    assert all(ok for _, ok in verify.run("stability", 5, Fraction(7)))
    assert built == {n: 1 for n in range(1, 6)}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coset_label_is_the_conjugated_adjacent_pairing(m):
    pi0 = orthogonal.adjacent_pairing(m)
    for sigma in permutations_of(2 * m):
        assert orthogonal.coset_label(sigma) == pi0.conjugate_by(sigma.inverse())


def test_stability_lemma_at_the_forced_size():
    # what `verify --suite stability --n 6 --force` runs
    checks = list(verify.run("stability", 6, Fraction(7)))
    assert checks[-1] == ("stability lemma n=6 (tau=7)", True)
    assert all(ok for _, ok in checks)


def test_stability_builds_no_table(monkeypatch):
    # the lemma is checked on coset sums and Gram row 0; no N x N table is built
    def refuse(*args, **kwargs):
        raise AssertionError("the stability suite built a table")

    for module, name in ((verify, "gram_orthogonal"), (symcore, "carried_index"),
                         (exactmat, "carried_index"), (exactmat, "_type_algebra"),
                         (exactmat, "weingarten_table"), (orthogonal, "weingarten_table")):
        monkeypatch.setattr(module, name, refuse)
    assert [ok for _, ok in verify.run("stability", 4)] == [True] * 4


# terms added to G, as (coefficient, product of transpositions): one
# transposition, inside H or not, or two permutations of one right coset with
# opposite signs, which leave P_H G and its matrix unchanged but not G P_H
_EXTRA_TERMS = {
    "none": [],
    "(1 2)": [(1, [(1, 2)])],
    "(2 3)": [(1, [(2, 3)])],
    "(1 3)": [(1, [(1, 3)])],
    "(2 3) - (1 2)(2 3)": [(1, [(2, 3)]), (-1, [(1, 2), (2, 3)])],
}


@pytest.mark.parametrize("extra", sorted(_EXTRA_TERMS))
def test_stability_suite_agrees_with_materialized_products(monkeypatch, extra):
    # the oracle forms P_H G and G P_H in C[S_2n] and reads the matrix off P_H G
    # at the symbolic sizes, with G expanded at TAU by the term-pair oracle
    terms = _EXTRA_TERMS[extra]

    def corrupted(g):
        size = g.n
        if any(max(pair) > size for _, word in terms for pair in word):
            return g
        for coeff, word in terms:
            sigma = Permutation.identity(size)
            for pair in word:
                sigma = sigma * Permutation.transposition(*pair, size)
            g = g + AlgebraElement.basis(sigma, Fraction(coeff))
        return g

    monkeypatch.setattr(verify, "jm_product_orthogonal", lambda n, t: corrupted(jm_product_orthogonal(n, t)))
    top = 4 if extra == "none" else 3
    for n, (_, ok) in zip(range(1, top + 1), verify.run("stability", top), strict=True):
        t = TAU if n <= 3 else Fraction(7)
        true = jm_product_at_tau(2 * n, range(1, 2 * n, 2)) if n <= 3 else jm_product_orthogonal(n, t)
        g, proj = corrupted(true), average_projector(n)
        pg = loop_product(proj, g)
        oracle = loop_product(g, proj) == pg and materialized_pairing_basis_matrix(n, pg) == list(gram_orthogonal(n, t))
        assert ok == oracle == (g == true)


def test_projected_product_closed_form():
    # G * P_H = 1/|H| * sum over all sigma of tau^(loops of sigma beta sigma^-1 against beta)
    for n in (1, 2, 3):
        g = jm_product_at_tau(2 * n, range(1, 2 * n, 2))
        proj = average_projector(n)
        base = adjacent_pairing(n)
        w = Fraction(1, 2**n * factorial(n))
        terms = {}
        for sigma in permutations_of(2 * n):
            terms[sigma] = TAU ** len(loop_type(base.conjugate_by(sigma), base)) * w
        assert loop_product(g, proj) == AlgebraElement(2 * n, terms)


def test_key_identity_up_to_3():
    assert _suite_passes("keyid", 3)


def test_key_identity_at_the_forced_size():
    # what `verify --suite keyid --n 6 --force` runs
    assert _suite_passes("keyid", 6)


_small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_coefficients = {
    "fraction": _small_fractions,
    "symbolic": st.builds(lambda a, b, c: TauRational((a, b), (c, 1)),
                          *[_small_fractions] * 3),
}


@st.composite
def _elements_of_c_s2n(draw):
    """A random element of C[S_2n], 2n <= 6, all-Fraction or all-TauRational."""
    size = 2 * draw(st.integers(1, 3))
    coeffs = _coefficients[draw(st.sampled_from(sorted(_coefficients)))]
    perms = st.permutations(range(1, size + 1)).map(Permutation)
    return AlgebraElement(size, draw(st.dictionaries(perms, coeffs, max_size=6)))


@settings(max_examples=40, deadline=None)
@given(_elements_of_c_s2n())
def test_coset_sums_match_the_products_with_the_projector(x):
    # P_H X is constant on each right coset H y, with value (coset sum)/|H|;
    # X P_H on each left coset y H, the right coset sum of the antipode
    n = x.n // 2
    proj = average_projector(n)
    order = len(hyperoctahedral_elements(n))
    right, left = coset_sums(n, x), coset_sums(n, x.antipode())
    px, xp = loop_product(proj, x), loop_product(x, proj)
    for y in permutations_of(2 * n):
        assert order * px.coefficient(y) == right.get(coset_label(y), 0)
        assert order * xp.coefficient(y) == left.get(coset_label(y.inverse()), 0)


def test_coset_sums_reject_an_element_outside_c_s2n():
    for n, size in ((1, 3), (2, 2), (2, 6)):
        with pytest.raises(ValueError, match="C\\[S_"):
            coset_sums(n, AlgebraElement.unit(size))


def test_doubling_small():
    assert _suite_passes("doubling", 2)


def test_doubling_2n8_sample():
    # one doubled and one non-doubled size-8 tableau through the deep path
    from weingarten.symcore import StandardTableau, double_tableau
    from weingarten.young import _extend_idempotent

    proj = average_projector(4)
    alive = double_tableau(StandardTableau([[1, 2], [3, 4]]))
    e = _extend_idempotent(alive)
    assert verify._projector_pairing_trace(proj, e) != 0
    dead = StandardTableau([[1, 3, 5, 7], [2, 4, 6, 8]])
    e = _extend_idempotent(dead)
    assert verify._projector_pairing_trace(proj, e) == 0


@pytest.mark.skipif("WG_DEEP" not in __import__("os").environ,
                    reason="2n=8 doubling is opt-in (set WG_DEEP=1); takes about 326 s")
def test_doubling_2n8_full_opt_in():
    # the survivors at 2n=8 are the 10 doubled tableaux (involutions of S_4)
    assert _suite_passes("doubling", 4, None, None, True)


def test_gram_commutation():
    assert _suite_passes("commute", 3, Fraction(2), Fraction(5))
    assert _suite_passes("commute", 3, Fraction(3), Fraction(7))
    with pytest.raises(ValueError):
        list(verify.run("commute", 2, Fraction(3), Fraction(3)))


def test_projected_g_equals_projected_projector_sum():
    # P_H G = P_H * sum over shapes of c_lam P_(2 lam), with symbolic tau
    for n in (1, 2, 3):
        g = jm_product_at_tau(2 * n, range(1, 2 * n, 2))
        proj = average_projector(n)
        total = AlgebraElement.zero(2 * n)
        for lam in partitions_of(n):
            c = content_product(lam, TAU, 2)
            p2 = central_idempotent(double_shape(lam), route="character")
            total = total + map_coefficients(p2, lambda x, c=c: x * c)
        assert loop_product(proj, g) == loop_product(proj, total)


def test_route_agreement_entrywise_vs_central_idempotents():
    for n in (1, 2):
        entrywise = list(weingarten_orthogonal(n, TAU).weingarten)
        via_algebra = weingarten_matrix_from_central_idempotents(n, TAU)
        assert entrywise == via_algebra
    entrywise = list(weingarten_orthogonal(3, Fraction(7)).weingarten)
    via_algebra = weingarten_matrix_from_central_idempotents(3, Fraction(7))
    assert entrywise == via_algebra


def test_wg_value_depends_only_on_loop_type():
    table = weingarten_orthogonal(3, Fraction(9))
    basis = table.basis
    for i, pi in enumerate(basis):
        for j, rho in enumerate(basis):
            assert table.weingarten[i][j] == wg_value_orthogonal(loop_type(pi, rho), Fraction(9))


def test_table_json_shape():
    payload = table_json_dict(weingarten_orthogonal(2, TAU))
    assert payload["group"] == "orthogonal"
    assert payload["basis"] == ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]
    assert payload["weingarten"][0][1] == "(-1)/(t^3 + t^2 - 2*t)"
    assert payload["excluded"] == []
