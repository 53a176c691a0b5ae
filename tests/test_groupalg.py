import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    complete_orthogonal,
    evaluated,
    gram_unitary,
    jm_product_at_tau,
    loop_product,
    mat_identity,
    regular_matrix,
)

from weingarten import cli, verify, young
from weingarten.coeffring import TAU
from weingarten.exactmat import integer_points
from weingarten.groupalg import (
    AlgebraElement,
    _mul_fractions,
    average_projector,
    hyperoctahedral_elements,
    hyperoctahedral_generators,
    jm_element,
    jm_product_orthogonal,
    jm_product_unitary,
)
from weingarten.symcore import (
    Pairing,
    Partition,
    Permutation,
    StandardTableau,
    enumerate_pairings,
    partitions_of,
    permutations_of,
    standard_tableaux,
)


def delta(images):
    return AlgebraElement.basis(Permutation.from_images(images))


def test_multiply_inverse_gives_unit():
    s = Permutation.from_images([3, 1, 2])
    prod = AlgebraElement.basis(s) * AlgebraElement.basis(s.inverse())
    assert prod == AlgebraElement.unit(3)


def test_multiply_by_unit_is_identity_map():
    a = delta([2, 1, 3]) + delta([3, 2, 1]).scale(Fraction(5, 7))
    assert a * AlgebraElement.unit(3) == a
    assert AlgebraElement.unit(3) * a == a


def test_square_of_two_transpositions():
    a = delta([2, 1, 3]) + delta([3, 2, 1])  # (1 2) + (1 3)
    sq = a * a
    expected = (
        AlgebraElement.unit(3, Fraction(2))
        + delta([2, 3, 1])  # (1 2 3)
        + delta([3, 1, 2])  # (1 3 2)
    )
    assert sq == expected


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        AlgebraElement.unit(2) * AlgebraElement.unit(3)


def test_jm_elements():
    assert not jm_element(1, 4)
    assert jm_element(2, 2) == delta([2, 1])
    m3 = jm_element(3, 3)
    assert m3 == delta([3, 2, 1]) + delta([1, 3, 2])
    with pytest.raises(ValueError):
        jm_element(5, 4)
    with pytest.raises(ValueError):
        jm_element(0, 4)


def test_jm_product_unitary_small():
    # one factor takes no product; past it the kernel refuses the indeterminate
    assert jm_product_unitary(1, TAU) == AlgebraElement.unit(1, TAU)
    with pytest.raises(TypeError, match="Fraction coefficients"):
        jm_product_unitary(2, TAU)
    t = Fraction(5, 3)
    n2 = jm_product_unitary(2, t)
    assert n2 == AlgebraElement(2, {
        Permutation.identity(2): t * t,
        Permutation.from_images([2, 1]): t,
    })
    n3 = jm_product_unitary(3, t)
    assert n3.coefficient(Permutation.from_images([2, 3, 1])) == t


def test_jucys_identity_term_exact_up_to_4():
    # at the indeterminate by the term-pair oracle, and at rational points,
    # integer or not, by the kernel
    for n in range(1, 5):
        perms = permutations_of(n)
        symbolic = jm_product_at_tau(n, range(1, n + 1))
        assert symbolic == AlgebraElement(n, {s: TAU ** s.num_cycles() for s in perms})
        for t in (Fraction(-2), Fraction(1, 3), Fraction(7)):
            expected = AlgebraElement(n, {s: t ** s.num_cycles() for s in perms})
            assert jm_product_unitary(n, t) == expected == evaluated(symbolic, t)


def test_jucys_one_point_short_lets_a_degree_n_perturbation_through(monkeypatch):
    # at n = 3, (1 2) with coefficient (t - 3)(t - 4)(t - 5) keeps every
    # coefficient of degree at most n and vanishes at the first n points
    real_product, real_points = verify.jm_product_unitary, verify.integer_points
    swap = Permutation.transposition(1, 2, 3)

    def perturbed(n, t):
        out = real_product(n, t)
        return out if n != 3 else out + AlgebraElement.basis(swap, Fraction((t - 3) * (t - 4) * (t - 5)))

    monkeypatch.setattr(verify, "jm_product_unitary", perturbed)
    assert [ok for _, ok in verify.run("jucys", 4)] == [True, True, False, True]
    monkeypatch.setattr(verify, "integer_points", lambda n, degree: real_points(n, degree - 1))
    assert [ok for _, ok in verify.run("jucys", 4)] == [True, True, True, True]


def test_jm_elements_commute_up_to_6():
    for n in range(2, 7):
        ms = [jm_element(k, n) for k in range(1, n + 1)]
        for i in range(n):
            for j in range(i + 1, n):
                assert ms[i] * ms[j] == ms[j] * ms[i]


def test_jm_commutes_with_smaller_group_algebra():
    rng = random.Random(7)
    for n in (3, 4, 5, 6):
        m = jm_element(n, n)
        for _ in range(5):
            perms = [
                Permutation.from_images(rng.sample(range(1, n), n - 1))
                for _ in range(3)
            ]
            a = AlgebraElement(n - 1, {
                p: Fraction(rng.randint(-4, 4)) for p in perms
            }).embed(n)
            assert a * m == m * a


def test_jm_product_orthogonal_small():
    assert jm_product_orthogonal(1, TAU) == AlgebraElement.unit(2, TAU)
    t = Fraction(-7, 2)
    n2 = jm_product_orthogonal(2, t)
    assert n2 == AlgebraElement(4, {
        Permutation.identity(4): t * t,
        Permutation.from_images([3, 2, 1, 4]): t,  # (1 3)
        Permutation.from_images([1, 3, 2, 4]): t,  # (2 3)
    })


def test_jm_product_orthogonal_term_counts():
    for n, expected in ((1, 1), (2, 3), (3, 15), (4, 105)):
        element = jm_product_at_tau(2 * n, range(1, 2 * n, 2))
        assert len(element) == expected
        # every coefficient a single tau power
        for coeff in element.terms.values():
            assert coeff.den == (1,)
            nonzero = [c for c in coeff.num if c]
            assert len(nonzero) == 1 and nonzero[0] == 1
        for t in (Fraction(2), Fraction(-1, 5)):
            assert jm_product_orthogonal(n, t) == evaluated(element, t)


def test_antipode_examples():
    three_cycle = delta([2, 3, 1])
    assert three_cycle.antipode() == delta([3, 1, 2])
    proj = average_projector(2)
    assert proj.antipode() == proj


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_antipode_reverses_products(seed_a, seed_b):
    rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)

    def random_element(rng):
        n = 4
        terms = {}
        for _ in range(rng.randint(1, 5)):
            p = Permutation.from_images(rng.sample(range(1, n + 1), n))
            terms[p] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return AlgebraElement(n, terms)

    a, b = random_element(rng_a), random_element(rng_b)
    assert (a * b).antipode() == b.antipode() * a.antipode()


def test_hyperoctahedral_sizes():
    assert set(hyperoctahedral_elements(1)) == {
        Permutation.identity(2),
        Permutation.from_images([2, 1]),
    }
    for n in (1, 2, 3):
        assert len(hyperoctahedral_elements(n)) == 2**n * _fact(n)


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_hyperoctahedral_equals_conjugation_stabilizer():
    # orbit-stabilizer: |S_2n| / (2n-1)!!
    for n in (1, 2, 3):
        beta = Pairing.from_pairs([(2 * k - 1, 2 * k) for k in range(1, n + 1)])
        stabilizer = {
            s for s in permutations_of(2 * n) if beta.conjugate_by(s) == beta
        }
        assert stabilizer == set(hyperoctahedral_elements(n))
        assert len(stabilizer) * len(enumerate_pairings(n)) == _fact(2 * n)


def test_hyperoctahedral_generators_generate_h_n():
    for n in (1, 2, 3):
        gens = hyperoctahedral_generators(n)
        assert len(gens) == n
        group, frontier = set(), [Permutation.identity(2 * n)]
        while frontier:
            p = frontier.pop()
            if p not in group:
                group.add(p)
                frontier.extend(g * p for g in gens)
        assert group == set(hyperoctahedral_elements(n))


def test_average_projector_idempotent_and_antipode_invariant():
    for n in (1, 2, 3, 4):
        proj = average_projector(n)
        assert proj * proj == proj
        assert proj.antipode() == proj


def test_projector_commutes_with_odd_jm_product():
    # both products have coefficients of degree at most n in t
    for n in (1, 2, 3):
        proj = average_projector(n)
        for t in integer_points(n, n):
            g = jm_product_orthogonal(n, t)
            assert g * proj == proj * g


def test_regular_matrix_of_unit_is_identity():
    basis = permutations_of(3)
    assert regular_matrix(AlgebraElement.unit(3), basis) == mat_identity(6)


def test_regular_matrix_of_delta_is_permutation_matrix():
    basis = permutations_of(3)
    rho = Permutation.from_images([2, 3, 1])
    mat = regular_matrix(AlgebraElement.basis(rho), basis, side="left")
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert mat[i][j] == (1 if bi == rho * bj else 0)
    assert sorted(sum(int(bool(x)) for x in row) for row in mat) == [1] * 6


def test_regular_matrix_of_jm_product_is_gram():
    # every entry of both has degree at most n in t
    for n in (1, 2, 3, 4, 5):
        for t in integer_points(n, n):
            g = jm_product_unitary(n, t)
            expected = list(gram_unitary(n, Fraction(t)))
            for side in ("left", "right") if n <= 3 else ("left",):
                assert regular_matrix(g, permutations_of(n), side) == expected


def test_regular_matrix_rejects_bad_side():
    with pytest.raises(ValueError):
        regular_matrix(AlgebraElement.unit(2), permutations_of(2), side="diagonal")


def test_embed_and_json_round_trip():
    a = delta([2, 1]) + AlgebraElement.unit(2, Fraction(1, 3))
    b = a.embed(4)
    assert b.n == 4
    assert b.coefficient(Permutation.from_images([2, 1, 3, 4])) == 1
    payload = a.to_json_dict()
    assert payload == {"[1,2]": "1/3", "[2,1]": "1"}


def test_scalar_multiplication_and_zero_pruning():
    a = delta([2, 1])
    assert not (a - a)
    assert a.scale(Fraction(0)) == AlgebraElement.zero(2)
    assert Fraction(2) * a == a + a


# -- integer product kernel against the term-by-term loop ---------------------


@st.composite
def fraction_elements(draw, n):
    perms = permutations_of(n)
    chosen = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=len(perms), unique=True))
    coeffs = st.fractions(min_value=-60, max_value=60, max_denominator=12).filter(bool)
    return AlgebraElement(n, {p: draw(coeffs) for p in chosen})


@st.composite
def fraction_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(fraction_elements(n)), draw(fraction_elements(n))


N1_PAIR = (AlgebraElement.unit(1, Fraction(-3, 4)), AlgebraElement.unit(1, Fraction(2, 9)))


@settings(max_examples=150, deadline=None)
@given(fraction_pairs())
@example(N1_PAIR)
def test_kernel_matches_loop(pair):
    a, b = pair
    assert _mul_fractions(a.n, a.terms, b.terms) is not None
    assert a * b == loop_product(a, b)


def test_kernel_n1_and_mixed_denominators():
    one = Permutation.identity(1)
    a = AlgebraElement(1, {one: Fraction(-3, 4)})
    assert a * AlgebraElement(1, {one: Fraction(2, 9)}) == AlgebraElement(1, {one: Fraction(-1, 6)})
    b = delta([2, 1, 3]).scale(Fraction(1, 6)) + delta([1, 3, 2]).scale(Fraction(-5, 4))
    c = AlgebraElement.unit(3, Fraction(7, 10)) + delta([3, 1, 2]).scale(Fraction(-2, 15))
    assert b * c == loop_product(b, c)
    assert c * b == loop_product(c, b)


def test_kernel_cancels_orthogonal_idempotents():
    tableaux = [t for lam in partitions_of(4) for t in standard_tableaux(lam)]
    e, f = young.young_idempotent(tableaux[1]), young.young_idempotent(tableaux[2])
    assert _mul_fractions(4, e.terms, f.terms) == {}
    assert not e * f and not loop_product(e, f)
    assert e * e == e == loop_product(e, e)


def test_kernel_exact_at_and_past_int64():
    ident, swap = Permutation.identity(3), Permutation.from_images([2, 1, 3])
    b = AlgebraElement(3, {ident: Fraction(1), swap: Fraction(1)})
    cases = [
        # two pairs land on the identity and sum to exactly 2**63
        ({ident: Fraction(2**62), swap: Fraction(2**62)}, 2**63),
        # numerators themselves past 2**64
        ({ident: Fraction(2**65 + 1), swap: Fraction(-(2**64))}, 2**64 + 1),
        # the common denominator 15 lifts the numerator (2**62 - 1) / 3 past 2**63
        (
            {ident: Fraction(2**62 - 1, 3), swap: Fraction(1, 5)},
            Fraction(2**62 - 1, 3) + Fraction(1, 5),
        ),
    ]
    for terms, at_identity in cases:
        a = AlgebraElement(3, terms)
        assert _mul_fractions(3, a.terms, b.terms) is not None
        assert (a * b).coefficient(ident) == at_identity
        assert a * b == loop_product(a, b)


def test_non_fraction_coefficients_and_wide_images_raise():
    sym = AlgebraElement.unit(3, TAU) + delta([2, 1, 3])
    rat = delta([1, 3, 2]).scale(Fraction(1, 2))
    ints = AlgebraElement(3, {Permutation.from_images([2, 3, 1]): 2})
    for a, b in ((sym, rat), (rat, sym), (ints, rat), (rat, ints)):
        with pytest.raises(TypeError, match="Fraction coefficients"):
            a * b
    assert not AlgebraElement.zero(3) * rat and not rat * AlgebraElement.zero(3)
    # one-line images past one byte
    wide = AlgebraElement(256, {Permutation.transposition(1, 256, 256): Fraction(1, 2)})
    with pytest.raises(ValueError, match="n <= 255"):
        wide * wide


@pytest.mark.parametrize("suite", ["idempotents", "central"])
def test_perturbed_idempotent_fails_the_checks(monkeypatch, capsys, suite):
    t = StandardTableau([[1, 2, 4], [3, 5]])
    e = young.young_idempotent(t)
    p = next(iter(e.terms))
    bad = AlgebraElement(5, {**e.terms, p: e.terms[p] + Fraction(1, 1440)})
    monkeypatch.setitem(young._IDEMPOTENT_CACHE, t.rows, bad)
    assert cli.main(["verify", "--suite", suite, "--n", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("FAIL") and "n=5" in lines[-1]
    assert all(line.startswith("ok") for line in lines[:-1])


# -- the idempotents and central suites against pairwise products -------------


def _elements(suite, n):
    if suite == "idempotents":
        tableaux = [t for lam in partitions_of(n) for t in standard_tableaux(lam)]
        return [young.young_idempotent(t) for t in tableaux]
    return [young.central_idempotent(lam) for lam in partitions_of(n)]


@pytest.mark.parametrize("suite", ["idempotents", "central"])
def test_suite_verdicts_agree_with_pairwise_products(suite):
    verdicts = [ok for _, ok in verify.run(suite, 5)]
    assert verdicts == [complete_orthogonal(_elements(suite, n), n) for n in range(1, 6)]
    assert all(verdicts)


@pytest.mark.parametrize("suite", ["idempotents", "central"])
def test_suite_verdicts_agree_on_a_perturbed_idempotent(monkeypatch, suite):
    t = StandardTableau([[1, 2], [3, 4]])
    e = young.young_idempotent(t)
    p = next(iter(e.terms))
    bad = e + AlgebraElement.basis(p, Fraction(1, 96))
    monkeypatch.setitem(young._IDEMPOTENT_CACHE, t.rows, bad)
    verdicts = [ok for _, ok in verify.run(suite, 4)]
    assert verdicts == [complete_orthogonal(_elements(suite, n), n) for n in range(1, 5)]
    assert verdicts[-1] is False


def _fails_at(capsys, suite, n):
    """`verify --suite suite --n n` prints ok up to n - 1, then FAIL at n, without a traceback."""
    assert cli.main(["verify", "--suite", suite, "--n", str(n)]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == n and lines[-1].startswith("FAIL") and f"n={n}" in lines[-1]
    assert all(line.startswith("ok") for line in lines[:-1])
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["swapped", "zero", "listed twice", "doubled"])
def test_flawed_idempotents_fail(monkeypatch, capsys, case):
    # all at n = 4, among the shape-(3, 1) tableaux
    a, b = StandardTableau([[1, 2, 3], [4]]), StandardTableau([[1, 2, 4], [3]])
    real_idempotent, real_tableaux = young.young_idempotent, verify.standard_tableaux

    def fake(t):
        if case == "swapped":
            # the multiset and the sum are unchanged; each e(T) has the other's contents
            return real_idempotent({a: b, b: a}.get(t, t))
        scale = {"zero": 0, "listed twice": Fraction(1, 2), "doubled": 2}[case]
        return real_idempotent(t).scale(Fraction(scale)) if t == a else real_idempotent(t)

    if case == "listed twice":
        # two halves of e(a): eigenvectors, nonzero and summing to the unit,
        # but not idempotent; only the repeated content vector shows it
        monkeypatch.setattr(
            verify, "standard_tableaux", lambda lam: real_tableaux(lam) + [a] * (lam == (3, 1))
        )
    monkeypatch.setattr(verify, "young_idempotent", fake)
    _fails_at(capsys, "idempotents", 4)


def _conjugate(x, w):
    return AlgebraElement(x.n, {w * p * w.inverse(): c for p, c in x.terms.items()})


def _fixed_by(x, k):
    s = Permutation.transposition(k, k + 1, x.n)
    return _conjugate(x, s) == x


def _central_inputs(case):
    """Elements of C[S_3] for the shapes (3), (2,1), (1,1,1) with one flaw.

    An int case k is a set that only conjugation by s_k shows is not central.
    """
    z = {lam: young.central_idempotent(lam) for lam in partitions_of(3)}
    hook, trivial, sign = Partition((2, 1)), Partition((3,)), Partition((1, 1, 1))
    if case == "off-centre":
        # (1 2) moved from one projector to another: the sum stays the unit
        bump = AlgebraElement.basis(Permutation.from_images([2, 1, 3]), Fraction(1, 7))
        return {**z, hook: z[hook] + bump, trivial: z[trivial] - bump}
    if case == "not idempotent":
        return {**z, trivial: z[trivial].scale(Fraction(2)), sign: z[sign] - z[trivial]}
    if case == "zero":
        return {**z, hook: AlgebraElement.zero(3)}
    # a complete orthogonal set that is not central: the two Young
    # idempotents of shape (2, 1) are fixed by conjugation with s_1 only,
    # and conjugating everything by (1 3) leaves it fixed by s_2 only
    e1 = young.young_idempotent(StandardTableau([[1, 2], [3]]))
    e2 = young.young_idempotent(StandardTableau([[1, 3], [2]]))
    elements = {trivial: z[trivial], hook: e1, sign: z[sign] + e2}
    if case == 1:
        w = Permutation.from_images([3, 2, 1])
        elements = {lam: _conjugate(x, w) for lam, x in elements.items()}
    return elements


@pytest.mark.parametrize(
    "case", ["off-centre", "not idempotent", "zero", 1, 2],
    ids=["off-centre", "not-idempotent", "zero", "s1", "s2"],
)
def test_flawed_central_projectors_fail_with_the_route_check_bypassed(monkeypatch, capsys, case):
    fake = _central_inputs(case)
    if case in (1, 2):
        assert complete_orthogonal(list(fake.values()), 3)
        assert all(_fixed_by(x, 3 - case) for x in fake.values())
        assert not all(_fixed_by(x, case) for x in fake.values())
    real = young.central_idempotent

    def bypass(lam, route="tableau-sum"):
        # both routes return the flawed element, so the route check passes
        return fake.get(lam, real(lam, route))

    monkeypatch.setattr(verify, "central_idempotent", bypass)
    _fails_at(capsys, "central", 3)
