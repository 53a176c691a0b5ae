import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_type_matrix, loop_type, pair_type
from weingarten import symcore
from weingarten.symcore import (
    Pairing,
    Partition,
    Permutation,
    StandardTableau,
    _orbit_covers,
    carried_index,
    double_shape,
    double_tableau,
    enumerate_pairings,
    hook_dimension,
    partitions_of,
    permutations_of,
    standard_tableaux,
    cross_type_matrix,
    generator_index_maps,
)


# -- independent oracles -------------------------------------------------------


def count_partitions_brute(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    return sum(count_partitions_brute(n - p, p) for p in range(1, min(n, max_part) + 1))


def count_syt_brute(shape):
    """Count standard fillings by filtering all bijective fillings."""
    cells = [(i, j) for i, row_len in enumerate(shape) for j in range(row_len)]
    n = len(cells)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = dict(zip(cells, perm))
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in grid
        )
        count += ok
    return count


def count_pairings_brute(n):
    """(2n-1)!! by explicit recursive matching, independent of the enumerator."""
    def rec(points):
        if not points:
            return 1
        first, rest = points[0], points[1:]
        return sum(rec(rest[:i] + rest[i + 1:]) for i in range(len(rest)))

    return rec(tuple(range(2 * n)))


# -- partitions ----------------------------------------------------------------


def test_partitions_of_small():
    assert [tuple(p) for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [tuple(p) for p in partitions_of(1)] == [(1,)]


def test_partitions_of_8_count_matches_bruteforce():
    assert len(partitions_of(8)) == count_partitions_brute(8) == 22


@pytest.mark.parametrize("bad", [0, -3])
def test_partitions_of_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        partitions_of(bad)


def test_partitions_reverse_lex_and_stable():
    for n in range(1, 9):
        once = partitions_of(n)
        assert once == sorted(once, reverse=True)
        assert once == partitions_of(n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


# -- tableaux ------------------------------------------------------------------


def test_standard_tableaux_of_21():
    ts = standard_tableaux(Partition((2, 1)))
    assert [t.rows for t in ts] == [((1, 2), (3,)), ((1, 3), (2,))]


def test_single_row_has_one_tableau():
    for n in (1, 3, 6):
        assert len(standard_tableaux(Partition((n,)))) == 1


def test_tableaux_count_22_matches_bruteforce():
    assert len(standard_tableaux(Partition((2, 2)))) == count_syt_brute((2, 2)) == 2


def test_hook_dimension_agrees_with_enumeration_up_to_8():
    for n in range(1, 9):
        total_sq = 0
        for lam in partitions_of(n):
            f = hook_dimension(lam)
            assert f == len(standard_tableaux(lam)), lam
            total_sq += f * f
        assert total_sq == factorial(n)


def test_contents():
    t = StandardTableau([[1, 2], [3]])
    assert t.content(1) == 0
    assert t.content(2) == 1
    assert t.content(3) == -1
    assert StandardTableau([[1, 3], [2]]).content(3) == 1
    with pytest.raises(ValueError):
        t.content(4)


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau([[2, 1], [3]])
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [5]])
    with pytest.raises(ValueError):
        StandardTableau([[1], [2, 3]])


# -- permutations --------------------------------------------------------------


def test_cycle_type_examples():
    assert tuple(Permutation.identity(4).cycle_type()) == (1, 1, 1, 1)
    assert Permutation.identity(4).num_cycles() == 4
    two_two = Permutation.from_images([2, 1, 4, 3])
    assert tuple(two_two.cycle_type()) == (2, 2)
    s = Permutation.from_images([2, 3, 1, 5, 4])
    assert tuple(s.cycle_type()) == (3, 2)
    assert s.num_cycles() == 2


def test_compose_examples():
    a = Permutation.from_images([2, 1, 3])
    b = Permutation.from_images([1, 3, 2])
    assert tuple(a * b) == (2, 3, 1)
    ident = Permutation.identity(3)
    assert a * ident == a
    assert a * a == ident
    with pytest.raises(ValueError):
        a * Permutation.identity(4)


@settings(max_examples=60)
@given(st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_inverse_is_group_inverse(images):
    s = Permutation.from_images(images)
    n = len(images)
    assert s * s.inverse() == Permutation.identity(n)
    assert s.inverse() * s == Permutation.identity(n)
    assert s.inverse().inverse() == s


def test_permutations_of_is_lexicographic():
    ps = permutations_of(3)
    assert [tuple(p) for p in ps] == sorted(tuple(p) for p in ps)
    assert len(permutations_of(4)) == 24


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation.from_images([1, 1, 3])


# -- pairings ------------------------------------------------------------------


def test_enumerate_pairings_small():
    assert [p.to_text() for p in enumerate_pairings(1)] == ["(1,2)"]
    assert [p.to_text() for p in enumerate_pairings(2)] == [
        "(1,2)(3,4)",
        "(1,3)(2,4)",
        "(1,4)(2,3)",
    ]


def test_pairing_counts_match_bruteforce():
    for n in range(1, 7):
        expected = count_pairings_brute(n)
        got = enumerate_pairings(n)
        assert len(got) == expected
        assert len(set(got)) == expected


def test_pairing_order_lex_and_stable():
    for n in (2, 3, 4):
        ps = enumerate_pairings(n)
        keys = [p.pairs() for p in ps]
        assert keys == sorted(keys)
        assert ps == enumerate_pairings(n)


def test_pairing_is_involution():
    for p in enumerate_pairings(3):
        assert p * p == Permutation.identity(6)
        assert all(p(i) != i for i in range(1, 7))


def test_loop_count_pasting_figure():
    pi = Pairing.from_text("(1,2)(3,5)(4,6)")
    rho = Pairing.from_text("(1,2)(3,6)(4,5)")
    assert len(loop_type(pi, rho)) == 2


def test_loop_count_self_and_single_loop():
    for n in (1, 2, 3, 4):
        for pi in enumerate_pairings(n):
            assert len(loop_type(pi, pi)) == n
    assert len(loop_type(Pairing.from_text("(1,2)(3,4)"), Pairing.from_text("(1,3)(2,4)"))) == 1


def test_loop_count_symmetric_exhaustive():
    for n in (1, 2, 3, 4):
        ps = enumerate_pairings(n)
        for pi in ps:
            for rho in ps:
                assert len(loop_type(pi, rho)) == len(loop_type(rho, pi))


def test_loop_count_size_mismatch():
    with pytest.raises(ValueError):
        loop_type(enumerate_pairings(1)[0], enumerate_pairings(2)[0])


# -- doubling ------------------------------------------------------------------


def test_double_tableau_example():
    t = StandardTableau([[1, 3], [2]])
    assert double_tableau(t).rows == ((1, 2, 5, 6), (3, 4))


def test_double_shape_examples():
    assert tuple(double_shape(Partition((1,)))) == (2,)
    assert tuple(double_shape(Partition((2, 1)))) == (4, 2)


def test_double_tableau_injective_and_standard_up_to_5():
    seen = set()
    for n in range(1, 6):
        for lam in partitions_of(n):
            for t in standard_tableaux(lam):
                doubled = double_tableau(t)  # constructor validates standardness
                assert doubled.shape() == double_shape(lam)
                assert doubled.rows not in seen
                seen.add(doubled.rows)


# -- serialization ---------------------------------------------------------


def test_text_round_trips():
    p = Partition((3, 1))
    assert p.to_text() == "[3,1]"
    assert Partition.from_text(p.to_text()) == p
    s = Permutation.from_images([2, 1, 3])
    assert s.to_text() == "[2,1,3]"
    assert Permutation.from_text(s.to_text()) == s
    pi = Pairing.from_pairs([(1, 2), (3, 5), (4, 6)])
    assert pi.to_text() == "(1,2)(3,5)(4,6)"
    assert Pairing.from_text(pi.to_text()) == pi
    t = StandardTableau([[1, 2], [3]])
    assert t.to_text() == "[[1,2],[3]]"
    assert StandardTableau.from_text(t.to_text()) == t


@settings(max_examples=40)
@given(st.integers(1, 4))
def test_pairing_text_round_trip_exhaustive(n):
    for pi in enumerate_pairings(n):
        assert Pairing.from_text(pi.to_text()) == pi


# -- double-coset type matrix ------------------------------------------------------


def _carried_type_matrix(basis):
    """(types, index) as a table renders it: the one-orbit proof of the
    generators' maps, the walk of row 0, and every other row carried from it."""
    maps = symcore.generator_index_maps(basis)
    if not _orbit_covers(maps, len(basis)):
        raise ValueError("type matrix: the generators do not permute the basis in one orbit")
    types, (row,) = cross_type_matrix([basis[0]], basis)
    return types, carried_index(maps, row)


def _cycle_type_oracle(s, t):
    return (s.inverse() * t).cycle_type()


def _loop_type_oracle(pi, rho):
    return loop_type(pi, rho)


def _assert_first_seen_order(index):
    seen = []
    for row in index:
        for k in row:
            if k not in seen:
                assert k == len(seen)
                seen.append(k)


@pytest.mark.parametrize(
    "basis, oracle",
    [(permutations_of(n), _cycle_type_oracle) for n in range(1, 6)]
    + [(enumerate_pairings(n), _loop_type_oracle) for n in range(1, 5)],
)
def test_type_matrix_matches_per_pair_oracle_exhaustively(basis, oracle):
    types, index = _carried_type_matrix(basis)
    for i, b in enumerate(basis):
        for j, c in enumerate(basis):
            assert types[index[i][j]] == oracle(b, c)
    assert len(set(types)) == len(types)
    _assert_first_seen_order(index)


def test_type_matrix_matches_loop_type_on_random_pairs_at_n5():
    basis = enumerate_pairings(5)
    types, index = _carried_type_matrix(basis)
    rng = random.Random(20261018)
    for _ in range(2000):
        i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
        assert types[index[i][j]] == _loop_type_oracle(basis[i], basis[j])
    _assert_first_seen_order(index)


@pytest.mark.parametrize(
    "basis", [permutations_of(n) for n in range(1, 6)] + [enumerate_pairings(n) for n in range(1, 5)],
    ids=lambda basis: f"{type(basis[0]).__name__}-{len(basis)}",
)
def test_type_matrix_equals_the_dense_walk_exhaustively(basis):
    # rows carried from row 0 give the same types, numbering and index as
    # walking every pair
    assert _carried_type_matrix(basis) == dense_type_matrix(basis)


@pytest.mark.parametrize("basis", [permutations_of(6), enumerate_pairings(5)],
                         ids=["unitary-6", "orthogonal-5"])
def test_type_matrix_matches_the_pair_walk_on_seeded_rows(basis):
    types, index = _carried_type_matrix(basis)
    rng = random.Random(len(basis))
    for i in [0, len(basis) - 1, *rng.sample(range(1, len(basis) - 1), 6)]:
        assert [types[k] for k in index[i]] == [pair_type(basis[i], c) for c in basis]


def _swapped_entries(map_number, a, b):
    """generator_index_maps with entries a and b of one map swapped; still permutations."""
    maps_of = symcore.generator_index_maps

    def maps(basis):
        out = [list(p) for p in maps_of(basis)]
        p = out[map_number]
        p[a], p[b] = p[b], p[a]
        return out
    return maps


@pytest.mark.parametrize("basis", [permutations_of(4), enumerate_pairings(3)], ids=["unitary", "orthogonal"])
@pytest.mark.parametrize("map_number", [0, 1])
@pytest.mark.parametrize("a, b", [(0, 1), (2, 7), (5, 11)])
def test_type_matrix_rejects_a_map_with_two_entries_swapped(monkeypatch, basis, map_number, a, b):
    # a swap that splits the orbit fails the cover proof, any other the invariance check
    monkeypatch.setattr(symcore, "generator_index_maps", _swapped_entries(map_number, a, b))
    with pytest.raises(ValueError, match="type matrix"):
        _carried_type_matrix(basis)


@pytest.mark.parametrize("basis", [permutations_of(4), enumerate_pairings(3)], ids=["unitary", "orthogonal"])
@pytest.mark.parametrize("drop", [0, 5, -1])
def test_type_matrix_rejects_a_basis_with_one_element_dropped(basis, drop):
    basis = list(basis)
    del basis[drop]
    assert not _orbit_covers(generator_index_maps(basis), len(basis))


@pytest.mark.parametrize("basis", [permutations_of(4), enumerate_pairings(3)], ids=["unitary", "orthogonal"])
def test_type_matrix_rejects_a_duplicated_basis_element(basis):
    # the generators' maps then miss the first copy, so they permute nothing
    basis = basis + [basis[2]]
    assert not _orbit_covers(generator_index_maps(basis), len(basis))


@pytest.mark.parametrize("basis, oracle", [
    (permutations_of(4), _cycle_type_oracle),
    (enumerate_pairings(3), _loop_type_oracle),
])
def test_cross_type_matrix_types_every_row_column_pair(basis, oracle):
    # rows and columns are different seeded samples of different lengths
    rng = random.Random(7)
    rows, cols = rng.sample(basis, 5), rng.sample(basis, 9)
    types, index = cross_type_matrix(rows, cols)
    assert len(index) == len(rows) and all(len(row) == len(cols) for row in index)
    for i, b in enumerate(rows):
        for j, c in enumerate(cols):
            assert types[index[i][j]] == oracle(b, c)
    assert len(set(types)) == len(types)
    _assert_first_seen_order(index)

