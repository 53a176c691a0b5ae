import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    dense_grid_sums,
    full_grid_prediction,
    full_grid_score,
    loop_type,
    qr_haar_batch,
    sample_haar,
)
from weingarten import haarmc
from weingarten.haarmc import (
    _BATCH,
    _BLOCK,
    GridReport,
    MomentSpec,
    _class_predictions,
    _class_z,
    _factor_columns,
    _ginibre,
    _grid_sums,
    _haar_batch,
    _orthonormalize,
    _worst_failures,
    estimate_moment,
    grid_crosscheck,
    predict_moment,
)
from weingarten.orthogonal import wg_value_orthogonal
from weingarten.symcore import Partition, enumerate_pairings, partitions_of


def _gram_error(q: np.ndarray) -> float:
    """Largest entry of Q^H Q - I over a stack of matrices."""
    return np.abs(np.einsum("bki,bkj->bij", q.conj(), q) - np.eye(q.shape[-1])).max()


def test_samples_are_unitary_to_tolerance():
    for seed in range(5):
        m = sample_haar("unitary", 4, seed)
        assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12
    batch = _haar_batch("unitary", 4, _BATCH, np.random.default_rng(0))
    assert batch.shape == (_BATCH, 4, 4)
    assert _gram_error(batch) < 1e-12


def test_samples_are_orthogonal_to_tolerance():
    for seed in range(5):
        m = sample_haar("orthogonal", 4, seed)
        assert np.abs(m.T @ m - np.eye(4)).max() < 1e-12
        assert np.abs(m.imag).max() == 0 if np.iscomplexobj(m) else True
    batch = _haar_batch("orthogonal", 4, _BATCH, np.random.default_rng(0))
    assert batch.shape == (_BATCH, 4, 4) and batch.dtype == np.float64
    assert _gram_error(batch) < 1e-12


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
def test_haar_batch_matches_the_phase_fixed_qr_oracle(group, tau):
    # same seed, same Ginibre draws; only the orthonormalization differs
    for seed in range(3):
        q = _haar_batch(group, tau, _BATCH, np.random.default_rng(seed))
        expected = qr_haar_batch(group, tau, _BATCH, np.random.default_rng(seed))
        assert np.abs(q - expected).max() <= 1e-12


def _near_rank_deficient(group: str, tau: int, rng: np.random.Generator) -> np.ndarray:
    """64 Ginibre matrices, then seven copies of them whose column 1 is column
    0 plus 10^-e times fresh noise, e = 4..10."""
    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if group == "unitary" else z

    z = draw(64, tau, tau)
    stack = [z]
    for e in range(4, 11):
        ill = z.copy()
        ill[:, :, 1] = z[:, :, 0] + 10.0**-e * draw(64, tau)
        stack.append(ill)
    return np.concatenate(stack)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("tau", [2, 3, 5])
def test_orthonormalize_keeps_its_structure_on_ill_conditioned_input(group, tau):
    z = _near_rank_deficient(group, tau, np.random.default_rng(tau))
    assert np.linalg.cond(z).max() > 1e10  # the batch reaches what it claims
    q = _orthonormalize(z)
    assert _gram_error(q) <= 1e-12
    # Q^H z is R: upper triangular with a real, positive diagonal
    r = np.einsum("bki,bkj->bij", q.conj(), z)
    scale = np.abs(r).max(axis=(1, 2))[:, None]
    below = np.abs(r[(slice(None), *np.tril_indices(tau, -1))])
    assert (below <= 1e-12 * scale).all()
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert (np.abs(diag.imag) <= 1e-12 * scale).all()
    assert (diag.real > 0).all()


def test_unitary_tau1_is_a_unit_phase():
    values = [sample_haar("unitary", 1, seed)[0, 0] for seed in range(200)]
    assert all(abs(abs(v) - 1) < 1e-14 for v in values)


def test_orthogonal_tau1_is_random_sign():
    values = [sample_haar("orthogonal", 1, seed)[0, 0] for seed in range(200)]
    assert all(abs(abs(v) - 1) < 1e-14 for v in values)
    positives = sum(v > 0 for v in values)
    # 200 fair coins: 4-sigma band around 100
    assert abs(positives - 100) <= 4 * np.sqrt(200 * 0.25)


def test_mean_square_entry_matches_wg_prediction():
    spec = MomentSpec("unitary", 3, (1,), (1,), (1,), (1,), samples=100_000, seed=5)
    report = estimate_moment(spec)
    assert report.exact == Fraction(1, 3)
    assert abs(report.z) <= 4


def test_left_invariance_statistical():
    # multiplying by a fixed unitary must not move the entry distribution
    rng = np.random.default_rng(99)
    fixed = sample_haar("unitary", 3, 1234)
    total = 0.0
    total_sq = 0.0
    count = 50_000
    batch = 4096
    remaining = count
    from weingarten.haarmc import _haar_batch

    while remaining:
        take = min(batch, remaining)
        q = fixed @ _haar_batch("unitary", 3, take, rng)
        x = (np.abs(q[:, 0, 0]) ** 2)
        total += float(x.sum())
        total_sq += float((x * x).sum())
        remaining -= take
    mean = total / count
    stderr = np.sqrt((total_sq / count - mean * mean) / (count - 1))
    assert abs(mean - 1 / 3) <= 4 * stderr


def test_predict_first_moments():
    assert predict_moment(MomentSpec("unitary", 3, (1,), (1,), (1,), (1,))) == Fraction(1, 3)
    assert predict_moment(MomentSpec("orthogonal", 4, (1, 1), (1, 1))) == Fraction(1, 4)


def test_predict_degree_two_two_patterns():
    # distinct rows and columns: only the identity pairing of factors matches
    diag = MomentSpec("unitary", 3, (1, 2), (1, 2), (1, 2), (1, 2))
    assert predict_moment(diag) == Fraction(1, 8)  # 1/(tau^2-1)
    # shared row: both permutations match on rows
    row = MomentSpec("unitary", 3, (1, 1), (1, 2), (1, 1), (1, 2))
    assert predict_moment(row) == Fraction(1, 12)  # 1/(tau(tau+1))
    # crossed conjugate rows: the transposition matches, giving Wg((2))
    cross = MomentSpec("unitary", 3, (1, 2), (1, 2), (2, 1), (1, 2))
    assert predict_moment(cross) == Fraction(-1, 24)
    # row multiset mismatch: no permutation matches, moment vanishes
    nomatch = MomentSpec("unitary", 3, (1, 1), (1, 2), (1, 2), (1, 2))
    assert predict_moment(nomatch) == 0


def test_predict_orthogonal_fourth_moment():
    spec = MomentSpec("orthogonal", 4, (1, 1, 1, 1), (1, 1, 1, 1))
    assert predict_moment(spec) == Fraction(1, 8)  # 3/(tau(tau+2))


def _tied_by(indices, n):
    """Pairings of the 2n factor positions that pair only equal indices."""
    return [
        p for p in enumerate_pairings(n)
        if all(indices[a - 1] == indices[b - 1] for a, b in p.pairs())
    ]


def test_predict_orthogonal_matches_brute_force_over_matched_pairs():
    # sum over (row match, column match) of W(loop type), on seeded specs whose
    # row and column match lists differ in length
    rng = random.Random(14)
    checked = 0
    while checked < 12:
        n, tau = rng.choice((2, 3, 4)), rng.choice((2, 3))
        rows = tuple(rng.randint(1, tau) for _ in range(2 * n))
        cols = tuple(rng.randint(1, tau) for _ in range(2 * n))
        row_matches, col_matches = _tied_by(rows, n), _tied_by(cols, n)
        if not row_matches or not col_matches or len(row_matches) == len(col_matches):
            continue
        expected = sum(
            (wg_value_orthogonal(loop_type(p, q), Fraction(tau)) for p in row_matches for q in col_matches),
            Fraction(0),
        )
        assert predict_moment(MomentSpec("orthogonal", tau, rows, cols)) == expected
        checked += 1


def test_predict_unbalanced_and_odd_vanish():
    assert predict_moment(MomentSpec("unitary", 3, (1,), (1,))) == 0
    assert predict_moment(MomentSpec("unitary", 3, (1, 2), (1, 2), (1,), (1,))) == 0
    assert predict_moment(MomentSpec("orthogonal", 3, (1, 2, 1), (1, 2, 1))) == 0


def test_unbalanced_moment_estimates_near_zero():
    spec = MomentSpec("unitary", 3, (1,), (1,), (), (), samples=50_000, seed=3)
    report = estimate_moment(spec)
    assert report.exact == 0
    assert abs(report.z) <= 4


def test_odd_orthogonal_estimates_near_zero():
    spec = MomentSpec("orthogonal", 4, (1, 1, 2), (1, 1, 2), samples=50_000, seed=3)
    report = estimate_moment(spec)
    assert report.exact == 0
    assert abs(report.z) <= 4


def test_seeded_runs_bit_reproducible():
    spec = MomentSpec("unitary", 3, (1, 2), (1, 2), (1, 2), (1, 2), samples=20_000, seed=77)
    a = estimate_moment(spec)
    b = estimate_moment(spec)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def test_moment_spec_validation():
    with pytest.raises(ValueError):
        MomentSpec("special", 3, (1,), (1,))
    with pytest.raises(ValueError):
        MomentSpec("unitary", 3, (1, 2), (1,))
    with pytest.raises(ValueError):
        MomentSpec("unitary", 3, (4,), (1,), (1,), (1,))
    with pytest.raises(ValueError):
        MomentSpec("orthogonal", 3, (1,), (1,), (1,), (1,))
    with pytest.raises(ValueError):
        estimate_moment(MomentSpec("unitary", 2, (1,), (1,), (1,), (1,), samples=10))


def test_stderr_positive_for_generic_moment():
    spec = MomentSpec("orthogonal", 3, (1, 1), (1, 1), samples=1000, seed=0)
    report = estimate_moment(spec)
    assert report.stderr > 0


def test_grid_crosscheck_small_and_deterministic():
    a = grid_crosscheck("unitary", 1, 2, 20_000, seed=4)
    b = grid_crosscheck("unitary", 1, 2, 20_000, seed=4)
    assert a.max_abs_z == b.max_abs_z
    assert a.moments == 2**4
    assert a.ok
    o = grid_crosscheck("orthogonal", 1, 3, 20_000, seed=4)
    assert o.moments == 3**4
    assert o.ok


def test_grid_lists_its_worst_failures_first():
    # 65 536 moments, far more than 64 of them past a threshold of 0.5
    grid = grid_crosscheck("orthogonal", 2, 4, 20_000, seed=1, threshold=0.5)
    assert len(grid.failures) == 64
    assert abs(grid.failures[0]["z"]) == grid.max_abs_z
    listed = [abs(f["z"]) for f in grid.failures]
    assert listed == sorted(listed, reverse=True)
    assert listed[-1] > grid.threshold


@pytest.mark.parametrize("group, tau", [("unitary", 2), ("orthogonal", 3)])
def test_grid_failures_sort_by_abs_z_then_index(group, tau):
    # every moment fails at threshold -1; moments equal under a factor swap
    # tie exactly in |z|, and ties list in index order
    keys = [(-abs(f["z"]), f["index"]) for f in _every_moment_listed(group, 2, tau, 20_000, 1)]
    assert len(keys) == 64
    assert keys == sorted(keys)
    assert len({k[0] for k in keys}) < len(keys)


def _every_moment_listed(group: str, n: int, tau: int, samples: int, seed: int) -> list[dict]:
    """The worst 64 moments of a grid, as `grid_crosscheck` lists its failures
    from the same z, at threshold -1, which it refuses: every moment fails."""
    fac, cmap = _factor_columns(n, tau)
    z = _class_z(group, n, tau, samples, _grid_sums(group, tau, samples, seed, fac), fac)
    return _worst_failures(group, n, tau, z, cmap, -1)


def _swap_factors(index: list[int], group: str, tau: int) -> list[int]:
    """Grid index of the same n = 2 moment with factor positions 1 and 2
    swapped: the plain factors for U, the first two of four for O."""
    if group == "unitary":  # (rows, cols, conj rows, conj cols), each over 2 factors
        return [(v % tau) * tau + v // tau for v in index[:2]] + index[2:]
    digits = [np.unravel_index(v, (tau,) * 4) for v in index]  # rows, cols over 4 factors
    return [int(np.ravel_multi_index((d[1], d[0], d[2], d[3]), (tau,) * 4)) for d in digits]


@pytest.mark.parametrize("group, tau, threshold", [("unitary", 2, 2.0), ("orthogonal", 3, 3.0)])
def test_grid_z_is_bitwise_equal_under_a_factor_swap(group, tau, threshold):
    # fewer than 64 failures, so every failing moment is listed, and the
    # swapped moment must be listed with the very same z
    grid = grid_crosscheck(group, 2, tau, 20_000, seed=1, threshold=threshold)
    listed = {tuple(f["index"]): f["z"] for f in grid.failures}
    assert 0 < len(listed) < 64
    moved = 0
    for index, z in listed.items():
        swapped = tuple(_swap_factors(list(index), group, tau))
        assert listed[swapped] == z, (index, swapped)
        moved += swapped != index
    assert moved


def _permuted_axes(layout: tuple[str, ...], n: int, first, last) -> list[int]:
    """Axis order of a (tau,) * 4n grid whose four blocks of n axes index the
    "first" or the "last" n factor positions, as `layout` says, with the first
    positions permuted by `first` and the last by `last`."""
    return [b * n + (first if kind == "first" else last)[k]
            for b, kind in enumerate(layout) for k in range(n)]


@pytest.mark.parametrize("group, n, tau", [
    ("unitary", 2, 2), ("orthogonal", 2, 3), ("unitary", 3, 2), ("orthogonal", 3, 2),
])
def test_full_grid_z_is_bitwise_invariant_under_factor_permutations(group, n, tau):
    # the grid scores one z per pair of distinct factor products, which is
    # sound only because the full-grid z does not move, bit for bit, when the
    # first n factor positions are reordered, or the last n
    fac, cmap = _factor_columns(n, tau)
    sums = [s[np.ix_(cmap, cmap)] for s in _grid_sums(group, tau, 2_000, 5, fac)]
    z = full_grid_score(group, n, tau, 2_000, *sums, threshold=4.0)[0].reshape((tau,) * (4 * n))
    pred = full_grid_prediction(group, n, tau).reshape((tau,) * (4 * n))  # rows, cols
    split = ("first", "last") * 2
    reported = ("first", "first", "last", "last") if group == "unitary" else split
    for first in itertools.permutations(range(n)):
        for last in itertools.permutations(range(n)):
            assert np.array_equal(pred, pred.transpose(_permuted_axes(split, n, first, last)))
            assert np.array_equal(z, z.transpose(_permuted_axes(reported, n, first, last)))


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
@pytest.mark.parametrize("tau", [1, 2, 3, 5])
def test_blockwise_orthonormalize_is_bitwise_the_whole_batch(group, tau):
    # the grid orthonormalizes _BLOCK rows of a batch at a time; its samples
    # must be bit for bit those of `_haar_batch`, whole batches and tails alike
    for count in (_BATCH, 4097 - _BATCH, 20_000 % _BATCH):
        whole = _haar_batch(group, tau, count, np.random.default_rng(tau))
        z = _ginibre(group, tau, count, np.random.default_rng(tau))
        blocks = [_orthonormalize(z[s:s + _BLOCK]) for s in range(0, count, _BLOCK)]
        assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize("samples", [100, 513, 4097, 20_000])
@pytest.mark.parametrize("group, tau", [("unitary", 2), ("orthogonal", 3)])
def test_grid_sums_match_the_dense_tensor_power(group, tau, samples):
    # sample counts that neither batches nor blocks divide
    fac, cmap = _factor_columns(2, tau)
    fast = _grid_sums(group, tau, samples, 5, fac)
    dense = dense_grid_sums(group, 2, tau, samples, seed=5)
    for got, want in zip(fast, dense):
        got = got[np.ix_(cmap, cmap)]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("group, n, tau", [
    *((g, n, tau) for g in ("unitary", "orthogonal") for n in (1, 2) for tau in (1, 2, 3, 4)),
    ("unitary", 3, 2), ("orthogonal", 3, 2),
])
def test_grid_report_matches_the_full_grid_oracle(group, n, tau):
    # class scoring against z over every grid entry, from the same sums
    samples, seed = 2_000, 3
    fac, cmap = _factor_columns(n, tau)
    sums = [s[np.ix_(cmap, cmap)] for s in _grid_sums(group, tau, samples, seed, fac)]
    report = grid_crosscheck(group, n, tau, samples, seed, 2.0)
    _, moments, max_abs_z, failures = full_grid_score(group, n, tau, samples, *sums, 2.0)
    assert report.moments == moments
    assert report.max_abs_z == max_abs_z
    assert report.failures == failures
    listed = _every_moment_listed(group, n, tau, samples, seed)
    assert listed == full_grid_score(group, n, tau, samples, *sums, -1)[3]


@pytest.mark.parametrize("group, tau", [("unitary", 2), ("orthogonal", 3)])
def test_a_wrong_class_map_disagrees_with_the_oracle(group, tau):
    n, samples = 2, 2_000
    fac, cmap = _factor_columns(n, tau)
    sums = _grid_sums(group, tau, samples, 5, fac)
    z = _class_z(group, n, tau, samples, sums, fac)
    want = full_grid_score(group, n, tau, samples, *(s[np.ix_(cmap, cmap)] for s in sums), -1)[3]
    assert _worst_failures(group, n, tau, z, cmap, -1) == want
    # one tensor-power column of the worst pair's row class, moved to another class
    c = np.unravel_index(np.abs(z).argmax(), z.shape)[0]
    wrong = cmap.copy()
    wrong[np.flatnonzero(cmap == c)[0]] = (c + 1) % z.shape[0]
    assert _worst_failures(group, n, tau, z, wrong, -1) != want


def test_grid_fails_a_two_percent_error_in_one_weingarten_value(monkeypatch):
    # the check has power: at 200 000 samples, Wg([1,1]) off by 2 % gives
    # max |z| near 13 on the O n=2 tau=4 grid, which passes unperturbed
    assert grid_crosscheck("orthogonal", 2, 4, 200_000, seed=1).ok
    exact = haarmc._VALUES["orthogonal"]

    def skewed(mu, tau):
        value = exact(mu, tau)
        return value * Fraction(102, 100) if Partition(mu) == Partition((1, 1)) else value

    monkeypatch.setitem(haarmc._VALUES, "orthogonal", skewed)
    report = grid_crosscheck("orthogonal", 2, 4, 200_000, seed=1)
    assert not report.ok
    assert report.max_abs_z > 8


@pytest.mark.parametrize("group, n, tau, limit_mb", [
    ("unitary", 2, 3, 6), ("orthogonal", 2, 4, 6), ("unitary", 3, 3, 20),
])
def test_grid_allocations_stay_bounded(group, n, tau, limit_mb):
    # tracemalloc sees numpy's buffers; no stage may hold a whole batch of
    # products or a tau^(4n) array per statistic
    tracemalloc.start()
    try:
        grid_crosscheck(group, n, tau, 8192, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


def test_grid_crosscheck_validates_its_input():
    for args in (("unitary", 1, 2, 99), ("unitary", 0, 2, 1000), ("orthogonal", 1, 0, 1000)):
        with pytest.raises(ValueError):
            grid_crosscheck(*args, seed=0)


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_grid_crosscheck_needs_a_finite_positive_threshold(threshold):
    # at NaN no |z| is past the threshold and every grid passes; at a negative
    # one every moment fails
    with pytest.raises(ValueError, match="finite positive threshold"):
        grid_crosscheck("unitary", 1, 2, 1000, seed=0, threshold=threshold)


def _grid_spec(
    group: str, n: int, tau: int, index: list[int], samples: int, seed: int
) -> MomentSpec:
    """The moment at one grid index: U (rows, cols, conj rows, conj cols), each
    over n factors; O (rows, cols) over 2n factors; multi-indices in C order."""
    width = n if group == "unitary" else 2 * n
    parts = [tuple(int(d) + 1 for d in np.unravel_index(v, (tau,) * width)) for v in index]
    return MomentSpec(group, tau, *parts, samples=samples, seed=seed)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_grid_matches_single_moment_path(group, n):
    # the vectorized grid and the scalar path must agree on the same seed,
    # moment by moment; threshold -1 reports every moment, up to 64
    samples, seed, tau = 30_000, 12, 2
    grid = grid_crosscheck(group, n, tau, samples, seed=seed)
    assert isinstance(grid, GridReport)
    assert grid.moments == tau ** (4 * n)
    listed = _every_moment_listed(group, n, tau, samples, seed)
    assert len(listed) == min(64, grid.moments)
    assert abs(listed[0]["z"]) == grid.max_abs_z
    for failure in listed:
        single = estimate_moment(_grid_spec(group, n, tau, failure["index"], samples, seed))
        assert abs(single.z - failure["z"]) <= 1e-9, failure


def _moment_spec(group: str, tau: int, rows, cols) -> MomentSpec:
    """The moment with the given row and column indices (1-based) over its
    2n factor positions: for U the plain factors, then the conjugate ones."""
    if group == "unitary":
        n = len(rows) // 2
        return MomentSpec(group, tau, rows[:n], cols[:n], rows[n:], cols[n:])
    return MomentSpec(group, tau, rows, cols)


@pytest.mark.parametrize("group", ["unitary", "orthogonal"])
def test_prediction_matrix_matches_predict_moment(group):
    n, tau = 2, 2
    pred = full_grid_prediction(group, n, tau)
    multi = list(itertools.product(range(1, tau + 1), repeat=2 * n))
    assert pred.shape == (len(multi), len(multi))
    for i, rows in enumerate(multi):
        for j, cols in enumerate(multi):
            spec = _moment_spec(group, tau, rows, cols)
            assert pred[i, j] == float(predict_moment(spec)), (rows, cols)


@pytest.mark.parametrize("group, n, tau", [
    ("unitary", 2, 3), ("orthogonal", 2, 3), ("unitary", 3, 2),
])
def test_class_predictions_match_predict_moment(group, n, tau):
    fac = _factor_columns(n, tau)[0]
    pred = _class_predictions(group, n, tau, fac)
    # factor k of product c is entry (rows[k, c], cols[k, c]), 1-based
    rows, cols = (v + 1 for v in np.divmod(fac, tau))
    for c, d in itertools.product(range(fac.shape[1]), repeat=2):
        spec = _moment_spec(group, tau, (*rows[:, c], *rows[:, d]), (*cols[:, c], *cols[:, d]))
        assert pred[c, d] == float(predict_moment(spec)), (c, d)


def test_class_predictions_value_each_type_once(monkeypatch):
    # U n=3 tau=3 has hundreds of pairs of row and column kinds, but 3 cycle types
    calls = Counter()
    exact = haarmc._VALUES["unitary"]

    def counted(mu, tau):
        calls[Partition(mu)] += 1
        return exact(mu, tau)

    monkeypatch.setitem(haarmc._VALUES, "unitary", counted)
    fac = _factor_columns(3, 3)[0]
    pred = _class_predictions("unitary", 3, 3, fac)
    assert calls == Counter(partitions_of(3))
    monkeypatch.setitem(haarmc._VALUES, "unitary", exact)
    assert np.array_equal(pred, _class_predictions("unitary", 3, 3, fac))


def test_report_json_fields():
    spec = MomentSpec("orthogonal", 4, (1, 1), (1, 1), samples=1000, seed=0)
    payload = estimate_moment(spec).to_json_dict()
    assert set(payload) == {"spec", "estimate", "stderr", "exact", "z", "samples", "seed"}
    assert payload["exact"] == "1/4"
    assert payload["samples"] == 1000
