"""Slow reference constructions that only the tests use.

Each one recomputes by brute force a quantity the package gets another way,
so a test can compare the two: centralizer orders (against class sizes and
character orthogonality), a table's JSON dict and CSV text with every
entry rendered on its own (against the row-by-row stream rendered once per
type), the regular representation of C[S_n] (against the Gram and
Weingarten matrices), C[S_n] products term pair by term pair over any
coefficient ring (against the integer kernel, and for symbolic
coefficients, which the kernel refuses), the dense matrix product and
pseudo-inverse check (against the type-algebra checks), the type-algebra
report over reduced TauRational sums (against the proof at integer
points), loop types by
permutation product and the cycle walk of every basis pair (against the
type matrix carried from row 0), symbolic spectral sums as running sums of
reduced TauRationals (against the sums over one shared denominator), orthogonal values and
projector entries from S_2n characters summed over cycle-type histograms of
H_n cosets (against the Hecke-algebra idempotents), Monte-Carlo grid sums over
the full tensor power and over distinct factor products gathered one factor
at a time (against the products built by prefix extension), Haar moments at
tau = 1, 2 by closed-form integrals over O(1), U(1), O(2) and U(2) (against
both prediction paths, singular Gram matrices included), grid
z-scores entry by entry over all tau^(4n) moments (against one z per pair of
distinct factor products), Haar samples by LAPACK QR with the phase fix
(against Gram-Schmidt run twice), matrices on the pairing basis read
off the materialized product P_H * X (against the stability suite's checks
on coset sums and Gram row 0), and
complete orthogonality by every pairwise product (against the Jucys-Murphy
eigenvalue and class-representative checks of the ``idempotents`` and
``central`` suites).  It also holds the helpers that only tests call:
cycles and cycle types of one permutation (against
``symcore.cross_type_matrix``, the package's one cycle walk), text parsers
for permutations, pairings and tableaux, ``basis_element``,
``element_json_dict`` and ``coefficient`` for group-algebra elements,
``character_projector`` (the central projector by the character formula,
which the ``central`` suite checks class by class), ``map_coefficients``,
``adjacent_pairing``, ``average_projector`` (the element P_H, which the
package never builds), ``gram_unitary`` and ``sample_haar``.
"""

import csv
import io
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np

from weingarten.coeffring import TAU, TauRational, is_symbolic, render
from weingarten.exactmat import (
    PseudoInverseReport,
    WeingartenTable,
    _at,
    _product,
    _table_algebra,
    content_product,
    spectral_sum,
    weingarten_table,
)
from weingarten.groupalg import AlgebraElement, hyperoctahedral_elements, jm_element
from weingarten.haarmc import (
    _BATCH,
    _BLOCK,
    _basis,
    _ginibre,
    _haar_batch,
    _orthonormalize,
    _tied_sum,
    _ties,
)
from weingarten.orthogonal import coset_representative
from weingarten.symcore import (
    Pairing,
    Partition,
    Permutation,
    StandardTableau,
    double_shape,
    enumerate_pairings,
    hook_dimension,
    partitions_of,
    permutations_of,
)
from weingarten.young import character


def inverse(x):
    """1/x for a nonzero Fraction or TauRational, the TauRational one reduced by its constructor."""
    if isinstance(x, TauRational):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return TauRational(x.den, x.num)
    return 1 / Fraction(x)


def cycles(sigma: Permutation) -> list[tuple[int, ...]]:
    """The cycles of a permutation, each from its smallest point, ordered by those points."""
    seen = [False] * len(sigma)
    out = []
    for start in range(1, len(sigma) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            cyc.append(i)
            i = sigma[i - 1]
        out.append(tuple(cyc))
    return out


def cycle_type(sigma: Permutation) -> Partition:
    return Partition(sorted((len(c) for c in cycles(sigma)), reverse=True))


def num_cycles(sigma: Permutation) -> int:
    return len(cycles(sigma))


def permutation_from_text(text: str) -> Permutation:
    """The permutation whose ``to_text`` is text, e.g. "[2,1,3]"."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed permutation {text!r}")
    return Permutation.from_images(int(p) for p in body[1:-1].split(","))


def pairing_from_text(text: str) -> Pairing:
    """The pairing whose ``to_text`` is text, e.g. "(1,3)(2,4)"."""
    body = text.strip().replace(" ", "")
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"malformed pairing {text!r}")
    pairs = []
    for chunk in body[1:-1].split(")("):
        a, b = chunk.split(",")
        pairs.append((int(a), int(b)))
    return Pairing.from_pairs(pairs)


def tableau_to_text(t: StandardTableau) -> str:
    return "[" + ",".join("[" + ",".join(str(v) for v in r) + "]" for r in t.rows) + "]"


def tableau_from_text(text: str) -> StandardTableau:
    return StandardTableau(json.loads(text))


def basis_element(sigma: Permutation, coeff=Fraction(1)) -> AlgebraElement:
    """coeff * sigma in C[S_n]."""
    return AlgebraElement(len(sigma), {sigma: coeff})


def element_json_dict(x: AlgebraElement) -> dict[str, str]:
    """Each term's permutation text mapped to its rendered coefficient, in basis order."""
    return {p.to_text(): render(c) for p, c in sorted(x.terms.items())}


def coefficient(x: AlgebraElement, sigma: Permutation):
    """The coefficient of sigma in x, 0 where x has no term at sigma."""
    return x.terms.get(sigma, Fraction(0))


def character_projector(lam) -> AlgebraElement:
    """The central projector z_lam = dim(lam)/n! sum_sigma chi_lam(sigma^-1) sigma, densely.

    chi is read at each permutation's own cycle type, found by `cycle_type`.
    """
    lam = Partition(lam)
    n = lam.weight
    scale = Fraction(hook_dimension(lam), factorial(n))
    values = {sigma: character(lam, cycle_type(sigma.inverse())) for sigma in permutations_of(n)}
    return AlgebraElement(n, {sigma: scale * chi for sigma, chi in values.items()})


def adjacent_pairing(n: int) -> Pairing:
    """The base point (1 2)(3 4)...(2n-1 2n) of the conjugation action."""
    if n < 1:
        raise ValueError(f"adjacent_pairing requires n >= 1, got {n}")
    images = []
    for k in range(1, n + 1):
        images.extend((2 * k, 2 * k - 1))
    return Pairing(images)


def average_projector(n: int) -> AlgebraElement:
    """P_H, the uniform average over the hyperoctahedral subgroup H_n of S_2n (idempotent)."""
    elements = hyperoctahedral_elements(n)
    w = Fraction(1, len(elements))
    return AlgebraElement(2 * n, {h: w for h in elements})


def loop_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a * b in C[S_n], one term pair at a time, over any coefficient ring.

    The product of symbolic coefficients, and the oracle of the integer kernel.
    """
    out: dict = {}
    rhs = list(b.terms.items())
    get = out.get
    for p, ca in a.terms.items():
        for q, cb in rhs:
            r = Permutation(p[j - 1] for j in q)
            c = ca * cb
            prev = get(r)
            out[r] = c if prev is None else prev + c
    return AlgebraElement(a.n, out)


def jm_product_at_tau(size: int, ks) -> AlgebraElement:
    """The product of TAU + m_k over ks in C[S_size], by `loop_product`.

    groupalg's Jucys-Murphy products at the indeterminate, which its kernel
    refuses: ks = 1..n in C[S_n] for U(t), ks = 1, 3, ..., 2n - 1 in C[S_2n]
    for O(t).  The factors commute, so their order does not matter.
    """
    acc = AlgebraElement.unit(size)
    for k in ks:
        acc = loop_product(acc, jm_element(k, size) + AlgebraElement.unit(size, TAU))
    return acc


def map_coefficients(x: AlgebraElement, fn) -> AlgebraElement:
    """x with fn applied to each coefficient."""
    return AlgebraElement(x.n, {p: fn(c) for p, c in x.terms.items()})


def evaluated(x: AlgebraElement, t) -> AlgebraElement:
    """x with each coefficient, a Fraction or a TauRational, evaluated at the rational t."""
    def value(c):
        if isinstance(c, TauRational):
            return Fraction(_at(c.num, t)) / _at(c.den, t)
        return Fraction(c)
    return map_coefficients(x, value)


def gram_unitary(n: int, tau):
    """n! x n! Gram matrix of U(tau) over the canonical S_n basis, rows read through the type index."""
    return weingarten_table("unitary", n, tau).gram


def mat_mul(a, b):
    """Dense O(N^3) product of two matrices given as sequences of rows."""
    a, b = list(a), list(b)
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                x = row_a[t]
                if not x:
                    continue
                y = b[t][j]
                if not y:
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Fraction(0))
        out.append(row)
    return out


def mat_identity(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_is_symmetric(a) -> bool:
    # list comparison checks identity first, so shared entries cost no __eq__
    return all(list(col) == row for row, col in zip(a, zip(*a)))


def pseudo_inverse_check(gram, wg) -> PseudoInverseReport:
    """GWG=G, WGW=W and W=W^T by exact dense multiplication; needs no structure."""
    gram, wg = list(gram), list(wg)
    gw = mat_mul(gram, wg)
    return PseudoInverseReport(
        gwg_equals_g=mat_mul(gw, gram) == gram,
        wgw_equals_w=mat_mul(wg, gw) == wg,
        w_symmetric=mat_is_symmetric(wg),
    )


def running_sum_report(table: WeingartenTable) -> PseudoInverseReport:
    """The table's type-algebra report with GWG and WGW formed from its own values,
    every partial sum of a symbolic table a reduced TauRational (against the
    integer-point proof)."""
    algebra = _table_algebra(table)
    if algebra is None:
        return PseudoInverseReport(False, False, False, invariant=False)
    constants = algebra.constants
    g, w = table.gram_by_type, table.weingarten_by_type
    gw = _product(constants, g, w)
    return PseudoInverseReport(
        gwg_equals_g=_product(constants, gw, g) == g,
        wgw_equals_w=_product(constants, w, gw) == w,
        w_symmetric=algebra.transposes == list(range(len(g))),
    )


def table_with(table: WeingartenTable, **changes) -> WeingartenTable:
    """A copy of the table with the named constructor arguments replaced."""
    fields = {name: getattr(table, name) for name in (
        "group", "n", "tau", "basis", "types", "gram_by_type", "weingarten_by_type", "excluded")}
    return WeingartenTable(**{**fields, **changes})


def render_matrix(matrix) -> list[list[str]]:
    """Text of every entry of a matrix, each rendered on its own."""
    return [[render(x) for x in row] for row in matrix]


def table_json_dict(table: WeingartenTable) -> dict:
    """The dict whose ``json.dumps`` is the table's JSON text."""
    payload = {
        "group": table.group,
        "n": table.n,
        "tau": "symbolic" if is_symbolic(table.tau) else render(Fraction(table.tau)),
        "basis": [p.to_text() for p in table.basis],
        "gram": render_matrix(table.gram),
    }
    if table.weingarten is not None:
        payload["weingarten"] = render_matrix(table.weingarten)
        payload["excluded"] = [p.to_text() for p in table.excluded]
    return payload


def csv_writer_text(table: WeingartenTable) -> str:
    """The CSV a csv.writer writes entry by entry: a header of labels, then one labelled row each.

    The matrix is the Weingarten matrix, the Gram matrix of a Gram-only table.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    labels = [p.to_text() for p in table.basis]
    writer.writerow([""] + labels)
    matrix = table.gram if table.weingarten is None else table.weingarten
    for label, row in zip(labels, matrix):
        writer.writerow([label] + [render(x) for x in row])
    return buf.getvalue()


def loop_type(pi: Pairing, rho: Pairing) -> Partition:
    """Loop lengths of the pasting of two pairings, as a partition of n.

    The permutation product splits every loop through 2m points into two
    m-cycles, so halving the cycle-type multiplicities recovers the loops.
    """
    counts = Counter(len(c) for c in cycles(pi * rho))
    sizes = []
    for length, count in counts.items():
        sizes.extend([length] * (count // 2))
    return Partition(sorted(sizes, reverse=True))


def pair_type(b: Permutation, c: Permutation) -> Partition:
    """Double-coset type of one basis pair, by walking the cycles of b^-1 c.

    For pairings the walk marks both cycles of a loop, so it counts loops.
    """
    halve = isinstance(b, Pairing)
    left = [x - 1 for x in (b if halve else b.inverse())]
    right = [x - 1 for x in c]
    seen, lengths = [False] * len(right), []
    for start in range(len(right)):
        if seen[start]:
            continue
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            if halve:
                seen[right[k]] = True
            k = left[right[k]]
            length += 1
        lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def dense_type_matrix(basis):
    """(types, index) as a table's ``index`` and type numbering give it, from a walk of every pair.

    Each unordered pair is walked once and mirrored, since (c, b) has the
    inverse product and so the same type; types are numbered first-seen.
    """
    numbers, types = {}, []
    index = [[0] * len(basis) for _ in basis]
    for i, b in enumerate(basis):
        for j in range(i, len(basis)):
            mu = pair_type(b, basis[j])
            if mu not in numbers:
                numbers[mu] = len(types)
                types.append(mu)
            index[i][j] = index[j][i] = numbers[mu]
    return types, index


def running_sum_spectral_sum(n: int, tau, alpha: int, weight):
    """``exactmat.spectral_sum`` as one running sum, every partial sum a reduced TauRational."""
    total = None
    for lam in partitions_of(n):
        c = content_product(lam, tau, alpha)
        if not c:
            continue
        w = weight(lam)
        if not w:
            continue
        term = inverse(c) * w
        total = term if total is None else total + term
    return total if total is not None else Fraction(0)


def conjugating_permutation(src: Pairing, dst: Pairing) -> Permutation:
    """Some sigma with sigma src sigma^-1 = dst, by matching pair lists in order."""
    if len(src) != len(dst):
        raise ValueError("pairings must have the same size")
    images = [0] * len(src)
    for (a, b), (c, d) in zip(src.pairs(), dst.pairs()):
        images[a - 1], images[b - 1] = c, d
    return Permutation(images)


def loop_type_representative(mu: Partition) -> Pairing:
    """A pairing whose pasting against the adjacent pairing has loops mu."""
    images = []
    offset = 0
    for m in mu:
        block = list(range(offset + 2, offset + 2 * m + 1)) + [offset + 1]
        # cyclic shift of the block: pairs (s+2,s+3),(s+4,s+5),...,(s+2m,s+1)
        partner = {}
        for idx in range(0, 2 * m, 2):
            a, b = block[idx], block[idx + 1]
            partner[a] = b
            partner[b] = a
        images.extend(partner[offset + i] for i in range(1, 2 * m + 1))
        offset += 2 * m
    return Pairing(images)


def coset_cycle_type_histogram(mu: Partition) -> Counter:
    """Cycle-type counts over {sigma : sigma conjugates pi' to pi}, for a pair of loop type mu.

    The multiset is the same for every such pair and every base conjugator;
    this walks sigma0 * H_n for the adjacent pairing, whose centralizer is H_n.
    """
    mu = Partition(mu)
    sigma0 = conjugating_permutation(adjacent_pairing(mu.weight), loop_type_representative(mu))
    return Counter(cycle_type(sigma0 * h) for h in hyperoctahedral_elements(mu.weight))


def coset_character_sum(lam: Partition, hist: Counter) -> Fraction:
    """dim(2lam)/(2n)! times the sum of count * chi_2lam over a coset histogram."""
    lam2 = double_shape(lam)
    total = sum(count * character(lam2, ct) for ct, count in hist.items())
    return Fraction(hook_dimension(lam2) * total, factorial(lam2.weight))


def histogram_wg_value_orthogonal(mu: Partition, tau):
    """The orthogonal Weingarten value on loop type mu from S_2n characters over one H_n coset."""
    hist = coset_cycle_type_histogram(mu)
    return spectral_sum(Partition(mu).weight, tau, 2, lambda lam: coset_character_sum(lam, hist))


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    out, run, prev = 1, 0, None
    for part in tuple(mu) + (None,):
        if part == prev:
            run += 1
        else:
            if prev is not None:
                out *= prev**run * factorial(run)
            prev, run = part, 1
    return out


def complete_orthogonal(elements, n: int) -> bool:
    """e_i e_j = δ_ij e_i for every pair, and the e_i sum to the unit of C[S_n]."""
    ok = True
    for i, e in enumerate(elements):
        for j, f in enumerate(elements):
            prod = e * f
            ok = ok and (prod == e if i == j else not prod)
    return ok and sum(elements, AlgebraElement.zero(n)) == AlgebraElement.unit(n)


def regular_matrix(a: AlgebraElement, basis: list[Permutation], side: str = "left"):
    """Matrix of multiplication by `a` on C[S_n] in the given ordered basis.

    side="left": column j holds a * basis[j]; side="right": basis[j] * a.
    Entry [i][j] is the coefficient of basis[i].
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    inv = [b.inverse() for b in basis]
    rows = []
    for bi in basis:
        if side == "left":
            # coefficient of bi in a*bj is a[bi * bj^-1]
            rows.append([coefficient(a, bi * bj_inv) for bj_inv in inv])
        else:
            # coefficient of bi in bj*a is a[bj^-1 * bi]
            rows.append([coefficient(a, bj_inv * bi) for bj_inv in inv])
    return rows


def pairing_centralizer(pi: Pairing) -> list[Permutation]:
    """Centralizer of a pairing in S_2n: permute its pairs, flip each pair."""
    pairs = pi.pairs()
    n = len(pairs)
    out = []
    for order in itertools.permutations(range(n)):
        for flips in itertools.product((0, 1), repeat=n):
            images = [0] * (2 * n)
            for i, (a, b) in enumerate(pairs):
                ta, tb = pairs[order[i]]
                if flips[i]:
                    ta, tb = tb, ta
                images[a - 1], images[b - 1] = ta, tb
            out.append(Permutation(images))
    return out


def projector_entry(lam: Partition, pi: Pairing, rho: Pairing, sigma0=None) -> Fraction:
    """Entry (pi, rho) of the doubled-shape central projector on pairings.

    dim(2lam)/(2n)! times the character sum over the conjugating coset.  With
    sigma0=None the loop-type histogram is used; passing an explicit
    conjugator forces the direct coset enumeration (any valid sigma0 gives the
    same value, which tests exploit).
    """
    lam = Partition(lam)
    n = lam.weight
    if len(pi) != 2 * n or len(rho) != 2 * n:
        raise ValueError(f"pairings must cover 2n = {2 * n} points")
    if sigma0 is None:
        hist = coset_cycle_type_histogram(loop_type(pi, rho))
    else:
        if not rho.conjugate_by(sigma0) == pi:
            raise ValueError("sigma0 does not conjugate rho to pi")
        hist = Counter(cycle_type(sigma0 * c) for c in pairing_centralizer(rho))
    return coset_character_sum(lam, hist)


def materialized_pairing_basis_matrix(n: int, projected: AlgebraElement):
    """Matrix of X on the pairing basis, read off from projected = P_H * X.

    Expand sigma_pi * P * X over the standard basis sigma_pi' * P: the cosets
    sigma_pi' H are disjoint, so the coefficient of the representative
    itself, rescaled by |H|, reads off the matrix entry.
    """
    reps = [coset_representative(pi) for pi in enumerate_pairings(n)]
    inverses = [r.inverse() for r in reps]
    order = len(hyperoctahedral_elements(n))
    return [[order * coefficient(projected, rj_inv * ri) for rj_inv in inverses] for ri in reps]


def weingarten_matrix_from_central_idempotents(n: int, tau):
    """Independent route to the Weingarten matrix through C[S_2n] itself.

    Builds W = sum P_2lam / c_lam as a group-algebra element, with
    P_2lam from the character formula, and reads off its matrix on the pairing
    basis from the materialized product P_H * W.  Arbitrates the entrywise
    formula at desk scale.
    """
    w_alg = AlgebraElement.zero(2 * n)
    for lam in partitions_of(n):
        c = content_product(lam, tau, 2)
        if not c:
            continue
        w_alg = w_alg + map_coefficients(character_projector(double_shape(lam)),
                                         lambda x, inv=inverse(c): x * inv)
    return materialized_pairing_basis_matrix(n, loop_product(average_projector(n), w_alg))


def tensor_power_flat(q: np.ndarray, n: int) -> np.ndarray:
    """Per-sample n-fold Kronecker power, flattened to (samples, tau^n * tau^n)."""
    count, tau = q.shape[0], q.shape[1]
    m = q
    dim = tau
    for _ in range(n - 1):
        m = np.einsum("sab,scd->sacbd", m, q).reshape(count, dim * tau, dim * tau)
        dim *= tau
    return m.reshape(count, dim * dim)


def dense_grid_sums(group: str, n: int, tau: int, samples: int, seed: int):
    """Sums of Re(x_i conj(x_j)) and of its square over every pair of columns
    of the full tensor power, on the same seeded sample stream as the grid."""
    rng = np.random.default_rng(seed)
    sum_re = np.zeros((tau ** (2 * n), tau ** (2 * n)))
    sum_sq = np.zeros_like(sum_re)
    remaining = samples
    while remaining:
        count = min(_BATCH, remaining)
        flat = tensor_power_flat(_haar_batch(group, tau, count, rng), n)
        re, im = flat.real, flat.imag  # a real array's imag is zeros
        sum_re += re.T @ re + im.T @ im
        sum_sq += (re * re).T @ (re * re) + 2.0 * (re * im).T @ (re * im) + (im * im).T @ (im * im)
        remaining -= count
    return sum_re, sum_sq


def gather_grid_sums(group: str, tau: int, samples: int, seed: int, fac: np.ndarray):
    """Sample sums of Re(x_c conj(x_d)) and its square for every pair of
    distinct factor products c, d (the columns of `fac`).  Each batch is drawn
    whole, so the seeded stream is that of `_haar_batch`, then orthonormalized
    and accumulated _BLOCK rows at a time."""
    rng = np.random.default_rng(seed)
    sum_re, sum_sq = np.zeros((2, fac.shape[1], fac.shape[1]))
    remaining = samples
    while remaining:
        count = min(_BATCH, remaining)
        z = _ginibre(group, tau, count, rng)
        for start in range(0, count, _BLOCK):
            q = _orthonormalize(z[start:start + _BLOCK]).reshape(-1, tau * tau)
            cols = q[:, fac[0]]
            for k in fac[1:]:  # one factor at a time, in tensor-power order
                cols = cols * q[:, k]
            if group == "unitary":
                re, im = np.ascontiguousarray(cols.real), np.ascontiguousarray(cols.imag)
                # one operand per product, so numpy takes its symmetric A.T @ A path
                rr, ri, ii = re * re, re * im, im * im
                sum_re += re.T @ re + im.T @ im
                sum_sq += rr.T @ rr
                sum_sq += 2.0 * (ri.T @ ri)
                sum_sq += ii.T @ ii
            else:
                sq = cols * cols
                sum_re += cols.T @ cols
                sum_sq += sq.T @ sq
        remaining -= count
    return sum_re, sum_sq


def sample_haar(group: str, tau: int, seed: int) -> np.ndarray:
    """One Haar-distributed matrix (unitary or real orthogonal)."""
    if group not in ("unitary", "orthogonal"):
        raise ValueError(f"unknown group {group!r}")
    if tau < 1:
        raise ValueError(f"tau must be positive, got {tau}")
    return _haar_batch(group, tau, 1, np.random.default_rng(seed))[0]


def qr_haar_batch(group: str, tau: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar samples from the same Ginibre draws as `_haar_batch`, by LAPACK QR
    with R's diagonal phases (signs) moved into Q (Mezzadri's fix)."""
    q, r = np.linalg.qr(_ginibre(group, tau, count, rng))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]  # a real d / |d| is its sign


def full_grid_prediction(group: str, n: int, tau: int) -> np.ndarray:
    """Float predictions of every degree-n moment, rows against columns.

    Entry (i, j) is the moment whose row indices over the 2n factor positions
    are the multi-index i and whose column indices are j (0-based, C order),
    rounded once from the exact sum over the basis pairings that i and j tie.
    """
    basis = _basis(group, n)
    multi = itertools.product(range(tau), repeat=2 * n)
    ties = [tuple(p for p in basis if _ties(idx, p)) for idx in multi]
    kinds = {t: k for k, t in enumerate(dict.fromkeys(ties))}
    exact = np.array([[float(_tied_sum(group, tau, a, b)) for b in kinds] for a in kinds])
    which = np.array([kinds[t] for t in ties], dtype=np.intp)
    return exact[np.ix_(which, which)]


def _regroup_pair_axes(mat: np.ndarray, dim: int) -> np.ndarray:
    """Reorder ((a1,b1),(a2,b2)) matrix entries into ((a1,a2),(b1,b2))."""
    return np.ascontiguousarray(mat.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3))


def full_grid_score(group: str, n: int, tau: int, samples: int, sum_re, sum_sq, threshold: float):
    """z of every grid moment from sums over every pair of tensor-power columns,
    elementwise against `full_grid_prediction`; returns z in report layout (U:
    rows, cols, conj rows, conj cols; O: rows, cols), the moment count, max |z|
    and the 64 largest |z| past the threshold, largest first, ties in index order."""
    dim = tau**n
    mean = _regroup_pair_axes(sum_re / samples, dim).reshape(dim * dim, dim * dim)
    mean_sq = _regroup_pair_axes(sum_sq / samples, dim).reshape(dim * dim, dim * dim)
    variance = np.maximum(mean_sq - mean * mean, 0.0)
    stderr = np.sqrt(variance * (samples / (samples - 1)) / samples)
    diff = mean - full_grid_prediction(group, n, tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, diff / stderr, np.where(np.abs(diff) < 1e-12, 0.0, np.inf))
    if group == "unitary":
        z = _regroup_pair_axes(z, dim)
    flat_abs = np.abs(z).ravel()
    failing = np.flatnonzero(flat_abs > threshold)
    worst = failing[np.argsort(-flat_abs[failing], kind="stable")[:64]]
    failures = [
        {"index": [int(v) for v in idx], "z": float(z[idx])}
        for idx in zip(*np.unravel_index(worst, z.shape))
    ]
    return z, int(z.size), float(flat_abs.max()), failures


def _double_factorial(k: int) -> int:
    """k!! for k >= -1, with (-1)!! = 0!! = 1."""
    return 1 if k <= 0 else k * _double_factorial(k - 2)


def closed_form_haar_moment(group: str, tau: int, rows, cols) -> Fraction:
    """Exact Haar moment E[prod_k g[rows_k, cols_k]] at tau = 1 or 2, from
    closed forms of the integral, with no Weingarten function.

    Indices are 0-based over the 2n factor positions; for U the first n
    factors are plain and the last n conjugated.  O(1) = {+-1} and U(1) = the
    phases, so every moment that survives parity (phase) is 1.  O(2) is half
    rotations [[c, -s], [s, c]] and half reflections [[c, s], [s, -c]], theta
    uniform, and E[c^a s^b] = (a-1)!! (b-1)!! / (a+b)!! for even a, b, else 0.
    U(2) = e^(i phi) SU(2), SU(2) = [[al, -conj(be)], [be, conj(al)]] with
    (al, be) uniform on S^3: a balanced moment loses the phase, and
    E[al^a conj(al)^b be^c conj(be)^d] = [a = b][c = d] a! c! / (a + c + 1)!.
    """
    if tau not in (1, 2):
        raise ValueError(f"closed forms exist here only for tau = 1, 2, got {tau}")
    n, rem = divmod(len(rows), 2)
    if group == "orthogonal":
        if rem:
            return Fraction(0)
        if tau == 1:
            return Fraction(1)
        a = sum(r == c for r, c in zip(rows, cols))  # factors c; the others are s
        b = len(rows) - a
        if a % 2 or b % 2:
            return Fraction(0)
        rotation = (-1) ** sum((r, c) == (0, 1) for r, c in zip(rows, cols))
        reflection = (-1) ** sum((r, c) == (1, 1) for r, c in zip(rows, cols))
        mean = Fraction(_double_factorial(a - 1) * _double_factorial(b - 1), _double_factorial(a + b))
        return Fraction(rotation + reflection, 2) * mean
    if rem:  # an unbalanced unitary moment: the phase averages it to 0
        return Fraction(0)
    if tau == 1:
        return Fraction(1)
    # exponents of (al, conj al, be, conj be) contributed by entry (r, c),
    # plain and conjugated; the minus sign sits on entry (0, 1) either way
    plain = {(0, 0): (1, 0, 0, 0), (1, 1): (0, 1, 0, 0), (1, 0): (0, 0, 1, 0), (0, 1): (0, 0, 0, 1)}
    conj = {(0, 0): (0, 1, 0, 0), (1, 1): (1, 0, 0, 0), (1, 0): (0, 0, 0, 1), (0, 1): (0, 0, 1, 0)}
    factors = [plain[rc] for rc in zip(rows[:n], cols[:n])] + [conj[rc] for rc in zip(rows[n:], cols[n:])]
    a, b, c, d = (sum(e) for e in zip(*factors))
    if a != b or c != d:
        return Fraction(0)
    sign = (-1) ** sum(rc == (0, 1) for rc in zip(rows, cols))
    return Fraction(sign * factorial(a) * factorial(c), factorial(a + c + 1))
