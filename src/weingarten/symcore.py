"""Combinatorial ground types: partitions, permutations, standard Young
tableaux, and pair partitions (perfect matchings).

Everything here is immutable and enumerated in a fixed canonical order, since
these sequences double as matrix bases downstream:

* partitions of n: reverse-lexicographic, largest part first;
* permutations of S_n: lexicographic on the one-line form;
* standard tableaux of a shape: lexicographic on the row reading word;
* pairings of {1,...,2n}: lexicographic on the canonical pair list.

All element labels are 1-based, including in serialized text forms.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import factorial
from operator import itemgetter, mul


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    def __new__(cls, parts):
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def cells(self):
        """All boxes (i, j) of the Young diagram, 1-based, row by row."""
        for i, row_len in enumerate(self, start=1):
            for j in range(1, row_len + 1):
                yield (i, j)

    def to_text(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed partition {text!r}")
        inner = body[1:-1].strip()
        return cls(int(p) for p in inner.split(",")) if inner else cls(())

    def __repr__(self):
        return f"Partition({tuple(self)})"


class Permutation(tuple):
    """Permutation of {1,...,n} in one-line form: self[i-1] = sigma(i).

    Tuple subclass so that instances hash and compare like plain tuples;
    arithmetic-heavy callers construct results directly without revalidation.
    Use :meth:`from_images` at trust boundaries.
    """

    @classmethod
    def from_images(cls, images) -> "Permutation":
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        return cls(images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, i: int, j: int, n: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad transposition ({i} {j}) in S_{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(i) = self(other(i))
        if len(self) != len(other):
            raise ValueError(f"size mismatch: {len(self)} vs {len(other)}")
        return Permutation(self[j - 1] for j in other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def to_text(self) -> str:
        return "[" + ",".join(str(i) for i in self) + "]"

    def __repr__(self):
        return f"Permutation({tuple(self)})"


class Pairing(Permutation):
    """Fixed-point-free involution of {1,...,2n}, i.e. a perfect matching.

    Stored in one-line form (so a pairing *is* the corresponding permutation);
    the canonical pair list exists for ordering and serialization only.
    """

    @classmethod
    def from_partner(cls, partner) -> "Pairing":
        p = cls.from_images(partner)
        if any(p[p[i - 1] - 1] != i or p[i - 1] == i for i in range(1, len(p) + 1)):
            raise ValueError(f"not a fixed-point-free involution: {tuple(p)}")
        return p

    @classmethod
    def from_pairs(cls, pairs) -> "Pairing":
        pairs = list(pairs)
        partner = [0] * (2 * len(pairs))
        for a, b in pairs:
            partner[a - 1], partner[b - 1] = b, a
        return cls.from_partner(partner)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Canonical pair list: (a, b) with a < b, sorted by a."""
        return tuple((i, self[i - 1]) for i in range(1, len(self) + 1) if i < self[i - 1])

    def to_text(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.pairs())

    def conjugate_by(self, sigma: Permutation) -> "Pairing":
        """sigma . self . sigma^{-1}, relabelling points by sigma."""
        partner = [0] * len(self)
        for i in range(1, len(self) + 1):
            partner[sigma[i - 1] - 1] = sigma[self[i - 1] - 1]
        return Pairing(partner)

    def __repr__(self):
        return f"Pairing({self.to_text()!r})"


class StandardTableau:
    """Standard Young tableau: rows strictly increasing along rows and columns."""

    __slots__ = ("rows", "_pos")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = sum(len(r) for r in rows)
        if sorted(itertools.chain.from_iterable(rows)) != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}: {rows}")
        for r in rows:
            if any(r[k] >= r[k + 1] for k in range(len(r) - 1)):
                raise ValueError(f"rows must increase: {rows}")
        for i in range(len(rows) - 1):
            if len(rows[i + 1]) > len(rows[i]):
                raise ValueError(f"shape must be a partition: {rows}")
            if any(rows[i][k] >= rows[i + 1][k] for k in range(len(rows[i + 1]))):
                raise ValueError(f"columns must increase: {rows}")
        self.rows = rows
        pos = {}
        for i, row in enumerate(rows, start=1):
            for j, entry in enumerate(row, start=1):
                pos[entry] = (i, j)
        self._pos = pos

    @property
    def size(self) -> int:
        return len(self._pos)

    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def position(self, k: int) -> tuple[int, int]:
        if k not in self._pos:
            raise ValueError(f"entry {k} not in tableau of size {self.size}")
        return self._pos[k]

    def content(self, k: int) -> int:
        """Column minus row of the box holding k (the JM eigenvalue)."""
        i, j = self.position(k)
        return j - i

    def restricted(self) -> "StandardTableau":
        """The tableau with its largest entry removed."""
        n = self.size
        i, j = self._pos[n]
        rows = [list(r) for r in self.rows]
        rows[i - 1].pop()
        if not rows[i - 1]:
            rows.pop(i - 1)
        return StandardTableau(rows)

    def reading_word(self) -> tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.rows))

    def __repr__(self):
        return f"StandardTableau({[list(r) for r in self.rows]})"


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, largest first."""
    if n < 1:
        raise ValueError(f"partitions_of requires n >= 1, got {n}")

    out: list[Partition] = []

    def descend(remaining, max_part, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for part in range(min(max_part, remaining), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(n, n, ())
    return out


def permutations_of(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order (the canonical basis order)."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard Young tableaux of the given shape, sorted by reading word."""
    shape = Partition(shape)
    n = shape.weight
    results: list[StandardTableau] = []
    rows: list[list[int]] = [[] for _ in shape]

    def place(k):
        if k > n:
            results.append(StandardTableau([list(r) for r in rows]))
            return
        for i, row_len in enumerate(shape):
            filled = len(rows[i])
            if filled >= row_len:
                continue
            if i > 0 and len(rows[i - 1]) <= filled:
                continue  # box above must already be filled (and is smaller)
            rows[i].append(k)
            place(k + 1)
            rows[i].pop()

    place(1)
    results.sort(key=StandardTableau.reading_word)
    return results


def hook_dimension(shape: Partition) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    shape = Partition(shape)
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    hooks = [
        shape[i - 1] - j + conj[j - 1] - i + 1
        for i, j in shape.cells()
    ]
    return factorial(shape.weight) // reduce(mul, hooks, 1)


def enumerate_pairings(n: int) -> list[Pairing]:
    """All (2n-1)!! pairings of {1,...,2n}, lexicographic on pair lists.

    Pairing the smallest free point with each larger free point in increasing
    order yields exactly the lexicographic order on canonical pair lists.
    """
    if n < 1:
        raise ValueError(f"enumerate_pairings requires n >= 1, got {n}")
    out: list[Pairing] = []
    partner = [0] * (2 * n)

    def extend(free):
        if not free:
            out.append(Pairing(partner))
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            # stale entries from earlier branches are always overwritten
            # before a leaf is reached, since leaves have no free points
            partner[a - 1], partner[b - 1] = b, a
            extend(free[1:idx] + free[idx + 1:])

    extend(list(range(1, 2 * n + 1)))
    return out


def carried_index(maps, row: list[int]) -> list[list[int]]:
    """Every row of a double-coset type index, carried from its row 0.

    row[j] is the number of the type of (b_0, b_j).  Types are invariant
    under the generators' action (`generator_index_maps`): if b_k = g . b_i
    and p is g's map, then index[k] = [index[i][t] for t in inverse(p)].  So
    every other row is row 0 carried along a search of the maps, which
    `_orbit_covers` must have proved to permute the basis in one orbit; the
    search also checks that each row agrees with every map that leads to
    it, which is the invariance the rows rest on.  Raises ValueError when a
    row disagrees.  Every row returned is a new list.
    """
    size = len(row)
    if size == 1:
        # row 0 is the whole matrix, and itemgetter of one index returns no tuple
        return [list(row)]
    moves = [(p, itemgetter(*_inverse(p))) for p in maps]
    index: list = [list(row)] + [None] * (size - 1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for p, carry in moves:
            k, carried = p[i], list(carry(index[i]))
            if index[k] is None:
                index[k] = carried
                frontier.append(k)
            elif index[k] != carried:
                raise ValueError(f"type matrix: row {k} is not invariant under the generators")
    return index


def _inverse(p: list[int]) -> list[int]:
    """The inverse of a permutation of range(len(p)) given as a list of images."""
    inv = [0] * len(p)
    for i, k in enumerate(p):
        inv[k] = i
    return inv


def _orbit_covers(maps, size: int) -> bool:
    """Every map permutes range(size) and index 0 reaches every index."""
    everything = set(range(size))
    if any(len(p) != size or set(p) != everything for p in maps):
        return False
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for p in maps:
            if p[i] not in seen:
                seen.add(p[i])
                frontier.append(p[i])
    return len(seen) == size


def cross_type_matrix(rows, cols) -> tuple[list[Partition], list[list[int]]]:
    """Double-coset type of every (row, column) pair, as (types, index); index is rows x cols.

    For permutations the type of (b, c) is the cycle type of b^-1 c.  For
    pairings it is the loop type: the cycle type of b c (a pairing is its own
    inverse) with multiplicities halved, since each loop splits into two
    equal cycles.  Types are numbered in first-seen order.  Cycles are
    walked over 0-based one-line tuples; for pairings the walk marks both
    cycles of a loop, so it counts each loop once.
    """
    halve = isinstance(rows[0], Pairing)
    lefts = [tuple(x - 1 for x in (b if halve else b.inverse())) for b in rows]
    rights = [tuple(x - 1 for x in b) for b in cols]
    size = len(rights[0])
    numbers: dict[tuple[int, ...], int] = {}
    types: list[Partition] = []
    index = []
    for left in lefts:
        row = []
        for right in rights:
            seen = [False] * size
            lengths = []
            for start in range(size):
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
            lengths.sort(reverse=True)
            key = tuple(lengths)
            number = numbers.get(key)
            if number is None:
                number = numbers[key] = len(types)
                types.append(Partition(key))
            row.append(number)
        index.append(row)
    return types, index


def generator_index_maps(basis) -> list[list[int | None]]:
    """Index maps of the generators (1 2 ... m) and (1 2) of S_m on a basis.

    Permutations of {1,...,m} are moved by left multiplication, pairings of
    {1,...,m} by conjugation; both Gram and Weingarten matrices are invariant
    under these actions.  Entry i of a map is the index of g . basis[i], or
    None when that image is not in the basis (or basis[i] is not of size m).
    S_1 has only the identity.
    """
    m = len(basis[0])
    position = {b: i for i, b in enumerate(basis)}
    generators = [Permutation(tuple(range(2, m + 1)) + (1,))]
    if m >= 2:
        generators.append(Permutation.transposition(1, 2, m))
    conjugate = isinstance(basis[0], Pairing)
    return [
        [
            position.get(Pairing.conjugate_by(b, g) if conjugate else g * b) if len(b) == m else None
            for b in basis
        ]
        for g in generators
    ]


def double_shape(shape: Partition) -> Partition:
    """(lam_1, lam_2, ...) -> (2*lam_1, 2*lam_2, ...)."""
    return Partition(2 * p for p in shape)


def double_tableau(t: StandardTableau) -> StandardTableau:
    """Replace each box k by the adjacent horizontal pair of boxes 2k-1, 2k."""
    rows = []
    for row in t.rows:
        doubled = []
        for k in row:
            doubled.extend((2 * k - 1, 2 * k))
        rows.append(doubled)
    return StandardTableau(rows)
