"""Irreducible characters of S_n and Young's orthogonal idempotents.

Characters come from the Murnaghan-Nakayama rule, implemented on beta sets
(first-column hook lengths) and memoized in a module-level table, so a
computation pays only for the entries it asks for.  :class:`CharacterTable`
holds a full table of S_n; ``save`` exports it as JSON, and nothing in the
package reads such a file back.

The minimal idempotents e(T) are built by the Lagrange-interpolation style
recursion on the last box: e(T) equals e of the restricted tableau times
the product over the other addable corners c' of
(m_n - c') / (content(T, n) - c').  Distinct addable corners of one shape
have distinct contents, so the denominators never vanish.  Coefficients stay
plain rationals; promotion to symbolic happens downstream on demand.  The
idempotent functions import ``groupalg`` when they run, so characters load
without it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import factorial
from pathlib import Path

from .symcore import (
    Partition,
    StandardTableau,
    cross_type_matrix,
    hook_dimension,
    partitions_of,
    permutations_of,
    standard_tableaux,
)

_CHAR_MEMO: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

CHARACTER_SCHEMA = "weingarten/character-table/1"


def _beta_set(lam: tuple[int, ...]) -> list[int]:
    ell = len(lam)
    return [lam[i] + (ell - 1 - i) for i in range(ell)]


def _beta_to_partition(beta: list[int]) -> tuple[int, ...]:
    ell = len(beta)
    parts = [beta[i] - (ell - 1 - i) for i in range(ell)]
    return tuple(p for p in parts if p > 0)


def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    key = (lam, mu)
    cached = _CHAR_MEMO.get(key)
    if cached is not None:
        return cached
    strip, rest = mu[0], mu[1:]
    beta = _beta_set(lam)
    present = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in present:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        term = _mn(_beta_to_partition(new_beta), rest)
        total += -term if height % 2 else term
    _CHAR_MEMO[key] = total
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi_lam evaluated on the class of cycle type mu."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.weight != mu.weight:
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")
    return _mn(tuple(lam), tuple(mu))


class CharacterTable:
    """Full character table of S_n on the canonical partition order."""

    def __init__(self, n: int, partitions: tuple[Partition, ...], values: tuple[tuple[int, ...], ...]):
        self.n = n
        self.partitions = partitions
        self.values = values  # values[lam_index][mu_index]

    @classmethod
    def build(cls, n: int) -> "CharacterTable":
        parts = tuple(partitions_of(n))
        values = tuple(
            tuple(character(lam, mu) for mu in parts) for lam in parts
        )
        return cls(n, parts, values)

    def to_json_dict(self) -> dict:
        return {
            "schema": CHARACTER_SCHEMA,
            "n": self.n,
            "partitions": [p.to_text() for p in self.partitions],
            "values": [list(row) for row in self.values],
        }

    def save(self, path: Path) -> None:
        """Write through a temporary file in the same directory, then rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(self.to_json_dict()) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _addable_corner_contents(shape: Partition) -> list[int]:
    """Contents (column - row) of the cells where a box may be added."""
    contents = []
    for i, part in enumerate(shape, start=1):
        if i == 1 or shape[i - 2] > part:
            contents.append(part + 1 - i)
    contents.append(-len(shape))  # fresh row below
    return contents


_IDEMPOTENT_CACHE: dict[tuple[tuple[int, ...], ...], AlgebraElement] = {}


def _extend_idempotent(t: StandardTableau) -> AlgebraElement:
    """One recursion step from the (cached) idempotent of the restricted tableau; not stored."""
    from .groupalg import AlgebraElement, jm_element

    n = t.size
    if n == 1:
        return AlgebraElement.unit(1)
    tbar = t.restricted()
    e = young_idempotent(tbar).embed(n)
    c_here = t.content(n)
    m_n = jm_element(n, n)
    for c_other in _addable_corner_contents(tbar.shape()):
        if c_other == c_here:
            continue
        factor = m_n - AlgebraElement.unit(n, Fraction(c_other))
        e = e * factor.scale(Fraction(1, c_here - c_other))
    return e


def young_idempotent(t: StandardTableau) -> AlgebraElement:
    """Young's orthogonal (seminormal) idempotent indexed by a standard tableau.

    Simultaneously diagonalizes the Jucys-Murphy elements:
    m_k e(T) = e(T) m_k = content(T, k) e(T).
    """
    cached = _IDEMPOTENT_CACHE.get(t.rows)
    if cached is None:
        cached = _IDEMPOTENT_CACHE[t.rows] = _extend_idempotent(t)
    return cached


def central_idempotent(lam: Partition, route: str = "tableau-sum") -> AlgebraElement:
    """Central projector onto the lam-isotypic component of C[S_n].

    route="tableau-sum" sums the minimal idempotents over SYT(lam);
    route="character" expands dim(lam)/n! * sum_sigma chi_lam(sigma^-1) sigma.
    The two must agree exactly (and tests enforce it).  chi on sigma^-1 equals
    chi on sigma since the two are conjugate in S_n; that identification is
    made here, once.
    """
    from .groupalg import AlgebraElement

    lam = Partition(lam)
    n = lam.weight
    if route == "tableau-sum":
        out = AlgebraElement.zero(n)
        for t in standard_tableaux(lam):
            out = out + young_idempotent(t)
        return out
    if route == "character":
        # the types against the identity are the cycle types
        scale = Fraction(hook_dimension(lam), factorial(n))
        perms = permutations_of(n)
        types, (row,) = cross_type_matrix(perms[:1], perms)
        values = [scale * character(lam, mu) for mu in types]
        return AlgebraElement(n, {sigma: values[k] for sigma, k in zip(perms, row)})
    raise ValueError(f"unknown route {route!r}")
