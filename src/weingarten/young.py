"""Irreducible characters of S_n and Young's orthogonal idempotents.

Characters come from the Murnaghan-Nakayama rule, implemented on beta sets
(first-column hook lengths) and memoized in a module-level table, so a
computation pays only for the entries it asks for.  `character_table` gives
the full table of S_n as its JSON payload; the CLI writes it.

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

from fractions import Fraction

from .symcore import Partition, StandardTableau, partitions_of, standard_tableaux

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


def character_table(n: int) -> dict:
    """The character table of S_n as its JSON payload.

    Rows are shapes and columns are classes, both in the canonical partition order.
    """
    parts = partitions_of(n)
    return {
        "schema": CHARACTER_SCHEMA,
        "n": n,
        "partitions": [p.to_text() for p in parts],
        "values": [[character(lam, mu) for mu in parts] for lam in parts],
    }


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


def central_idempotent(lam: Partition) -> AlgebraElement:
    """Central projector onto the lam-isotypic component of C[S_n].

    It is the sum of the minimal idempotents over SYT(lam); the ``central``
    suite checks it against the character formula.
    """
    from .groupalg import AlgebraElement

    lam = Partition(lam)
    out = AlgebraElement.zero(lam.weight)
    for t in standard_tableaux(lam):
        out = out + young_idempotent(t)
    return out
