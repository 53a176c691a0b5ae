"""Unitary-group Weingarten calculus over C[S_n].

The Gram matrix of the Schur-Weyl invariants is tau^(cycles of sigma^-1 rho);
its pseudo-inverse, the Weingarten matrix, is assembled from the class
function

    w(mu) = 1/n! * sum over shapes lam with c_lam != 0 of
            dim(lam) * chi_lam(mu) / c_lam,
    c_lam = product over boxes (i,j) of (tau + j - i),

never by inverting an n! x n! matrix entrywise.  With symbolic tau every
c_lam is a nonzero polynomial; at an integer tau the shapes with c_lam = 0
are excluded, which is exactly the pseudo-inverse prescription.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .coeffring import invert, is_symbolic, render
from .exactmat import PseudoInverseReport, mat_eq, mat_is_symmetric, mat_mul
from .symcore import Partition, Permutation, hook_dimension, partitions_of, permutations_of
from .young import character


def c_unitary(lam: Partition, tau):
    """Content product: product of (tau + column - row) over the diagram."""
    lam = Partition(lam)
    acc = None
    for i, j in lam.cells():
        factor = tau + Fraction(j - i)
        acc = factor if acc is None else acc * factor
    return acc if acc is not None else Fraction(1)


def gram_unitary(n: int, tau):
    """n! x n! Gram matrix over the canonical S_n basis."""
    if n < 1:
        raise ValueError(f"gram_unitary requires n >= 1, got {n}")
    basis = permutations_of(n)
    powers = _tau_powers(tau, n)
    inverses = [s.inverse() for s in basis]
    return [
        [powers[(si * t).num_cycles()] for t in basis]
        for si in inverses
    ]


def _tau_powers(tau, n: int) -> list:
    powers = [Fraction(1)]
    for _ in range(n):
        powers.append(powers[-1] * tau)
    return powers


def excluded_shapes(n: int, tau) -> list[Partition]:
    """Shapes whose eigenvalue c_lam vanishes at this tau (empty if symbolic)."""
    if is_symbolic(tau):
        return []
    return [lam for lam in partitions_of(n) if not c_unitary(lam, tau)]


def wg_function_unitary(mu: Partition, tau):
    """The Weingarten class function on the cycle type mu."""
    mu = Partition(mu)
    n = mu.weight
    total = None
    for lam in partitions_of(n):
        c = c_unitary(lam, tau)
        if not c:
            continue
        chi = character(lam, mu)
        if not chi:
            continue
        term = invert(c) * Fraction(hook_dimension(lam) * chi, factorial(n))
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


@dataclass
class WeingartenTableU:
    """Gram and Weingarten matrices for one (n, tau), plus excluded shapes."""

    n: int
    tau: object
    basis: list[Permutation]
    gram: list[list]
    weingarten: list[list]
    excluded: list[Partition] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "group": "unitary",
            "n": self.n,
            "tau": "symbolic" if is_symbolic(self.tau) else render(Fraction(self.tau)),
            "basis": [p.to_text() for p in self.basis],
            "gram": [[render(x) for x in row] for row in self.gram],
            "weingarten": [[render(x) for x in row] for row in self.weingarten],
            "excluded": [p.to_text() for p in self.excluded],
        }


def weingarten_unitary(n: int, tau) -> WeingartenTableU:
    """Assemble the Gram/Weingarten pair from the class function values."""
    if n < 1:
        raise ValueError(f"weingarten_unitary requires n >= 1, got {n}")
    basis = permutations_of(n)
    values = {mu: wg_function_unitary(mu, tau) for mu in partitions_of(n)}
    inverses = [s.inverse() for s in basis]
    wg = [
        [values[(si * t).cycle_type()] for t in basis]
        for si in inverses
    ]
    return WeingartenTableU(
        n=n,
        tau=tau,
        basis=basis,
        gram=gram_unitary(n, tau),
        weingarten=wg,
        excluded=excluded_shapes(n, tau),
    )


def pseudo_inverse_check(gram, wg) -> PseudoInverseReport:
    """Dense O(N^3) check by exact multiplication, the reference for the tests.

    Production paths use ``exactmat.row_pseudo_inverse_check``, which needs
    only one row.  Failures are reported, never raised.
    """
    gw = mat_mul(gram, wg)
    return PseudoInverseReport(
        gwg_equals_g=mat_eq(mat_mul(gw, gram), gram),
        wgw_equals_w=mat_eq(mat_mul(wg, gw), wg),
        w_symmetric=mat_is_symmetric(wg),
    )
