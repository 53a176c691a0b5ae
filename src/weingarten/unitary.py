"""Unitary-group Weingarten calculus over C[S_n].

The Gram matrix of the Schur-Weyl invariants is tau^(cycles of sigma^-1 rho);
its pseudo-inverse, the Weingarten matrix, is assembled from the class
function

    w(mu) = 1/n! * sum over shapes lam with c_lam != 0 of
            dim(lam) * chi_lam(mu) / c_lam,
    c_lam = product over boxes (i,j) of (tau + j - i),

never by inverting an n! x n! matrix entrywise.  With symbolic tau every
c_lam is a nonzero polynomial; at an integer tau the shapes with c_lam = 0
are excluded, which is exactly the pseudo-inverse prescription.  Both
matrices are built by ``exactmat.weingarten_table``, one value per cycle
type of sigma^-1 rho.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exactmat import ALPHA, WeingartenTable, spectral_sum, weingarten_table
from .symcore import Partition, hook_dimension
from .young import character


def wg_function_unitary(mu: Partition, tau):
    """The Weingarten class function on the cycle type mu."""
    mu = Partition(mu)
    n = mu.weight
    return spectral_sum(n, tau, ALPHA["unitary"],
                        lambda lam: Fraction(hook_dimension(lam) * character(lam, mu), factorial(n)))


def weingarten_unitary(n: int, tau) -> WeingartenTable:
    """Gram and Weingarten matrices of U(tau) on the canonical S_n basis."""
    return weingarten_table("unitary", n, tau, wg_function_unitary)
