"""Exact Weingarten calculus for the unitary and orthogonal groups.

Gram and Weingarten matrices are computed in exact arithmetic (rationals, or
rational functions of the dimension parameter) through Jucys-Murphy elements
and symmetric-group characters, every structural identity is verifiable by
direct expansion at desk scale, and predictions can be cross-checked against
Monte-Carlo Haar integration.

The package root exports only ``__version__``: import every other name from
the module that defines it, e.g. ``weingarten_orthogonal`` from
``weingarten.orthogonal``.  Importing one module loads only what that module
needs.
"""

__version__ = "0.1.0"
