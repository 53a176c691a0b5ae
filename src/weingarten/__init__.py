"""Exact Weingarten calculus for the unitary and orthogonal groups.

Gram and Weingarten matrices are computed in exact arithmetic (rationals, or
rational functions of the dimension parameter) through Jucys-Murphy elements
and symmetric-group characters, every structural identity is verifiable by
direct expansion at desk scale, and predictions can be cross-checked against
Monte-Carlo Haar integration.
"""

from .coeffring import TAU, PoleError, Rational, TauPolynomial, TauRational, parse, render
from .exactmat import (
    PseudoInverseReport,
    WeingartenTable,
    content_product,
    pseudo_inverse_check,
    weingarten_table,
)
from .groupalg import (
    AlgebraElement,
    average_projector,
    hyperoctahedral_elements,
    hyperoctahedral_order,
    jm_element,
    jm_product_orthogonal,
    jm_product_unitary,
    regular_matrix,
)
from .haarmc import (
    GridReport,
    MomentReport,
    MomentSpec,
    estimate_moment,
    grid_crosscheck,
    predict_moment,
    sample_haar,
)
from .orthogonal import (
    adjacent_pairing,
    c_orthogonal,
    coset_representative,
    gram_orthogonal,
    loop_type,
    projector_entry,
    weingarten_orthogonal,
    wg_value_orthogonal,
)
from .symcore import (
    Pairing,
    Partition,
    Permutation,
    StandardTableau,
    double_shape,
    double_tableau,
    enumerate_pairings,
    hook_dimension,
    loop_count,
    partitions_of,
    permutations_of,
    standard_tableaux,
    type_matrix,
)
from .unitary import c_unitary, gram_unitary, weingarten_unitary, wg_function_unitary
from .young import CharacterTable, central_idempotent, character, young_idempotent

__version__ = "0.1.0"
