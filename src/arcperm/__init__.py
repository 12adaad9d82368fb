"""Exact combinatorics of arc permutations in the symmetric and
hyperoctahedral groups: statistics, pattern characterizations, canonical
factorizations, and verified closed-form enumerators."""

import types as _types

from .arcsets import (
    CircleOn,
    Family,
    generate_arc,
    generate_b_arc,
    generate_hyperoctahedral,
    generate_left_unimodal,
    generate_signed_arc,
    generate_symmetric,
    is_arc,
    is_b_arc,
    is_interval_on,
    is_interval_zn,
    is_left_unimodal,
    is_signed_arc,
)
from .canonical import (
    ExponentVectorA,
    ExponentVectorB,
    cycle_A,
    cycle_B,
    decompose_A,
    decompose_B,
    fmaj_from_exponents,
    is_arc_by_exponents,
    is_b_arc_by_exponents,
    maj_from_exponents,
    recompose_A,
    recompose_B,
)
from .patterns import (
    Occurrence,
    arc_forbidden,
    avoids_all,
    b_arc_forbidden,
    contains,
    find_occurrence,
    signed_arc_forbidden,
    triple_orientation,
)
from .perms import (
    Character,
    Permutation,
    SignedPermutation,
    StatProfile,
    b_order_key,
)
from .poly import (
    ExactDivisionError,
    SparsePolynomial,
    const,
    exact_div,
    poly_product,
    q_bracket,
    var,
)
from .walk import WeightSpec, enumerator

__version__ = "0.1.0"

# every public name imported above, so the list cannot drift from the imports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
