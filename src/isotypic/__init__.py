"""Exact rational idempotents of finite group algebras and the symbolic
isotypical decomposition of Jacobians with group action.

The pipeline: build a group (presentation, permutations or Cayley table),
compute its exact character table, bundle complex irreducibles into rational
irreducibles along Galois orbits, construct the central / subgroup-invariant
/ primitive idempotents of the group algebra over Q, K and a declared field
L, and decompose Jacobians, intermediate Jacobians and Prym varieties at the
multiplicity level, classifying every isotypical factor.
"""

from .cyclotomic import CycValue, cyclotomic_polynomial, unit_group
from .decomposition import (
    ComplementWitness,
    DecompositionReport,
    Factor,
    IntersectionWitness,
    JacobianDecomposer,
    PrymWitness,
    RealizabilityVerdict,
)
from .errors import BoundExceededError, InvariantError, IsotypicError, ValidationError
from .characters import (
    Character,
    CharacterTable,
    RationalIrrep,
    RhoDecomposition,
    SchurStatus,
    assert_schur,
    compute_character_table,
    fixed_dim,
    galois_orbits,
    inner_product,
    orbit_index,
    rational_character,
    rho_decomposition,
    schur_divisor_bound,
)
from .groupalgebra import (
    AlgebraElement,
    CyclotomicDomain,
    FieldDomain,
    IdempotentSystem,
    MatrixRep,
    RATIONALS,
    averaging_idempotent,
    central_idempotent,
    central_idempotent_over_field,
    construct_primitive_system,
    diagonal_idempotent,
    diagonal_idempotents,
    ideal_dim,
    invariant_idempotent,
    orbit_module_check,
    rational_central_idempotent,
    symmetrize_to_rational,
    symmetrize_to_subfield,
    system_grid_checks,
    validate_schur_from_rep,
)
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    Subgroup,
    from_cayley_table,
    from_permutations,
    from_presentation,
)
from .numberfield import (
    CycEmbedding,
    NumField,
    NumFieldValue,
    RATIONAL_FIELD,
    is_irreducible,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
