"""Finite capacity algebras over bounded chains.

Capacities on finite spaces valued in the chain {0, 1/k, ..., 1} form a
monad; its algebras are described by convex-combination structures (for
the possibility/union fragment), their order duals (for the
necessity/intersection fragment), and biconvex structures carrying both
actions at once (for the full monad).  This package provides the monad
operations, the structure enumerations, the algebra/structure
translations in both directions, semimodule quotients, product-of-chains
embedding search, JSON serialization, and law-check suites exposed both
as a library and through the ``capalg`` command line tool.
"""

import types

from .chain import Chain, Level, complement, join, make_chain, meet
from .errors import (
    BudgetExceededError,
    CapalgError,
    CarrierMismatchError,
    ChainMismatchError,
    InvalidResolutionError,
    LawViolationError,
    ValidationError,
)
from .spaces import (
    FiniteSpace,
    InclusionHyperspace,
    PointMap,
    enumerate_hyperspaces,
    g_map,
    g_mult,
    g_unit,
    hyperspace_space,
)
from .capacity import (
    Capacity,
    NecessityCapacity,
    PossibilityCapacity,
    as_capacity,
    as_necessity,
    as_possibility,
    capacity_equal,
    capacity_space,
    classify,
    embed_inclusion_hyperspace,
    enumerate_capacities,
    kappa_dual,
    mult,
    necessity_space,
    possibility_space,
    pushforward,
    unit_dirac,
    validate,
)
from .convexity import (
    ConvexStructure,
    DualConvexStructure,
    Semimodule,
    UnionStructureMap,
    check_algebra_laws,
    check_ci_axioms,
    check_ic_axioms,
    check_semimodule_axioms,
    dual_structure_map,
    enumerate_convex_structures,
    enumerate_union_algebras,
    ic_from_structure_map,
    is_affine,
    nary_combination,
    quotient_semimodule,
    structure_map_from_ic,
)
from .biconvex import (
    BiconvexStructure,
    CapacityStructureMap,
    CubeStructure,
    TripleStructure,
    biconvex_from_triple,
    chain_model,
    check_biconvex,
    check_triple,
    cube_structure,
    diamond_structure,
    embedding_search,
    enumerate_biconvex_structures,
    enumerate_lawful_triples,
    is_biaffine,
    quadruple_from_algebra,
    structure_map_full,
    structure_map_full_dual,
    sugeno_form,
    triple_from_biconvex,
)
from .serial import dumps_canonical, structure_from_json, structure_to_json

__version__ = "0.1.0"

# the public surface: every name imported above, so it is listed once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
