"""Exact-arithmetic relative poset polytopes, regular subdivisions and
type-A flag degenerations."""

from .posets import (
    Poset,
    RelativeStructure,
    antichain_poset,
    build_poset,
    chain_poset,
    chain_structure,
    order_structure,
    validate_relative_structure,
)
from .lattice import enumerate_ideals, sublattice_to_order
from .polytopes import build_polytope, check_normality, ehrhart_values
from .degeneration import (
    canonical_interior_weight,
    cone_position,
    ideal_presentation,
    subdivide,
    zhu_components,
)
from .marked import (
    build_mrpp,
    fundamental_decomposition,
    mcop_build,
    mcop_recognize,
    mrpp_subdivide,
    standardize,
)
from .flag import build_flag_poset, flag_degeneration, flag_polytope

__all__ = [name for name in dir() if not name.startswith("_")]
