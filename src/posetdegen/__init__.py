"""Exact-arithmetic relative poset polytopes, regular subdivisions and
type-A flag degenerations.

`posets`, `lattice`, `degeneration` and `errors` run when the package is
imported.  `jsontext`, `linalg`, `polytopes`, `marked` and `flag` are
registered in `sys.modules` and bound here by importlib's lazy loader: each
runs on the first read of one of its attributes, so a process that never
uses them (an unmarked `subdivide`) never compiles them.  Their public
names below resolve through `__getattr__` (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

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
from .degeneration import (
    canonical_interior_weight,
    cone_position,
    ideal_presentation,
    subdivide,
    zhu_components,
)


def _lazy(name):
    """The submodule `name`, in sys.modules and unrun until an attribute of
    it is read (the recipe of the importlib documentation)."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


jsontext, linalg, polytopes, marked, flag = map(
    _lazy, ("jsontext", "linalg", "polytopes", "marked", "flag"))

_LAZY_NAMES = {
    name: module
    for module, names in (
        ("polytopes", ("build_polytope", "check_normality", "ehrhart_values")),
        ("marked", ("build_mrpp", "fundamental_decomposition", "mcop_build",
                    "mcop_recognize", "mrpp_subdivide", "standardize")),
        ("flag", ("build_flag_poset", "flag_degeneration", "flag_polytope")),
    )
    for name in names
}


def __getattr__(name):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAZY_NAMES[name]], name)


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__all__ = [
    "Poset", "RelativeStructure", "antichain_poset", "build_flag_poset", "build_mrpp",
    "build_polytope", "build_poset", "canonical_interior_weight", "chain_poset",
    "chain_structure", "check_normality", "cone_position", "degeneration", "ehrhart_values",
    "enumerate_ideals", "errors", "flag", "flag_degeneration", "flag_polytope",
    "fundamental_decomposition", "ideal_presentation", "lattice", "linalg", "marked",
    "mcop_build", "mcop_recognize", "mrpp_subdivide", "order_structure", "polytopes",
    "posets", "standardize", "subdivide", "sublattice_to_order",
    "validate_relative_structure", "zhu_components",
]
