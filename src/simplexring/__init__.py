"""Exact arithmetic of scaled simplex numbers.

The package models integers as scaled triangles, tetrahedra and their
higher-dimensional orthogonal analogues.  Everything is exact: coordinates
are integers or `fractions.Fraction`, there are no floats anywhere in the
algebra, and renders are deterministic byte-for-byte.

Main entry points:

* `ring` - the element types and the embeddings of the integers.
* `forms` - formal sums of scaled simplices and the closed addition laws.
* `witnesses` - the composite-number witness equations and the
  witness/factor constructions in both directions.
* `eulerian` - Eulerian numbers, power identities and slice bases.
* `triples` - triangle triples and the small hypercomplex system.
* `chains` - lattice chains, placement plans and the tiling search.
* `render` - SVG output for chains and plans.
* `expr` / `cli` - the bracket expression language and the command line.

Submodules load on first use: `import simplexring` imports none of them,
and the first access to an exported name imports the one submodule that
defines it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "chains": (
        "Chain",
        "PlacedPiece",
        "PlacementPlan",
        "SearchSpaceError",
        "TilePiece",
        "closed_triangle_plan",
        "difference_plan",
        "hexagon_plan",
        "parallelogram_plan",
        "partition_plan",
        "realize",
        "segment_sum_plan",
        "tetrahedron_slabs",
        "tiling_search",
        "triangle_window",
    ),
    "eulerian": (
        "embed_nd",
        "eulerian",
        "eulerian_row",
        "orthogonal_basis_matrix",
        "slice_decomposition",
        "slice_volumes",
        "worpitzky",
    ),
    "expr": ("ExpressionError", "evaluate_expression", "parse", "unparse"),
    "forms": (
        "FormalCombination",
        "StarDomainError",
        "arithmetic_form",
        "closed_sum",
        "closed_sum_shifted",
        "combination",
        "evaluate",
        "evaluate_orth",
        "pairwise_sum",
        "segment_form",
        "star_product",
        "three_term_form",
    ),
    "render": ("RenderOptions", "chain_svg", "plan_svg", "to_svg"),
    "ring": (
        "GeomElement",
        "GeomElement2",
        "GeomElement3",
        "OrthElement",
        "RepresentationError",
        "SimplexLiteral",
        "embed2",
        "embed3",
        "embed_literal",
        "from_orth",
        "series_partial_sum",
        "to_orth",
    ),
    "triples": ("QSqrt3", "TElement", "Triple", "epsilon_pair", "triple_mul", "triple_to_ring"),
    "witnesses": (
        "Witness",
        "WitnessError",
        "composite_witness",
        "factor_report",
        "factors_from_witness",
        "witness_from_factors",
    ),
}
# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


class _Package(ModuleType):
    """Keeps `simplexring.eulerian` the function once the submodule loads.

    The import system binds each submodule it loads on its package.  The
    submodule `eulerian` shares its name with an exported function, and the
    package attribute must stay the function whatever has been imported.
    """

    def __setattr__(self, name, value):
        if name in _SOURCE and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
