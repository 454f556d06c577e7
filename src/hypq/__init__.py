"""Splitting analysis of the hyperbolic tessellations {p,q}.

The package builds the splitting rules of a regular tessellation of
the hyperbolic plane, derives the splitting matrix and its polynomial,
decides whether the induced numeration language is regular (a Pisot
condition on the dominant root), grows the spanning tree, computes
maximal digit representations, realizes the sectors in the Poincare
disc, numbers the vertices of the pentagrid, and renders figures.
"""

from .disc import (
    Geodesic,
    Isometry,
    Tile,
    base_tile,
    geodesic_through,
    hyp_distance,
    tile_metrics,
)
from .dual import (
    BijectionReport,
    check_bijection,
    fibonacci_tree,
    pentagrid_sector,
)
from .errors import HypqError
from .lines import h_midpoint_line, zigzag_line
from .numeration import (
    BasisSequence,
    Representation,
    basis,
    decode,
    represent_greedy,
    represent_maximal,
)
from .schlafli import (
    Region,
    SchlafliPair,
    Scheme,
    SplittingSystem,
    build_system,
    characteristic_polynomial,
    splitting_matrix,
    validate,
)
from .sectors import SectorBoundary, cover, cover_closure_residual, sector
from .spectral import SpectralReport, analyze, find_roots, is_pisot, strip_factors
from .tiling import Tessellation, tessellate
from .tree import SpanningTree, generate, recurrence_check

__version__ = "0.1.0"

__all__ = [
    "BasisSequence",
    "BijectionReport",
    "Geodesic",
    "HypqError",
    "Isometry",
    "Region",
    "Representation",
    "SchlafliPair",
    "Scheme",
    "SectorBoundary",
    "SpanningTree",
    "SpectralReport",
    "SplittingSystem",
    "Tessellation",
    "Tile",
    "analyze",
    "base_tile",
    "basis",
    "build_system",
    "characteristic_polynomial",
    "check_bijection",
    "cover",
    "cover_closure_residual",
    "decode",
    "fibonacci_tree",
    "find_roots",
    "generate",
    "geodesic_through",
    "h_midpoint_line",
    "hyp_distance",
    "is_pisot",
    "pentagrid_sector",
    "recurrence_check",
    "represent_greedy",
    "represent_maximal",
    "sector",
    "splitting_matrix",
    "strip_factors",
    "tessellate",
    "tile_metrics",
    "validate",
    "zigzag_line",
]
