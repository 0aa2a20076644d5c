"""Correspondences between unit spheres and their distortion.

The package builds explicit relations between S^n and S^k (cell-collapse
relations from antipodal point sets, and the ordered-cell relation between an
odd-dimensional sphere and the circle), evaluates the matching closed-form
distortion bounds, estimates achieved distortion by stratified stochastic
search, and optimizes projective packings for the packing-based bounds.
"""

from .distortion import (
    Correspondence,
    DistortionReport,
    IdentityCorrespondence,
    RelationElement,
    SearchBudget,
    estimate_distortion,
    refine_pair,
)
from .geometry import (
    CircleAngle,
    UnitVector,
    chord_length,
    circle_distance,
    geodesic_distance,
    projective_distance,
    sample_uniform,
)
from .odd_corr import (
    CircleInterval,
    OddCircleCorrespondence,
    OrderedCellId,
    case_reduction_pairs,
    cell_angle,
    circle_correspondents,
    cyclic_shift,
    max_distortion_witness,
    ordered_cells_of,
)
from .packing import (
    PackingBudget,
    PackingResult,
    PackingStore,
    asymptotic_table,
    best_bound,
    covering_radius_estimate,
    euclidean_bound,
    optimize_packing,
    packing_bound,
)
from .pointsets import (
    AntipodalSet,
    CellIndex,
    arc_augmented_set,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    evenly_spaced_circle_set,
    hausdorff_to_sphere_estimate,
    separation,
    voronoi_cells_of,
    voronoi_diameter_estimate,
)
from .rng import RngStream
from .voronoi_corr import (
    VoronoiCorrespondence,
    rpq_bound,
    rpq_correspondents,
)

__version__ = "0.1.0"
