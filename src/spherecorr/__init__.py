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
    SearchBudget,
    estimate_distortion,
    refine_pair,
)
from .geometry import UnitVector
from .odd_corr import (
    CircleInterval,
    OddCircleCorrespondence,
    case_reduction_pairs,
    cyclic_shift,
    max_distortion_witness,
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
    arc_augmented_set,
    cross_polytope_set,
    cross_polytope_vdiam_exact,
    evenly_spaced_circle_set,
    hausdorff_to_sphere_estimate,
    separation,
    voronoi_diameter_estimate,
)
from .rng import RngStream
from .voronoi_corr import (
    VoronoiCorrespondence,
    rpq_bound,
)

__version__ = "0.1.0"
