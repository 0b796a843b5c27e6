"""Trajectory similarity measures and ground distances.

Implements every measure from Table 1 of the paper (ED, DTW, LCSS, EDR,
DFD) plus Hausdorff, together with the ground metrics (haversine /
Euclidean / Chebyshev) and the dense/lazy ground matrix machinery the
motif algorithms are built on.
"""

from .ground import (
    EARTH_RADIUS_M,
    ChebyshevMetric,
    DenseGroundMatrix,
    EuclideanMetric,
    GroundMetric,
    HaversineMetric,
    LazyGroundMatrix,
    PointStack,
    cross_ground_matrix,
    get_metric,
    ground_matrix,
    ground_stack,
    ground_stack_at,
    point_stack,
    register_metric,
)
from .frechet import (
    coupling_upper_bounds,
    dfd_decision,
    dfd_matrix,
    dfd_matrix_by_search,
    dfd_matrix_recursive,
    dfd_pairs,
    dfd_pairs_at,
    discrete_frechet,
    frechet_path,
    ground_stacks,
)
from .continuous_frechet import continuous_frechet, continuous_frechet_decision
from .dtw import dtw, dtw_matrix
from .lcss import lcss, lcss_distance_matrix, lcss_length_matrix, lcss_similarity_matrix
from .edr import edr, edr_matrix, edr_normalized_matrix
from .euclidean import lockstep_distance
from .hausdorff import (
    directed_hausdorff,
    directed_hausdorff_matrix,
    hausdorff,
    hausdorff_matrix,
)

__all__ = [
    "EARTH_RADIUS_M",
    "ChebyshevMetric",
    "DenseGroundMatrix",
    "EuclideanMetric",
    "GroundMetric",
    "HaversineMetric",
    "LazyGroundMatrix",
    "PointStack",
    "continuous_frechet",
    "continuous_frechet_decision",
    "coupling_upper_bounds",
    "cross_ground_matrix",
    "dfd_decision",
    "dfd_matrix",
    "dfd_matrix_by_search",
    "dfd_matrix_recursive",
    "dfd_pairs",
    "dfd_pairs_at",
    "directed_hausdorff",
    "directed_hausdorff_matrix",
    "discrete_frechet",
    "dtw",
    "dtw_matrix",
    "edr",
    "edr_matrix",
    "edr_normalized_matrix",
    "frechet_path",
    "get_metric",
    "ground_matrix",
    "ground_stack",
    "ground_stack_at",
    "ground_stacks",
    "hausdorff",
    "hausdorff_matrix",
    "lcss",
    "lcss_distance_matrix",
    "lcss_length_matrix",
    "lcss_similarity_matrix",
    "lockstep_distance",
    "point_stack",
    "register_metric",
]
