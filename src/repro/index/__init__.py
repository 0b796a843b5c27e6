"""Corpus proximity indexing for DFD workloads (:class:`CorpusIndex`).

Per-trajectory summaries -- bounding boxes, endpoints and
Douglas-Peucker simplifications with exact discrete-Frechet error radii
-- give admissible DFD lower bounds, and a hierarchical tree over them
(:class:`TrajectoryTree`) lets similarity joins, top-k closest-pair
joins, window clustering and range / knn queries enumerate only the
pairs the index cannot prove apart.  The
engine publishes the index's transport arrays once through shared
memory so pool tasks carry refs instead of pickled trajectories (see
:meth:`repro.engine.MotifEngine.join` and DESIGN.md section 8).
"""

from .index import (
    CorpusIndex,
    IndexStats,
    slab_points,
    slab_trajectory,
)
from .tree import (
    DEFAULT_FANOUT,
    TREE_ARRAY_FIELDS,
    QuerySummary,
    TrajectoryTree,
    TreePairCursor,
)

__all__ = [
    "CorpusIndex",
    "IndexStats",
    "slab_points",
    "slab_trajectory",
    "DEFAULT_FANOUT",
    "TREE_ARRAY_FIELDS",
    "QuerySummary",
    "TrajectoryTree",
    "TreePairCursor",
]
