"""Search instrumentation shared by every motif algorithm.

The paper's pruning-effectiveness experiments (Figures 13-15) report how
many candidate subsets each bound class eliminated and how many required
an exact DFD computation.  :class:`SearchStats` collects those counters
plus timing and an analytic space model so the benchmark harness can
regenerate the figures without re-instrumenting each algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class SearchStats:
    """Counters, timings and space accounting for one motif search."""

    algorithm: str = ""
    mode: str = ""
    n_rows: int = 0
    n_cols: int = 0
    xi: int = 0

    #: Total number of candidate subsets CS_{i,j} in the search space.
    subsets_total: int = 0
    #: Subsets eliminated by each bound class (paper Figure 15 breakdown).
    pruned_by_cell: int = 0
    pruned_by_cross: int = 0
    pruned_by_band: int = 0
    #: Subsets that needed the exact shared-DFD dynamic program.
    subsets_expanded: int = 0
    #: Interior DP cells actually expanded across all subsets.
    cells_expanded: int = 0
    #: DP cells skipped via the end-cross bound (Eq. 9 pruning).
    cells_killed: int = 0
    #: Candidate pairs whose exact DFD value was inspected.
    candidates_checked: int = 0
    #: Times the best-so-far improved.
    bsf_updates: int = 0

    #: How many times a ground oracle was *built* from trajectory points
    #: for this search (0 when it came from a cache or shared memory).
    ground_builds: int = 0
    #: Where the ground oracle came from: "dense" / "lazy" (built from
    #: points), "shared_memory" (attached to a parent-published dG
    #: segment), or "" when the search ran on a caller-supplied oracle.
    oracle_source: str = ""

    #: Group-level counters (GTM / GTM*): per-level survivor counts.
    group_levels: Dict[int, int] = field(default_factory=dict)
    group_pairs_considered: int = 0
    group_pairs_pruned_pattern: int = 0
    group_pairs_pruned_glb: int = 0
    gub_tightenings: int = 0

    #: Wall-clock seconds per phase.
    time_total: float = 0.0
    time_precompute: float = 0.0
    time_bounds: float = 0.0
    time_sort: float = 0.0
    time_dp: float = 0.0
    time_grouping: float = 0.0

    #: Analytic peak-space model in bytes (dominant allocations).
    space_bytes: int = 0

    # ------------------------------------------------------------------
    @property
    def subsets_pruned(self) -> int:
        """Subsets eliminated without an exact DFD computation."""
        return self.pruned_by_cell + self.pruned_by_cross + self.pruned_by_band

    @property
    def pruning_ratio(self) -> float:
        """Fraction of subsets pruned (the y-axis of Figures 13a/14a)."""
        if self.subsets_total == 0:
            return 0.0
        return self.subsets_pruned / self.subsets_total

    def breakdown(self) -> Dict[str, float]:
        """Fractions per Figure 15: cell / cross / band / exact DFD."""
        total = max(self.subsets_total, 1)
        return {
            "LBcell": self.pruned_by_cell / total,
            "LBcross": self.pruned_by_cross / total,
            "LBband": self.pruned_by_band / total,
            "DFD": self.subsets_expanded / total,
        }

    def space_mb(self) -> float:
        """Analytic peak space in megabytes (Figure 19's y-axis)."""
        return self.space_bytes / (1024.0 * 1024.0)

    def merge_group_stats(self, other: "SearchStats") -> None:
        """Fold a sub-search's counters into this one (GTM phase 2)."""
        self.subsets_total += other.subsets_total
        self.pruned_by_cell += other.pruned_by_cell
        self.pruned_by_cross += other.pruned_by_cross
        self.pruned_by_band += other.pruned_by_band
        self.subsets_expanded += other.subsets_expanded
        self.cells_expanded += other.cells_expanded
        self.cells_killed += other.cells_killed
        self.candidates_checked += other.candidates_checked
        self.bsf_updates += other.bsf_updates
        self.time_bounds += other.time_bounds
        self.time_sort += other.time_sort
        self.time_dp += other.time_dp
        self.space_bytes = max(self.space_bytes, other.space_bytes)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"[{self.algorithm}] n={self.n_rows}x{self.n_cols} xi={self.xi} "
            f"subsets={self.subsets_total} pruned={self.pruning_ratio:.1%} "
            f"dfd={self.subsets_expanded} cells={self.cells_expanded} "
            f"time={self.time_total:.3f}s space={self.space_mb():.1f}MB"
        )


class PhaseTimer:
    """Context helper accumulating elapsed seconds onto a stats field."""

    def __init__(self, stats: SearchStats, attr: str) -> None:
        self._stats = stats
        self._attr = attr
        self._start: Optional[float] = None

    def __enter__(self) -> "PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - (self._start or time.perf_counter())
        setattr(self._stats, self._attr, getattr(self._stats, self._attr) + elapsed)
