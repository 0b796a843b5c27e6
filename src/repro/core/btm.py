"""BTM -- bounding-based trajectory motif discovery (paper Algorithm 2).

The search has three phases:

1. precompute the relaxed bound tables (``Rmin`` / ``Cmin`` and the
   band windows) in O(n^2) total -- amortised O(1) per subset;
2. assemble a per-subset combined lower bound and sort all candidate
   subsets ascending (best-first order);
3. expand subsets in that order, maintaining the best-so-far ``bsf``;
   stop at the first subset whose bound proves it (and every later
   subset) cannot beat ``bsf``.

The module also exposes :func:`run_best_first`, the sorted-processing
loop reused by GTM and GTM* for their final point-level phase.  It
expands the admitted subsets in one sweep frontier
(:class:`repro.core.dp.SweepFrontier`) and replays the serial loop over
their results, so the answer and the subset counters are those of
expanding one subset at a time.

Witness rule
------------
GTM may tighten ``bsf`` with a group *upper* bound before any concrete
candidate pair is known.  An unwitnessed ``bsf`` must not prune subsets
whose bound *equals* it (the optimal pair could be exactly there), so
the processing loop breaks on ``lb > bsf`` when unwitnessed and on
``lb >= bsf`` once a concrete pair is held.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Tuple

import numpy as np

from .bounds import (
    BoundTables,
    SubsetBounds,
    attribute_pruning,
    relaxed_subset_bounds,
    tight_subset_bounds,
)
from .brute import MotifTimeout
from .dp import Best, SweepFrontier
from .problem import SearchSpace
from .stats import PhaseTimer, SearchStats

_VARIANTS = ("relaxed", "tight")


def run_best_first(
    oracle,
    space: SearchSpace,
    bounds: SubsetBounds,
    tables: Optional[BoundTables],
    stats: SearchStats,
    bsf: float = math.inf,
    best: Best = None,
    use_kills: bool = True,
    approx_factor: float = 1.0,
    timeout: Optional[float] = None,
    started_at: Optional[float] = None,
    use_cell: bool = True,
    use_cross: bool = True,
    use_band: bool = True,
) -> Tuple[float, Best]:
    """Process candidate subsets in ascending bound order (Alg. 2 L5-13).

    ``bsf`` / ``best`` may carry over from a grouping phase; ``best`` of
    ``None`` with a finite ``bsf`` marks an unwitnessed bound (see
    module docstring).  ``approx_factor >= 1`` enables the
    (1+eps)-approximate early stop of the extensions module.

    The loop consumes the ascending order lazily via
    :meth:`SubsetBounds.order_blocks`, so with strong pruning the sort
    cost scales with the subsets actually expanded; the expansion order
    equals a single up-front stable argsort of the bounds.

    Expansion runs in one frontier for the whole loop
    (:class:`repro.core.dp.SweepFrontier`, chained): when the loop
    reaches a subset that has not finished, the frontier runs
    anti-diagonal rounds until it has, admitting the subsets the current
    cut admits under the current threshold as earlier rows leave.  The
    loop keeps replaying the serial rules -- break test, the nudged
    threshold, acceptance of a result only below it -- over the
    per-subset results.  Each accepted result is the one
    the per-subset kernel reports under the same threshold, so the
    answer, ``subsets_expanded`` and the pruning attribution are
    unchanged; ``cells_*``, ``candidates_checked`` and ``bsf_updates``
    count the frontier's work, including subsets it swept that the
    loop did not consume.  The deadline is also checked after every
    round.
    """
    if approx_factor < 1.0:
        raise ValueError("approx_factor must be >= 1")
    start_time = time.perf_counter() if started_at is None else started_at
    deadline = None if timeout is None else start_time + timeout
    cmin = tables.cmin if (tables is not None and use_kills) else None
    rmin = tables.rmin if (tables is not None and use_kills) else None
    block_iter = bounds.order_blocks()
    consumed = []
    witnessed = best is not None
    frontier = SweepFrontier(oracle, space, bounds, cmin, rmin, stats,
                             chained=True)
    tick = None
    if deadline is not None:
        def tick() -> None:
            if time.perf_counter() > deadline:
                raise MotifTimeout(f"search exceeded {timeout:.1f}s")
    dp_started = time.perf_counter()
    count = 0
    exhausted = False
    # An unwitnessed bsf (a group upper bound) may *equal* the true
    # motif distance; nudge the threshold so an equally-good candidate
    # is still recorded as the witness pair.
    threshold = bsf if witnessed else np.nextafter(bsf, np.inf)
    block = None
    while not exhausted:
        sort_started = time.perf_counter()
        try:
            # Each later request carries the current bsf: a lazily
            # opened source (GTM*) opens nothing above it.
            block = block_iter.send(None if block is None else bsf)
        except StopIteration:
            block = None
        stats.time_sort += time.perf_counter() - sort_started
        if block is None:
            break
        lbs = bounds.combined[block] * approx_factor
        lb_list = lbs.tolist()
        for pos in range(block.shape[0]):
            lb = lb_list[pos]
            if lb > bsf or (witnessed and lb >= bsf):
                exhausted = True
                break
            if not frontier.ready(block, pos):
                # Everything the current cut admits may join the
                # frontier; an infinite threshold is made finite by one
                # subset.
                if threshold == math.inf:
                    stop = pos + 1
                else:
                    side = "left" if witnessed else "right"
                    stop = int(np.searchsorted(lbs, bsf, side=side))
                frontier.advance(block, pos, stop, threshold, lbs, tick)
            dist, cand = frontier.result(pos)
            if dist < threshold:
                witnessed = True
                bsf, best = dist, cand
                threshold = bsf
            if tick is not None and count % 64 == 0:
                tick()
            count += 1
        else:
            pos = block.shape[0]
        consumed.append(block[:pos])
    stats.time_dp += time.perf_counter() - dp_started
    # Lazily opened bounds (GTM*) have grown while the loop ran.
    expanded = np.zeros(len(bounds), dtype=bool)
    for done in consumed:
        expanded[done] = True
    stats.subsets_total += len(bounds)
    stats.subsets_expanded += count
    by_cell, by_cross, by_band = attribute_pruning(
        bounds, expanded, bsf / approx_factor,
        use_cell=use_cell, use_cross=use_cross, use_band=use_band,
    )
    stats.pruned_by_cell += by_cell
    stats.pruned_by_cross += by_cross
    stats.pruned_by_band += by_band
    return bsf, best


class BTM:
    """Bounding-based trajectory motif discovery (Algorithm 2).

    Parameters
    ----------
    variant:
        ``"relaxed"`` (default) uses the O(1) amortised bounds of
        Section 4.3; ``"tight"`` pays the per-subset O(n) / O(xi n)
        bounds of Section 4.2 (the Figure 13/14 comparison).
    use_cell / use_cross / use_band:
        Bound-class ablation switches (Figures 15-16).
    use_end_kill:
        Enables the in-subset end-cell pruning (Eq. 9, safe min-form).
    approx_factor:
        ``>= 1``; values above 1 give the (1+eps)-approximate variant.
    timeout:
        Optional wall-clock budget in seconds.
    """

    name = "btm"

    def __init__(
        self,
        variant: str = "relaxed",
        use_cell: bool = True,
        use_cross: bool = True,
        use_band: bool = True,
        use_end_kill: bool = True,
        approx_factor: float = 1.0,
        timeout: Optional[float] = None,
    ) -> None:
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if approx_factor < 1.0:
            raise ValueError("approx_factor must be >= 1")
        self.variant = variant
        self.use_cell = use_cell
        self.use_cross = use_cross
        self.use_band = use_band
        self.use_end_kill = use_end_kill
        self.approx_factor = approx_factor
        self.timeout = timeout

    def search(
        self,
        oracle,
        space: SearchSpace,
        stats: Optional[SearchStats] = None,
        bsf0: float = math.inf,
        best0: Best = None,
    ) -> Tuple[float, Best]:
        """Return ``(distance, (i, ie, j, je))`` of the motif.

        ``bsf0`` / ``best0`` seed the best-first loop with an external
        threshold: a witnessed pair (streaming warm starts) or an
        unwitnessed bound (e.g. a GTM group upper bound).  A
        correct unwitnessed seed never changes the answer -- only the
        amount of work (see the witness rule in the module docstring).
        """
        stats = stats if stats is not None else SearchStats()
        stats.algorithm = f"{self.name}[{self.variant}]"
        started_at = time.perf_counter()
        with PhaseTimer(stats, "time_bounds"):
            tables = BoundTables.build(space, oracle)
            if self.variant == "tight":
                if not hasattr(oracle, "array"):
                    raise ValueError("tight bounds require a dense ground matrix")
                bounds = tight_subset_bounds(
                    space, oracle.array,
                    use_cell=self.use_cell, use_cross=self.use_cross,
                    use_band=self.use_band,
                )
            else:
                bounds = relaxed_subset_bounds(
                    space, oracle, tables,
                    use_cell=self.use_cell, use_cross=self.use_cross,
                    use_band=self.use_band,
                )
        bsf, best = run_best_first(
            oracle, space, bounds, tables, stats,
            bsf=float(bsf0), best=best0,
            use_kills=self.use_end_kill,
            approx_factor=self.approx_factor,
            timeout=self.timeout,
            started_at=started_at,
            use_cell=self.use_cell,
            use_cross=self.use_cross,
            use_band=self.use_band,
        )
        rows, cols = oracle.shape
        dense = hasattr(oracle, "array")
        stats.space_bytes = max(
            stats.space_bytes,
            (8 * rows * cols if dense else 0)  # dG
            + 8 * 4 * cols                     # bound tables
            + 8 * 6 * len(bounds),             # subset bound arrays
        )
        return bsf, best
