"""Partitioning of a join's pair work into pool tasks.

The candidate pairs of a join are not equally expensive: the corpus
index emits them ordered by lower bound, which concentrates the
expensive near-pairs at the front, so splitting the list into
contiguous blocks gives one worker all the real work and the rest
early exits.

:func:`plan_strides` therefore deals the positions round-robin ("card
dealing"): chunk ``k`` owns the strided index range ``k :: n_chunks``
of the shared pair array, so every chunk holds a representative sample
of the cheap and the expensive pairs.  A stride is two integers, so
the task payload is constant-size: the pair array itself travels once
through a shared-memory segment.  Where no segment was published (the
inline executor, or ``shared_memory=False``) the task carries its
slice inline.  :func:`plan_tiles` splits the unindexed join's full
``left x right`` grid instead.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np


def plan_strides(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Deal ``n_items`` positions round-robin as ``(start, stride)`` pairs.

    Chunk ``k`` owns positions ``start + m * stride`` -- a strided view
    into the shared array that every worker can reconstruct from two
    integers.  The union over chunks covers each position exactly once.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be at least 1")
    n_chunks = min(n_chunks, max(1, n_items))
    return [(k, n_chunks) for k in range(n_chunks)]


def plan_tiles(
    n_left: int, n_right: int, n_tiles: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Partition a join's ``left x right`` pair grid into ~``n_tiles`` tiles.

    Both collections are split into contiguous index ranges and every
    (left range, right range) combination becomes one tile, so the
    union of tiles covers each pair exactly once.  Splitting *both*
    sides is what keeps degenerate shapes parallel: a single left
    trajectory against a large right collection still yields
    ``n_tiles`` right-side slices (the regression the old
    left-only chunking failed).
    """
    if n_left < 1 or n_right < 1:
        return []
    n_tiles = max(1, min(int(n_tiles), n_left * n_right))
    l_parts = min(n_left, max(1, round(math.sqrt(n_tiles))))
    r_parts = min(n_right, max(1, math.ceil(n_tiles / l_parts)))
    # When one side saturates (fewer items than its share), hand the
    # leftover parallelism to the other side.
    l_parts = min(n_left, max(l_parts, math.ceil(n_tiles / r_parts)))
    return [
        (left_idx, right_idx)
        for left_idx in np.array_split(np.arange(n_left), l_parts)
        for right_idx in np.array_split(np.arange(n_right), r_parts)
        if len(left_idx) and len(right_idx)
    ]
