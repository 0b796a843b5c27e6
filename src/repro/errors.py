"""Exception hierarchy for the :mod:`repro` package.

Keeping a small, explicit hierarchy lets callers distinguish user errors
(bad trajectories, infeasible queries) from internal invariant violations
without matching on message strings.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class TrajectoryError(ReproError, ValueError):
    """Raised when trajectory data is malformed.

    Examples: non-finite coordinates, timestamps that are not strictly
    ascending, or a point array with the wrong dimensionality.
    """


class InfeasibleQueryError(ReproError, ValueError):
    """Raised when a motif query cannot have any valid answer.

    The single-trajectory motif problem requires two non-overlapping
    subtrajectories, each spanning more than ``min_length`` steps, so a
    trajectory must contain at least ``2 * min_length + 4`` points.  The
    cross-trajectory variant needs ``min_length + 2`` points per input.
    """


class DatasetError(ReproError, ValueError):
    """Raised for unknown dataset names or invalid generator parameters."""


class QueryParameterError(ReproError, ValueError):
    """Raised when a corpus-query parameter is outside its domain.

    A join ``theta`` or range ``radius`` that is NaN, infinite or
    negative, or a ``k`` that is not a positive integer.  Checked by
    :func:`check_threshold` and :func:`check_k` in every corpus verb --
    serial, engine and service alike; a ``ValueError`` too, so callers
    that caught the bare ``ValueError`` these checks used to raise keep
    working.
    """


def check_threshold(name: str, value) -> float:
    """A join ``theta`` / range ``radius``: finite and non-negative."""
    try:
        valid = math.isfinite(value) and value >= 0
    except TypeError:
        valid = False
    if not valid:
        raise QueryParameterError(
            f"{name} must be a finite non-negative number, got {value!r}"
        )
    return float(value)


def check_k(k) -> int:
    """A knn / closest-pair ``k``: a positive integer, not a ``bool``."""
    # ``dtype == bool`` catches numpy's bool scalars without importing
    # numpy here.
    try:
        valid = (
            not isinstance(k, bool) and getattr(k, "dtype", None) != bool
            and int(k) == k and k >= 1
        )
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise QueryParameterError(f"k must be a positive integer, got {k!r}")
    return int(k)


def check_query_shape(shape) -> None:
    """A range / knn query: a non-empty ``(n, d)`` array of points.

    One error on every path -- the index with the tree on or off, the
    engine and the service, which answers it as a bad request in the
    same words -- so an empty query is never reported as a fault of
    the corpus.
    """
    if len(shape) != 2 or shape[0] < 1:
        raise TrajectoryError("query must be a non-empty (n, d) array of points")


class WorkerCrashError(ReproError, RuntimeError):
    """Raised when pool workers keep dying and re-dispatch gives up.

    The executor's crash-safe dispatcher rebuilds a broken pool and
    re-runs only the unfinished tasks; after ``max_dispatch_attempts``
    consecutive pool losses it raises this instead of retrying forever.
    Deliberately *not* an :class:`OSError`: the fork/pipe-failure
    fallback (which silently degrades to inline execution) must not
    swallow a systematically crashing workload.
    """

