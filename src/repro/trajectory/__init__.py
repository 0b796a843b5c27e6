"""Trajectory data model, transformations and I/O."""

from .trajectory import CRS_LATLON, CRS_PLANE, Subtrajectory, Trajectory
from .ops import (
    add_gaussian_noise,
    concatenate,
    douglas_peucker,
    douglas_peucker_batch,
    drop_samples,
    path_length,
    resample_uniform,
    scale,
    sliding_windows,
    translate,
)
from .io import (
    load_directory,
    read_csv,
    read_json,
    read_plt,
    write_csv,
    write_json,
    write_plt,
)

__all__ = [
    "CRS_LATLON",
    "CRS_PLANE",
    "Subtrajectory",
    "Trajectory",
    "add_gaussian_noise",
    "concatenate",
    "douglas_peucker",
    "douglas_peucker_batch",
    "drop_samples",
    "load_directory",
    "path_length",
    "read_csv",
    "read_json",
    "read_plt",
    "resample_uniform",
    "scale",
    "sliding_windows",
    "translate",
    "write_csv",
    "write_json",
    "write_plt",
]
