"""Batched, cached, parallel motif discovery (the engine layer).

:class:`MotifEngine` is the production facade over the serial paper
algorithms in :mod:`repro.core`: it caches ground oracles and results
by content fingerprint, runs each single motif query through the serial
algorithm, fans corpus batches out one query per worker, and shards
similarity joins over candidate-pair tiles (optionally pruned by a
:class:`repro.index.CorpusIndex`) when their cells pay for the pool --
with warm dense ground matrices and corpus transport arrays riding
named shared-memory segments (:mod:`repro.engine.shm`) instead of the
pool pipe, and answers byte-identical to the serial algorithms (see
``tests/test_engine.py`` and ``tests/test_parity_randomized.py``).

The engine itself is layered (PR 4): :mod:`repro.engine.planner` is
the pure query-planning layer (keys, the pool cost rule, partition
layout), :mod:`repro.engine.oracles` the cache layer
(:class:`OracleManager`), :mod:`repro.engine.executor` the execution
backend (:class:`EngineExecutor`: pools, dispatch, shm publication,
transfer accounting) and :mod:`repro.engine.corpus` the
collection-level workload orchestration; :mod:`repro.engine.engine`
is a thin facade over the four.
"""

from .cache import LRUCache, fingerprint_array, fingerprint_points
from .corpus import Corpus
from .engine import MatrixMotifResult, MotifEngine, default_engine
from .executor import EngineExecutor, fork_context
from .oracles import OracleManager
from .partition import plan_strides, plan_tiles
from .shm import SharedArrayRef, SharedArrayStore, shared_memory_available

__all__ = [
    "Corpus",
    "EngineExecutor",
    "LRUCache",
    "MatrixMotifResult",
    "MotifEngine",
    "OracleManager",
    "SharedArrayRef",
    "SharedArrayStore",
    "default_engine",
    "fingerprint_array",
    "fingerprint_points",
    "fork_context",
    "plan_strides",
    "plan_tiles",
    "shared_memory_available",
]
