"""Cross-trajectory motifs and similarity joins on a truck fleet.

Two trucks serve overlapping construction sites from nearby depots.
The cross-trajectory variant of the motif problem finds the stretch of
road both trucks drove most similarly; the DFD similarity join then
groups a whole fleet's routes.

Run with::

    python examples/truck_delivery.py
"""

import time

from repro import discover_motif
from repro.datasets import get_dataset
from repro.engine import Corpus, MotifEngine
from repro.extensions import similarity_join
from repro.trajectory import sliding_windows

N = 700
XI = 14

print(f"simulating two trucks, {N} samples each (~30s period)")
truck_a, truck_b = get_dataset("truck", seed=3).generate_pair(N)

start = time.perf_counter()
result = discover_motif(truck_a, truck_b, min_length=XI, algorithm="gtm")
elapsed = time.perf_counter() - start

i, ie, j, je = result.indices
print(f"shared route segment found in {elapsed:.2f}s:")
print(f"  truck A samples {i}..{ie} ~ truck B samples {j}..{je}")
print(f"  discrete Frechet distance: {result.distance:.1f} m")
print(f"  pruning: {result.stats.pruning_ratio:.1%} of "
      f"{result.stats.subsets_total} candidate subsets")
print()

# Fleet-level analysis: a self-join of truck A's route segments.  The
# truck repeats depot-site loops, so distinct segments retrace the same
# roads and match at a tight threshold.
segments = [w for w in sliding_windows(truck_a, length=40, step=20)]
theta = 800.0  # metres

start = time.perf_counter()
matches, stats = similarity_join(segments, segments, theta=theta,
                                 metric="haversine")
elapsed = time.perf_counter() - start
repeats = [(a, b) for a, b in matches if a < b]

print(f"self-join of {len(segments)} route segments of truck A "
      f"at theta={theta:.0f} m ({elapsed:.2f}s):")
print(f"  repeated-route pairs: {len(repeats)}")
print(f"  filter cascade: {stats.pruned_endpoint} endpoint, "
      f"{stats.pruned_bbox} bbox, {stats.pruned_hausdorff} hausdorff "
      f"pruned; {stats.decisions} exact decisions")
for a, b in repeats[:5]:
    print(f"    A[{a * 20}..{a * 20 + 39}] ~ A[{b * 20}..{b * 20 + 39}]")
if len(repeats) > 5:
    print(f"    ... and {len(repeats) - 5} more")

# The same segments through the engine.  An inline list is re-keyed
# (one hash over all its points) on every corpus call; a `Corpus`
# handle is keyed once, so build it once and reuse it.
corpus = Corpus.of(segments)
with MotifEngine(workers=1) as engine:
    engine_matches, _ = engine.join(corpus, corpus, theta,
                                    metric="haversine", index=True)
    near, _ = engine.knn(segments[0], corpus, 3, metric="haversine",
                         index=True)
assert sorted(engine_matches) == sorted(matches)
print(f"engine join over one keyed corpus: {len(engine_matches)} matches "
      f"(same as above); segments nearest A[0..39]: "
      f"{[idx for _, idx in near]}")
