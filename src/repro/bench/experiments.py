"""One function per paper table/figure, each returning a result Table.

The functions regenerate the *series* of the paper's evaluation
(Section 6) on the simulated datasets.  Absolute numbers differ from
the paper (CPython vs C++, synthetic vs proprietary data, scaled n);
the shapes under comparison are documented per experiment in
EXPERIMENTS.md.
"""

from __future__ import annotations


from typing import Iterable, Optional, Sequence

import numpy as np

from ..core import discover_motif
from ..distances import (
    discrete_frechet,
    dtw,
    edr,
    lcss,
    lockstep_distance,
)
from ..symbolic import symbolize
from ..trajectory import Trajectory, translate
from .harness import (
    DEFAULT_TIMEOUT,
    SCALES,
    default_tau,
    default_xi,
    run_motif,
    timed,
    timed_best,
    trajectory_for,
)
from .reporting import Table

#: The paper's three datasets, as simulated here.
DATASETS = ("geolife", "truck", "baboon")


def _ns(scale: str) -> Sequence[int]:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; known: {sorted(SCALES)}") from None


# ----------------------------------------------------------------------
# Table 1 and the motivation figures
# ----------------------------------------------------------------------
def sampling_testbed(n: int = 200, seed: int = 0):
    """The Figure 3 construction: ``(S_a, S_b, S_c, S_d)`` planar curves.

    * ``S_a`` -- a smooth reference curve, uniformly sampled at 1 Hz;
    * ``S_b`` -- a genuinely different route: ``S_a`` translated by
      ``offset = 20`` (plus jitter clipped to ``offset/6``), so every
      sane measure should rank it *farther* than a resampled twin;
    * ``S_c`` -- the same route as ``S_a``, **non-uniformly sampled**:
      each point is emitted 4-12 times with jitter clipped to
      ``offset/3``.  Per-sample-summing measures (DTW, EDR) accumulate
      one jitter cost per extra sample and misrank ``S_c`` behind
      ``S_b``; max-based DFD is bounded by the jitter clip;
    * ``S_d`` -- the same route with a **local time shift**: a pause
      (one position repeated 12 times) in the middle, which breaks
      lock-step ED but none of the elastic measures.
    """
    rng = np.random.default_rng(seed)
    offset = 20.0
    headings = np.cumsum(rng.normal(0.0, 0.15, size=n))
    steps = 1.5 * np.column_stack([np.cos(headings), np.sin(headings)])
    pts = steps.cumsum(axis=0)

    def clipped(shape, clip):
        return np.clip(rng.normal(0.0, clip, size=shape), -clip, clip)

    s_a = Trajectory(pts)
    s_b = Trajectory(pts + np.array([offset, 0.0]) + clipped((n, 2), offset / 6.0))
    copies = rng.integers(4, 13, size=n)
    dup = np.repeat(pts, copies, axis=0)
    s_c = Trajectory(dup + clipped(dup.shape, offset / 3.0))
    pause = n // 2
    idx = np.concatenate([np.arange(pause), np.repeat(pause, 30),
                          np.arange(pause, n)])
    s_d = Trajectory(pts[idx] + clipped((idx.shape[0], 2), offset / 6.0))
    return s_a, s_b, s_c, s_d


def table1_measures(scale: str = "quick", seed: int = 0) -> Table:
    """Table 1: per-measure robustness properties and computation cost.

    Robustness is *measured* on the :func:`sampling_testbed` curves:
    a measure "tolerates non-uniform sampling" when it ranks the
    resampled twin ``S_c`` closer to ``S_a`` than the different route
    ``S_b``, and "tolerates local time shifting" when it ranks the
    paused twin ``S_d`` closer than ``S_b``.  Cost is the measured
    growth factor when the input length quadruples (~4x = linear,
    ~16x = quadratic).
    """
    s_a, s_b, s_c, s_d = sampling_testbed(n=200, seed=seed)
    eps = 8.0  # matching threshold for LCSS / EDR (between jitter and offset)

    def ranks_closer(fn, twin, equal_length):
        if equal_length and twin.n != s_a.n:
            return False  # lock-step ED cannot even compare the lengths
        return fn(s_a, twin) < fn(s_a, s_b)

    table = Table(
        "Table 1: distance measures -- measured robustness and cost",
        ["measure", "non-uniform sampling", "local time shifting",
         "cost growth (4x len)"],
    )
    measures = [
        ("ED", lambda p, q: lockstep_distance(p, q), True),
        ("DTW", dtw, False),
        ("LCSS", lambda p, q: lcss(p, q, eps), False),
        ("EDR", lambda p, q: edr(p, q, eps), False),
        ("DFD", discrete_frechet, False),
    ]
    for name, fn, equal_length in measures:
        non_uniform = ranks_closer(fn, s_c, equal_length)
        shift = ranks_closer(fn, s_d, equal_length)
        small, large = s_a[0:50], s_a[0:200]
        fn(small, small)  # warm-up
        _, t_small = timed(fn, small, small)
        _, t_large = timed(fn, large, large)
        growth = t_large / max(t_small, 1e-9)
        table.add_row(name, "yes" if non_uniform else "no",
                      "yes" if shift else "no", f"{growth:.1f}x")
    table.add_note("paper Table 1: only DFD tolerates both; ED is O(l), rest O(l^2)")
    return table


def fig02_ed_vs_dfd(scale: str = "quick", seed: int = 0) -> Table:
    """Figure 2: the ED-best pair vs the DFD motif.

    ED measures spatial proximity only; the pair it picks should look
    worse under DFD than the true DFD motif (and vice versa), which is
    what the paper's side-by-side maps show.
    """
    n = _ns(scale)[0]
    traj = trajectory_for("geolife", n, seed)
    xi = default_xi(n)
    # DFD motif (exact).
    motif = discover_motif(traj, min_length=xi, algorithm="gtm")
    i, ie, j, je = motif.indices
    # ED-best pair over same-length non-overlapping windows.
    length = xi + 2
    best_ed, best_pair = float("inf"), None
    pts = traj.points
    for a in range(0, traj.n - 2 * length, 2):
        for b in range(a + length, traj.n - length, 2):
            ed = lockstep_distance(
                pts[a : a + length], pts[b : b + length], metric="haversine"
            )
            if ed < best_ed:
                best_ed, best_pair = ed, (a, b)
    a, b = best_pair
    ed_pair_dfd = discrete_frechet(
        pts[a : a + length], pts[b : b + length], metric="haversine"
    )
    motif_ed = lockstep_distance(
        pts[i : i + length], pts[j : j + length], metric="haversine"
    )
    table = Table(
        "Figure 2: most similar pair under ED vs under DFD (metres)",
        ["pair", "ED", "DFD"],
    )
    table.add_row("ED-best pair", best_ed, ed_pair_dfd)
    table.add_row("DFD motif", motif_ed, motif.distance)
    table.add_note("paper: ED pair had DFD 0.09m at ED 8.71m; DFD pair DFD 0.08m at ED 19.42m")
    return table


def fig03_dtw_vs_dfd(scale: str = "quick", seed: int = 0) -> Table:
    """Figure 3: DTW misranks a non-uniformly sampled twin; DFD does not.

    Uses the :func:`sampling_testbed` construction: ``S_c`` retraces
    ``S_a``'s route with 4-12 jittered samples per original point.  DTW
    pays the jitter once per extra sample, exceeding its distance to the
    genuinely different route ``S_b``; DFD is bounded by the jitter clip.
    """
    s_a, s_b, s_c, _ = sampling_testbed(n=200, seed=seed)
    table = Table(
        "Figure 3: DTW vs DFD under non-uniform sampling",
        ["measure", "d(Sa, Sb) [different route]",
         "d(Sa, Sc) [same route, non-uniform]", "ranks Sc closer?"],
    )
    for name, fn in (("DTW", dtw), ("DFD", discrete_frechet)):
        d_ab = fn(s_a, s_b)
        d_ac = fn(s_a, s_c)
        table.add_row(name, d_ab, d_ac, "yes" if d_ac < d_ab else "no")
    table.add_note("paper: DTW(Sa,Sc) > DTW(Sa,Sb) but DFD(Sa,Sc) < DFD(Sa,Sb)")
    return table


def fig04_symbolic(scale: str = "quick", seed: int = 0) -> Table:
    """Figure 4: identical symbol strings for far-apart trajectories."""
    truck = trajectory_for("truck", 200, seed)
    # The "other city": the same track translated ~1900 km away.
    far = translate(truck, (17.0, 17.0))  # degrees
    s1 = symbolize(truck, fragment_length=8)
    s2 = symbolize(far, fragment_length=8)
    dfd_m = discrete_frechet(truck, far, metric="haversine")
    table = Table(
        "Figure 4: symbolic encoding ignores geography",
        ["trajectory", "string (first 24 symbols)", "equal strings", "DFD to original (km)"],
    )
    table.add_row("original", s1[:24], "-", 0.0)
    table.add_row("translated", s2[:24], "yes" if s1 == s2 else "no", dfd_m / 1000.0)
    table.add_note("paper: Beijing and Shenzhen tracks both encode to 'RVLH'")
    return table


# ----------------------------------------------------------------------
# Pruning effectiveness (Figures 13-16)
# ----------------------------------------------------------------------
def fig13_tight_vs_relaxed_n(
    scale: str = "quick", dataset: str = "geolife", seed: int = 0
) -> Table:
    """Figure 13: tight vs relaxed bounds as n grows (ratio + time)."""
    table = Table(
        f"Figure 13: BTM tight vs relaxed bounds, {dataset}, xi=2%n",
        ["n", "variant", "pruning ratio", "response time (s)"],
    )
    for n in _ns(scale):
        for variant in ("tight", "relaxed"):
            rec = run_motif("btm", dataset, n, seed=seed, variant=variant)
            table.add_row(n, variant, rec.stats.pruning_ratio, rec.seconds)
    table.add_note("paper Fig 13: relaxed slightly weaker pruning, order(s) faster")
    return table


def fig14_tight_vs_relaxed_xi(
    scale: str = "quick", dataset: str = "geolife", seed: int = 0
) -> Table:
    """Figure 14: tight vs relaxed bounds as xi grows at fixed n."""
    n = _ns(scale)[-1]
    xis = [max(4, n // 50), max(6, n // 25), max(8, n // 16)]
    table = Table(
        f"Figure 14: BTM tight vs relaxed bounds, {dataset}, n={n}",
        ["xi", "variant", "pruning ratio", "response time (s)"],
    )
    for xi in xis:
        for variant in ("tight", "relaxed"):
            rec = run_motif("btm", dataset, n, xi=xi, seed=seed, variant=variant)
            table.add_row(xi, variant, rec.stats.pruning_ratio, rec.seconds)
    return table


def fig15_pruning_breakdown(
    scale: str = "quick", dataset: str = "geolife", seed: int = 0
) -> Table:
    """Figure 15: fraction of subsets pruned per bound class."""
    table = Table(
        f"Figure 15: BTM pruning breakdown, {dataset}",
        ["sweep", "value", "LBcell", "rLBcross", "rLBband", "DFD"],
    )
    for n in _ns(scale):
        rec = run_motif("btm", dataset, n, seed=seed)
        b = rec.stats.breakdown()
        table.add_row("n", n, b["LBcell"], b["LBcross"], b["LBband"], b["DFD"])
    n = _ns(scale)[-1]
    for xi in (max(4, n // 50), max(6, n // 25), max(8, n // 16)):
        rec = run_motif("btm", dataset, n, xi=xi, seed=seed)
        b = rec.stats.breakdown()
        table.add_row("xi", xi, b["LBcell"], b["LBcross"], b["LBband"], b["DFD"])
    table.add_note("paper Fig 15: LBcell dominates; rLBband strengthens as xi grows")
    return table


def fig16_bound_ablation(
    scale: str = "quick", dataset: str = "geolife", seed: int = 0
) -> Table:
    """Figure 16: response time with cumulative bound sets."""
    combos = [
        ("LBcell", dict(use_cross=False, use_band=False)),
        ("LBcell+rLBcross", dict(use_band=False)),
        ("LBcell+rLBcross+rLBband", dict()),
    ]
    table = Table(
        f"Figure 16: BTM bound-set ablation, {dataset}",
        ["n", "bounds", "response time (s)", "subsets expanded"],
    )
    for n in _ns(scale):
        for label, opts in combos:
            rec = run_motif("btm", dataset, n, seed=seed, **opts)
            table.add_row(n, label, rec.seconds, rec.stats.subsets_expanded)
    return table


# ----------------------------------------------------------------------
# Grouping (Figures 17-21)
# ----------------------------------------------------------------------
def fig17_group_size(
    scale: str = "quick", dataset: str = "geolife", seed: int = 0,
    taus: Iterable[int] = (4, 8, 16, 32, 64),
) -> Table:
    """Figure 17: GTM sensitivity to the initial group size tau."""
    table = Table(
        f"Figure 17: GTM response time vs tau, {dataset}",
        ["n", "tau", "response time (s)", "level survivors"],
    )
    for n in _ns(scale):
        for tau in taus:
            if tau * 2 > n:
                continue
            rec = run_motif("gtm", dataset, n, seed=seed, tau=tau)
            survivors = rec.stats.group_levels.get(
                min(rec.stats.group_levels) if rec.stats.group_levels else 0, 0
            )
            table.add_row(n, tau, rec.seconds, survivors)
    table.add_note("paper Fig 17: response time not overly sensitive to tau")
    return table


def fig18_response_time(
    scale: str = "quick",
    datasets: Sequence[str] = DATASETS,
    seed: int = 0,
    brute_limit: Optional[int] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Table:
    """Figure 18: response time vs n for all four algorithms."""
    ns = _ns(scale)
    brute_limit = ns[min(1, len(ns) - 1)] if brute_limit is None else brute_limit
    table = Table(
        "Figure 18: response time vs trajectory length",
        ["dataset", "n", "brute_dp", "btm", "gtm", "gtm_star"],
    )
    for dataset in datasets:
        for n in ns:
            row = [dataset, n]
            for algo in ("brute", "btm", "gtm", "gtm_star"):
                if algo == "brute" and n > brute_limit:
                    row.append(None)  # beyond the BruteDP cutoff
                    continue
                rec = run_motif(algo, dataset, n, seed=seed, timeout=timeout)
                row.append(None if rec.timed_out else rec.seconds)
            table.add_row(*row)
    table.add_note("paper Fig 18: GTM fastest, GTM* runner-up, BruteDP 2-3 orders slower")
    return table


def fig19_space(
    scale: str = "quick", datasets: Sequence[str] = DATASETS, seed: int = 0
) -> Table:
    """Figure 19: peak space (MB, analytic model) vs n."""
    table = Table(
        "Figure 19: space consumption (MB) vs trajectory length",
        ["dataset", "n", "btm", "gtm", "gtm_star"],
    )
    for dataset in datasets:
        for n in _ns(scale):
            row = [dataset, n]
            for algo in ("btm", "gtm", "gtm_star"):
                rec = run_motif(algo, dataset, n, seed=seed)
                row.append(rec.space_mb)
            table.add_row(*row)
    table.add_note("paper Fig 19: BTM/GTM grow ~n^2, GTM* stays near-linear")
    return table


def fig20_min_length(
    scale: str = "quick", datasets: Sequence[str] = DATASETS, seed: int = 0
) -> Table:
    """Figure 20: response time vs minimum motif length xi."""
    n = _ns(scale)[-1]
    xis = [max(4, n // 50), max(6, n // 25), max(8, n // 16), max(10, n // 12)]
    table = Table(
        f"Figure 20: response time vs xi at n={n}",
        ["dataset", "xi", "btm", "gtm", "gtm_star"],
    )
    for dataset in datasets:
        for xi in xis:
            row = [dataset, xi]
            for algo in ("btm", "gtm", "gtm_star"):
                rec = run_motif(algo, dataset, n, xi=xi, seed=seed)
                row.append(rec.seconds)
            table.add_row(*row)
    table.add_note("paper Fig 20: all methods slow down as xi grows (later bsf)")
    return table


def fig21_cross_trajectory(
    scale: str = "quick", datasets: Sequence[str] = DATASETS, seed: int = 0
) -> Table:
    """Figure 21: the two-trajectory variant, response time vs n."""
    table = Table(
        "Figure 21: cross-trajectory motif, response time vs n",
        ["dataset", "n", "btm", "gtm", "gtm_star"],
    )
    for dataset in datasets:
        for n in _ns(scale):
            row = [dataset, n]
            for algo in ("btm", "gtm", "gtm_star"):
                rec = run_motif(algo, dataset, n, seed=seed, cross=True)
                row.append(rec.seconds)
            table.add_row(*row)
    table.add_note("paper Fig 21: performance mirrors the single-trajectory case")
    return table


# ----------------------------------------------------------------------
# Engine scaling (reproduction-specific; not a paper figure)
# ----------------------------------------------------------------------
def engine_scaling(
    scale: str = "quick",
    seed: int = 0,
    workers: Sequence[int] = (1, 2),
    repeats: int = 4,
) -> Table:
    """Batched/parallel MotifEngine vs the serial discover loop.

    Two workloads, both exact and answer-identical to the serial path:

    * **batched stream** -- every corpus trajectory queried ``repeats``
      times (a serving workload with repeated requests).  The serial
      loop pays the full search per request; the engine answers the
      stream through ``discover_many`` (batch dedup + oracle/result
      caching, plus worker processes).  This is the headline speedup
      the CI smoke run records.
    * **unique corpus (cold)** -- each trajectory queried once with all
      caching disabled, isolating the engine's per-query overhead: a
      single query runs the serial algorithm at any worker count, so
      this row reads about 1x.
    * **topk stream** -- the serving stream answered by top-k queries:
      the serial loop pays the full bound-and-scan per request, the
      engine's top-k answers repeats from the shared oracle/result
      caches (acceptance floor: >= 1.3x at 2 workers -- see
      ``benchmarks/bench_engine_scaling.py``).
    * **join stream** -- repeated similarity joins of the corpus
      against a shifted copy, serial cascade vs the engine's sharded
      tile grid with result caching.

    Every workload is timed best-of-2 (:func:`repro.bench.timed_best`):
    the floors these rows gate in CI sit well above the true speedups,
    but single-shot wall clocks on shared hosts swing enough to cross
    them -- the minimum is the faithful cost, since noise only adds.
    Engine rows additionally warm the worker pool *before* the clock
    starts (each measurement still uses a fresh engine, so caches stay
    cold): serving keeps one pool alive across requests, and pool
    fork/startup jitter on a loaded host otherwise dominates the
    short smoke-scale streams.
    """
    import time as _time

    from ..engine import MotifEngine

    n = _ns(scale)[-1]
    xi = default_xi(n)
    options = dict(tau=default_tau(n))
    corpus = [trajectory_for(ds, n, seed) for ds in DATASETS]
    stream = corpus * repeats
    # Two distinct queries: a discover_many batch of them forks the pool.
    warm_batch = [trajectory_for(ds, 40, seed + 1) for ds in DATASETS[:2]]

    def engine_seconds(run, w, repeats_timing=2, **engine_kwargs):
        """Best-of-N wall clock of ``run(engine)`` on a warm pool.

        A fresh engine per repeat keeps every cache cold; the one
        warm-up query only spins the pool up (serving amortises that
        across the stream's lifetime).
        """
        best = None
        for _ in range(max(1, repeats_timing)):
            with MotifEngine(workers=w, **engine_kwargs) as eng:
                if w > 1:
                    eng.discover_many(warm_batch, min_length=2,
                                      algorithm="btm")
                started = _time.perf_counter()
                run(eng)
                seconds = _time.perf_counter() - started
            best = seconds if best is None else min(best, seconds)
        return best

    def serial_loop(queries):
        eng = MotifEngine(
            workers=1, oracle_cache_size=0, tables_cache_size=0,
            result_cache_size=0,
        )
        for traj in queries:
            eng.discover(traj, min_length=xi, algorithm="gtm_star",
                         cacheable=False, **options)

    serial_loop(corpus[:1])  # warm-up (imports, allocator)
    _, t_stream = timed_best(serial_loop, stream)
    _, t_unique = timed_best(serial_loop, corpus)

    table = Table(
        f"Engine scaling: MotifEngine vs serial loop, n={n}, xi={xi}",
        ["workload", "path", "workers", "queries", "seconds", "speedup"],
    )
    table.add_row("batched stream", "serial loop", 1, len(stream), t_stream, 1.0)
    for w in workers:
        def batched(eng):
            eng.discover_many(stream, min_length=xi,
                              algorithm="gtm_star", **options)

        t = engine_seconds(batched, w)
        table.add_row("batched stream", "engine", w, len(stream), t,
                      t_stream / max(t, 1e-9))
    table.add_row("unique corpus", "serial loop", 1, len(corpus), t_unique, 1.0)
    for w in workers:
        def unique_cold(eng):
            for traj in corpus:
                eng.discover(traj, min_length=xi, algorithm="gtm_star",
                             cacheable=False, **options)

        t = engine_seconds(unique_cold, w, oracle_cache_size=0,
                           tables_cache_size=0, result_cache_size=0)
        table.add_row("unique corpus", "engine", w, len(corpus), t,
                      t_unique / max(t, 1e-9))

    # Top-k serving stream: repeated requests through the caches.
    from ..extensions.topk import discover_top_k_motifs

    k = 3

    def serial_topk(queries):
        for traj in queries:
            discover_top_k_motifs(traj, min_length=xi, k=k)

    _, t_topk = timed_best(serial_topk, stream)
    table.add_row("topk stream", "serial loop", 1, len(stream), t_topk, 1.0)
    for w in workers:
        def topk_stream(eng):
            for traj in stream:
                eng.top_k(traj, min_length=xi, k=k)

        t = engine_seconds(topk_stream, w)
        table.add_row("topk stream", "engine", w, len(stream), t,
                      t_topk / max(t, 1e-9))

    # Similarity-join stream: corpus against a shifted copy, repeated.
    from ..extensions.join import similarity_join

    left = corpus
    right = [
        translate(traj, [0.5] * traj.dimensions) for traj in corpus
    ]
    theta = float(np.median(np.abs(left[0].points))) or 1.0

    def serial_join():
        for _ in range(repeats):
            similarity_join(left, right, theta)

    _, t_join = timed_best(serial_join)
    table.add_row("join stream", "serial loop", 1, repeats, t_join, 1.0)
    for w in workers:
        def join_stream(eng):
            for _ in range(repeats):
                eng.join(left, right, theta)

        t = engine_seconds(join_stream, w)
        table.add_row("join stream", "engine", w, repeats, t,
                      t_join / max(t, 1e-9))
    table.add_note(
        "batched-stream speedup: batch dedup + oracle/result caching "
        "(+ worker processes on multi-core hosts); answers are identical "
        "to the serial loop"
    )
    table.add_note(
        "unique-corpus rows isolate the engine's per-query overhead; a "
        "single query runs serially at any worker count (~1x)"
    )
    return table


# ----------------------------------------------------------------------
# Reproduction-specific ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def ablation_end_kill(scale: str = "quick", dataset: str = "geolife", seed: int = 0) -> Table:
    """End-cell kill (Eq. 9 pruning, safe min-form) on vs off."""
    table = Table(
        f"Ablation: end-cell kills, BTM, {dataset}",
        ["n", "kills", "cells expanded", "response time (s)"],
    )
    for n in _ns(scale):
        for flag in (True, False):
            rec = run_motif("btm", dataset, n, seed=seed, use_end_kill=flag)
            table.add_row(n, "on" if flag else "off",
                          rec.stats.cells_expanded, rec.seconds)
    return table


def ablation_gub(scale: str = "quick", dataset: str = "geolife", seed: int = 0) -> Table:
    """GUB_DFD bsf-tightening (GTM Step 4) on vs off."""
    table = Table(
        f"Ablation: GUB_DFD tightening, GTM, {dataset}",
        ["n", "gub", "group pairs pruned", "response time (s)"],
    )
    for n in _ns(scale):
        for flag in (True, False):
            rec = run_motif("gtm", dataset, n, seed=seed, use_gub=flag)
            pruned = (
                rec.stats.group_pairs_pruned_pattern
                + rec.stats.group_pairs_pruned_glb
            )
            table.add_row(n, "on" if flag else "off", pruned, rec.seconds)
    return table


#: Experiment registry for the CLI.
EXPERIMENTS = {
    "table1": table1_measures,
    "fig2": fig02_ed_vs_dfd,
    "fig3": fig03_dtw_vs_dfd,
    "fig4": fig04_symbolic,
    "fig13": fig13_tight_vs_relaxed_n,
    "fig14": fig14_tight_vs_relaxed_xi,
    "fig15": fig15_pruning_breakdown,
    "fig16": fig16_bound_ablation,
    "fig17": fig17_group_size,
    "fig18": fig18_response_time,
    "fig19": fig19_space,
    "fig20": fig20_min_length,
    "fig21": fig21_cross_trajectory,
    "engine_scaling": engine_scaling,
    "ablation_end_kill": ablation_end_kill,
    "ablation_gub": ablation_gub,
}
