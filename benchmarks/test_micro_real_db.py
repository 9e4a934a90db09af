"""Real (non-simulated) micro-benchmarks of the vector database.

These measure the actual :mod:`repro.core` implementation at laptop scale
and sanity-check that its *trends* point the same way as the paper-scale
models: batching amortises per-request overhead, HNSW search beats exact
scan per query, index building is the expensive phase.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Collection,
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchParams,
    SearchRequest,
    VectorParams,
)

from conftest import BENCH_DIM


def _mk_collection(threshold: int = 0) -> Collection:
    return Collection(
        CollectionConfig(
            "micro",
            VectorParams(size=BENCH_DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=threshold),
        )
    )


def test_upsert_batched(benchmark, bench_points):
    """Insertion throughput with the paper's optimal batch size (32)."""

    def insert_batched():
        col = _mk_collection()
        for start in range(0, 640, 32):
            col.upsert(bench_points[start : start + 32])
        return col

    col = benchmark(insert_batched)
    assert len(col) == 640


def test_upsert_single(benchmark, bench_points):
    """Insertion with batch size 1 (the paper's worst case)."""

    def insert_single():
        col = _mk_collection()
        for p in bench_points[:320]:
            col.upsert([p])
        return col

    col = benchmark(insert_single)
    assert len(col) == 320


def test_hnsw_build(benchmark, bench_points):
    """Deferred HNSW build over a sealed segment (§3.3's rebuild)."""

    def build():
        col = _mk_collection()
        col.upsert(bench_points[:800])
        report = col.build_index("hnsw")
        return col, report

    col, report = benchmark.pedantic(build, rounds=1, iterations=1)
    assert report.vectors_indexed == 800


def test_query_exact_single(benchmark, flat_collection, query_vectors):
    result = benchmark(
        flat_collection.search, SearchRequest(vector=query_vectors[0], limit=10)
    )
    assert len(result) == 10


def test_query_exact_batched(benchmark, flat_collection, query_vectors):
    """Batched exact search amortises into one GEMM (Figure 4 trend)."""
    requests = [SearchRequest(vector=v, limit=10) for v in query_vectors]
    results = benchmark(flat_collection.search_batch, requests)
    assert len(results) == len(query_vectors)


def test_query_hnsw(benchmark, hnsw_collection, query_vectors):
    result = benchmark(
        hnsw_collection.search, SearchRequest(vector=query_vectors[0], limit=10)
    )
    assert len(result) == 10


def test_hnsw_fewer_distance_computations_than_exact(hnsw_collection, query_vectors):
    """The reason indexes exist: HNSW touches a fraction of the dataset."""
    seg = hnsw_collection.segments[0]
    index = seg.index
    index.stats.reset()
    seg.search(query_vectors[0], 10)
    hnsw_dc = index.stats.distance_computations
    # uniform random 64-d data is a worst case for graph pruning; the index
    # must still visit measurably less than the whole dataset
    assert 0 < hnsw_dc < 0.75 * len(hnsw_collection)


def test_query_hnsw_batched_trend(hnsw_collection, query_vectors):
    """Per-query latency with a batch should not exceed single-query latency."""
    import time

    reqs = [SearchRequest(vector=v, limit=10) for v in query_vectors[:16]]

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)  # min is robust to scheduler noise

    serial = best_of(lambda: [hnsw_collection.search(r) for r in reqs])
    batched = best_of(lambda: hnsw_collection.search_batch(reqs))
    # batching must not make things dramatically worse (trend check only)
    assert batched < serial * 1.5


def test_columnar_conversion_faster_than_per_point(bench_points):
    """The §3.2 conversion cost, on real code: columnar Batch construction
    vectorizes the work the per-point path does row by row."""
    import time

    from repro.core.batch import Batch

    pts = bench_points[:1024]

    def best_of(fn, repeats=7):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)  # min is robust to scheduler noise

    columnar = best_of(lambda: Batch.from_points(pts))
    per_point = best_of(
        lambda: [
            PointStruct(id=p.id, vector=np.ascontiguousarray(p.as_array()),
                        payload=dict(p.payload) if p.payload else None)
            for p in pts
        ]
    )
    # same order of magnitude at worst; the point is it must not be slower
    assert columnar < per_point * 1.5


def test_upsert_columnar(benchmark, bench_points):
    from repro.core.batch import Batch

    batch = Batch.from_points(bench_points[:640])

    def insert():
        col = _mk_collection()
        col.upsert_columnar(batch)
        return col

    col = benchmark(insert)
    assert len(col) == 640


# -- distributed hot paths (real cluster, instrumented transport) -------------
#
# These exercise the actual broadcast–reduce stack with an
# InstrumentedTransport that injects a per-call RPC latency, which is what
# the paper's Slingshot round trips look like from the coordinator.  On this
# scale the per-query *compute* is microseconds, so the wins below are the
# transport-amortisation and fan-out-overlap effects of Figure 4 and §2.1 —
# measured through real code, with results asserted bit-identical.

import os
import time

from repro.core.cluster import Cluster
from repro.core.transport import InstrumentedTransport, LocalTransport


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)  # min is robust to scheduler noise


def _hit_keys(hits):
    return [(h.id, h.score) for h in hits]


def _mk_cluster(bench_points, *, latency_s, max_fanout_threads=None, n_points=2000):
    cluster = Cluster.with_workers(
        4,
        transport=InstrumentedTransport(LocalTransport(), latency_s=latency_s),
        max_fanout_threads=max_fanout_threads,
    )
    cluster.create_collection(
        CollectionConfig(
            "micro",
            VectorParams(size=BENCH_DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=0),
        )
    )
    cluster.upsert("micro", bench_points[:n_points])
    return cluster


def test_cluster_batched_hnsw_2x_per_query(bench_points, query_vectors):
    """Acceptance (a): batched search through the real cluster must be at
    least 2x faster per query than a per-query loop at batch 16, with
    bit-identical results — one fan-out pays the RPC cost once instead of
    sixteen times."""
    cluster = _mk_cluster(bench_points, latency_s=0.008)
    cluster.build_index("micro")
    reqs = [SearchRequest(vector=v, limit=10) for v in query_vectors[:16]]

    loop_hits = [cluster.search("micro", r) for r in reqs]
    batch_hits = cluster.search_batch("micro", reqs)
    assert [_hit_keys(h) for h in loop_hits] == [_hit_keys(h) for h in batch_hits]

    t_loop = _best_of(lambda: [cluster.search("micro", r) for r in reqs])
    t_batch = _best_of(lambda: cluster.search_batch("micro", reqs))
    assert t_batch * 2 <= t_loop, (
        f"batched per-query {t_batch / 16 * 1e3:.2f}ms vs loop "
        f"{t_loop / 16 * 1e3:.2f}ms — expected >=2x"
    )


def test_cluster_parallel_fanout_beats_serial_search(bench_points, query_vectors):
    """Acceptance (b), query side: the thread-pool broadcast must beat a
    serial fan-out on 4 workers, returning bit-identical results."""
    serial = _mk_cluster(bench_points, latency_s=0.02, max_fanout_threads=1)
    parallel = _mk_cluster(bench_points, latency_s=0.02)
    for c in (serial, parallel):
        c.build_index("micro")
    reqs = [SearchRequest(vector=v, limit=10) for v in query_vectors[:8]]

    serial_hits = [serial.search("micro", r) for r in reqs]
    parallel_hits = [parallel.search("micro", r) for r in reqs]
    assert [_hit_keys(h) for h in serial_hits] == [_hit_keys(h) for h in parallel_hits]

    t_serial = _best_of(lambda: [serial.search("micro", r) for r in reqs])
    t_parallel = _best_of(lambda: [parallel.search("micro", r) for r in reqs])
    assert t_parallel < t_serial * 0.8, (
        f"parallel fan-out {t_parallel * 1e3:.1f}ms vs serial {t_serial * 1e3:.1f}ms"
    )


def test_cluster_parallel_build_beats_serial(bench_points, query_vectors):
    """Acceptance (b), build side: fanning the 4 per-shard deferred builds
    out in parallel must beat issuing them serially, and the resulting
    indexes must answer queries bit-identically (seeded builds)."""

    def build(width):
        # Small shards + visible RPC latency: on a single-core runner the
        # builds themselves serialise on the GIL, so the win to measure is
        # the overlap of the four round trips (the multi-core CPU win is
        # covered by test_threaded_multi_segment_build_speedup_multicore).
        cluster = _mk_cluster(
            bench_points, latency_s=0.15, max_fanout_threads=width, n_points=400
        )
        wall = _best_of(lambda: cluster.build_index("micro"), repeats=1)
        return cluster, wall

    serial, t_serial = build(1)
    parallel, t_parallel = build(None)
    assert t_parallel < t_serial * 0.9, (
        f"parallel build {t_parallel * 1e3:.0f}ms vs serial {t_serial * 1e3:.0f}ms"
    )
    for v in query_vectors[:8]:
        req = SearchRequest(vector=v, limit=10)
        assert _hit_keys(serial.search("micro", req)) == _hit_keys(
            parallel.search("micro", req)
        )


def test_disabled_tracing_overhead_under_5pct(bench_points, query_vectors):
    """Acceptance: instrumentation is always compiled in, so its *disabled*
    cost must stay <=5% of the hot query path.  Differencing two noisy
    end-to-end A/B timings cannot resolve sub-percent overheads, so bound it
    directly: measure one no-op span cycle (the exact code every
    instrumented site runs when tracing is off), multiply by a generous
    per-query span-site count, and compare against real query latency."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    assert not tracer.enabled  # benches run with the global no-op tracer

    cluster = _mk_cluster(bench_points, latency_s=0.0)
    cluster.build_index("micro")
    req = SearchRequest(vector=query_vectors[0], limit=10)
    per_query = (
        _best_of(lambda: [cluster.search("micro", req) for _ in range(20)], repeats=5)
        / 20
    )

    n = 50_000
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("noop"):
            pass
    noop_cycle = (time.perf_counter() - t0) / n

    # One 4-worker search crosses well under 32 span sites (cluster.search,
    # cluster.fanout, then rpc + transport + worker + segment per worker);
    # 32 is the generous ceiling the acceptance criterion budgets for.
    span_sites = 32
    overhead = span_sites * noop_cycle
    assert overhead <= 0.05 * per_query, (
        f"disabled tracing would cost {overhead * 1e6:.1f}us of a "
        f"{per_query * 1e6:.1f}us query ({100 * overhead / per_query:.2f}%) — "
        "the no-op span path has regressed"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="CPU-parallel build speedup needs >=4 cores"
)
def test_threaded_multi_segment_build_speedup_multicore(bench_points):
    """On real multi-core hosts the threaded per-segment build should show
    wall-clock speedup (BLAS releases the GIL).  Latency-free, pure CPU."""
    def fresh():
        col = Collection(
            CollectionConfig(
                "micro-par",
                VectorParams(size=BENCH_DIM, distance=Distance.COSINE),
                optimizer=OptimizerConfig(indexing_threshold=0, max_segment_size=500),
            )
        )
        col.upsert(bench_points)
        return col

    serial_col, parallel_col = fresh(), fresh()
    t0 = time.perf_counter()
    serial_col.build_index("hnsw", max_threads=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel_col.build_index("hnsw", max_threads=4)
    t_parallel = time.perf_counter() - t0
    assert t_parallel < t_serial * 0.9
