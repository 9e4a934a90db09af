"""Declarations of the end-to-end benchmark: workloads, metrics, bounds.

This module is the single written-down answer to "what does the benchmark
measure and what should move what".  ``BENCHMARK.json`` at the repository
root is generated from it (``python3 benchmarks/e2e/metrics.py`` prints the
file) and ``test_bench_selfcheck.py`` fails when the two disagree.

Every workload reports every end-to-end metric, because the driver's
contract asks for that: each workload therefore runs the whole pipeline
(ingest → index build → single queries → batch queries → writes) in its own
configuration, and spends most of its run in the phases named as *primary*
below.  ``E2E[...]["primary"]`` lists the workloads on which a metric is the
reason the workload exists; on the others it is a short secondary phase.
"""

from __future__ import annotations

import json

#: How long the timed phases of one run take on the 2-core reference box.
#: The driver passes it back as ``--seconds``; op counts scale with it.
RUN_SECONDS = 12

WORKLOADS: dict[str, str] = {
    "bulk_ingest": (
        "paper 3.2: the write path (client convert, router, transport, worker, "
        "collection, WAL, segment) does the work, row and columnar encodings "
        "side by side; index and search are short secondary phases"
    ),
    "pipeline_hnsw": (
        "paper 3.3-3.4: float32 HNSW build, HNSW traversal and cluster "
        "fan-out/reduce do the work on unique queries; cache and coalescer "
        "are off, so a cache or scheduler change must show no change"
    ),
    "serving_skewed": (
        "everything on, read-mostly: Zipf(1.1) queries over a pool 4x the "
        "cache; cache and coalescer serve the hits, quantized HNSW with "
        "rescore serves the misses"
    ),
    "mixed_rw": (
        "open-loop WAL-logged writes beside closed-loop Zipf reads with "
        "maintenance, cache invalidation and one live reshard contending; a "
        "write-path change that hurts reads (or the reverse) shows here"
    ),
}

#: name -> unit, direction, regression bound (share of the parent's median),
#: and the workloads whose primary phase produces it.
E2E: dict[str, dict] = {
    "setup_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "primary": list(WORKLOADS),
    },
    "insert_points_per_s": {
        "unit": "points/s", "better": "higher", "bound": 0.25,
        "primary": ["bulk_ingest"],
    },
    "insert_columnar_points_per_s": {
        "unit": "points/s", "better": "higher", "bound": 0.25,
        "primary": ["bulk_ingest"],
    },
    "wal_bytes_per_user_byte": {
        "unit": "ratio", "better": "lower", "bound": 0.01,
        "primary": ["bulk_ingest"],
    },
    "index_build_s": {
        "unit": "s", "better": "lower", "bound": 0.25,
        "primary": ["pipeline_hnsw"],
    },
    "query_qps": {
        "unit": "1/s", "better": "higher", "bound": 0.25,
        "primary": ["pipeline_hnsw", "serving_skewed", "mixed_rw"],
    },
    "query_p50_ms": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "primary": ["pipeline_hnsw", "serving_skewed", "mixed_rw"],
    },
    "query_p95_ms": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "primary": ["mixed_rw"],
    },
    "batch_query_qps": {
        "unit": "1/s", "better": "higher", "bound": 0.25,
        "primary": ["pipeline_hnsw"],
    },
    "recall_at_10": {
        "unit": "ratio", "better": "higher", "bound": 0.01,
        "primary": ["pipeline_hnsw", "serving_skewed"],
    },
    "write_p50_ms": {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "primary": ["mixed_rw"],
    },
    "peak_rss_mb": {
        "unit": "MiB", "better": "lower", "bound": 0.1,
        "primary": list(WORKLOADS),
    },
}


def _layer(layer: str, moves: list[tuple[str, str]], metrics: dict[str, tuple[str, str]]):
    return {
        name: {"unit": unit, "better": better, "layer": layer, "moves": moves}
        for name, (unit, better) in metrics.items()
    }


S, N, R = ("s", "lower"), ("count", "lower"), ("ratio", "lower")

#: name -> unit, direction, owning layer, and ``moves``: the (end-to-end
#: metric, workload) pairs a change in this number is expected to move.
PER_LAYER: dict[str, dict] = {
    **_layer("client", [("insert_points_per_s", "bulk_ingest"),
                        ("insert_columnar_points_per_s", "bulk_ingest")], {
        "client.upload_s": S,
        "client.convert_s": S,
    }),
    **_layer("scheduler", [("query_p50_ms", "serving_skewed"),
                           ("query_qps", "serving_skewed")], {
        "scheduler.search_s": S,
        "scheduler.wait_s": S,
        "scheduler.batches": N,
        "scheduler.mean_width": ("count", "higher"),
        "scheduler.deduped": ("count", "higher"),
        "scheduler.bypasses": N,
    }),
    **_layer("cache", [("query_p50_ms", "serving_skewed"),
                       ("query_qps", "serving_skewed"),
                       ("query_p50_ms", "mixed_rw")], {
        "cache.lookup_s": S,
        "cache.fill_s": S,
        "cache.hit_rate": ("ratio", "higher"),
        "cache.evictions": N,
        "cache.invalidations": N,
        "cache.rejected": N,
        "cache.shard_hit_rate": ("ratio", "higher"),
        "cache.bytes_used": ("bytes", "lower"),
    }),
    **_layer("cluster", [("query_p50_ms", "pipeline_hnsw"),
                         ("query_qps", "pipeline_hnsw"),
                         ("query_p95_ms", "serving_skewed"),
                         ("insert_points_per_s", "bulk_ingest")], {
        "cluster.search_s": S,
        "cluster.search_self_s": S,
        "cluster.search_batch_s": S,
        "cluster.upsert_s": S,
        "cluster.upsert_self_s": S,
        "cluster.delete_s": S,
        "cluster.build_index_s": S,
        "cluster.fanout_width_mean": ("count", "lower"),
    }),
    **_layer("router", [("insert_points_per_s", "bulk_ingest")], {
        "router.partition_s": S,
        "router.partition_calls": N,
    }),
    **_layer("transport", [("insert_points_per_s", "bulk_ingest"),
                           ("query_qps", "pipeline_hnsw"),
                           ("batch_query_qps", "pipeline_hnsw")], {
        "transport.calls": N,
        "transport.call_s": S,
        "transport.calls_per_query": N,
        "transport.calls_per_write": N,
        "transport.errors": N,
        "transport.bytes_sent_est": ("bytes", "lower"),
        "transport.bytes_received_est": ("bytes", "lower"),
    }),
    **_layer("worker", [("query_p50_ms", "pipeline_hnsw"),
                        ("insert_points_per_s", "bulk_ingest")], {
        "worker.search_s": S,
        "worker.search_calls": N,
        "worker.upsert_s": S,
        "worker.upsert_calls": N,
    }),
    **_layer("collection", [("insert_points_per_s", "bulk_ingest"),
                            ("insert_columnar_points_per_s", "bulk_ingest"),
                            ("write_p50_ms", "mixed_rw")], {
        "collection.search_s": S,
        "collection.upsert_s": S,
        "collection.upsert_columnar_s": S,
        "collection.delete_s": S,
        "collection.segments_final": N,
    }),
    **_layer("wal", [("insert_points_per_s", "bulk_ingest"),
                     ("wal_bytes_per_user_byte", "bulk_ingest"),
                     ("write_p50_ms", "mixed_rw")], {
        "wal.append_s": S,
        "wal.appends": N,
        "wal.flush_s": S,
        "wal.flushes": N,
        "wal.bytes_written": ("bytes", "lower"),
        "wal.replay_s": S,
    }),
    **_layer("segment", [("query_p50_ms", "pipeline_hnsw"),
                         ("insert_points_per_s", "bulk_ingest")], {
        "segment.search_s": S,
        "segment.search_calls": N,
        "segment.upsert_s": S,
    }),
    **_layer("index.hnsw", [("index_build_s", "pipeline_hnsw"),
                            ("query_p50_ms", "pipeline_hnsw"),
                            ("batch_query_qps", "pipeline_hnsw"),
                            ("index_build_s", "serving_skewed"),
                            ("write_p50_ms", "mixed_rw"),
                            ("query_p95_ms", "mixed_rw")], {
        "hnsw.build_s": S,
        "hnsw.search_s": S,
        "hnsw.search_calls": N,
        "hnsw.distance_computations_per_query": N,
        "hnsw.hops_per_query": N,
    }),
    **_layer("quantization", [("query_p95_ms", "serving_skewed"),
                              ("index_build_s", "serving_skewed")], {
        "quantization.encode_query_s": S,
        "quantization.score_s": S,
        "quantization.train_encode_s": S,
    }),
    **_layer("maintenance", [("write_p50_ms", "mixed_rw"),
                             ("query_p95_ms", "mixed_rw")], {
        "maintenance.passes": N,
        "maintenance.swaps": N,
        "maintenance.busy_s": S,
        "maintenance.vectors_indexed": N,
        "maintenance.reconciled": N,
        "maintenance.drain_s": S,
    }),
    **_layer("resharding", [("write_p50_ms", "mixed_rw")], {
        "reshard.moves_completed": N,
        "reshard.move_s": S,
        "reshard.rows_copied": N,
        "reshard.journal_replayed": N,
        "reshard.copy_s": S,
    }),
    # ``query_p99_ms`` and ``write_p95_ms`` are tails the issue lists as
    # end-to-end.  Across ten seeds on the 2-core reference box their spread
    # reached the largest bound the driver accepts (0.25; write_p95_ms far
    # beyond it), and the issue's rule for that case is to demote them to
    # per-layer metrics rather than widen the bound.
    **_layer("harness", [("query_p95_ms", "mixed_rw"),
                         ("write_p50_ms", "mixed_rw")], {
        "query_p99_ms": ("ms", "lower"),
        "write_p95_ms": ("ms", "lower"),
        # The free-running phase: the query and row-upload paths with the pin
        # to one core lifted and no span recorded, at the end of every run.
        "free.query_qps": ("1/s", "higher"),
        "free.query_p50_ms": ("ms", "lower"),
        "free.insert_points_per_s": ("points/s", "higher"),
        "mixed.writer_late_p95_ms": ("ms", "lower"),
        "process.cpu_s_per_wall_s": R,
        "trace.overhead_share": R,
        "trace.unexplained_share": R,
    }),
}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for n, m in E2E.items()
        ],
        "per_layer": [
            {"name": n, "unit": m["unit"], "better": m["better"]}
            for n, m in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
