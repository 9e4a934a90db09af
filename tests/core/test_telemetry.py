"""Telemetry aggregation tests."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
    WalConfig,
)
from repro.core.cluster import Cluster
from repro.core.telemetry import collect

DIM = 8


def make_cluster(n=4):
    cluster = Cluster.with_workers(n)
    cluster.create_collection(
        CollectionConfig(
            "c", VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=0),
        )
    )
    return cluster


def points(n):
    rng = np.random.default_rng(0)
    return [PointStruct(id=i, vector=rng.normal(size=DIM)) for i in range(n)]


class TestCollect:
    def test_counters_after_insert(self):
        cluster = make_cluster()
        cluster.upsert("c", points(100))
        snap = collect(cluster)
        assert snap.total_vectors_inserted == 100
        assert snap.total_points == 100
        assert len(snap.workers) == 4

    def test_index_builds_recorded(self):
        cluster = make_cluster()
        cluster.upsert("c", points(100))
        cluster.build_index("c")
        snap = collect(cluster)
        total_built = sum(
            n for w in snap.workers.values() for (_, _, n) in w.index_builds
        )
        assert total_built == 100

    def test_search_counters_and_distance_computations(self):
        cluster = make_cluster()
        cluster.upsert("c", points(200))
        cluster.build_index("c")
        before = collect(cluster)
        for _ in range(5):
            cluster.search("c", SearchRequest(vector=np.ones(DIM), limit=5))
        delta = collect(cluster).diff(before)
        assert delta.total_searches == 5 * 4  # every worker touched per query
        assert delta.total_queries == 20
        assert delta.total_distance_computations > 0
        assert delta.total_vectors_inserted == 0

    def test_per_node_and_imbalance(self):
        cluster = make_cluster(8)  # 2 nodes
        cluster.upsert("c", points(400))
        snap = collect(cluster)
        per_node = snap.per_node()
        assert set(per_node) == {"node-0", "node-1"}
        assert sum(per_node.values()) == 400
        assert 1.0 <= snap.imbalance() < 1.5  # hash sharding is near-uniform

    def test_empty_cluster(self):
        cluster = Cluster.with_workers(2)
        snap = collect(cluster)
        assert snap.total_points == 0
        assert snap.imbalance() == 1.0


class TestFailoverTelemetry:
    def test_failover_counters_surface(self):
        from repro.core.transport import FaultInjectingTransport, LocalTransport
        from repro.core.worker import Worker

        faulty = FaultInjectingTransport(LocalTransport(), advertise_failures=False)
        cluster = Cluster(faulty)
        for i in range(3):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(
            CollectionConfig(
                "c", VectorParams(size=DIM, distance=Distance.COSINE),
                optimizer=OptimizerConfig(indexing_threshold=0),
                replication_factor=2,
            )
        )
        cluster.upsert("c", points(60))
        before = collect(cluster)
        faulty.fail_worker("w1")
        for _ in range(4):
            cluster.search("c", SearchRequest(vector=np.ones(DIM), limit=5))
        delta = collect(cluster).diff(before)
        assert delta.failover.failovers > 0
        assert delta.failover.breaker_opens >= 1
        assert dict(delta.failover.breaker_state)["w1"] == "open"

    def test_healthy_cluster_zero_failover_counters(self):
        cluster = make_cluster()
        cluster.upsert("c", points(50))
        cluster.search("c", SearchRequest(vector=np.ones(DIM), limit=5))
        snap = collect(cluster)
        assert snap.failover.failovers == 0
        assert snap.failover.retries == 0
        assert snap.failover.degraded_queries == 0


class TestSaturationReproduction:
    def test_single_worker_build_saturates_node(self):
        """§3.3 profiling: 'a single worker already utilizes 90-97% of the
        compute node's CPU capacity during index construction'."""
        from repro.bench.simscale import simulate_index_build_with_utilization

        _, utils = simulate_index_build_with_utilization(1)
        assert len(utils) == 1
        assert 0.90 <= utils[0] <= 0.97

    def test_packed_build_also_saturates(self):
        from repro.bench.simscale import simulate_index_build_with_utilization

        _, utils = simulate_index_build_with_utilization(32)
        assert all(u > 0.9 for u in utils)


#: ``WorkerTelemetry`` fields read from what the shards store — point and
#: index sizes, and the lifetime counters of indexes, quantized segments and
#: WALs.  No reset can zero a size; the lifetime counters are measured by
#: ``diff`` (the HNSW ones are bumped lock-free on every hop).
FROM_STORED_DATA = {
    "points", "indexed_vectors", "distance_computations",
    "wal_appends", "wal_flushes", "wal_bytes",
    "quant_scans", "quant_scanned_codes", "quant_rescored",
}


class TestResetZeroesEveryCounter:
    def test_every_counter_telemetry_reports_is_zero_after_reset(self, tmp_path):
        cluster = Cluster.with_workers(2)
        cluster.create_collection(
            CollectionConfig(
                "c", VectorParams(size=DIM, distance=Distance.COSINE),
                optimizer=OptimizerConfig(indexing_threshold=32),
                wal=WalConfig(enabled=True, path=str(tmp_path)),
            )
        )
        cluster.enable_cache()
        cluster.upsert("c", points(200))
        cluster.delete("c", list(range(100)))
        cluster.enable_maintenance("c")
        cluster.drain_maintenance("c")
        cluster.optimize("c")
        for _ in range(2):
            cluster.search("c", SearchRequest(vector=np.ones(DIM), limit=5))
        before = cluster.telemetry()
        assert before.total_maint_passes > 0

        cluster.reset_telemetry()
        snap = cluster.telemetry()
        # A snapshot minus itself zeroes every counter and keeps every gauge:
        # the reset snapshot must read the same.
        zeroed = snap.diff(snap)
        sets = [(w, zeroed.workers[wid], before.workers[wid])
                for wid, w in snap.workers.items()]
        sets += [(getattr(snap, part), getattr(zeroed, part), None)
                 for part in ("fanout", "ingest", "failover", "coalesce", "cache", "reshard")]
        for counters, expected, worker_before in sets:
            for f in dataclasses.fields(counters):
                value, want = getattr(counters, f.name), getattr(expected, f.name)
                if worker_before is not None and f.name in FROM_STORED_DATA:
                    assert value == getattr(worker_before, f.name)
                else:
                    assert value == want if want else not value, (
                        f"{type(counters).__name__}.{f.name} = {value!r}"
                    )
        for shard in cluster.maintenance_stats("c").values():
            assert not shard["passes"] and not shard["swaps"]
            assert not any(shard["driver"].values())
        cluster.disable_maintenance("c")
