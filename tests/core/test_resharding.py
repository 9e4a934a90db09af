"""Live resharding tests: write gates, planner properties, the three-phase
migration protocol under concurrent writers, coordinator lifecycle, and the
reshard telemetry surface."""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.errors import ClusterConfigError
from repro.core.resharding import (
    MoveResult,
    ReshardConfig,
    ReshardCoordinator,
    ShardWriteGate,
)
from repro.core.router import PlacementPlan
from repro.core.transport import FaultInjectingTransport, LocalTransport
from repro.core.worker import Worker

DIM = 8


def config(name="papers", **kwargs):
    defaults = dict(optimizer=OptimizerConfig(indexing_threshold=0))
    defaults.update(kwargs)
    return CollectionConfig(name, VectorParams(size=DIM, distance=Distance.COSINE), **defaults)


def points(n, start=0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        PointStruct(id=start + i, vector=rng.normal(size=DIM), payload={"i": start + i})
        for i in range(n)
    ]


def cluster_with(n_workers, **kwargs):
    cluster = Cluster(**kwargs)
    for i in range(n_workers):
        cluster.add_worker(Worker(f"w{i}"))
    return cluster


class TestShardWriteGate:
    def test_fence_waits_for_inflight_writer(self):
        gate = ShardWriteGate()
        gate.writer_enter()
        fenced = threading.Event()

        def do_fence():
            with gate.fence():
                fenced.set()

        t = threading.Thread(target=do_fence)
        t.start()
        time.sleep(0.02)
        assert not fenced.is_set()  # writer still in flight
        gate.writer_exit()
        t.join(timeout=2)
        assert fenced.is_set()

    def test_writers_blocked_while_fenced(self):
        gate = ShardWriteGate()
        release = threading.Event()
        entered = threading.Event()

        def do_fence():
            with gate.fence():
                entered.set()
                release.wait(timeout=2)

        t = threading.Thread(target=do_fence)
        t.start()
        assert entered.wait(timeout=2)
        admitted = threading.Event()

        def do_write():
            gate.writer_enter()
            admitted.set()
            gate.writer_exit()

        w = threading.Thread(target=do_write)
        w.start()
        time.sleep(0.02)
        assert not admitted.is_set()  # fence keeps writers out
        release.set()
        w.join(timeout=2)
        t.join(timeout=2)
        assert admitted.is_set()


class TestPlannerProperties:
    def test_moves_sorted_and_deterministic(self):
        plan = PlacementPlan(worker_ids=["a", "b", "c"], shard_number=9,
                             replication_factor=2)
        runs = [plan.rebalance(["a", "b", "c", "d"], balance=True)[1] for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        keys = [(m.shard_id, m.target) for m in runs[0]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(8))
    def test_minimality_no_move_for_surviving_holders(self, seed):
        """Property: a shard whose holders all survive is never moved."""
        rng = np.random.default_rng(seed)
        n_workers = int(rng.integers(3, 8))
        workers = [f"w{i}" for i in range(n_workers)]
        plan = PlacementPlan(
            worker_ids=workers,
            shard_number=int(rng.integers(4, 16)),
            replication_factor=int(rng.integers(1, 3)),
        )
        departed = {workers[int(rng.integers(0, n_workers))]}
        survivors = [w for w in workers if w not in departed]
        if plan.replication_factor > len(survivors):
            pytest.skip("cannot honour rf after departure")
        _, moves = plan.rebalance(survivors)
        untouched = {
            shard
            for shard, holders in plan.assignments.items()
            if all(h in survivors for h in holders)
        }
        assert all(m.shard_id not in untouched for m in moves)

    def test_balance_mode_levels_spread(self):
        plan = PlacementPlan(worker_ids=["a", "b"], shard_number=8)
        new_plan, moves = plan.rebalance(["a", "b", "c"], balance=True)
        assert moves  # without balance=True scale-out yields no moves
        load = new_plan.load()
        assert max(load.values()) - min(load.values()) <= 1

    def test_apply_move_bumps_epoch(self):
        plan = PlacementPlan(worker_ids=["a", "b"], shard_number=2)
        assert plan.epoch(0) == 0
        assert plan.apply_move(0, ["b"]) == 1
        assert plan.apply_move(0, ["a", "b"]) == 2
        assert plan.epoch(0) == 2
        assert plan.epoch(1) == 0
        with pytest.raises(ClusterConfigError):
            plan.apply_move(1, [])


class TestLiveScaleOut:
    def test_add_worker_migrates_shards_live(self):
        cluster = cluster_with(3)
        cluster.create_collection(config(shard_number=8))
        cluster.upsert("papers", points(120))
        q = np.ones(DIM)
        before = [
            (h.id, round(h.score, 6))
            for h in cluster.search("papers", SearchRequest(vector=q, limit=10))
        ]
        moves = cluster.add_worker(Worker("w3"), rebalance=True)
        assert moves and all(m.target == "w3" for m in moves)
        plan = cluster.placement("papers")
        assert plan.shards_on("w3")  # newcomer received shards
        assert cluster.count("papers") == 120
        after = [
            (h.id, round(h.score, 6))
            for h in cluster.search("papers", SearchRequest(vector=q, limit=10))
        ]
        assert after == before  # migration is invisible to search
        # Moved shards bumped their plan epoch; the source retired its copy.
        for m in moves:
            assert plan.epoch(m.shard_id) >= 1
            holders = plan.workers_for(m.shard_id)
            src = cluster._workers[m.source]
            assert m.source not in holders
            assert not src.has_shard("papers", m.shard_id)

    def test_scale_out_with_concurrent_writers_loses_nothing(self):
        cluster = cluster_with(3)
        cluster.create_collection(config(shard_number=8))
        cluster.upsert("papers", points(90))
        stop = threading.Event()
        written = []
        errors = []

        def writer(worker_idx):
            i = 0
            while not stop.is_set():
                base = 10_000 + worker_idx * 100_000 + i * 10
                try:
                    cluster.upsert("papers", points(10, start=base, seed=worker_idx))
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)
                    return
                written.append(base)
                i += 1

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        try:
            # Slow the copy enough that writers overlap every phase.
            coordinator = ReshardCoordinator(
                cluster, ReshardConfig(chunk_rows=16, catchup_rounds=4)
            )
            cluster.add_worker(Worker("w3"))
            results = coordinator.reshard_collection("papers", balance=True)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors
        assert results and all(isinstance(r, MoveResult) for r in results)
        expected = 90 + 10 * len(written)
        assert cluster.count("papers") == expected
        # Every concurrently written point is retrievable post-cutover.
        for base in written[:: max(1, len(written) // 20)]:
            rec = cluster.retrieve("papers", base)
            assert rec.payload == {"i": base}

    def test_mutations_during_migration_converge(self):
        """Deletes and payload edits issued mid-move land on the target."""
        cluster = cluster_with(2)
        cluster.create_collection(config(shard_number=4))
        cluster.upsert("papers", points(60))
        coordinator = ReshardCoordinator(
            cluster, ReshardConfig(chunk_rows=8)
        )
        state = cluster._state("papers")
        mutated = threading.Event()

        def mutate():
            cluster.delete("papers", [0, 1, 2])
            cluster.set_payload("papers", 3, {"tag": "migrated"})
            cluster.upsert("papers", points(5, start=500))
            mutated.set()

        t = threading.Thread(target=mutate)
        t.start()
        cluster.add_worker(Worker("w2"))
        coordinator.reshard_collection("papers", balance=True)
        t.join(timeout=10)
        assert mutated.is_set()
        assert cluster.count("papers") == 60 - 3 + 5
        assert cluster.retrieve("papers", 3).payload == {"tag": "migrated"}
        assert state.plan.shards_on("w2")

    def test_throttle_limits_copy_rate(self):
        cluster = cluster_with(1)
        cluster.create_collection(config(shard_number=2))
        cluster.upsert("papers", points(400))
        rate = 64 * 1024.0
        coordinator = ReshardCoordinator(
            cluster,
            ReshardConfig(chunk_rows=32, throttle_bytes_per_s=rate),
        )
        cluster.add_worker(Worker("w1"))
        results = coordinator.reshard_collection("papers", balance=True)
        moved = [r for r in results if not r.fallback]
        assert moved
        stats = coordinator.stats.snapshot()
        assert stats["throttle_sleep_seconds"] > 0
        measured = stats["bytes_copied"] / max(stats["copy_seconds"], 1e-9)
        assert measured <= rate * 1.5  # throttle actually slowed the copy


class TestElasticRemoval:
    def test_remove_worker_graceful_live_migration(self):
        cluster = cluster_with(3)
        cluster.create_collection(config())
        cluster.upsert("papers", points(120))
        moves = cluster.remove_worker("w1")
        assert all(m.target != "w1" for m in moves)
        assert cluster.count("papers") == 120
        assert "w1" not in cluster.placement("papers").worker_ids
        assert cluster.reshard_stats()["lossy_moves"] == 0

    def test_remove_dead_worker_with_replicas_under_writers(self):
        """Satellite stress: rf=2, the departing worker is already dead, and
        writers keep the collection hot — the surviving replica donates every
        shard and no point is lost."""
        faulty = FaultInjectingTransport(LocalTransport(), advertise_failures=True)
        cluster = Cluster(faulty)
        for i in range(3):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(90))
        faulty.fail_worker("w0")
        stop = threading.Event()
        written = []
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                base = 20_000 + i * 10
                try:
                    cluster.upsert("papers", points(10, start=base, seed=7))
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)
                    return
                written.append(base)
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            moves = cluster.remove_worker("w0")
        finally:
            stop.set()
            t.join(timeout=10)
        assert not errors
        assert moves
        assert cluster.reshard_stats()["lossy_moves"] == 0
        assert cluster.count("papers") == 90 + 10 * len(written)
        # Every shard still has rf live replicas holding identical counts.
        state = cluster._state("papers")
        for shard_id, holders in state.plan.assignments.items():
            assert len(holders) == 2
            counts = {
                cluster._workers[w].count("papers", shard_id) for w in holders
            }
            assert len(counts) == 1

    def test_remove_worker_rf_check_unchanged(self):
        cluster = cluster_with(2)
        cluster.create_collection(config(replication_factor=2))
        with pytest.raises(ClusterConfigError):
            cluster.remove_worker("w0")


class TestCoordinatorLifecycle:
    def test_driver_lifecycle_from_cluster(self):
        cluster = cluster_with(2)
        cluster.create_collection(config(shard_number=4))
        cluster.upsert("papers", points(40))
        cluster.enable_resharding()
        assert cluster.resharder.is_running
        cluster.add_worker(Worker("w2"))
        cluster.resharder.submit("papers")
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if cluster.placement("papers").shards_on("w2"):
                break
            time.sleep(0.01)
        cluster.disable_resharding(drain=True)
        assert not cluster.resharder.is_running
        assert cluster.placement("papers").shards_on("w2")
        assert cluster.count("papers") == 40
        stats = cluster.reshard_stats()
        assert stats["jobs"] >= 1 and stats["moves_completed"] >= 1

    def test_drain_executes_queued_jobs_synchronously(self):
        cluster = cluster_with(2)
        cluster.create_collection(config(shard_number=4))
        cluster.upsert("papers", points(30))
        cluster.add_worker(Worker("w2"))
        cluster.resharder.submit("papers")
        results = cluster.drain_resharding()
        assert results and cluster.placement("papers").shards_on("w2")

    def test_custom_config_via_enable(self):
        cluster = cluster_with(2)
        cfg = ReshardConfig(chunk_rows=4)
        cluster.enable_resharding(config=cfg)
        assert cluster.resharder.config.chunk_rows == 4
        cluster.disable_resharding()

    def test_close_stops_driver(self):
        cluster = cluster_with(2)
        cluster.enable_resharding()
        cluster.close()
        assert not cluster.resharder.is_running


class TestWorkerMigrationRPCs:
    def test_source_side_protocol_direct(self):
        src, dst = Worker("src"), Worker("dst")
        cfg = config()
        src.create_shard("papers", 0, cfg)
        src.upsert("papers", 0, points(20))
        begun = src.begin_shard_migration("papers", 0)
        assert begun["rows"] == 20
        assert src.migration_stats("papers", 0)["active"]
        # Mid-copy mutation lands in the journal, not the pinned snapshot.
        src.upsert("papers", 0, points(3, start=100))
        rows, cursor = 0, 0
        while cursor is not None:
            chunk = src.transfer_shard_out_columnar("papers", 0, cursor, 8)
            dst.transfer_shard_in_chunk(
                "papers", 0, cfg, chunk["ids"], chunk["vectors"], chunk["payloads"]
            )
            rows += len(chunk["ids"])
            cursor = chunk["next_cursor"]
        assert rows == 20
        entries = src.drain_shard_journal("papers", 0)
        assert sum(len(op.ids) for op in entries) == 3
        assert dst.apply_shard_journal("papers", 0, entries) == 3
        out = src.end_shard_migration("papers", 0)
        assert out["rows_exported"] == 20
        assert not src.migration_stats("papers", 0)["active"]
        assert dst.count("papers", 0) == 23

    def test_chunk_resend_is_idempotent(self):
        src, dst = Worker("src"), Worker("dst")
        cfg = config()
        src.create_shard("papers", 0, cfg)
        src.upsert("papers", 0, points(10))
        src.begin_shard_migration("papers", 0)
        chunk = src.transfer_shard_out_columnar("papers", 0, 0, 10)
        for _ in range(2):  # a transport retry re-sends the same chunk
            dst.transfer_shard_in_chunk(
                "papers", 0, cfg, chunk["ids"], chunk["vectors"], chunk["payloads"]
            )
        src.end_shard_migration("papers", 0)
        assert dst.count("papers", 0) == 10


class TestReshardTelemetry:
    def test_reshard_counters_and_histograms_in_diff(self):
        cluster = cluster_with(2)
        cluster.create_collection(config(shard_number=4))
        cluster.upsert("papers", points(80))
        before = cluster.telemetry()
        cluster.add_worker(Worker("w2"), rebalance=True)
        diff = cluster.telemetry().diff(before)
        assert diff.reshard.moves_completed >= 1
        assert diff.reshard.cutovers >= 1
        assert diff.reshard.rows_copied > 0
        assert diff.reshard.lossy_moves == 0
        hists = cluster.telemetry().histograms
        assert hists["reshard.move_s"].count >= 1
        assert hists["reshard.cutover_s"].count >= 1
        assert hists["reshard.copy_chunk_s"].count >= 1

    def test_reset_telemetry_zeroes_reshard(self):
        cluster = cluster_with(2)
        cluster.create_collection(config(shard_number=4))
        cluster.upsert("papers", points(40))
        cluster.add_worker(Worker("w2"), rebalance=True)
        assert cluster.reshard_stats()["moves_completed"] >= 1
        cluster.reset_telemetry()
        stats = cluster.reshard_stats()
        assert stats["moves_completed"] == 0 and stats["rows_copied"] == 0
        assert cluster.telemetry().histograms.get("reshard.move_s") is None or \
            cluster.telemetry().histograms["reshard.move_s"].count == 0
