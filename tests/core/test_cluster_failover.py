"""Failure-handling tests for the cluster: retries, failover, degraded
reads, breaker integration, write partial-acks, and the concurrency
regressions fixed alongside (round-robin counter, fault-injector locking,
rebalance export shadowing)."""

import threading

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    HasId,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    UpdateStatus,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.errors import NoReplicaAvailableError, RequestTimeoutError
from repro.core.failover import BreakerState, HealthTracker, RetryPolicy
from repro.core.transport import (
    FaultInjectingTransport,
    InstrumentedTransport,
    LocalTransport,
)
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


def faulty_cluster(n_workers, *, advertise_failures=True, **cluster_kwargs):
    faulty = FaultInjectingTransport(
        LocalTransport(), advertise_failures=advertise_failures
    )
    cluster = Cluster(faulty, **cluster_kwargs)
    for i in range(n_workers):
        cluster.add_worker(Worker(f"w{i}"))
    return cluster, faulty


class TestReplicaFailover:
    def test_silent_death_fails_over_bit_identical(self):
        """With advertise_failures=False the coordinator only learns of the
        death when a call raises — the failover path must still produce the
        same results as the healthy cluster."""
        cluster, faulty = faulty_cluster(3, advertise_failures=False)
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(90))
        q = np.ones(DIM)
        baseline = [h.id for h in cluster.search("papers", SearchRequest(vector=q, limit=10))]
        faulty.fail_worker("w1")
        after = cluster.search("papers", SearchRequest(vector=q, limit=10))
        assert [h.id for h in after] == baseline
        assert not after.degraded
        assert cluster.failover_stats.failovers > 0

    def test_point_reads_fail_over(self):
        cluster, faulty = faulty_cluster(3, advertise_failures=False)
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(60))
        faulty.fail_worker("w0")
        assert cluster.count("papers") == 60
        assert cluster.retrieve("papers", 17).payload == {"i": 17}
        page, _ = cluster.scroll("papers", limit=10)
        assert [r.id for r in page] == list(range(10))

    def test_breaker_opens_then_heals(self):
        health = HealthTracker(failure_threshold=2, reset_timeout_s=0.0)
        cluster, faulty = faulty_cluster(
            3, advertise_failures=False, health=health
        )
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(60))
        faulty.fail_worker("w1")
        q = np.ones(DIM)
        for _ in range(4):
            cluster.search("papers", SearchRequest(vector=q, limit=5))
        assert health.state("w1") is BreakerState.OPEN
        assert cluster.failover_stats.breaker_opens >= 1
        faulty.heal_worker("w1")
        # Cooldown of 0: the next resolution half-opens, probes, and closes.
        cluster.search("papers", SearchRequest(vector=q, limit=5))
        assert health.state("w1") is BreakerState.CLOSED
        assert cluster.failover_stats.breaker_closes >= 1

    def test_retry_recovers_transient_faults(self):
        faulty = FaultInjectingTransport(LocalTransport(), fail_every=7)
        cluster = Cluster(faulty, retry_policy=RetryPolicy(base_backoff_s=0.0))
        for i in range(3):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config())
        cluster.upsert("papers", points(90))
        q = np.ones(DIM)
        for _ in range(10):
            hits = cluster.search("papers", SearchRequest(vector=q, limit=5))
            assert len(hits) == 5
        assert cluster.failover_stats.retries > 0

    def test_per_call_timeout_fails_over_to_replica(self):
        cluster, faulty = faulty_cluster(
            2,
            retry_policy=RetryPolicy(
                max_attempts=1, base_backoff_s=0.0, timeout_s=0.05
            ),
        )
        cluster.create_collection(config(shard_number=2, replication_factor=2))
        cluster.upsert("papers", points(40))
        q = np.ones(DIM)
        baseline = [h.id for h in cluster.search("papers", SearchRequest(vector=q, limit=10))]
        faulty.set_delay("w0", 0.5)
        after = cluster.search("papers", SearchRequest(vector=q, limit=10))
        assert [h.id for h in after] == baseline
        assert cluster.failover_stats.timeouts > 0

    def test_timeout_without_replica_raises_timeout_error(self):
        cluster, faulty = faulty_cluster(
            1,
            retry_policy=RetryPolicy(
                max_attempts=1, base_backoff_s=0.0, timeout_s=0.05
            ),
        )
        cluster.create_collection(config())
        cluster.upsert("papers", points(10))
        faulty.set_delay("w0", 0.5)
        with pytest.raises((RequestTimeoutError, NoReplicaAvailableError)):
            cluster.retrieve("papers", 0)


class TestDegradedReads:
    def test_allow_partial_returns_flagged_subset(self):
        cluster, faulty = faulty_cluster(2)
        cluster.create_collection(config(replication_factor=1))
        cluster.upsert("papers", points(40))
        faulty.fail_worker("w0")
        result = cluster.search(
            "papers", SearchRequest(vector=np.ones(DIM), limit=10, allow_partial=True)
        )
        assert result.degraded
        assert result.shards_answered < result.shards_total
        surviving = set(cluster._workers["w1"].shard_ids("papers"))
        assert {h.shard_id for h in result} <= surviving
        assert cluster.failover_stats.degraded_queries == 1

    def test_default_still_raises(self):
        cluster, faulty = faulty_cluster(2)
        cluster.create_collection(config(replication_factor=1))
        cluster.upsert("papers", points(40))
        faulty.fail_worker("w0")
        with pytest.raises(NoReplicaAvailableError):
            cluster.search("papers", SearchRequest(vector=np.ones(DIM), limit=10))

    def test_batch_degrades_only_if_all_requests_allow(self):
        cluster, faulty = faulty_cluster(2)
        cluster.create_collection(config(replication_factor=1))
        cluster.upsert("papers", points(40))
        faulty.fail_worker("w0")
        q = np.ones(DIM)
        allowing = [SearchRequest(vector=q, limit=5, allow_partial=True) for _ in range(2)]
        out = cluster.search_batch("papers", allowing)
        assert all(r.degraded for r in out)
        mixed = [
            SearchRequest(vector=q, limit=5, allow_partial=True),
            SearchRequest(vector=q, limit=5),
        ]
        with pytest.raises(NoReplicaAvailableError):
            cluster.search_batch("papers", mixed)

    def test_healthy_result_not_degraded(self):
        cluster, _ = faulty_cluster(2)
        cluster.create_collection(config())
        cluster.upsert("papers", points(40))
        result = cluster.search("papers", SearchRequest(vector=np.ones(DIM), limit=5))
        assert not result.degraded
        assert result.shards_answered == result.shards_total == 2


class TestWritePartialAck:
    def test_write_with_dead_replica_acknowledged(self):
        cluster, faulty = faulty_cluster(3)
        cluster.create_collection(config(replication_factor=2))
        faulty.fail_worker("w1")
        result = cluster.upsert("papers", points(30))
        assert result.status is UpdateStatus.ACKNOWLEDGED
        # The survivors hold the data; reads fail over around the dead
        # replica (which permanently missed the write — there is no
        # anti-entropy repair, hence ACKNOWLEDGED rather than COMPLETED).
        assert cluster.count("papers") == 30

    def test_healthy_write_completed(self):
        cluster, _ = faulty_cluster(3)
        cluster.create_collection(config(replication_factor=2))
        result = cluster.upsert("papers", points(30))
        assert result.status is UpdateStatus.COMPLETED

    def test_write_with_no_live_replica_raises(self):
        cluster, faulty = faulty_cluster(1)
        cluster.create_collection(config())
        faulty.fail_worker("w0")
        with pytest.raises(NoReplicaAvailableError):
            cluster.upsert("papers", points(10))


class TestEmptyPredicate:
    def test_empty_hasid_returns_empty_without_fanout(self):
        inner = LocalTransport()
        cluster = Cluster(InstrumentedTransport(inner))
        for i in range(3):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config())
        cluster.upsert("papers", points(30))
        cluster.transport.stats.reset()
        result = cluster.search(
            "papers",
            SearchRequest(vector=np.ones(DIM), limit=5, filter=HasId(frozenset())),
        )
        assert list(result) == []
        assert result.shards_total == 0 and not result.degraded
        assert cluster.transport.stats.calls_by_method.get("search") is None


class TestRebalanceWithDeadPrimary:
    def test_remove_dead_worker_pulls_from_surviving_replica(self):
        """A worker that dies before it can export its shards must not leave
        empty replicas behind when surviving replicas still hold the data
        (regression: an empty failed export used to shadow the
        surviving-replica pull)."""
        cluster, faulty = faulty_cluster(3)
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(90))
        faulty.fail_worker("w0")
        cluster.remove_worker("w0")
        assert cluster.count("papers") == 90
        # Every replica of every shard holds the same non-empty copy.
        state = cluster._state("papers")
        for shard in range(state.plan.shard_number):
            counts = [
                cluster.transport.call(w, "count", "papers", shard)
                for w in state.plan.workers_for(shard)
            ]
            assert len(set(counts)) == 1 and counts[0] > 0

    def test_remove_worker_forgets_breaker_state(self):
        health = HealthTracker(failure_threshold=1, reset_timeout_s=60.0)
        cluster, faulty = faulty_cluster(3, advertise_failures=False, health=health)
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(30))
        faulty.fail_worker("w2")
        for _ in range(2):
            cluster.search(
                "papers", SearchRequest(vector=np.ones(DIM), limit=5)
            )
        assert health.state("w2") is BreakerState.OPEN
        faulty.heal_worker("w2")
        cluster.remove_worker("w2")
        assert "w2" not in health.states()


class TestCutoverDuringRead:
    """A read that chose its holders just before a shard move's cutover
    reaches the source after it dropped the moved shard.  The source still
    holds the lane's other shard — at rf 1 its only holder — so the
    failover must exclude the source for the moved shard alone."""

    @staticmethod
    def loaded_cluster():
        cluster = Cluster.with_workers(3)
        cluster.create_collection(config(shard_number=4))
        cluster.upsert("papers", points(200))
        return cluster

    def test_move_between_holder_choice_and_fan_out(self):
        cluster = self.loaded_cluster()
        fan_out, moved = cluster._fan_out_collect, []

        def move_then_fan_out(calls):  # the holders are chosen; now the move completes
            if not moved:
                moved.append(cluster.add_worker(Worker("worker-3"), rebalance=True))
            return fan_out(calls)

        cluster._fan_out_collect = move_then_fan_out
        q = np.random.default_rng(5).normal(size=DIM)
        result = cluster.search("papers", SearchRequest(vector=q, limit=10))
        assert moved and cluster.failover_stats.failovers > 0
        assert result.shards_answered == result.shards_total == 4
        twin = self.loaded_cluster()  # the same move, with no read in flight
        twin.add_worker(Worker("worker-3"), rebalance=True)
        expected = twin.search("papers", SearchRequest(vector=q, limit=10))
        assert [(h.id, h.score) for h in result] == [(h.id, h.score) for h in expected]


class TestConcurrencyRegressions:
    def test_entry_worker_round_robin_exact_under_threads(self):
        """The round-robin counter must hand out exact per-worker shares even
        under concurrent callers (regression: unguarded ``+= 1``)."""
        cluster = Cluster.with_workers(4)
        n_threads, per_thread = 8, 100
        picks: list[list[str]] = [[] for _ in range(n_threads)]

        def run(idx: int):
            for _ in range(per_thread):
                picks[idx].append(cluster._entry_worker())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = [w for chunk in picks for w in chunk]
        assert len(flat) == n_threads * per_thread
        counts = {w: flat.count(w) for w in cluster.worker_ids}
        assert all(c == n_threads * per_thread // 4 for c in counts.values())

    def test_fault_injector_survives_concurrent_kill_heal(self):
        """fail/heal/call/is_reachable hammered from many threads must not
        corrupt state or raise anything but the injected faults
        (regression: unlocked ``fail_workers`` mutation)."""
        cluster, faulty = faulty_cluster(2, advertise_failures=False)
        cluster.create_collection(config(replication_factor=2))
        cluster.upsert("papers", points(40))
        stop = threading.Event()
        errors: list[BaseException] = []

        def chaos():
            while not stop.is_set():
                faulty.fail_worker("w0")
                faulty.is_reachable("w0")
                faulty.heal_worker("w0")

        def reader():
            q = np.ones(DIM)
            try:
                for _ in range(50):
                    cluster.search(
                        "papers",
                        SearchRequest(vector=q, limit=5, allow_partial=True),
                    )
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        chaos_threads = [threading.Thread(target=chaos) for _ in range(2)]
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in chaos_threads + readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        for t in chaos_threads:
            t.join()
        assert errors == []
