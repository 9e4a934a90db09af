"""Parallel broadcast–reduce: the thread-pool fan-out must be invisible.

Results of ``Cluster.search`` / ``search_batch`` / ``build_index`` are
asserted bit-identical between a serial fan-out (``max_fanout_threads=1``)
and the default parallel one, and the fan-out telemetry and predicated
batch routing are checked.  The parallel side runs over a transport whose
calls wait, since over an in-process transport the lanes run inline; where
lanes run, and the one shared pool, are checked at the end.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    Filter,
    HasId,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)
from repro.core.cluster import FANOUT_POOL_CAP, Cluster
from repro.core.transport import InstrumentedTransport, LocalTransport
from repro.obs.trace import Tracer, set_tracer

DIM = 16
N = 400
#: Per-call latency of the parallel side's transport: enough to make it a
#: waiting transport (lanes go to the pool), small enough to keep tests fast.
LATENCY_S = 1e-4


def make_points():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(N, DIM)).astype(np.float32)
    return [
        PointStruct(id=i, vector=vectors[i], payload={"bucket": i % 4})
        for i in range(N)
    ]


def new_cluster(transport=None, *, max_fanout_threads=None):
    """Four workers and an empty collection ``dist``."""
    cluster = Cluster.with_workers(
        4, transport=transport, max_fanout_threads=max_fanout_threads
    )
    cluster.create_collection(
        CollectionConfig(
            "dist",
            VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=0),
        )
    )
    return cluster


def make_cluster(max_fanout_threads=None, *, instrument=False, indexed=True):
    """``max_fanout_threads=1`` is the serial reference.  Any other width runs
    over a waiting transport, so its lanes really go to the pool."""
    if max_fanout_threads != 1:
        transport = InstrumentedTransport(LocalTransport(), latency_s=LATENCY_S)
    elif instrument:
        transport = InstrumentedTransport(LocalTransport())
    else:
        transport = None
    cluster = new_cluster(transport, max_fanout_threads=max_fanout_threads)
    cluster.upsert("dist", make_points())
    if indexed:
        cluster.build_index("dist")
    return cluster


def queries(n=12, seed=8):
    return np.random.default_rng(seed).normal(size=(n, DIM)).astype(np.float32)


def hit_keys(hits):
    return [(h.id, h.score) for h in hits]


class TestParallelEqualsSerial:
    def test_search(self):
        serial = make_cluster(1)
        parallel = make_cluster(None)
        for v in queries():
            req = SearchRequest(vector=v, limit=10)
            assert hit_keys(serial.search("dist", req)) == hit_keys(
                parallel.search("dist", req)
            )

    def test_search_batch(self):
        serial = make_cluster(1)
        parallel = make_cluster(None)
        reqs = [SearchRequest(vector=v, limit=10) for v in queries()]
        a = serial.search_batch("dist", reqs)
        b = parallel.search_batch("dist", reqs)
        assert [hit_keys(h) for h in a] == [hit_keys(h) for h in b]

    def test_build_index(self):
        serial = make_cluster(1, indexed=False)
        parallel = make_cluster(None, indexed=False)
        built_serial = serial.build_index("dist")
        built_parallel = parallel.build_index("dist")
        assert built_serial == built_parallel
        for v in queries():
            req = SearchRequest(vector=v, limit=10)
            assert hit_keys(serial.search("dist", req)) == hit_keys(
                parallel.search("dist", req)
            )

    def test_search_groups(self):
        serial = make_cluster(1)
        parallel = make_cluster(None)
        req = SearchRequest(vector=queries()[0], limit=8)
        a = serial.search_groups("dist", req, group_by="bucket", group_size=2, limit=3)
        b = parallel.search_groups("dist", req, group_by="bucket", group_size=2, limit=3)
        assert [(k, hit_keys(hits)) for k, hits in a] == [
            (k, hit_keys(hits)) for k, hits in b
        ]


class TestFanoutTelemetry:
    def test_stats_recorded(self):
        cluster = make_cluster(None)
        cluster.fanout_stats.reset()
        cluster.search("dist", SearchRequest(vector=queries()[0], limit=5))
        stats = cluster.fanout_stats
        assert stats.fanouts == 1
        assert stats.total_calls == 4
        assert stats.max_width == 4
        assert stats.mean_width == 4.0
        assert stats.wall_seconds > 0
        assert len(stats.worker_seconds) == 4

    def test_one_transport_call_per_worker_in_parallel(self):
        cluster = make_cluster(None, instrument=True)
        cluster.transport.stats.reset()
        reqs = [SearchRequest(vector=v, limit=5) for v in queries(6)]
        cluster.search_batch("dist", reqs)
        assert cluster.transport.stats.calls_by_method.get("search_batch") == 4

    def test_close_is_idempotent(self):
        cluster = make_cluster(None)
        cluster.search("dist", SearchRequest(vector=queries()[0], limit=5))
        cluster.close()
        cluster.close()
        # the pool is recreated on demand after close
        assert len(cluster.search("dist", SearchRequest(vector=queries()[0], limit=5))) == 5


class TestPredicatedBatchRouting:
    def _target_ids(self, cluster):
        """Point ids that all live on shard 0 (one worker owns them)."""
        state = cluster._state("dist")
        return [pid for pid in range(N) if state.router.shard_for(pid) == 0]

    def test_all_predicated_batch_skips_workers(self):
        cluster = make_cluster(None, instrument=True)
        ids = self._target_ids(cluster)[:6]
        reqs = [
            SearchRequest(vector=v, limit=4, filter=Filter(must=[HasId(ids)]))
            for v in queries(3)
        ]
        cluster.transport.stats.reset()
        results = cluster.search_batch("dist", reqs)
        # all target ids live on shard 0 -> exactly one worker is called
        assert cluster.transport.stats.calls_by_method.get("search_batch") == 1
        for hits in results:
            assert {h.id for h in hits} <= set(ids)

    def test_mixed_batch_broadcasts(self):
        cluster = make_cluster(None, instrument=True)
        ids = self._target_ids(cluster)[:6]
        reqs = [
            SearchRequest(vector=queries(1)[0], limit=4, filter=Filter(must=[HasId(ids)])),
            SearchRequest(vector=queries(1)[0], limit=4),  # unpredicated
        ]
        cluster.transport.stats.reset()
        cluster.search_batch("dist", reqs)
        assert cluster.transport.stats.calls_by_method.get("search_batch") == 4

    def test_predicated_batch_matches_unrouted_results(self):
        routed = make_cluster(None)
        serial = make_cluster(1)
        ids = self._target_ids(routed)[:6]
        reqs = [
            SearchRequest(vector=v, limit=4, filter=Filter(must=[HasId(ids)]))
            for v in queries(4)
        ]
        a = routed.search_batch("dist", reqs)
        b = serial.search_batch("dist", reqs)
        assert [hit_keys(h) for h in a] == [hit_keys(h) for h in b]

    def test_empty_batch(self):
        cluster = make_cluster(None)
        assert cluster.search_batch("dist", []) == []


class TestFanoutWidthKnob:
    @pytest.mark.parametrize("width", [1, 2, 3, None, 0])
    def test_any_width_same_results(self, width):
        cluster = make_cluster(width)
        expected = make_cluster(1)
        reqs = [SearchRequest(vector=v, limit=10) for v in queries(6)]
        assert [hit_keys(h) for h in cluster.search_batch("dist", reqs)] == [
            hit_keys(h) for h in expected.search_batch("dist", reqs)
        ]


def fanout_threads(exclude=()):
    return [
        t for t in threading.enumerate()
        if t.name.startswith("fanout") and t not in exclude
    ]


class TestWhereLanesRun:
    def test_in_process_lanes_run_on_the_calling_thread(self):
        before = set(threading.enumerate())
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            cluster = new_cluster()
            cluster.upsert("dist", make_points())
            cluster.build_index("dist")
            cluster.search("dist", SearchRequest(vector=queries()[0], limit=5))
            cluster.search_batch(
                "dist", [SearchRequest(vector=v, limit=5) for v in queries(3)]
            )
        finally:
            set_tracer(previous)
        rpcs = [r for r in tracer.spans() if r.name.startswith("rpc.")]
        assert {r.name for r in rpcs} >= {
            "rpc.upsert", "rpc.build_index", "rpc.search", "rpc.search_batch"
        }
        assert {r.thread for r in rpcs} == {threading.current_thread().name}
        assert cluster._executor is None
        assert fanout_threads(exclude=before) == []
        assert cluster.fanout_stats.mean_width > 1  # width counts lanes

    @pytest.mark.slow
    def test_waiting_transport_overlaps_lanes(self):
        latency = 0.05
        cluster = new_cluster(
            InstrumentedTransport(LocalTransport(), latency_s=latency)
        )
        cluster.upsert("dist", make_points())
        req = SearchRequest(vector=queries()[0], limit=5)
        t0 = time.perf_counter()
        hits = cluster.search("dist", req)
        wall = time.perf_counter() - t0
        assert len(hits) == 5
        assert cluster.fanout_stats.max_width == 4
        # Four 50 ms calls in series would take 200 ms.
        assert wall < 2 * latency
        cluster.close()

    def test_one_pool_never_regrows(self):
        cluster = make_cluster(3, indexed=False)
        pool = cluster._fanout_pool()
        assert pool._max_workers == 3
        cluster.search("dist", SearchRequest(vector=queries()[0], limit=5))
        assert cluster._fanout_pool() is pool
        assert pool.submit(lambda: 7).result() == 7
        cluster.close()
        default = make_cluster(None, indexed=False)
        assert default._fanout_pool()._max_workers == FANOUT_POOL_CAP
        default.close()

    def test_concurrent_fan_outs_of_mixed_width_never_raise(self):
        before = set(threading.enumerate())
        cluster = make_cluster(None)
        state = cluster._state("dist")
        shard0 = [pid for pid in range(N) if state.router.shard_for(pid) == 0]
        points = make_points()
        errors: list[BaseException] = []
        start = threading.Barrier(4)

        def client(i: int) -> None:
            try:
                start.wait()
                for j, v in enumerate(queries(6, seed=i)):
                    if (i + j) % 3 == 0:  # one lane
                        req = SearchRequest(
                            vector=v, limit=3, filter=Filter(must=[HasId(shard0)])
                        )
                        cluster.search("dist", req)
                    elif (i + j) % 3 == 1:  # four lanes
                        cluster.search("dist", SearchRequest(vector=v, limit=3))
                    else:  # one to four shards
                        cluster.upsert("dist", points[j : j + 1 + i])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        clients = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per run
        try:
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in clients)
        assert errors == []
        assert cluster._executor is not None
        cluster.close()
        assert fanout_threads(exclude=before) == []
