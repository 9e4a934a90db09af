"""Query coalescer tests: policy, stats, grouping, backpressure, shutdown,
per-request failover demux (a failed shard must not poison the batch),
result-cache hits served before admission, and the bit-identity property
coalesced == serial ``Cluster.search``."""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CollectionConfig,
    Distance,
    HasId,
    OptimizerConfig,
    PointStruct,
    SearchParams,
    SearchRequest,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.errors import NoReplicaAvailableError
from repro.core.scheduler import CoalescePolicy, CoalesceStats, QueryCoalescer
from repro.core.transport import FaultInjectingTransport, LocalTransport
from repro.core.worker import Worker

DIM = 8
N_POINTS = 120


def config(name="papers", **kwargs):
    defaults = dict(
        optimizer=OptimizerConfig(indexing_threshold=0), shard_number=4
    )
    defaults.update(kwargs)
    return CollectionConfig(
        name, VectorParams(size=DIM, distance=Distance.COSINE), **defaults
    )


def points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        PointStruct(id=i, vector=rng.normal(size=DIM), payload={"i": i})
        for i in range(n)
    ]


def make_cluster(n_workers=4, **kwargs):
    cluster = Cluster.with_workers(n_workers)
    cluster.create_collection(config(**kwargs))
    cluster.upsert("papers", points(N_POINTS))
    return cluster


def queries(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=DIM) for _ in range(n)]


def hit_keys(result):
    return [(h.id, h.score) for h in result]


class TestCoalescePolicy:
    def test_defaults_valid(self):
        p = CoalescePolicy()
        assert p.max_batch >= 1
        assert p.max_wait_s == p.max_wait_us * 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_batch=0),
            dict(max_wait_us=-1.0),
            dict(min_wait_us=-1.0),
            dict(min_wait_us=10.0, max_wait_us=5.0),
            dict(queue_capacity=0),
            dict(dispatch_threads=0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CoalescePolicy(**kwargs)


class TestCoalesceStats:
    def test_record_and_mean(self):
        stats = CoalesceStats()
        stats.record_batch(1)
        stats.record_batch(7)
        stats.record_bypass()
        snap = stats.snapshot()
        assert snap["batches"] == 2
        assert snap["coalesced"] == snap["total_width"] == 8
        assert snap["max_width"] == 7
        assert snap["solo_batches"] == 1
        assert snap["bypasses"] == 1
        assert stats.mean_width == 4.0
        stats.reset()
        assert stats.snapshot() == {
            "batches": 0, "coalesced": 0, "total_width": 0,
            "max_width": 0, "solo_batches": 0, "bypasses": 0,
            "deduped": 0,
        }


class TestCompatKey:
    def test_same_defaults_share_key(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        qs = queries(2)
        k1 = co.compat_key("papers", SearchRequest(vector=qs[0], limit=5))
        k2 = co.compat_key("papers", SearchRequest(vector=qs[1], limit=50,
                                                   allow_partial=True))
        # limit / allow_partial are per-request and must not split batches.
        assert k1 == k2
        cluster.close()

    def test_params_and_filters_split_key(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        q = queries(1)[0]
        base = co.compat_key("papers", SearchRequest(vector=q))
        ef = co.compat_key(
            "papers", SearchRequest(vector=q, params=SearchParams(hnsw_ef=99))
        )
        exact = co.compat_key(
            "papers", SearchRequest(vector=q, params=SearchParams(exact=True))
        )
        pred = co.compat_key(
            "papers", SearchRequest(vector=q, filter=HasId(frozenset([1, 2])))
        )
        assert len({base, ef, exact, pred}) == 4
        # Same predicate shard signature → same key.
        pred2 = co.compat_key(
            "papers", SearchRequest(vector=q, filter=HasId(frozenset([1, 2])))
        )
        assert pred == pred2
        cluster.close()

    def test_alias_resolves_to_canonical_key(self):
        cluster = make_cluster()
        cluster.create_alias("lookup", "papers")
        co = QueryCoalescer.for_cluster(cluster)
        q = queries(1)[0]
        assert co.compat_key("lookup", SearchRequest(vector=q)) == co.compat_key(
            "papers", SearchRequest(vector=q)
        )
        cluster.close()


class TestCoalescedResults:
    def test_concurrent_queries_match_serial(self):
        cluster = make_cluster()
        qs = queries(24)
        reqs = [SearchRequest(vector=q, limit=5) for q in qs]
        expected = [cluster.search("papers", r) for r in reqs]
        co = QueryCoalescer.for_cluster(
            cluster, policy=CoalescePolicy(max_wait_us=2000.0)
        )
        with ThreadPoolExecutor(max_workers=12) as pool:
            got = list(pool.map(lambda r: co.search("papers", r), reqs))
        for want, have in zip(expected, got):
            assert hit_keys(want) == hit_keys(have)
            assert (want.shards_total, want.shards_answered) == (
                have.shards_total, have.shards_answered
            )
        snap = co.stats.snapshot()
        assert snap["coalesced"] == 24
        assert snap["batches"] <= 24
        cluster.close()

    def test_incompatible_requests_not_merged(self):
        cluster = make_cluster()
        # A held-open window guarantees concurrent submissions would merge
        # if (wrongly) considered compatible.
        co = QueryCoalescer.for_cluster(
            cluster,
            policy=CoalescePolicy(max_wait_us=50_000.0, adaptive=False),
        )
        q = queries(1)[0]
        mixed = [
            SearchRequest(vector=q, limit=5),
            SearchRequest(vector=q, limit=5, params=SearchParams(hnsw_ef=77)),
            SearchRequest(vector=q, limit=5, filter=HasId(frozenset([3]))),
        ]
        expected = [cluster.search("papers", r) for r in mixed]
        futures = [co.submit("papers", r) for r in mixed]
        got = [f.result(timeout=10) for f in futures]
        for want, have in zip(expected, got):
            assert hit_keys(want) == hit_keys(have)
            assert (want.shards_total, want.shards_answered) == (
                have.shards_total, have.shards_answered
            )
        # Three distinct compat keys → three dispatched batches.
        assert co.stats.snapshot()["batches"] == 3
        cluster.close()

    def test_single_batch_formed_when_window_open(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(
            cluster,
            policy=CoalescePolicy(max_wait_us=200_000.0, adaptive=False),
        )
        futures = [
            co.submit("papers", SearchRequest(vector=q, limit=5))
            for q in queries(6)
        ]
        results = [f.result(timeout=10) for f in futures]
        assert all(len(r) == 5 for r in results)
        snap = co.stats.snapshot()
        assert snap["batches"] < 6  # amortized: fewer fan-outs than queries
        assert snap["max_width"] >= 2
        cluster.close()


class TestBackpressure:
    def test_full_queue_bypasses(self):
        from repro.core.scheduler import _Pending

        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(
            cluster,
            policy=CoalescePolicy(queue_capacity=1, max_wait_us=50_000.0,
                                  adaptive=False),
        )
        q = queries(1)[0]
        request = SearchRequest(vector=q, limit=5)
        # Fill the queue without notifying, so the collector (blocked in
        # wait) cannot drain it before the next submit sees it full.
        stuffed = _Pending(co.compat_key("papers", request), "papers", request)
        with co._wakeup:
            co._queue.append(stuffed)
        refused = co.submit("papers", request)
        assert refused is None  # refused, caller runs the direct path
        assert co.stats.snapshot()["bypasses"] == 1
        # The blocking entry point still completes via fallback.
        expected = cluster.search("papers", request)
        assert hit_keys(co.search("papers", request)) == hit_keys(expected)
        # Wake the collector; the stuffed entry dispatches normally.
        with co._wakeup:
            co._wakeup.notify()
        assert stuffed.future.result(timeout=10) is not None
        cluster.close()

    def test_adaptive_window_moves_between_bounds(self):
        cluster = make_cluster()
        policy = CoalescePolicy(max_batch=8, max_wait_us=1000.0, adaptive=True)
        co = QueryCoalescer.for_cluster(cluster, policy=policy)
        # Any sign of concurrency grows the window: a batch of >=2...
        co._adapt_window(2, 0)
        assert co.window_s > 0.0
        co._window_s = 0.0
        # ...queries still queued after collecting...
        co._adapt_window(1, 3)
        assert co.window_s > 0.0
        co._window_s = 0.0
        # ...or a fan-out still in flight when the next batch forms (the
        # many-solo-clients signature, where no backlog ever accumulates).
        co._adapt_window(1, 0, 1)
        assert co.window_s > 0.0
        for _ in range(16):
            co._adapt_window(policy.max_batch, 3)
        assert co.window_s == pytest.approx(policy.max_wait_s)
        # Idle solo dispatches shrink it back toward min_wait.
        for _ in range(64):
            co._adapt_window(1, 0)
        assert co.window_s == pytest.approx(policy.min_wait_s)
        cluster.close()


class TestShutdown:
    def test_close_drains_queued_queries(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(
            cluster,
            policy=CoalescePolicy(max_wait_us=100_000.0, adaptive=False),
        )
        futures = [
            co.submit("papers", SearchRequest(vector=q, limit=3))
            for q in queries(4)
        ]
        co.close()
        for f in futures:
            assert len(f.result(timeout=10)) == 3
        assert co.closed
        assert co.submit("papers", SearchRequest(vector=queries(1)[0])) is None
        co.close()  # idempotent
        cluster.close()

    def test_cluster_close_closes_coalescer(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        cluster.close()
        assert co.closed

    def test_for_cluster_replaces_closed_instance(self):
        cluster = make_cluster()
        first = QueryCoalescer.for_cluster(cluster)
        first.close()
        second = QueryCoalescer.for_cluster(cluster)
        assert second is not first and not second.closed
        assert cluster.coalescer is second
        cluster.close()


class TestTelemetry:
    def test_stats_histograms_and_diff(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        before = cluster.telemetry()
        co.search("papers", SearchRequest(vector=queries(1)[0], limit=5))
        after = cluster.telemetry()
        delta = after.diff(before)
        assert delta.coalesce.batches == 1
        assert delta.coalesce.coalesced == 1
        assert delta.coalesce.mean_width == 1.0
        assert after.histograms["coalesce.wait_s"].count == 1
        assert after.histograms["coalesce.width"].count == 1
        cluster.reset_telemetry()
        assert cluster.telemetry().coalesce.batches == 0
        cluster.close()

    def test_dispatch_emits_coalesce_span(self):
        from repro.obs.trace import Tracer, set_tracer

        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            cluster = make_cluster()
            co = QueryCoalescer.for_cluster(cluster)
            co.search("papers", SearchRequest(vector=queries(1)[0], limit=5))
            names = [s.name for s in tracer.spans()]
            assert "cluster.coalesce" in names
            cluster.close()
        finally:
            set_tracer(previous)


class TestSearchBatchDemux:
    def test_matches_serial_mixed_requests(self):
        cluster = make_cluster()
        qs = queries(6)
        reqs = [
            SearchRequest(vector=qs[0], limit=5),
            SearchRequest(vector=qs[1], limit=2),
            SearchRequest(vector=qs[2], limit=5, params=SearchParams(hnsw_ef=64)),
            SearchRequest(vector=qs[3], limit=5, filter=HasId(frozenset([7, 8]))),
            SearchRequest(vector=qs[4], limit=5, allow_partial=True),
            SearchRequest(vector=qs[5], limit=5,
                          filter=HasId(frozenset())),  # empty predicate
        ]
        expected = [cluster.search("papers", r) for r in reqs]
        got = cluster.search_batch_demux("papers", reqs)
        for want, have in zip(expected, got):
            assert hit_keys(want) == hit_keys(have)
            assert (want.shards_total, want.shards_answered) == (
                have.shards_total, have.shards_answered
            )
        assert cluster.search_batch_demux("papers", []) == []
        cluster.close()

    def _failed_cluster(self):
        """4 workers, rf=1, one worker dead mid-batch → its shards lost."""
        faulty = FaultInjectingTransport(LocalTransport())
        cluster = Cluster(faulty)
        for i in range(4):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config(replication_factor=1))
        cluster.upsert("papers", points(N_POINTS))
        dead = "w1"
        lost_shards = set(cluster._workers[dead].shard_ids("papers"))  # noqa: SLF001
        state = cluster._state("papers")  # noqa: SLF001
        # Point ids pinned to healthy vs lost shards, for predicated requests.
        healthy_ids = [
            i for i in range(N_POINTS)
            if state.router.shard_for(i) not in lost_shards
        ]
        lost_ids = [
            i for i in range(N_POINTS)
            if state.router.shard_for(i) in lost_shards
        ]
        faulty.fail_worker(dead)
        return cluster, lost_shards, healthy_ids, lost_ids

    def test_mid_batch_failure_degrades_only_affected_callers(self):
        """The satellite regression: one batch carrying
        ``allow_partial=True`` callers, strict broadcast callers, and a
        strict caller predicated to healthy shards.  The failure must reach
        exactly the callers whose shard set covers the dead worker."""
        cluster, lost_shards, healthy_ids, lost_ids = self._failed_cluster()
        assert healthy_ids and lost_ids, "need points on both sides"
        q = np.ones(DIM)
        reqs = [
            # [0] broadcast, tolerant → degraded flagged result
            SearchRequest(vector=q, limit=10, allow_partial=True),
            # [1] broadcast, strict → NoReplicaAvailableError
            SearchRequest(vector=q, limit=10),
            # [2] predicated to healthy shards, strict → untouched
            SearchRequest(vector=q, limit=10,
                          filter=HasId(frozenset(healthy_ids[:4]))),
            # [3] predicated to a lost shard, tolerant → degraded, empty
            SearchRequest(vector=q, limit=10,
                          filter=HasId(frozenset(lost_ids[:2])),
                          allow_partial=True),
        ]
        out = cluster.search_batch_demux("papers", reqs)

        degraded = out[0]
        assert not isinstance(degraded, Exception)
        assert degraded.degraded
        assert degraded.shards_answered == degraded.shards_total - len(lost_shards)
        assert all(h.shard_id not in lost_shards for h in degraded)

        assert isinstance(out[1], NoReplicaAvailableError)
        assert out[1].shard_id in lost_shards

        untouched = out[2]
        assert not isinstance(untouched, Exception)
        assert not untouched.degraded
        assert untouched.shards_answered == untouched.shards_total
        assert hit_keys(untouched) == hit_keys(
            cluster.search("papers", reqs[2])
        )

        lost_only = out[3]
        assert not isinstance(lost_only, Exception)
        assert lost_only.degraded
        assert lost_only.shards_answered == 0 and len(lost_only) == 0
        cluster.close()

    def test_mid_batch_failure_through_coalescer_futures(self):
        """Same failure, end to end through the coalescer: mixed
        ``allow_partial`` callers coalesce into one batch (strictness is
        not part of the compat key) and each future resolves with its own
        outcome."""
        cluster, lost_shards, _, _ = self._failed_cluster()
        co = QueryCoalescer.for_cluster(
            cluster,
            policy=CoalescePolicy(max_wait_us=200_000.0, adaptive=False),
        )
        q = np.ones(DIM)
        tolerant = co.submit(
            "papers", SearchRequest(vector=q, limit=10, allow_partial=True)
        )
        strict = co.submit("papers", SearchRequest(vector=q, limit=10))
        result = tolerant.result(timeout=10)
        assert result.degraded
        assert all(h.shard_id not in lost_shards for h in result)
        with pytest.raises(NoReplicaAvailableError):
            strict.result(timeout=10)
        # One shared fan-out batch served both, despite the strict failure.
        assert co.stats.snapshot()["batches"] == 1
        assert co.stats.snapshot()["max_width"] == 2
        cluster.close()


class TestCacheBeforeAdmission:
    """A result-cache hit is served in the caller's thread and never
    queues; only misses reach the collector, and every request counts once
    in the cache counters and histograms."""

    @staticmethod
    def cached_cluster():
        cluster = make_cluster()
        cluster.enable_cache()
        return cluster

    @staticmethod
    def counts(cluster, co):
        hists = cluster.metrics.snapshot_histograms()
        cache = cluster.result_cache.stats.snapshot()
        return {
            "batches": co.stats.snapshot()["batches"],
            "bypasses": co.stats.snapshot()["bypasses"],
            "lookups": cache["lookups"],
            "hits": cache["hits"],
            "misses": cache["misses"],
            "query_s": hists["cluster.query_s"].count,
            "lookup_s": hists["cache.lookup_s"].count,
        }

    @classmethod
    def delta(cls, cluster, co, before):
        after = cls.counts(cluster, co)
        return {k: after[k] - before[k] for k in after}

    def test_hit_returns_while_dispatcher_blocked(self, monkeypatch):
        cluster = self.cached_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        hot = SearchRequest(vector=queries(1)[0], limit=5)
        want = cluster.search("papers", hot)  # fills the cache
        entered, release = threading.Event(), threading.Event()
        demux = cluster.search_batch_demux

        def blocked(name, requests):
            entered.set()
            release.wait(timeout=30)
            return demux(name, requests)

        monkeypatch.setattr(cluster, "search_batch_demux", blocked)
        caller = ThreadPoolExecutor(max_workers=1)
        try:
            miss = co.submit("papers", SearchRequest(vector=queries(1, seed=9)[0],
                                                     limit=5))
            assert entered.wait(timeout=10)  # the dispatcher is now stuck
            # A queued hit would wait out the blocked dispatch and time out.
            got = caller.submit(co.search, "papers", hot).result(timeout=5)
            assert hit_keys(got) == hit_keys(want)
            assert (got.shards_total, got.shards_answered) == (
                want.shards_total, want.shards_answered
            )
            assert not miss.done()
        finally:
            release.set()
            caller.shutdown(wait=True)
        assert len(miss.result(timeout=10)) == 5
        cluster.close()

    def test_submit_returns_done_future_for_hit(self):
        cluster = self.cached_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        hot = SearchRequest(vector=queries(1)[0], limit=5)
        want = cluster.search("papers", hot)
        future = co.submit("papers", hot)
        assert future is not None and future.done()
        assert hit_keys(future.result(timeout=0)) == hit_keys(want)
        assert co.stats.snapshot()["batches"] == 0
        cluster.close()

    def test_async_client_serves_hit(self):
        from repro.core.aioclient import AsyncClient

        cluster = self.cached_cluster()
        client = AsyncClient(cluster, "papers", coalesce=True)
        q = queries(1)[0]
        want = cluster.search("papers", SearchRequest(vector=q, limit=5))
        before = self.counts(cluster, client.coalescer)
        got = asyncio.run(client.search_async(q, limit=5))
        assert hit_keys(got) == hit_keys(want)
        delta = self.delta(cluster, client.coalescer, before)
        assert delta["hits"] == 1 and delta["batches"] == 0
        client.close()
        cluster.close()

    def test_repeats_after_one_fill_are_hits_not_batches(self):
        cluster = self.cached_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        request = SearchRequest(vector=queries(1)[0], limit=5)
        first = co.search("papers", request)  # the one fill
        before = self.counts(cluster, co)
        n = 5
        for _ in range(n):
            assert hit_keys(co.search("papers", request)) == hit_keys(first)
        delta = self.delta(cluster, co, before)
        assert delta["batches"] == 0
        assert delta["hits"] == delta["lookups"] == n
        assert delta["misses"] == 0
        cluster.close()

    def test_one_miss_counts_one_lookup_and_one_batch(self):
        cluster = self.cached_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        before = self.counts(cluster, co)
        co.search("papers", SearchRequest(vector=queries(1)[0], limit=5))
        delta = self.delta(cluster, co, before)
        assert delta["lookups"] == delta["misses"] == 1
        assert delta["hits"] == 0
        assert delta["batches"] == 1
        cluster.close()

    def test_full_queue_fallback_counts_one_lookup(self):
        from repro.core.scheduler import _Pending

        cluster = self.cached_cluster()
        co = QueryCoalescer.for_cluster(
            cluster,
            policy=CoalescePolicy(queue_capacity=1, max_wait_us=50_000.0,
                                  adaptive=False),
        )
        stuffed_request = SearchRequest(vector=queries(1, seed=5)[0], limit=5)
        stuffed = _Pending(co.compat_key("papers", stuffed_request), "papers",
                           stuffed_request)
        with co._wakeup:
            co._queue.append(stuffed)
        before = self.counts(cluster, co)
        request = SearchRequest(vector=queries(1)[0], limit=5)
        got = co.search("papers", request)  # probe misses, queue full, direct path
        assert len(got) == 5
        delta = self.delta(cluster, co, before)
        assert delta["bypasses"] == 1
        assert delta["lookups"] == delta["misses"] == 1
        assert delta["hits"] == 0
        with co._wakeup:
            co._wakeup.notify()
        assert stuffed.future.result(timeout=10) is not None
        cluster.close()

    def test_hit_observes_query_and_lookup_histograms_once(self):
        cluster = self.cached_cluster()
        co = QueryCoalescer.for_cluster(cluster)
        request = SearchRequest(vector=queries(1)[0], limit=5)
        before = self.counts(cluster, co)
        co.search("papers", request)  # miss: served by the dispatch
        miss = self.delta(cluster, co, before)
        assert miss["query_s"] == 1 and miss["lookup_s"] == 1
        before = self.counts(cluster, co)
        co.search("papers", request)  # hit: served before admission
        hit = self.delta(cluster, co, before)
        assert hit["hits"] == 1 and hit["batches"] == 0
        assert hit["query_s"] == 1 and hit["lookup_s"] == 1
        cluster.close()


# -- property: coalesced == serial, bit for bit ------------------------------

_PROP_CLUSTER = make_cluster()
_PROP_QUERIES = queries(16, seed=7)


@st.composite
def request_batches(draw):
    n = draw(st.integers(1, 10))
    reqs = []
    for _ in range(n):
        q = _PROP_QUERIES[draw(st.integers(0, len(_PROP_QUERIES) - 1))]
        params = SearchParams(
            hnsw_ef=draw(st.sampled_from([None, 32, 64])),
            exact=draw(st.booleans()),
        )
        flt = draw(
            st.sampled_from([None, "a", "b"])
        )
        if flt == "a":
            flt = HasId(frozenset(range(0, N_POINTS, 7)))
        elif flt == "b":
            flt = HasId(frozenset([3, 4, 5]))
        reqs.append(
            SearchRequest(
                vector=q,
                limit=draw(st.integers(1, 8)),
                params=params,
                filter=flt,
            )
        )
    return reqs


@given(
    reqs=request_batches(),
    wait_us=st.sampled_from([0.0, 200.0, 3000.0]),
    workers=st.integers(1, 8),
)
@settings(max_examples=20, deadline=None)
def test_property_coalesced_bit_identical_to_serial(reqs, wait_us, workers):
    """Across random batch compositions (mixed ef / exact / filters, which
    must land in separate compatibility groups), random collect windows and
    concurrency levels, every coalesced result equals its serial twin."""
    expected = [_PROP_CLUSTER.search("papers", r) for r in reqs]
    co = QueryCoalescer(
        _PROP_CLUSTER, policy=CoalescePolicy(max_wait_us=wait_us)
    )
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            got = list(pool.map(lambda r: co.search("papers", r), reqs))
    finally:
        co.close()
    for want, have in zip(expected, got):
        assert hit_keys(want) == hit_keys(have)
        assert (want.shards_total, want.shards_answered) == (
            have.shards_total, have.shards_answered
        )


def test_property_cluster_teardown():
    """Not a property: closes the module-level cluster after the suite."""
    _PROP_CLUSTER.close()
    assert _PROP_CLUSTER.coalescer is None or _PROP_CLUSTER.coalescer.closed
