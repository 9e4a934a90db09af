"""Result-cache tests: policy validation, both LRU tiers, generation and
epoch fencing, canonical query fingerprints (the coalescer/cache key),
exact ``ScoredPoint`` byte accounting, and the cluster-level integration
(hits bit-identical, writes invalidate, shard tier skips untouched shards,
degraded results never cached, telemetry/metrics surfaces)."""

import numpy as np
import pytest

from repro.core import (
    CachePolicy,
    CollectionConfig,
    Distance,
    FieldIn,
    Filter,
    HasId,
    OptimizerConfig,
    PointStruct,
    ResultCache,
    ScoredPoint,
    SearchParams,
    SearchRequest,
    SearchResult,
    ShardResultCache,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.errors import PointNotFoundError
from repro.core.scheduler import CoalescePolicy, QueryCoalescer
from repro.core.transport import (
    FaultInjectingTransport,
    LocalTransport,
    estimate_payload_bytes,
)
from repro.core.types import canonical_filter_key
from repro.core.worker import Worker

DIM = 8
N_POINTS = 120


def config(name="papers", **kwargs):
    defaults = dict(optimizer=OptimizerConfig(indexing_threshold=0), shard_number=4)
    defaults.update(kwargs)
    return CollectionConfig(
        name, VectorParams(size=DIM, distance=Distance.COSINE), **defaults
    )


def points(n, start=0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        PointStruct(id=start + i, vector=rng.normal(size=DIM), payload={"i": start + i})
        for i in range(n)
    ]


def queries(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=DIM) for _ in range(n)]


def make_cluster(n_workers=4, cache=True, **kwargs):
    cluster = Cluster.with_workers(n_workers)
    cluster.create_collection(config(**kwargs))
    cluster.upsert("papers", points(N_POINTS))
    if cache:
        cluster.enable_cache()
    return cluster


def hit_keys(result):
    return [(h.id, h.score) for h in result]


class TestCachePolicy:
    def test_defaults_valid(self):
        p = CachePolicy()
        assert p.max_bytes > 0 and p.shard_tier

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_bytes=0),
            dict(max_entries=0),
            dict(shard_max_bytes=0),
            dict(shard_max_entries=0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CachePolicy(**kwargs)


class TestFingerprint:
    """Satellite: the canonical fingerprint must be order-insensitive over
    filter clauses and membership lists, but sensitive to every
    result-changing knob."""

    def q(self):
        return np.arange(DIM, dtype=np.float32)

    def test_filter_clause_order_invariant(self):
        a = Filter(must=[FieldIn("a", [3, 1, 2]), HasId([9, 7])])
        b = Filter(must=[HasId([7, 9]), FieldIn("a", [2, 3, 1])])
        fa = SearchRequest(vector=self.q(), filter=a).fingerprint("papers")
        fb = SearchRequest(vector=self.q(), filter=b).fingerprint("papers")
        assert fa == fb
        assert canonical_filter_key(a) == canonical_filter_key(b)

    def test_no_filter_is_distinct(self):
        assert canonical_filter_key(None) is None
        with_f = SearchRequest(
            vector=self.q(), filter=HasId([1])
        ).fingerprint("papers")
        without = SearchRequest(vector=self.q()).fingerprint("papers")
        assert with_f != without

    def test_every_knob_changes_fingerprint(self):
        base = SearchRequest(vector=self.q())
        variants = [
            SearchRequest(vector=self.q() + 1e-6),  # float-exact vector bytes
            SearchRequest(vector=self.q(), limit=11),
            SearchRequest(vector=self.q(), params=SearchParams(hnsw_ef=99)),
            SearchRequest(vector=self.q(), params=SearchParams(exact=True)),
            SearchRequest(vector=self.q(), with_payload=True),
            SearchRequest(vector=self.q(), with_vector=True),
            SearchRequest(vector=self.q(), score_threshold=0.5),
            SearchRequest(vector=self.q(), allow_partial=True),
        ]
        prints = {base.fingerprint("papers")}
        for v in variants:
            prints.add(v.fingerprint("papers"))
        assert len(prints) == len(variants) + 1

    def test_collection_scopes_fingerprint(self):
        r = SearchRequest(vector=self.q())
        assert r.fingerprint("a") != r.fingerprint("b")
        assert r.fingerprint("a") == r.fingerprint("a")


def _mk_result(ids, shards_total=2, shards_answered=2):
    hits = [ScoredPoint(id=i, score=1.0 / (i + 1), shard_id=i % 2) for i in ids]
    return SearchResult(hits, shards_total=shards_total, shards_answered=shards_answered)


class TestResultCacheUnit:
    def fill(self, cache, fp, ids, *, collection="c", shards=frozenset({0, 1}),
             gens=None):
        return cache.fill(
            fp,
            _mk_result(ids),
            collection=collection,
            shard_set=shards,
            epoch=cache.epoch(collection),
            gen_vector=gens or {0: 0, 1: 0},
        )

    def test_roundtrip_returns_fresh_equal_result(self):
        cache = ResultCache()
        assert self.fill(cache, "fp", [1, 2, 3])
        r1 = cache.lookup("fp", collection="c", shard_set=frozenset({0, 1}))
        r2 = cache.lookup("fp", collection="c", shard_set=frozenset({0, 1}))
        assert hit_keys(r1) == hit_keys(r2) == hit_keys(_mk_result([1, 2, 3]))
        assert (r1.shards_total, r1.shards_answered) == (2, 2)
        assert r1 is not r2  # fresh wrapper each hit: callers may mutate
        r1.append("junk")
        assert len(cache.lookup("fp", collection="c", shard_set=frozenset({0, 1}))) == 3
        snap = cache.stats.snapshot()
        assert snap["fills"] == 1 and snap["hits"] == 3 and snap["misses"] == 0

    def test_epoch_bump_invalidates(self):
        cache = ResultCache()
        self.fill(cache, "fp", [1])
        cache.bump_epoch("c")
        assert cache.lookup("fp", collection="c", shard_set=frozenset({0, 1})) is None
        assert cache.stats.snapshot()["invalidations"] == 1
        assert cache.entry_count == 0

    def test_shard_set_change_invalidates(self):
        cache = ResultCache()
        self.fill(cache, "fp", [1])
        assert cache.lookup("fp", collection="c", shard_set=frozenset({0, 1, 2})) is None
        assert cache.stats.snapshot()["invalidations"] == 1

    def test_newer_observed_generation_invalidates(self):
        cache = ResultCache()
        self.fill(cache, "fp", [1], gens={0: 3, 1: 5})
        cache.observe_generations("c", {0: 3, 1: 5})  # same gens: still valid
        assert cache.lookup("fp", collection="c", shard_set=frozenset({0, 1})) is not None
        cache.observe_generations("c", {1: 6})
        assert cache.lookup("fp", collection="c", shard_set=frozenset({0, 1})) is None
        assert cache.stats.snapshot()["invalidations"] == 1

    def test_fill_refused_when_epoch_moved(self):
        cache = ResultCache()
        epoch = cache.epoch("c")
        cache.bump_epoch("c")  # a write lands while the fan-out is in flight
        ok = cache.fill(
            "fp", _mk_result([1]), collection="c",
            shard_set=frozenset({0, 1}), epoch=epoch, gen_vector={0: 0, 1: 0},
        )
        assert not ok
        assert cache.entry_count == 0
        assert cache.stats.snapshot()["rejected"] == 1

    def test_oversized_result_rejected(self):
        cache = ResultCache(CachePolicy(max_bytes=1))
        assert not self.fill(cache, "fp", list(range(50)))
        assert cache.stats.snapshot()["rejected"] == 1

    def test_lru_eviction_respects_recency(self):
        cache = ResultCache(CachePolicy(max_entries=2))
        self.fill(cache, "a", [1])
        self.fill(cache, "b", [2])
        # Touch "a" so "b" is the LRU victim when "c" arrives.
        assert cache.lookup("a", collection="c", shard_set=frozenset({0, 1}))
        self.fill(cache, "c", [3])
        assert cache.entry_count == 2
        assert cache.lookup("b", collection="c", shard_set=frozenset({0, 1})) is None
        assert cache.lookup("a", collection="c", shard_set=frozenset({0, 1}))
        assert cache.stats.snapshot()["evictions"] == 1

    def test_byte_budget_evicts(self):
        fat = _mk_result(list(range(40)))
        budget = estimate_payload_bytes(list(fat)) + 256
        cache = ResultCache(CachePolicy(max_bytes=budget))
        self.fill(cache, "a", list(range(40)))
        self.fill(cache, "b", list(range(40)))
        assert cache.entry_count == 1
        assert cache.bytes_used <= budget
        assert cache.stats.snapshot()["evictions"] == 1

    def test_clear_keeps_fence_state(self):
        cache = ResultCache()
        cache.bump_epoch("c")
        self.fill(cache, "fp", [1])
        cache.clear()
        assert cache.entry_count == 0 and cache.bytes_used == 0
        assert cache.epoch("c") == 1


class TestShardResultCacheUnit:
    def test_hit_requires_exact_generation(self):
        cache = ShardResultCache()
        hits = [ScoredPoint(id=1, score=0.5, shard_id=0)]
        assert cache.fill("c", 0, "fp", hits, generation=7)
        assert hit_keys(cache.lookup("c", 0, "fp", 7)) == hit_keys(hits)
        assert cache.lookup("c", 0, "fp", 8) is None  # stale: invalidated
        assert cache.lookup("c", 0, "fp", 7) is None  # gone for good
        snap = cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["invalidations"] == 1

    def test_drop_shard_forgets_only_that_shard(self):
        cache = ShardResultCache()
        hits = [ScoredPoint(id=1, score=0.5)]
        cache.fill("c", 0, "a", hits, generation=0)
        cache.fill("c", 1, "b", hits, generation=0)
        cache.fill("d", 0, "e", hits, generation=0)
        assert cache.drop_shard("c", 0) == 1
        assert cache.lookup("c", 0, "a", 0) is None
        assert cache.lookup("c", 1, "b", 0) is not None
        assert cache.lookup("d", 0, "e", 0) is not None

    def test_entry_budget_evicts_lru(self):
        cache = ShardResultCache(CachePolicy(shard_max_entries=2))
        hits = [ScoredPoint(id=1, score=0.5)]
        for i, fp in enumerate(("a", "b", "c")):
            cache.fill("c", i, fp, hits, generation=0)
        assert cache.entry_count == 2
        assert cache.lookup("c", 0, "a", 0) is None
        assert cache.stats.snapshot()["evictions"] == 1


class TestExactScoredPointBytes:
    """Satellite regression: ``ScoredPoint`` lists must take the exact
    sizing path regardless of length — the sampled extrapolation used for
    other long homogeneous lists misestimates skewed hit lists, which is
    what the cache's byte budget is fed with."""

    @staticmethod
    def reference_bytes(obj):
        """Independent recursion with the documented unit conventions."""
        ref = TestExactScoredPointBytes.reference_bytes
        if obj is None:
            return 0
        if isinstance(obj, np.ndarray):
            return int(obj.nbytes)
        if isinstance(obj, str):
            return len(obj.encode("utf-8"))
        if isinstance(obj, bool):
            return 1
        if isinstance(obj, (int, float)):
            return 8
        if isinstance(obj, dict):
            return sum(ref(k) + ref(v) for k, v in obj.items())
        if isinstance(obj, (list, tuple)):
            return sum(ref(x) for x in obj)
        if isinstance(obj, ScoredPoint):
            return ref(vars(obj))
        raise AssertionError(f"unexpected type {type(obj)}")

    def _skewed_hits(self, n):
        rng = np.random.default_rng(3)
        hits = [
            ScoredPoint(id=i, score=float(i), payload={"i": i}, shard_id=i % 4)
            for i in range(n)
        ]
        # One fat outlier in the middle — invisible to head/tail sampling.
        hits[n // 2] = ScoredPoint(
            id=n, score=0.0, payload={"blob": "x" * 100_000},
            vector=rng.normal(size=256).astype(np.float32),
        )
        return hits

    @pytest.mark.parametrize("n", [3, 200])  # below and above the sample gate
    def test_exact_for_any_length(self, n):
        hits = self._skewed_hits(n)
        assert estimate_payload_bytes(hits) == self.reference_bytes(hits)

    def test_outlier_is_counted(self):
        hits = self._skewed_hits(200)
        assert estimate_payload_bytes(hits) > 100_000

    def test_search_result_subclass_takes_exact_path(self):
        # SearchResult is a slotted list subclass; element accounting must
        # be identical to a plain list of the same hits.
        hits = self._skewed_hits(64)
        assert estimate_payload_bytes(SearchResult(hits)) == estimate_payload_bytes(
            list(hits)
        )


class TestClusterCache:
    def test_repeat_query_is_hit_and_bit_identical(self):
        cluster = make_cluster()
        request = SearchRequest(vector=queries(1)[0], limit=10)
        first = cluster.search("papers", request)
        second = cluster.search("papers", request)
        assert hit_keys(first) == hit_keys(second)
        assert (first.shards_total, first.shards_answered) == (
            second.shards_total, second.shards_answered,
        )
        snap = cluster.result_cache.stats.snapshot()
        assert snap == dict(snap, lookups=2, hits=1, misses=1, fills=1)
        cluster.close()

    def test_write_invalidates_and_new_point_is_served(self):
        cluster = make_cluster()
        q = queries(1)[0]
        request = SearchRequest(vector=q, limit=5)
        stale = cluster.search("papers", request)
        assert all(h.id != 10_000 for h in stale)
        # The new point *is* the query vector: cosine-nearest by construction.
        cluster.upsert("papers", [PointStruct(id=10_000, vector=q)])
        fresh = cluster.search("papers", request)
        assert fresh[0].id == 10_000
        snap = cluster.result_cache.stats.snapshot()
        assert snap["invalidations"] == 1
        cluster.close()

    def test_failed_multi_shard_delete_still_fences(self):
        """The first shard applies its part of a delete and the second
        rejects its absent id: the write failed, but the cache is fenced."""
        cluster = make_cluster(n_workers=2, shard_number=2)
        router = cluster._state("papers").router
        victim = next(p for p in points(N_POINTS) if router.shard_for(p.id) == 0)
        absent = next(i for i in range(10**6, 10**6 + 64) if router.shard_for(i) == 1)
        request = SearchRequest(vector=victim.vector, limit=5)
        assert cluster.search("papers", request)[0].id == victim.id
        with pytest.raises(PointNotFoundError):
            cluster.delete("papers", [victim.id, absent])
        assert all(h.id != victim.id for h in cluster.search("papers", request))
        cluster.close()

    def test_rejected_delete_changes_no_shard(self):
        """A shard that rejects a delete deletes none of it, so what the
        cache holds for that shard stays the truth."""
        cluster = make_cluster(n_workers=1, shard_number=1)
        victim = points(N_POINTS)[7]
        request = SearchRequest(vector=victim.vector, limit=5)
        cached = cluster.search("papers", request)
        assert cached[0].id == victim.id
        with pytest.raises(PointNotFoundError):
            cluster.delete("papers", [victim.id, 10**6])
        assert cluster.retrieve("papers", victim.id).id == victim.id
        assert hit_keys(cluster.search("papers", request)) == hit_keys(cached)
        cluster.close()

    def test_shard_tier_skips_untouched_shards(self):
        cluster = make_cluster()
        request = SearchRequest(vector=queries(1)[0], limit=10)
        cluster.search("papers", request)  # fill both tiers
        # One-point write: bumps the epoch (cluster entry dies) but touches
        # a single shard — the other shards' work comes from the shard tier.
        cluster.upsert("papers", [PointStruct(id=5_000, vector=queries(2)[1])])
        before = cluster.telemetry()
        cluster.search("papers", request)
        delta = cluster.telemetry().diff(before)
        assert delta.cache.hits == 0 and delta.cache.misses == 1
        assert delta.cache.shard_hits >= 1
        assert delta.cache.shard_hits < delta.cache.shard_lookups
        cluster.close()

    def test_demux_serves_repeats_from_cache(self):
        cluster = make_cluster()
        reqs = [SearchRequest(vector=q, limit=5) for q in queries(4)]
        expected = cluster.search_batch_demux("papers", reqs)
        again = cluster.search_batch_demux("papers", reqs)
        for want, have in zip(expected, again):
            assert hit_keys(want) == hit_keys(have)
        snap = cluster.result_cache.stats.snapshot()
        assert snap["hits"] == len(reqs)
        # A mixed batch fans out only for the miss.
        mixed = reqs[:2] + [SearchRequest(vector=queries(9, seed=5)[-1], limit=5)]
        out = cluster.search_batch_demux("papers", mixed)
        assert hit_keys(out[0]) == hit_keys(expected[0])
        snap2 = cluster.result_cache.stats.snapshot()
        assert snap2["hits"] == len(reqs) + 2 and snap2["fills"] == len(reqs) + 1
        cluster.close()

    def test_empty_predicate_not_cached(self):
        cluster = make_cluster()
        reqs = [
            SearchRequest(vector=queries(1)[0], limit=5),
            SearchRequest(vector=queries(1)[0], limit=5, filter=HasId(frozenset())),
        ]
        out = cluster.search_batch_demux("papers", reqs)
        assert len(out[1]) == 0 and out[1].shards_total == 0
        assert cluster.result_cache.stats.snapshot()["fills"] == 1
        cluster.close()

    def test_alias_shares_entry_with_canonical_name(self):
        cluster = make_cluster()
        cluster.create_alias("lookup", "papers")
        request = SearchRequest(vector=queries(1)[0], limit=5)
        via_alias = cluster.search("lookup", request)
        via_name = cluster.search("papers", request)
        assert hit_keys(via_alias) == hit_keys(via_name)
        snap = cluster.result_cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["fills"] == 1
        cluster.close()

    def test_degraded_results_never_cached(self):
        faulty = FaultInjectingTransport(LocalTransport())
        cluster = Cluster(faulty)
        for i in range(4):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config(replication_factor=1))
        cluster.upsert("papers", points(N_POINTS))
        cluster.enable_cache()
        faulty.fail_worker("w1")
        request = SearchRequest(vector=queries(1)[0], limit=10, allow_partial=True)
        first = cluster.search("papers", request)
        second = cluster.search("papers", request)
        assert first.degraded and second.degraded
        snap = cluster.result_cache.stats.snapshot()
        assert snap["fills"] == 0 and snap["hits"] == 0
        cluster.close()

    def test_reshard_cutover_invalidates_but_results_unchanged(self):
        cluster = make_cluster(n_workers=3, shard_number=8)
        request = SearchRequest(vector=np.ones(DIM), limit=10)
        before = cluster.search("papers", request)
        moves = cluster.add_worker(Worker("w3"), rebalance=True)
        assert moves  # the newcomer actually received shards
        after = cluster.search("papers", request)
        assert hit_keys(after) == hit_keys(before)
        # The epoch moved with the migration: no stale hit was possible.
        snap = cluster.result_cache.stats.snapshot()
        assert snap["hits"] == 0 and snap["misses"] == 2
        cluster.close()

    def test_coalescer_dedupes_identical_queries(self):
        cluster = make_cluster()
        co = QueryCoalescer.for_cluster(
            cluster, policy=CoalescePolicy(max_wait_us=200_000.0, adaptive=False)
        )
        q = queries(1)[0]
        futures = [
            co.submit("papers", SearchRequest(vector=q, limit=5)) for _ in range(3)
        ]
        got = [f.result(timeout=10) for f in futures]
        assert hit_keys(got[0]) == hit_keys(got[1]) == hit_keys(got[2])
        snap = co.stats.snapshot()
        assert snap["deduped"] >= 2  # three identical queries, one fan-out
        cluster.close()

    def test_reset_telemetry_keeps_entries(self):
        cluster = make_cluster()
        request = SearchRequest(vector=queries(1)[0], limit=5)
        cluster.search("papers", request)
        cluster.search("papers", request)
        cluster.reset_telemetry()
        assert cluster.result_cache.stats.snapshot()["lookups"] == 0
        assert cluster.result_cache.entry_count == 1
        cluster.search("papers", request)  # still a hit: entries survived
        assert cluster.result_cache.stats.snapshot()["hits"] == 1
        cluster.close()

    def test_metrics_and_telemetry_surfaces(self):
        cluster = make_cluster()
        base = cluster.telemetry()
        request = SearchRequest(vector=queries(1)[0], limit=5)
        cluster.search("papers", request)
        cluster.search("papers", request)
        delta = cluster.telemetry().diff(base)
        assert delta.cache.lookups == 2
        assert delta.cache.hits == 1 and delta.cache.fills == 1
        assert delta.cache.hit_rate == 0.5
        assert delta.cache.entries == 1 and delta.cache.bytes > 0
        counters = cluster.metrics.counters()
        assert counters["cache.hit"].value == 1
        assert counters["cache.miss"].value == 1
        assert cluster.telemetry().histograms["cache.lookup_s"].count == 2
        cluster.close()

    def test_disable_cache_restores_plain_path(self):
        cluster = make_cluster()
        request = SearchRequest(vector=queries(1)[0], limit=5)
        expected = hit_keys(cluster.search("papers", request))
        cluster.disable_cache()
        assert cluster.result_cache is None
        assert hit_keys(cluster.search("papers", request)) == expected
        for worker in cluster.workers():
            assert worker.shard_cache_snapshot() is None
        cluster.close()

    def test_enable_cache_reaches_late_workers(self):
        cluster = make_cluster(n_workers=2, shard_number=8)
        cluster.add_worker(Worker("late"), rebalance=True)
        for worker in cluster.workers():
            assert worker.shard_cache_snapshot() is not None
        cluster.close()


class TestClientWiring:
    def test_sync_client_enables_cache(self):
        from repro.core.client import SyncClient

        cluster = make_cluster(cache=False)
        client = SyncClient(cluster, "papers", cache=True)
        assert cluster.result_cache is not None
        q = queries(1)[0]
        first = client.search(q, limit=5)
        second = client.search(q, limit=5)
        assert hit_keys(first) == hit_keys(second)
        assert cluster.result_cache.stats.snapshot()["hits"] == 1
        cluster.close()

    def test_sync_client_accepts_policy(self):
        from repro.core.client import SyncClient

        cluster = make_cluster(cache=False)
        SyncClient(cluster, "papers", cache=CachePolicy(max_entries=7))
        assert cluster.result_cache.policy.max_entries == 7
        cluster.close()

    def test_async_client_enables_cache(self):
        from repro.core.aioclient import AsyncClient

        cluster = make_cluster(cache=False)
        client = AsyncClient(cluster, "papers", cache=True)
        assert cluster.result_cache is not None
        client.close()
        cluster.close()

    def test_pool_reports_cache_counters(self):
        from repro.core.mpclient import ParallelClientPool

        cluster = make_cluster(cache=False)
        pool = ParallelClientPool(cluster, "papers")
        vectors = queries(4) * 3  # every vector repeated thrice
        results, report = pool.search_many(vectors, limit=5, cache=True,
                                           coalesce=False, clients=2)
        assert cluster.result_cache is not None
        assert report.cache["lookups"] == len(vectors)
        assert report.cache["hits"] >= 1
        assert report.cache_hit_rate == report.cache["hits"] / len(vectors)
        # Repeats are bit-identical to their first occurrence.
        for i, vec in enumerate(vectors[:4]):
            assert hit_keys(results[i]) == hit_keys(results[i + 4])
        cluster.close()
