"""Cluster extras: aliases, delete-by-filter, predicated shard routing,
collection-level count/delete_by_filter."""

import numpy as np
import pytest

from repro.core import (
    Collection,
    CollectionConfig,
    Distance,
    FieldMatch,
    FieldRange,
    Filter,
    HasId,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.errors import CollectionExistsError, CollectionNotFoundError
from repro.core.resharding import ShardMigration
from repro.core.transport import InstrumentedTransport, LocalTransport
from repro.core.worker import Worker

DIM = 8


def config(name="c"):
    return CollectionConfig(
        name, VectorParams(size=DIM, distance=Distance.COSINE),
        optimizer=OptimizerConfig(indexing_threshold=0),
    )


def points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [PointStruct(id=i, vector=rng.normal(size=DIM), payload={"g": i % 4})
            for i in range(n)]


class TestAliases:
    def test_alias_resolves_everywhere(self):
        cluster = Cluster.with_workers(2)
        cluster.create_collection(config())
        cluster.upsert("c", points(40))
        cluster.create_alias("current", "c")
        assert cluster.count("current") == 40
        cluster.upsert("current", [PointStruct(id=1000, vector=np.ones(DIM))])
        assert cluster.retrieve("current", 1000).id == 1000
        hits = cluster.search("current", SearchRequest(vector=np.ones(DIM), limit=3))
        assert len(hits) == 3
        assert cluster.aliases() == {"current": "c"}

    def test_alias_name_collision(self):
        cluster = Cluster.with_workers(1)
        cluster.create_collection(config())
        with pytest.raises(CollectionExistsError):
            cluster.create_alias("c", "c")

    def test_alias_to_missing_collection(self):
        cluster = Cluster.with_workers(1)
        with pytest.raises(CollectionNotFoundError):
            cluster.create_alias("x", "ghost")

    def test_delete_alias(self):
        cluster = Cluster.with_workers(1)
        cluster.create_collection(config())
        cluster.create_alias("a", "c")
        cluster.delete_alias("a")
        with pytest.raises(CollectionNotFoundError):
            cluster.count("a")

    def test_drop_collection_drops_aliases(self):
        cluster = Cluster.with_workers(1)
        cluster.create_collection(config())
        cluster.create_alias("a", "c")
        cluster.drop_collection("a")  # dropping via alias
        assert cluster.aliases() == {}
        assert cluster.collection_names() == []


class TestDeleteByFilter:
    def test_collection_level(self):
        col = Collection(config())
        col.upsert(points(40))
        removed = col.delete_by_filter(FieldMatch("g", 1))
        assert removed == 10
        assert len(col) == 30
        assert col.count(FieldMatch("g", 1)) == 0
        assert col.count() == 30

    def test_collection_count_with_filter(self):
        col = Collection(config())
        col.upsert(points(40))
        assert col.count(Filter(must=[FieldRange("g", gte=2)])) == 20

    def test_cluster_level(self):
        cluster = Cluster.with_workers(4)
        cluster.create_collection(config())
        cluster.upsert("c", points(80))
        removed = cluster.delete_by_filter("c", FieldMatch("g", 0))
        assert removed == 20
        assert cluster.count("c") == 60

    def test_cluster_delete_by_filter_respects_replication(self):
        cluster = Cluster.with_workers(3)
        cfg = config().with_(replication_factor=2)
        cluster.create_collection(cfg)
        cluster.upsert("c", points(60))
        cluster.delete_by_filter("c", FieldMatch("g", 3))
        # every replica agrees
        state = cluster._state("c")
        for shard in range(state.plan.shard_number):
            counts = {
                cluster.transport.call(w, "count", "c", shard)
                for w in state.plan.workers_for(shard)
            }
            assert len(counts) == 1

    def test_cluster_delete_by_filter_fences_result_cache(self):
        cluster = Cluster.with_workers(2)
        cluster.create_collection(config())
        cluster.upsert("c", points(40))
        cluster.enable_cache()
        request = SearchRequest(vector=np.ones(DIM), limit=40, with_payload=True)
        assert len(cluster.search("c", request)) == 40  # now cached
        assert cluster.delete_by_filter("c", FieldMatch("g", 0)) == 10
        hits = cluster.search("c", request)
        assert len(hits) == 30
        assert all(h.payload["g"] != 0 for h in hits)

    def test_cluster_delete_by_filter_double_writes_to_move_target(self):
        """A shard mid-move takes the delete on its target too, as
        :meth:`Cluster.delete` does under the migration write gates."""
        cluster = Cluster.with_workers(3)
        cluster.create_collection(config().with_(shard_number=2))
        cluster.upsert("c", points(40))
        state = cluster._state("c")
        [source] = state.plan.workers_for(0)
        target = next(w for w in cluster.worker_ids if w not in state.plan.workers_for(0))
        cluster.transport.call(target, "create_shard", "c", 0, state.config)
        on_shard = [p for p in points(40) if state.router.shard_for(p.id) == 0]
        cluster.transport.call(target, "upsert", "c", 0, on_shard)
        mig = ShardMigration("c", 0, source, target, double_write=True)
        cluster._register_migration(mig)
        try:
            cluster.delete_by_filter("c", FieldMatch("g", 1))
        finally:
            cluster._unregister_migration(mig)
        kept = len(on_shard) - sum(p.payload["g"] == 1 for p in on_shard)
        assert cluster.transport.call(source, "count", "c", 0) == kept
        assert cluster.transport.call(target, "count", "c", 0) == kept


class TestPredicatedRouting:
    def _instrumented_cluster(self):
        inner = LocalTransport()
        cluster = Cluster(InstrumentedTransport(inner))
        for i in range(4):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config())
        cluster.upsert("c", points(200))
        return cluster

    def test_has_id_narrows_fanout(self):
        cluster = self._instrumented_cluster()
        cluster.transport.stats.reset()
        target_id = 7
        hits = cluster.search(
            "c", SearchRequest(vector=np.ones(DIM), limit=1, filter=HasId([target_id]))
        )
        assert [h.id for h in hits] == [target_id]
        # only the single owning shard's worker was contacted
        assert cluster.transport.stats.calls_by_method.get("search", 0) == 1

    def test_has_id_inside_must(self):
        cluster = self._instrumented_cluster()
        cluster.transport.stats.reset()
        flt = Filter(must=[HasId([3, 5, 9])])
        hits = cluster.search("c", SearchRequest(vector=np.ones(DIM), limit=3, filter=flt))
        assert {h.id for h in hits} == {3, 5, 9}
        assert cluster.transport.stats.calls_by_method["search"] <= 3

    def test_non_predicated_broadcasts(self):
        cluster = self._instrumented_cluster()
        cluster.transport.stats.reset()
        cluster.search("c", SearchRequest(vector=np.ones(DIM), limit=5))
        assert cluster.transport.stats.calls_by_method["search"] == 4

    def test_payload_filter_still_broadcasts(self):
        """Only id-pinned filters can prefilter shards; payload predicates
        must still broadcast (matches footnote 4's description)."""
        cluster = self._instrumented_cluster()
        cluster.transport.stats.reset()
        cluster.search(
            "c", SearchRequest(vector=np.ones(DIM), limit=5, filter=FieldMatch("g", 1))
        )
        assert cluster.transport.stats.calls_by_method["search"] == 4
