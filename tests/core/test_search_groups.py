"""Grouped search tests (collection + cluster), incl. the chunking use-case."""

import numpy as np
import pytest

from repro.core import (
    Collection,
    CollectionConfig,
    Distance,
    FieldMatch,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.transport import FaultInjectingTransport, LocalTransport
from repro.core.worker import Worker
from repro.embed.chunking import FixedSizeChunker, chunk_corpus_points
from repro.embed.model import HashingEmbedder
from repro.workloads.pes2o import Pes2oCorpus

DIM = 16


def config(name="g"):
    return CollectionConfig(
        name, VectorParams(size=DIM, distance=Distance.COSINE),
        optimizer=OptimizerConfig(indexing_threshold=0),
    )


@pytest.fixture
def grouped_collection():
    rng = np.random.default_rng(0)
    col = Collection(config())
    # 5 groups x 10 points each
    col.upsert([
        PointStruct(id=i, vector=rng.normal(size=DIM), payload={"doc": i // 10})
        for i in range(50)
    ])
    return col


class TestSearchGroups:
    def test_groups_distinct(self, grouped_collection):
        q = np.random.default_rng(1).normal(size=DIM)
        groups = grouped_collection.search_groups(
            SearchRequest(vector=q, limit=3), group_by="doc", group_size=2
        )
        assert len(groups) == 3
        keys = [k for k, _ in groups]
        assert len(set(keys)) == 3
        for key, hits in groups:
            assert 1 <= len(hits) <= 2
            assert all(h.payload["doc"] == key for h in hits)

    def test_groups_ordered_by_best_hit(self, grouped_collection):
        q = np.random.default_rng(2).normal(size=DIM)
        groups = grouped_collection.search_groups(
            SearchRequest(vector=q, limit=5), group_by="doc"
        )
        best = [hits[0].score for _, hits in groups]
        assert best == sorted(best, reverse=True)

    def test_missing_key_skipped(self):
        col = Collection(config())
        col.upsert([
            PointStruct(id=0, vector=np.ones(DIM), payload={"doc": 1}),
            PointStruct(id=1, vector=np.ones(DIM), payload={}),  # no 'doc'
        ])
        groups = col.search_groups(
            SearchRequest(vector=np.ones(DIM), limit=5), group_by="doc"
        )
        assert len(groups) == 1

    def test_group_with_filter(self, grouped_collection):
        q = np.random.default_rng(3).normal(size=DIM)
        groups = grouped_collection.search_groups(
            SearchRequest(vector=q, limit=5, filter=FieldMatch("doc", 2)),
            group_by="doc",
        )
        assert [k for k, _ in groups] == [2]

    def test_cluster_groups_match_collection(self, grouped_collection):
        pts = []
        for seg in grouped_collection.segments:
            for rec in seg.iter_points(with_vector=True):
                pts.append(PointStruct(id=rec.id, vector=rec.vector, payload=rec.payload))
        cluster = Cluster.with_workers(3)
        cluster.create_collection(config("dist"))
        cluster.upsert("dist", pts)
        q = np.random.default_rng(4).normal(size=DIM)
        local = grouped_collection.search_groups(
            SearchRequest(vector=q, limit=4), group_by="doc", group_size=2
        )
        dist = cluster.search_groups(
            "dist", SearchRequest(vector=q, limit=4), group_by="doc", group_size=2
        )
        assert [k for k, _ in local] == [k for k, _ in dist]
        for (_, lh), (_, dh) in zip(local, dist):
            assert [h.id for h in lh] == [h.id for h in dh]

    def test_cluster_groups_keep_allow_partial(self):
        """The wide request keeps ``allow_partial``: with a shard lost, the
        groups come from the surviving shards instead of an error."""
        faulty = FaultInjectingTransport(LocalTransport())
        cluster = Cluster(faulty)
        for i in range(2):
            cluster.add_worker(Worker(f"w{i}"))
        cluster.create_collection(config("dist"))
        rng = np.random.default_rng(0)
        cluster.upsert("dist", [
            PointStruct(id=i, vector=rng.normal(size=DIM), payload={"doc": i // 10})
            for i in range(50)
        ])
        faulty.fail_worker("w0")
        request = SearchRequest(vector=rng.normal(size=DIM), limit=4, allow_partial=True)
        assert cluster.search("dist", request).degraded
        groups = cluster.search_groups("dist", request, group_by="doc", group_size=2)
        surviving = set(cluster._workers["w1"].shard_ids("dist"))
        assert groups
        assert all(h.shard_id in surviving for _, hits in groups for h in hits)


class TestChunkedRetrieval:
    def test_chunk_hits_collapse_to_papers(self):
        """§3.1 future work, end-to-end: chunked corpus + grouped search
        returns paper-level results from chunk-level points."""
        embedder = HashingEmbedder(dim=128)
        corpus = Pes2oCorpus(6, seed=5)
        col = Collection(
            CollectionConfig(
                "chunks", VectorParams(size=128, distance=Distance.COSINE),
                optimizer=OptimizerConfig(indexing_threshold=0),
            )
        )
        points = list(
            chunk_corpus_points(corpus, embedder, FixedSizeChunker(size=3_000))
        )
        col.upsert(points)
        assert len(col) == len(points) > 6

        # query with a chunk of paper 2's own text
        target = corpus.paper(2).text[:2_500]
        q = embedder.encode(target)
        groups = col.search_groups(
            SearchRequest(vector=q, limit=3), group_by="paper_id", group_size=2
        )
        assert groups[0][0] == 2  # paper 2 wins
        titles = {hits[0].payload["title"] for _, hits in groups}
        assert corpus.paper(2).title in titles
