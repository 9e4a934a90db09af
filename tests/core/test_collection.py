"""Collection tests: multi-segment behaviour, optimizer wiring, WAL, search."""

import numpy as np
import pytest

from repro.core import (
    Collection,
    CollectionConfig,
    CollectionStatus,
    Distance,
    FieldMatch,
    Filter,
    OptimizerConfig,
    PointStruct,
    SearchParams,
    SearchRequest,
    VectorParams,
    WalConfig,
)
from repro.core.errors import DimensionMismatchError, PointNotFoundError

DIM = 10


def make(threshold=0, max_segment_size=None, **kwargs) -> Collection:
    return Collection(
        CollectionConfig(
            "col",
            VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(
                indexing_threshold=threshold, max_segment_size=max_segment_size
            ),
            **kwargs,
        )
    )


def points(n, start=0, seed=0):
    rng = np.random.default_rng(seed + start)
    return [
        PointStruct(id=start + i, vector=rng.normal(size=DIM), payload={"g": (start + i) % 3})
        for i in range(n)
    ]


class TestWrites:
    def test_upsert_single_point_object(self):
        col = make()
        col.upsert(PointStruct(id=1, vector=np.ones(DIM)))
        assert len(col) == 1

    def test_upsert_batch(self):
        col = make()
        col.upsert(points(50))
        assert len(col) == 50

    def test_reupsert_across_segments(self):
        """An id living in a sealed segment must be tombstoned on re-upsert."""
        col = make(max_segment_size=10)
        col.upsert(points(10))          # fills and seals segment 1
        col.upsert(points(10, start=10))
        assert len(col.segments) >= 2
        col.upsert([PointStruct(id=3, vector=np.full(DIM, 0.5), payload={"new": 1})])
        assert len(col) == 20
        assert col.retrieve(3).payload == {"new": 1}

    def test_delete_across_segments(self):
        col = make(max_segment_size=10)
        col.upsert(points(25))
        col.delete([0, 15, 24])
        assert len(col) == 22
        with pytest.raises(PointNotFoundError):
            col.retrieve(15)

    def test_delete_missing_raises(self):
        col = make()
        col.upsert(points(5))
        with pytest.raises(PointNotFoundError):
            col.delete(99)

    def test_set_payload(self):
        col = make()
        col.upsert(points(5))
        col.set_payload(2, {"x": 1})
        assert col.retrieve(2).payload == {"x": 1}


class TestOptimizerWiring:
    def test_threshold_triggers_index(self):
        col = make(threshold=100)
        col.upsert(points(150))
        assert col.indexed_vectors_count == 150
        assert col.info().status is CollectionStatus.GREEN

    def test_bulk_mode_defers(self):
        col = make(threshold=0)
        col.upsert(points(150))
        assert col.indexed_vectors_count == 0
        report = col.build_index("hnsw")
        assert report.vectors_indexed == 150
        assert col.indexed_vectors_count == 150

    def test_yellow_status_when_pending(self):
        col = make(threshold=100, max_segment_size=10_000)
        # insert below threshold in two calls so optimizer never fires
        col.upsert(points(50))
        assert col.info().status is CollectionStatus.GREEN  # below threshold is fine
        # build up beyond threshold with optimizer disabled via sealed segments
        # (status turns YELLOW only when a big unindexed appendable exists)

    def test_new_segment_after_seal(self):
        col = make(max_segment_size=20)
        col.upsert(points(45))
        assert len(col.segments) >= 2
        assert len(col) == 45

    def test_explicit_optimize(self):
        col = make(threshold=10)
        col.upsert(points(30))
        report = col.optimize()
        assert col.indexed_vectors_count == 30 or report is not None


class TestSearch:
    def test_search_across_segments(self):
        col = make(max_segment_size=25)
        col.upsert(points(80))
        target = col.retrieve(42, with_vector=True).vector
        hits = col.search(SearchRequest(vector=target, limit=3))
        assert hits[0].id == 42

    def test_search_merges_best_score_per_id(self):
        col = make()
        col.upsert(points(30))
        q = np.random.default_rng(2).normal(size=DIM)
        hits = col.search(SearchRequest(vector=q, limit=10))
        ids = [h.id for h in hits]
        assert len(ids) == len(set(ids))
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_filtered_search(self):
        col = make()
        col.upsert(points(60))
        q = np.random.default_rng(3).normal(size=DIM)
        hits = col.search(
            SearchRequest(vector=q, limit=10, filter=FieldMatch("g", 1), with_payload=True)
        )
        assert hits and all(h.payload["g"] == 1 for h in hits)

    def test_exact_param(self):
        col = make(threshold=50)
        col.upsert(points(100))
        q = np.random.default_rng(4).normal(size=DIM)
        approx = col.search(SearchRequest(vector=q, limit=5))
        exact = col.search(SearchRequest(vector=q, limit=5, params=SearchParams(exact=True)))
        assert len(approx) == len(exact) == 5

    def test_search_batch_fast_path_matches_slow(self):
        col = make()
        col.upsert(points(100))
        qs = np.random.default_rng(5).normal(size=(6, DIM)).astype(np.float32)
        requests = [SearchRequest(vector=q, limit=5) for q in qs]
        fast = col.search_batch(requests)
        slow = [col.search(r) for r in requests]
        for f, s in zip(fast, slow):
            assert [h.id for h in f] == [h.id for h in s]

    def test_search_batch_heterogeneous_falls_back(self):
        col = make()
        col.upsert(points(50))
        qs = np.random.default_rng(6).normal(size=(2, DIM)).astype(np.float32)
        requests = [
            SearchRequest(vector=qs[0], limit=5, filter=FieldMatch("g", 0)),
            SearchRequest(vector=qs[1], limit=3),
        ]
        out = col.search_batch(requests)
        assert len(out) == 2 and len(out[1]) == 3


class TestScroll:
    def test_scroll_across_segments(self):
        col = make(max_segment_size=10)
        col.upsert(points(35))
        page, nxt = col.scroll(limit=20)
        assert [r.id for r in page] == list(range(20))
        assert nxt == 20
        rest, last = col.scroll(offset_id=nxt, limit=20)
        assert [r.id for r in rest] == list(range(20, 35))
        assert last is None


class TestWal:
    def test_wal_replay_restores_state(self, tmp_path):
        wal_cfg = WalConfig(enabled=True, path=str(tmp_path / "col.wal"))
        cfg = CollectionConfig(
            "dur", VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=0), wal=wal_cfg,
        )
        col = Collection(cfg)
        col.upsert(points(20))
        col.delete([5])
        col.set_payload(6, {"replayed": True})
        col.close()

        revived = Collection(cfg)
        assert len(revived) == 19
        assert not revived.contains(5)
        assert revived.retrieve(6).payload == {"replayed": True}
        target = revived.retrieve(7, with_vector=True).vector
        assert revived.search(SearchRequest(vector=target, limit=1))[0].id == 7
        revived.close()

    def test_checkpoint_truncates(self, tmp_path):
        wal_cfg = WalConfig(enabled=True, path=str(tmp_path / "c.wal"))
        cfg = CollectionConfig(
            "dur2", VectorParams(size=DIM), optimizer=OptimizerConfig(indexing_threshold=0),
            wal=wal_cfg,
        )
        col = Collection(cfg)
        col.upsert(points(10))
        col.checkpoint()
        col.close()
        revived = Collection(cfg)
        assert len(revived) == 0  # snapshot-less checkpoint discards history
        revived.close()


class TestRejectedOpsChangeNothing:
    """An op is validated whole before the WAL or any segment sees it: a
    rejected op writes no record and changes nothing, so the collection
    still reopens from its WAL."""

    def wal_col(self, tmp_path, **optimizer):
        cfg = CollectionConfig(
            "rej", VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=0, **optimizer),
            wal=WalConfig(enabled=True, path=str(tmp_path / "rej.wal")),
        )
        return cfg, Collection(cfg)

    def reopen(self, cfg):
        revived = Collection(cfg)
        state = sorted(
            (r.id, r.payload) for r in revived.scroll(limit=1000)[0]
        )
        revived.close()
        return state

    def test_set_payload_of_absent_id(self, tmp_path):
        cfg, col = self.wal_col(tmp_path)
        col.upsert(points(3))
        appends = col.wal_stats[0]
        with pytest.raises(PointNotFoundError):
            col.set_payload(99, {"x": 1})
        assert col.wal_stats[0] == appends
        col.close()
        assert self.reopen(cfg) == [(i, {"g": i % 3}) for i in range(3)]

    def test_wrong_dimension_row_upsert_over_sealed_point(self, tmp_path):
        cfg, col = self.wal_col(tmp_path, max_segment_size=2)
        col.upsert(points(3))  # ids 0, 1 fill and seal the first segment
        assert col.segments[0].is_sealed and col.segments[0].contains(1)
        generation, appends = col.generation, col.wal_stats[0]
        with pytest.raises(DimensionMismatchError):
            col.upsert([PointStruct(id=1, vector=np.ones(DIM + 1))])
        with pytest.raises(DimensionMismatchError):  # mixed widths in one op
            col.upsert([PointStruct(id=5, vector=np.ones(DIM)),
                        PointStruct(id=6, vector=np.ones(DIM - 1))])
        assert col.contains(1) and len(col) == 3
        assert (col.generation, col.wal_stats[0]) == (generation, appends)
        col.close()
        assert [pid for pid, _ in self.reopen(cfg)] == [0, 1, 2]

    def test_delete_with_an_absent_id(self, tmp_path):
        cfg, col = self.wal_col(tmp_path)
        col.upsert(points(3))
        generation, appends = col.generation, col.wal_stats[0]
        with pytest.raises(PointNotFoundError):
            col.delete([1, 99])
        assert col.contains(1) and len(col) == 3
        assert (col.generation, col.wal_stats[0]) == (generation, appends)
        col.close()
        assert [pid for pid, _ in self.reopen(cfg)] == [0, 1, 2]


class TestPayloadIndex:
    def test_create_payload_index(self):
        col = make()
        col.upsert(points(30))
        col.create_payload_index("g", kind="keyword")
        q = np.random.default_rng(7).normal(size=DIM)
        hits = col.search(SearchRequest(vector=q, limit=5, filter=FieldMatch("g", 2),
                                        with_payload=True))
        assert all(h.payload["g"] == 2 for h in hits)

    def test_bad_kind(self):
        col = make()
        with pytest.raises(ValueError):
            col.create_payload_index("g", kind="bogus")
