"""Copy-on-write maintenance: swap protocol, fencing, reconciliation,
optimizer race fixes, and the background driver."""

import threading
import time

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.core.errors import MaintenanceConflictError, PointNotFoundError
from repro.core.filters import FieldMatch, FieldRange
from repro.core.maintenance import MaintenanceDriver
from repro.core.ops import Upsert
from repro.core.optimizer import SegmentOptimizer
from repro.core.segment import Segment
from repro.core.types import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)

DIM = 8


def config(name="maint", **opt_kwargs):
    return CollectionConfig(
        name, VectorParams(size=DIM, distance=Distance.EUCLID),
        optimizer=OptimizerConfig(**opt_kwargs),
    )


def points(n, start=0, seed=None, payload_fn=None):
    rng = np.random.default_rng(start if seed is None else seed)
    return [
        PointStruct(
            id=start + i,
            vector=rng.normal(size=DIM),
            payload=payload_fn(start + i) if payload_fn else None,
        )
        for i in range(n)
    ]


def defer_maintenance(col):
    """Attach a dormant driver so writes only *kick* instead of running the
    inline pass — gives tests deterministic control over when passes run."""
    driver = MaintenanceDriver(col, interval_s=3600.0)
    col.attach_maintenance(driver)
    return driver


def check_invariants(col):
    """No lost/duplicated points; id map consistent with the segment list."""
    segments = col.segments
    seen = {}
    for seg in segments:
        for pid in seg.point_ids():
            assert pid not in seen, f"point {pid} lives in two segments"
            seen[pid] = seg
    id_map = col._id_to_segment
    assert set(id_map) == set(seen), "id map out of sync with segments"
    for pid, seg in id_map.items():
        assert seg.contains(pid), f"id map points {pid} at a segment without it"
        assert any(seg is s for s in segments), f"id map references dropped segment"
    assert len(col) == len(seen)
    return seen


class TestSwapProtocol:
    def test_pass_equivalent_to_synchronous(self):
        """A fenced pass with no concurrent writes == the old inline pass."""
        cfg = config(indexing_threshold=50, vacuum_min_deleted_ratio=0.2)
        col = Collection(cfg)
        defer_maintenance(col)
        col.upsert(points(80))
        for i in range(30):
            col.delete(i)
        report = col.optimize()  # runs the fenced copy-on-write path
        assert report.segments_vacuumed == 1
        assert len(col) == 50
        assert col.segments[0].is_indexed
        check_invariants(col)

    def test_generation_advances_per_pass(self):
        col = Collection(config())
        col.upsert(points(10))
        g0 = col._generation
        col.optimize()
        col.optimize()
        assert col._generation == g0 + 2

    def test_stale_snapshot_commit_fenced(self):
        col = Collection(config())
        col.upsert(points(10))
        with col._write_lock:
            snap = col._begin_maintenance_locked()
        plan = col._optimizer.plan(snap.segments, generation=snap.generation)
        with col._write_lock:
            col._abort_maintenance_locked(snap)
        with pytest.raises(MaintenanceConflictError):
            with col._write_lock:
                col._commit_maintenance_locked(snap, plan)
        check_invariants(col)

    def test_begin_twice_returns_none(self):
        col = Collection(config())
        col.upsert(points(5))
        with col._write_lock:
            snap = col._begin_maintenance_locked()
            assert snap is not None
            assert col._begin_maintenance_locked() is None
            col._abort_maintenance_locked(snap)

    def test_appends_mid_pass_go_to_unpinned_segment(self):
        col = Collection(config())
        col.upsert(points(10))
        pinned = col.segments
        with col._write_lock:
            snap = col._begin_maintenance_locked()
        col.upsert(points(5, start=100))
        target = col._id_to_segment[100]
        assert all(target is not seg for seg in pinned)
        with col._write_lock:
            col._abort_maintenance_locked(snap)
        check_invariants(col)


class TestReconciliation:
    def _run_interleaved(self, cfg, setup, mid_pass):
        """begin → plan → ``mid_pass`` mutations → commit; returns the col."""
        col = Collection(cfg)
        defer_maintenance(col)
        setup(col)
        with col._write_lock:
            snap = col._begin_maintenance_locked()
        assert snap is not None
        plan = col._optimizer.plan(snap.segments, generation=snap.generation)
        mid_pass(col)
        with col._write_lock:
            col._commit_maintenance_locked(snap, plan)
        return col

    def test_mid_pass_delete_replayed_onto_replacement(self):
        cfg = config(indexing_threshold=0, vacuum_min_deleted_ratio=0.2)

        def setup(col):
            col.upsert(points(20))
            col.delete(list(range(10)))  # trigger a vacuum rewrite

        def mid(col):
            col.delete([15])  # lands on the pinned source, journaled

        col = self._run_interleaved(cfg, setup, mid)
        assert col.last_optimizer_report.segments_vacuumed == 1
        assert not col.contains(15)
        assert len(col) == 9
        with pytest.raises(PointNotFoundError):
            col.retrieve(15)
        check_invariants(col)

    def test_mid_pass_payload_replayed_onto_replacement(self):
        cfg = config(indexing_threshold=0, vacuum_min_deleted_ratio=0.2)

        def setup(col):
            col.upsert(points(20, payload_fn=lambda i: {"tag": "old"}))
            col.delete(list(range(10)))

        def mid(col):
            col.set_payload(15, {"tag": "new"})

        col = self._run_interleaved(cfg, setup, mid)
        assert col.retrieve(15).payload == {"tag": "new"}
        check_invariants(col)

    def test_mid_pass_overwrite_moves_point_to_live_segment(self):
        cfg = config(indexing_threshold=0, vacuum_min_deleted_ratio=0.2)
        new_vec = np.full(DIM, 7.0, dtype=np.float32)

        def setup(col):
            col.upsert(points(20))
            col.delete(list(range(10)))

        def mid(col):
            col.upsert([PointStruct(id=15, vector=new_vec)])

        col = self._run_interleaved(cfg, setup, mid)
        got = col.retrieve(15, with_vector=True).vector
        np.testing.assert_array_equal(got, new_vec)
        assert len(col) == 10
        check_invariants(col)

    def test_mid_pass_payload_index_creation_reaches_replacement(self):
        cfg = config(indexing_threshold=0, vacuum_min_deleted_ratio=0.2)

        def setup(col):
            col.upsert(points(20, payload_fn=lambda i: {"bucket": i % 2}))
            col.delete(list(range(10)))

        def mid(col):
            col.create_payload_index("bucket", kind="numeric")

        col = self._run_interleaved(cfg, setup, mid)
        for seg in col.segments:
            assert "bucket" in seg.payload_store.numeric_indexed_keys
        check_invariants(col)

    def test_reconciled_counter(self):
        cfg = config(indexing_threshold=0, vacuum_min_deleted_ratio=0.2)

        def setup(col):
            col.upsert(points(20))
            col.delete(list(range(10)))

        def mid(col):
            col.delete([15, 16])

        col = self._run_interleaved(cfg, setup, mid)
        assert col.maint_stats["passes"] == 1
        assert col.maint_stats["reconciled"] == 2


class TestOptimizeRaceRegression:
    """Satellite: ``optimize()`` used to swap a stale segment snapshot in
    without the write lock — a racing writer's appends were silently lost."""

    def test_writer_racing_optimize_loses_nothing(self):
        cfg = config(
            indexing_threshold=0, max_segments=2, merge_threshold=10_000,
            vacuum_min_deleted_ratio=0.2,
        )
        col = Collection(cfg)
        col.upsert(points(64))
        stop = threading.Event()
        errors = []
        written = []

        def writer():
            try:
                base = 1000
                while not stop.is_set():
                    col.upsert(points(8, start=base))
                    written.append(base)
                    base += 8
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        try:
            deadline = time.monotonic() + 2.0
            doomed = 0
            while time.monotonic() < deadline:
                col.optimize()
                # keep churn up: deletes make vacuum/merge do real work
                if doomed < 60 and col.contains(doomed):
                    col.delete([doomed])
                    doomed += 1
        finally:
            stop.set()
            t.join()
        assert not errors
        col.optimize()
        seen = check_invariants(col)
        for base in written:
            for pid in range(base, base + 8):
                assert pid in seen, f"upsert of {pid} lost by racing optimize()"


class TestVacuumIndexKinds:
    """Satellite: vacuum recreated every payload index as *keyword*."""

    def test_vacuum_preserves_numeric_index_kind(self):
        cfg = config()
        seg = Segment(cfg)
        rng = np.random.default_rng(0)
        seg.upsert_batch(
            [
                PointStruct(
                    id=i, vector=rng.normal(size=DIM),
                    payload={"score": float(i), "tag": f"t{i % 3}"},
                )
                for i in range(20)
            ]
        )
        seg.payload_store.create_numeric_index("score")
        seg.payload_store.create_keyword_index("tag")
        for i in range(8):
            seg.delete(i)
        fresh = seg.vacuum()
        assert fresh.payload_store.numeric_indexed_keys == {"score"}
        assert fresh.payload_store.keyword_indexed_keys == {"tag"}
        # The numeric index must actually serve range prefilters again.
        cand = fresh.payload_store.prefilter_candidates(FieldRange("score", gte=10))
        assert cand == set(range(10, 20))
        cand = fresh.payload_store.prefilter_candidates(FieldMatch("tag", "t0"))
        assert cand == {i for i in range(8, 20) if i % 3 == 0}

    def test_vacuum_through_collection_keeps_range_filtering(self):
        cfg = config(indexing_threshold=0, vacuum_min_deleted_ratio=0.2)
        col = Collection(cfg)
        defer_maintenance(col)
        col.upsert(points(20, payload_fn=lambda i: {"rank": i}))
        col.create_payload_index("rank", kind="numeric")
        col.delete(list(range(10)))
        col.optimize()
        assert col.last_optimizer_report.segments_vacuumed == 1
        hits = col.search(
            SearchRequest(
                vector=np.zeros(DIM), limit=20,
                filter=FieldRange("rank", gte=15),
            )
        )
        assert sorted(h.id for h in hits) == [15, 16, 17, 18, 19]


class TestMergeFixes:
    """Satellite: merge dropped payload indexes and re-inserted row-wise."""

    def _small_segments(self, cfg, n_segments=4, each=5):
        rng = np.random.default_rng(42)
        segs = []
        for s in range(n_segments):
            seg = Segment(cfg)
            seg.upsert_batch(
                [
                    PointStruct(
                        id=s * 100 + i,
                        vector=rng.normal(size=DIM),
                        payload={"bucket": s, "rank": i},
                    )
                    for i in range(each)
                ]
            )
            segs.append(seg)
        return segs

    def test_merged_segment_keeps_both_index_kinds(self):
        cfg = config(indexing_threshold=0, max_segments=2, merge_threshold=100)
        segs = self._small_segments(cfg)
        segs[0].payload_store.create_keyword_index("bucket")
        segs[1].payload_store.create_numeric_index("rank")
        merged, report = SegmentOptimizer(cfg).run(segs)
        assert report.segments_merged == 4
        assert len(merged) == 1
        store = merged[0].payload_store
        assert "bucket" in store.keyword_indexed_keys
        assert "rank" in store.numeric_indexed_keys
        # Backfilled over every merged point, not just the sources'.
        assert store.prefilter_candidates(FieldMatch("bucket", 2)) == {
            200 + i for i in range(5)
        }

    def test_merge_preserves_points_and_vectors(self):
        cfg = config(indexing_threshold=0, max_segments=2, merge_threshold=100)
        segs = self._small_segments(cfg)
        expected = {}
        for seg in segs:
            for rec in seg.iter_points(with_vector=True):
                expected[rec.id] = (rec.vector.copy(), rec.payload)
        merged, _ = SegmentOptimizer(cfg).run(segs)
        assert len(merged[0]) == len(expected)
        for pid, (vec, payload) in expected.items():
            rec = merged[0].retrieve(pid, with_vector=True)
            np.testing.assert_array_equal(rec.vector, vec)
            assert rec.payload == payload


class TestBitIdentity:
    """Background-maintained state must match the synchronous twin exactly."""

    def test_background_pass_with_concurrent_appends_matches_sync(self):
        cfg = config(indexing_threshold=40, vacuum_min_deleted_ratio=0.2)
        initial = points(60, seed=1)
        extra = points(20, start=500, seed=2)
        queries = np.random.default_rng(3).normal(size=(10, DIM)).astype(np.float32)

        # Twin A: fenced pass over the initial data, fresh appends mid-pass.
        a = Collection(config("a", indexing_threshold=40))
        a.upsert(initial)
        with a._write_lock:
            snap = a._begin_maintenance_locked()
        plan = a._optimizer.plan(snap.segments, generation=snap.generation)
        a.upsert(extra)  # lands in an unpinned appendable segment
        with a._write_lock:
            a._commit_maintenance_locked(snap, plan)

        # Twin B: synchronous optimize, then the same appends.
        b = Collection(config("b", indexing_threshold=40))
        b.upsert(initial)
        b.optimize()
        b.upsert(extra)

        for q in queries:
            hits_a = a.search(SearchRequest(vector=q, limit=10))
            hits_b = b.search(SearchRequest(vector=q, limit=10))
            assert [(h.id, h.score) for h in hits_a] == [
                (h.id, h.score) for h in hits_b
            ]
        check_invariants(a)


class TestMaintenanceDriver:
    def test_driver_runs_passes_on_kick(self):
        cfg = config(indexing_threshold=30)
        col = Collection(cfg)
        driver = MaintenanceDriver(col, interval_s=0.01).start()
        try:
            assert col.maintenance is driver
            col.upsert(points(50))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if col.indexed_vectors_count >= 50:
                    break
                time.sleep(0.005)
            assert col.indexed_vectors_count >= 50, "background index never built"
            assert driver.stats.snapshot()["passes"] >= 1
        finally:
            driver.stop()
        assert col.maintenance is None
        assert not driver.is_running
        check_invariants(col)

    def test_stop_with_drain_runs_final_pass(self):
        cfg = config(indexing_threshold=30)
        col = Collection(cfg)
        driver = MaintenanceDriver(col, interval_s=60.0).start()  # never wakes
        col._apply_upsert(Upsert.of_points(points(50), DIM))  # bypass kick: a missed nudge
        driver.stop(drain=True)
        assert col.indexed_vectors_count >= 50
        check_invariants(col)

    def test_inline_optimizer_disabled_while_driver_attached(self):
        cfg = config(indexing_threshold=10)
        col = Collection(cfg)
        driver = MaintenanceDriver(col, interval_s=60.0)
        col.attach_maintenance(driver)  # attached but thread never started
        try:
            col.upsert(points(40))
            # The write path only kicked; nothing ran inline.
            assert col.indexed_vectors_count == 0
            assert driver._wake.is_set()
        finally:
            col.detach_maintenance(driver)

    def test_close_stops_attached_driver(self):
        col = Collection(config())
        driver = MaintenanceDriver(col, interval_s=0.01).start()
        col.upsert(points(5))
        col.close()
        assert not driver.is_running
