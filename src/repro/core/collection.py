"""Collection: the user-facing container of points.

A collection is a list of :class:`~repro.core.segment.Segment` objects plus
a :class:`~repro.core.optimizer.SegmentOptimizer` and an optional WAL.  A
standalone collection is what a single Qdrant worker serves for one shard;
the cluster layer (:mod:`repro.core.cluster`) composes many of them.

Write path: operations are logged to the WAL (when enabled), applied to the
current appendable segment, and the optimizer runs opportunistically.  With
``indexing_threshold=0`` (bulk mode, §3.3) segments stay plain until
:meth:`build_index` is called explicitly, which seals all appendable
segments and builds one HNSW per segment — the "complete index rebuild" the
paper measures in Figure 3.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..obs.metrics import Counters, get_registry
from ..obs.trace import get_tracer
from .errors import CollectionNotFoundError, MaintenanceConflictError, PointNotFoundError
from .filters import Condition
from .optimizer import (
    MaintenancePlan,
    OptimizerReport,
    SegmentOptimizer,
    splice_segments,
)
from .distances import merge_hits
from .parallel import ParallelBuildReport, build_segment_indexes
from .segment import Segment
from .types import (
    CollectionConfig,
    CollectionInfo,
    CollectionStatus,
    PointId,
    PointStruct,
    Record,
    ScoredPoint,
    SearchParams,
    SearchRequest,
    UpdateResult,
    UpdateStatus,
)
from .wal import WriteAheadLog

__all__ = ["Collection", "MaintenanceSnapshot", "MigrationState", "SwapStats", "group_search"]


def group_search(
    search,
    request: SearchRequest,
    *,
    group_by: str,
    group_size: int = 1,
    limit: int | None = None,
) -> list[tuple[Any, list[ScoredPoint]]]:
    """Run ``search`` over-fetched, then collapse hits by a payload key.

    Returns up to ``limit`` (group key, top ``group_size`` hits) pairs,
    ordered by each group's best score.  The wide request is ``request``
    with only the limit and the payload projection changed, so every other
    knob (filter, params, threshold, ``allow_partial``) reaches ``search``.
    """
    limit = limit if limit is not None else request.limit
    # over-fetch so enough distinct groups surface
    wide = replace(
        request, limit=max(limit * group_size * 4, request.limit), with_payload=True
    )
    groups: dict[Any, list[ScoredPoint]] = {}
    order: list[Any] = []
    for hit in search(wide):
        key = (hit.payload or {}).get(group_by)
        if key is None:
            continue
        bucket = groups.setdefault(key, [])
        if not bucket:
            order.append(key)
        if len(bucket) < group_size:
            bucket.append(hit)
    return [(key, groups[key]) for key in order[:limit]]


@dataclass
class MigrationState:
    """Per-shard live-migration bookkeeping on the *source* collection.

    ``pins`` freezes each segment's live offset array at begin time — the
    chunk cursor walks this flattened row space, so the bulk copy is a
    consistent snapshot no matter what writers do meanwhile.  ``journal``
    captures every mutation that lands after the pin; the coordinator
    drains and replays it on the target in O(mutations).
    """

    pins: list[tuple]          # [(segment, live_offsets ndarray), ...]
    starts: list[int]          # flattened start row of each pinned segment
    rows_total: int
    journal: list[tuple]
    rows_exported: int = 0
    drained: int = 0


@dataclass
class MaintenanceSnapshot:
    """An immutable view of the segment list a maintenance pass works over.

    Identity of this object is the fence: commit succeeds only while it is
    still the collection's active snapshot, and ``generation`` records the
    swap epoch it was taken at.
    """

    segments: list[Segment]
    generation: int


@dataclass
class SwapStats(Counters):
    """Copy-on-write swap-protocol counters of one collection: committed
    maintenance passes, passes whose swap changed segment state, and
    journaled mid-pass mutations reconciled at swap time."""

    passes: int = 0
    swaps: int = 0
    reconciled: int = 0

    def __getitem__(self, name: str) -> int:
        """``stats["passes"]``: the read of the plain dict this replaced."""
        return getattr(self, name)

    def record(self, did_work: bool, reconciled: int) -> None:
        with self._lock:
            self.passes += 1
            if did_work:
                self.swaps += 1
            self.reconciled += reconciled


class Collection:
    """A searchable set of points with one consistent vector configuration."""

    def __init__(self, config: CollectionConfig, *, directory: str | None = None):
        self.config = config
        self._directory = directory
        # Mutations are serialized per collection (as Qdrant serializes
        # writes per shard); concurrent clients may share a collection.
        self._write_lock = threading.RLock()
        self._segments: list[Segment] = [Segment(config, directory=directory)]
        # Collection-level id -> owning segment map: membership checks and
        # overwrite routing are O(1) per point instead of O(segments) scans.
        self._id_to_segment: dict[PointId, Segment] = {}
        self._optimizer = SegmentOptimizer(config)
        self._operation_counter = 0
        self._last_report = OptimizerReport()
        self._last_build_report = ParallelBuildReport()
        # -- copy-on-write maintenance state (all guarded by _write_lock
        #    except _maint_mutex, which serializes whole passes and is
        #    always taken *before* _write_lock, never while holding it).
        self._generation = 0
        self._maint_mutex = threading.Lock()
        self._maint_active: MaintenanceSnapshot | None = None
        #: Ordered mid-pass mutations against pinned segments, replayed
        #: onto replacement segments at swap time; None outside a pass.
        self._maint_journal: list[tuple] | None = None
        #: segment_ids frozen into the active snapshot — the write path
        #: never appends to these while a pass is in flight.
        self._maint_pinned: set[int] = set()
        self._maintenance = None  # attached MaintenanceDriver, if any
        #: Live shard-migration state (source side); None when not migrating.
        self._migration: MigrationState | None = None
        #: Set by ``end_migration(retire=True)`` — the shard has been handed
        #: off and must refuse further writes so a racing stale-plan writer
        #: gets a retriable error instead of silently-lost acknowledged rows.
        self._retired = False
        #: Swap-protocol counters, aggregated by cluster telemetry.
        self.maint_stats = SwapStats()
        self._wal: WriteAheadLog | None = None
        if config.wal.enabled:
            path = config.wal.path or os.path.join(directory or ".", f"{config.name}.wal")
            if os.path.isdir(path) or path.endswith(os.sep):
                # A directory means one log file per collection/shard inside
                # it — what a sharded cluster needs, since every shard's
                # config carries the same WalConfig.
                path = os.path.join(path, f"{config.name}.wal")
            self._wal = WriteAheadLog(
                path,
                sync_every_write=config.wal.sync_every_write,
                flush_every_n=config.wal.flush_every_n,
                flush_interval_s=config.wal.flush_interval_s,
            )
            self._replay_wal()

    # -- WAL -------------------------------------------------------------------

    def _replay_wal(self) -> None:
        assert self._wal is not None
        for record in self._wal.replay():
            if record.op == "upsert":
                points = [
                    PointStruct(id=pid, vector=np.asarray(vec, dtype=np.float32), payload=pl)
                    for pid, vec, pl in record.data
                ]
                self._apply_upsert(points)
            elif record.op == "upsert_columnar":
                ids, vectors, payloads = record.data
                self._apply_upsert_arrays(
                    ids,
                    np.asarray(vectors, dtype=np.float32),
                    payloads if payloads is not None else [None] * len(ids),
                )
            elif record.op == "delete":
                for pid in record.data:
                    self._apply_delete(pid)
            elif record.op == "set_payload":
                pid, payload = record.data
                self._apply_set_payload(pid, payload)

    def _log(self, op: str, data) -> None:
        if self._wal is not None:
            self._wal.append(op, data)

    def _log_columnar(self, ids, vectors, payloads) -> None:
        """Log an upsert as one columnar record: raw buffers, no tolist()."""
        if self._wal is not None:
            self._wal.append_columnar(ids, vectors, payloads)

    def flush_wal(self) -> None:
        """Force out any group-commit buffered WAL records."""
        if self._wal is not None:
            self._wal.flush()

    @property
    def wal_stats(self) -> tuple[int, int, int]:
        """(appends, flushes, bytes) of this collection's WAL; zeros if none."""
        if self._wal is None:
            return (0, 0, 0)
        return (self._wal.append_count, self._wal.flush_count, self._wal.bytes_appended)

    def checkpoint(self) -> None:
        """Truncate the WAL (callers must have snapshotted first)."""
        if self._wal is not None:
            self._wal.truncate()

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(s) for s in self._segments)

    @property
    def segments(self) -> list[Segment]:
        return list(self._segments)

    @property
    def indexed_vectors_count(self) -> int:
        return sum(len(s) for s in self._segments if s.is_indexed)

    @property
    def last_optimizer_report(self) -> OptimizerReport:
        return self._last_report

    def info(self) -> CollectionInfo:
        unindexed = [
            s for s in self._segments
            if not s.is_indexed and len(s) >= max(1, self.config.optimizer.indexing_threshold)
        ]
        status = CollectionStatus.GREEN
        if self.config.optimizer.indexing_threshold > 0 and unindexed:
            status = CollectionStatus.YELLOW
        return CollectionInfo(
            name=self.config.name,
            status=status,
            points_count=len(self),
            indexed_vectors_count=self.indexed_vectors_count,
            segments_count=len(self._segments),
            config=self.config,
        )

    def contains(self, point_id: PointId) -> bool:
        return point_id in self._id_to_segment

    @property
    def generation(self) -> int:
        """Monotonic mutation epoch used for cache fencing.

        Advances on every state change that can alter search results: each
        mutating operation (upsert / delete / set_payload), every maintenance
        swap (inline or fenced copy-on-write), and the reshard cutover that
        retires the shard.  A search result computed at generation ``g`` is
        valid exactly as long as ``generation == g`` still holds.
        """
        return self._generation

    # -- write path ------------------------------------------------------------------

    def _appendable_segment(self) -> Segment:
        # Pinned segments belong to the active maintenance snapshot: they
        # may still take tombstones/payload edits (journaled + reconciled at
        # swap), but never appends — a fresh point must land in a segment
        # the background pass cannot replace.
        for seg in reversed(self._segments):
            if not seg.is_sealed and seg.segment_id not in self._maint_pinned:
                return seg
        seg = Segment(self.config, directory=self._directory)
        self._segments.append(seg)
        return seg

    def _register_fresh(self, ids, segment: Segment) -> None:
        id_map = self._id_to_segment
        for pid in ids:
            id_map[pid] = segment

    def _rebuild_id_map(self) -> None:
        """Recompute the id -> segment map after segments merge or vacuum."""
        id_map: dict[PointId, Segment] = {}
        for seg in self._segments:
            for pid in seg.point_ids():
                id_map[pid] = seg
        self._id_to_segment = id_map

    def _apply_upsert(self, points: Sequence[PointStruct]) -> None:
        # An id may already live in an older (possibly sealed) segment; a
        # re-upsert there must tombstone the old copy first.  The id map
        # locates the owner directly — no per-point scan over segments.
        fresh: list[PointStruct] = []
        target = self._appendable_segment()
        for p in points:
            owner = self._id_to_segment.get(p.id)
            if owner is None:
                fresh.append(p)
            elif owner is target and not owner.is_sealed:
                owner.upsert(p)
            else:
                owner.delete(p.id)
                del self._id_to_segment[p.id]
                self._journal_if_pinned(owner, ("delete", p.id))
                fresh.append(p)
        # Append fresh points, splitting across segments at max_segment_size.
        max_size = self.config.optimizer.max_segment_size
        while fresh:
            if max_size is None:
                target.upsert_batch(fresh)
                self._register_fresh((p.id for p in fresh), target)
                fresh = []
            else:
                room = max_size - len(target)
                if room <= 0:
                    target.seal()
                    target = self._appendable_segment()
                    continue
                target.upsert_batch(fresh[:room])
                self._register_fresh((p.id for p in fresh[:room]), target)
                fresh = fresh[room:]
                if len(target) >= max_size:
                    target.seal()

    def _columnar_log_arrays(
        self, points: Sequence[PointStruct]
    ) -> tuple[np.ndarray, np.ndarray, list]:
        """Row-wise points -> (ids, vectors, payloads) for columnar logging."""
        if not points:
            dim = self.config.vectors.size
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, dim), dtype=np.float32),
                [],
            )
        ids = np.asarray([p.id for p in points], dtype=np.int64)
        vectors = np.stack([p.as_array() for p in points])
        payloads = [dict(p.payload) if p.payload else None for p in points]
        return ids, vectors, payloads

    def _check_retired(self) -> None:
        """Refuse mutations on a handed-off shard (caller holds _write_lock)."""
        if self._retired:
            raise CollectionNotFoundError(self.config.name)

    def upsert(self, points: Sequence[PointStruct] | PointStruct) -> UpdateResult:
        """Insert or overwrite points; runs the optimizer afterwards."""
        if isinstance(points, PointStruct):
            points = [points]
        with self._write_lock:
            self._check_retired()
            if self._wal is not None:
                self._log_columnar(*self._columnar_log_arrays(points))
            self._apply_upsert(points)
            if self._migration is not None:
                journal = self._migration.journal
                for p in points:
                    journal.append(
                        (
                            "upsert",
                            p.id,
                            np.array(p.as_array(), dtype=np.float32, copy=True),
                            dict(p.payload) if p.payload else None,
                        )
                    )
            self._maybe_optimize()
            self._generation += 1
            self._operation_counter += 1
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def _apply_upsert_arrays(self, ids, vectors: np.ndarray, payloads: list) -> None:
        """Apply a columnar upsert: vectorized append of fresh ids, per-point
        overwrite for ids that already exist anywhere in the collection."""
        int_ids = [int(pid) for pid in ids]
        id_map = self._id_to_segment
        existing_rows = [i for i, pid in enumerate(int_ids) if pid in id_map]
        if existing_rows:
            self._apply_upsert(
                [
                    PointStruct(id=int_ids[i], vector=vectors[i], payload=payloads[i])
                    for i in existing_rows
                ]
            )
        if len(existing_rows) == len(int_ids):
            return
        fresh_mask = np.ones(len(int_ids), dtype=bool)
        fresh_mask[existing_rows] = False
        rows = np.nonzero(fresh_mask)[0]
        target = self._appendable_segment()
        target.upsert_columnar(
            np.asarray(ids)[rows],
            np.asarray(vectors)[rows],
            [payloads[int(r)] for r in rows],
        )
        self._register_fresh((int_ids[int(r)] for r in rows), target)
        max_size = self.config.optimizer.max_segment_size
        if max_size is not None and len(target) >= max_size:
            target.seal()

    def upsert_columnar(self, batch) -> UpdateResult:
        """Columnar fast-path upsert (Qdrant ``Batch`` semantics).

        Fresh ids take one vectorized append per segment; ids that already
        exist anywhere fall back to the per-point overwrite path.  The WAL
        record is columnar too — the vector block is logged as raw ndarray
        bytes, never materialized as Python lists.
        """
        from .batch import Batch

        if not isinstance(batch, Batch):
            raise TypeError("upsert_columnar expects a core.batch.Batch")
        batch.validate(expected_dim=self.config.vectors.size)
        with self._write_lock:
            self._check_retired()
            if self._wal is not None:
                self._log_columnar(batch.ids, batch.vectors, batch.payloads)
            self._apply_upsert_arrays(batch.ids, batch.vectors, batch.payloads)
            if self._migration is not None:
                journal = self._migration.journal
                for i, pid in enumerate(batch.ids.tolist()):
                    payload = batch.payloads[i]
                    journal.append(
                        (
                            "upsert",
                            pid,
                            np.array(batch.vectors[i], dtype=np.float32, copy=True),
                            dict(payload) if payload else None,
                        )
                    )
            self._maybe_optimize()
            self._generation += 1
            self._operation_counter += 1
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def _journal_if_pinned(self, seg: Segment, entry: tuple) -> None:
        """Record a mutation against a pinned segment for swap-time replay."""
        if self._maint_journal is not None and seg.segment_id in self._maint_pinned:
            self._maint_journal.append(entry)

    def _apply_delete(self, point_id: PointId) -> bool:
        seg = self._id_to_segment.pop(point_id, None)
        if seg is None:
            return False
        seg.delete(point_id)
        self._journal_if_pinned(seg, ("delete", point_id))
        if self._migration is not None:
            self._migration.journal.append(("delete", point_id))
        return True

    def delete(self, point_ids: Sequence[PointId] | PointId) -> UpdateResult:
        if isinstance(point_ids, int):
            point_ids = [point_ids]
        with self._write_lock:
            self._check_retired()
            self._log("delete", list(point_ids))
            for pid in point_ids:
                if not self._apply_delete(pid):
                    raise PointNotFoundError(pid)
            self._maybe_optimize()
            self._generation += 1
            self._operation_counter += 1
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def _apply_set_payload(self, point_id: PointId, payload: Mapping[str, Any] | None) -> None:
        seg = self._id_to_segment.get(point_id)
        if seg is None:
            raise PointNotFoundError(point_id)
        seg.set_payload(point_id, payload)
        self._journal_if_pinned(
            seg, ("payload", point_id, dict(payload) if payload is not None else None)
        )
        if self._migration is not None:
            self._migration.journal.append(
                ("payload", point_id, dict(payload) if payload is not None else None)
            )

    def set_payload(self, point_id: PointId, payload: Mapping[str, Any] | None) -> UpdateResult:
        with self._write_lock:
            self._check_retired()
            self._log("set_payload", (point_id, dict(payload) if payload else None))
            self._apply_set_payload(point_id, payload)
            self._generation += 1
            self._operation_counter += 1
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def create_payload_index(self, key: str, *, kind: str = "keyword") -> None:
        """Create a secondary payload index on every segment."""
        if kind not in ("keyword", "numeric"):
            raise ValueError(f"unknown payload index kind {kind!r}")
        with self._write_lock:
            for seg in self._segments:
                if kind == "keyword":
                    seg.payload_store.create_keyword_index(key)
                else:
                    seg.payload_store.create_numeric_index(key)
            # Replacement segments being built off a pinned snapshot copied
            # the *old* index set; journal the creation so they catch up.
            if self._maint_journal is not None:
                self._maint_journal.append(("pindex", key, kind))

    # -- maintenance ---------------------------------------------------------------------
    #
    # Copy-on-write protocol: a pass snapshots (and pins) the segment list
    # under the write lock, builds replacements/indexes with no lock held,
    # then swaps them in under a short generation-fenced critical section.
    # Mid-pass mutations against pinned segments are journaled and replayed
    # onto the replacements at swap time; fresh appends always land in an
    # unpinned segment, so they are never part of a swap.

    def _maybe_optimize(self) -> None:
        # Called under _write_lock after every write batch.
        if self._migration is not None:
            # A live migration pins segment offsets; vacuum/merge would
            # invalidate the chunk cursor.  Maintenance resumes at cutover.
            return
        driver = self._maintenance
        if driver is not None:
            driver.kick()  # background driver owns maintenance; just nudge it
            return
        if self._maint_active is not None:
            # An explicit fenced pass is in flight; it reconciles our writes
            # at swap time.  Running inline now would race its build phase.
            return
        plan = self._optimizer.plan(self._segments, generation=self._generation)
        self._apply_plan_locked(plan)
        if plan.did_work:
            # Inline vacuum/merge swapped segments: fence cached results.
            self._generation += 1
        self._last_report = plan.report

    def _begin_maintenance_locked(self) -> MaintenanceSnapshot | None:
        if self._maint_active is not None or self._migration is not None:
            return None
        snapshot = MaintenanceSnapshot(
            segments=list(self._segments), generation=self._generation
        )
        self._maint_pinned = {seg.segment_id for seg in snapshot.segments}
        self._maint_journal = []
        self._maint_active = snapshot
        return snapshot

    def _abort_maintenance_locked(self, snapshot: MaintenanceSnapshot) -> None:
        if self._maint_active is snapshot:
            self._maint_pinned = set()
            self._maint_journal = None
            self._maint_active = None

    def _commit_maintenance_locked(
        self, snapshot: MaintenanceSnapshot, plan: MaintenancePlan
    ) -> OptimizerReport:
        if self._maint_active is not snapshot:
            raise MaintenanceConflictError(
                f"maintenance snapshot (generation {snapshot.generation}) "
                "is no longer the collection's active pass"
            )
        journal = self._maint_journal or []
        self._apply_plan_locked(plan, journal)
        self._maint_pinned = set()
        self._maint_journal = None
        self._maint_active = None
        self._generation += 1
        self._last_report = plan.report
        self.maint_stats.record(plan.did_work, len(journal))
        return plan.report

    def _apply_plan_locked(
        self, plan: MaintenancePlan, journal: Sequence[tuple] = ()
    ) -> None:
        """Swap a plan in: install indexes, reconcile the journal, splice.

        Runs under ``_write_lock`` and is O(installs + journal + moved
        points) — never O(collection): the id map is repointed only for
        points that changed segments, not rebuilt from scratch.
        """
        for ins in plan.installs:
            ins.segment.install_index(ins.index, ins.index_kind)
            if ins.quantizer is not None:
                ins.segment.adopt_quantization(ins.quantizer, ins.codes)
        if not plan.replacements:
            return
        fresh = [rep.segment for rep in plan.replacements if rep.segment is not None]
        # Replay mutations that hit pinned source segments mid-pass, in
        # arrival order, onto whichever replacement carries the point now.
        for entry in journal:
            op = entry[0]
            if op == "delete":
                pid = entry[1]
                for seg in fresh:
                    if seg.contains(pid):
                        seg.delete(pid)
                        break
            elif op == "payload":
                _, pid, payload = entry
                for seg in fresh:
                    if seg.contains(pid):
                        seg.set_payload(pid, payload)
                        break
            elif op == "pindex":
                _, key, index_kind = entry
                for seg in fresh:
                    if index_kind == "keyword":
                        seg.payload_store.create_keyword_index(key)
                    else:
                        seg.payload_store.create_numeric_index(key)
        self._segments = splice_segments(self._segments, plan.replacements)
        id_map = self._id_to_segment
        for seg in fresh:
            for pid in seg.point_ids():
                id_map[pid] = seg

    def run_maintenance_pass(self) -> OptimizerReport:
        """One full copy-on-write optimizer pass (snapshot → plan → swap).

        The write lock is held only for the two short bookend sections; the
        expensive middle (vacuum rewrites, merges, HNSW builds, quantizer
        training) runs with no lock held, so concurrent upserts/deletes
        proceed against unpinned segments throughout.
        """
        tracer = get_tracer()
        registry = get_registry()
        with self._maint_mutex:
            t0 = time.perf_counter()
            with self._write_lock:
                snapshot = self._begin_maintenance_locked()
            if snapshot is None:
                return self._last_report
            try:
                with tracer.span(
                    "maint.plan",
                    {
                        "generation": snapshot.generation,
                        "segments": len(snapshot.segments),
                    }
                    if tracer.enabled else None,
                ):
                    plan = self._optimizer.plan(
                        snapshot.segments, generation=snapshot.generation
                    )
            except BaseException:
                with self._write_lock:
                    self._abort_maintenance_locked(snapshot)
                raise
            t1 = time.perf_counter()
            with self._write_lock:
                with tracer.span(
                    "maint.swap",
                    {
                        "replacements": len(plan.replacements),
                        "installs": len(plan.installs),
                        "journal": len(self._maint_journal or ()),
                    }
                    if tracer.enabled else None,
                ):
                    report = self._commit_maintenance_locked(snapshot, plan)
            t2 = time.perf_counter()
            registry.histogram("maint.swap_s").observe(t2 - t1)
            registry.histogram("maint.pass_s").observe(t2 - t0)
            return report

    def optimize(self) -> OptimizerReport:
        """Force a full optimizer pass.

        Runs the same fenced copy-on-write protocol as the background
        driver — in particular the segment-list swap happens under
        ``_write_lock``, so racing a writer can no longer lose its points
        to a stale-snapshot reassignment.
        """
        return self.run_maintenance_pass()

    # -- maintenance driver lifecycle -----------------------------------------------

    @property
    def maintenance(self):
        """The attached :class:`~repro.core.maintenance.MaintenanceDriver`."""
        return self._maintenance

    def attach_maintenance(self, driver) -> None:
        self._maintenance = driver

    def detach_maintenance(self, driver) -> None:
        if self._maintenance is driver:
            self._maintenance = None

    # -- live shard migration ---------------------------------------------------
    #
    # Three-phase protocol driven by the cluster's ReshardCoordinator.  On
    # the *source*: ``begin_migration`` pins a consistent row snapshot and
    # starts the mutation journal; ``migration_chunk`` streams pinned rows
    # columnar while writers keep landing; ``drain_migration_journal`` hands
    # mid-copy mutations over for O(mutations) replay; ``end_migration``
    # releases the pins.  On the *target*: ``apply_migration_entries``
    # replays a drained journal tolerantly (idempotent upsert, delete/payload
    # only if present), so a chunk re-sent after a transport retry or a
    # double-applied journal entry cannot diverge the copy.

    def begin_migration(self) -> int:
        """Pin a migration snapshot and open the mutation journal.

        Returns the pinned row count.  Maintenance passes are refused while
        a migration is active (pins freeze segment offsets; a vacuum would
        invalidate the chunk cursor).
        """
        with self._write_lock:
            if self._migration is not None:
                raise MaintenanceConflictError(
                    f"collection {self.config.name!r} is already migrating"
                )
            pins: list[tuple] = []
            starts: list[int] = []
            total = 0
            for seg in self._segments:
                offs = seg.pin_live_offsets()
                if len(offs) == 0:
                    continue
                pins.append((seg, offs))
                starts.append(total)
                total += len(offs)
            self._migration = MigrationState(
                pins=pins, starts=starts, rows_total=total, journal=[]
            )
            return total

    def migration_chunk(self, cursor: int, max_rows: int) -> dict:
        """Export pinned rows ``[cursor, cursor + max_rows)`` columnar.

        Returns ``{ids, vectors, payloads, next_cursor}``; ``next_cursor``
        is None once the snapshot is exhausted.  Rows tombstoned since the
        pin still export (the journal replays the delete afterwards).
        """
        with self._write_lock:
            mig = self._migration
            if mig is None:
                raise MaintenanceConflictError(
                    f"collection {self.config.name!r} has no active migration"
                )
            end = min(cursor + max(1, int(max_rows)), mig.rows_total)
            ids: list[PointId] = []
            vec_parts: list[np.ndarray] = []
            payloads: list = []
            for (seg, offs), start in zip(mig.pins, mig.starts):
                lo = max(cursor, start)
                hi = min(end, start + len(offs))
                if lo >= hi:
                    continue
                s_ids, s_vecs, s_pls = seg.export_rows(offs[lo - start : hi - start])
                ids.extend(s_ids)
                vec_parts.append(s_vecs)
                payloads.extend(s_pls)
            vectors = (
                np.concatenate(vec_parts)
                if vec_parts
                else np.empty((0, self.config.vectors.size), dtype=np.float32)
            )
            mig.rows_exported = max(mig.rows_exported, end)
            next_cursor = end if end < mig.rows_total else None
            return {
                "ids": ids,
                "vectors": vectors,
                "payloads": payloads,
                "next_cursor": next_cursor,
            }

    def drain_migration_journal(self) -> list[tuple]:
        """Hand over (and clear) the mutations captured since the last drain."""
        with self._write_lock:
            mig = self._migration
            if mig is None:
                return []
            entries = mig.journal
            mig.journal = []
            mig.drained += len(entries)
            return entries

    def end_migration(self, *, retire: bool = False) -> dict:
        """Release the migration pins; returns final counters.

        The residual journal (mutations landed since the last drain) comes
        back under ``"journal"`` so the coordinator can replay it on the
        target.  With ``retire=True`` the shard atomically — under the same
        write lock that serializes mutations — stops accepting writes, so
        no acknowledged row can slip in after the final journal hand-off.
        """
        with self._write_lock:
            mig = self._migration
            self._migration = None
            if retire:
                # Reshard cutover: the shard's contents now live elsewhere,
                # so any cached result fenced on this shard is stale.
                self._retired = True
                self._generation += 1
            if mig is None:
                return {
                    "rows_total": 0,
                    "rows_exported": 0,
                    "journal_drained": 0,
                    "journal": [],
                }
            mig.drained += len(mig.journal)
            return {
                "rows_total": mig.rows_total,
                "rows_exported": mig.rows_exported,
                "journal_drained": mig.drained,
                "journal": mig.journal,
            }

    def migration_stats(self) -> dict:
        """Introspection for the reshard driver / worker RPC."""
        with self._write_lock:
            mig = self._migration
            if mig is None:
                return {"active": False}
            return {
                "active": True,
                "rows_total": mig.rows_total,
                "rows_exported": mig.rows_exported,
                "journal_pending": len(mig.journal),
                "journal_drained": mig.drained,
            }

    def apply_migration_entries(self, entries: Sequence[tuple]) -> int:
        """Replay drained journal entries in order, tolerantly (target side)."""
        applied = 0
        with self._write_lock:
            for entry in entries:
                op = entry[0]
                if op == "upsert":
                    _, pid, vec, payload = entry
                    self.upsert(
                        PointStruct(
                            id=pid,
                            vector=np.asarray(vec, dtype=np.float32),
                            payload=payload,
                        )
                    )
                    applied += 1
                elif op == "delete":
                    if entry[1] in self._id_to_segment:
                        self.delete(entry[1])
                        applied += 1
                elif op == "payload":
                    if entry[1] in self._id_to_segment:
                        self.set_payload(entry[1], entry[2])
                        applied += 1
        return applied

    def build_index(
        self,
        kind: str = "hnsw",
        *,
        max_threads: int | None = None,
        use_processes: bool = False,
    ) -> OptimizerReport:
        """Seal all segments and build an ANN index over each (bulk path).

        This is the deferred "complete index rebuild" of §3.3.  Returns a
        report whose ``index_builds`` lists each (segment, size) build.

        Segments build independently, so the pass parallelises across them
        (the per-shard build parallelism behind Figure 3).  ``max_threads``
        follows the ``max_indexing_threads`` convention — ``None`` reads the
        collection's optimizer config, 1 is serial, 0 means one worker per
        core — and ``use_processes`` swaps the thread pool for fork-based
        workers.  Results are bit-identical either way.

        Sealing happens under the write lock (a concurrent upsert can no
        longer be half-appended when its target seals); the builds
        themselves run with no lock held — sealed arenas cannot move — so
        writers keep appending to a fresh segment while the rebuild runs.
        """
        if max_threads is None:
            max_threads = self.config.optimizer.max_indexing_threads
        report = OptimizerReport()
        with self._maint_mutex:  # serialize against background passes
            with self._write_lock:
                targets = [seg for seg in self._segments if len(seg) > 0]
                for seg in targets:
                    seg.seal()
            self._last_build_report = build_segment_indexes(
                targets, kind, max_workers=max_threads, use_processes=use_processes
            )
            for seg in targets:
                report.segments_indexed += 1
                report.vectors_indexed += len(seg)
                report.index_builds.append((seg.segment_id, len(seg)))
            if self.config.quantization.enabled:
                # Indexing no longer excludes quantization: freshly indexed
                # segments get codes too, so HNSW traverses in the code domain.
                for seg in targets:
                    if not seg.is_quantized and len(seg):
                        seg.enable_quantization()
            self._last_report = report
        return report

    @property
    def last_build_report(self) -> ParallelBuildReport:
        """Timing of the most recent multi-segment index build."""
        return self._last_build_report

    def enable_quantization(self) -> None:
        for seg in self._segments:
            if len(seg):
                seg.enable_quantization()

    # -- read path -----------------------------------------------------------------------

    def retrieve(
        self, point_id: PointId, *, with_vector: bool = False, with_payload: bool = True
    ) -> Record:
        seg = self._id_to_segment.get(point_id)
        if seg is None:
            raise PointNotFoundError(point_id)
        return seg.retrieve(point_id, with_vector=with_vector, with_payload=with_payload)

    def scroll(
        self,
        *,
        offset_id: PointId | None = None,
        limit: int = 100,
        flt: Condition | None = None,
        with_payload: bool = True,
        with_vector: bool = False,
    ) -> tuple[list[Record], PointId | None]:
        """Paginate over all segments in ascending id order."""
        pages = []
        for seg in self._segments:
            page, _ = seg.scroll(
                offset_id=offset_id,
                limit=limit + 1,
                flt=flt,
                with_payload=with_payload,
                with_vector=with_vector,
            )
            pages.extend(page)
        pages.sort(key=lambda r: r.id)
        if len(pages) > limit:
            return pages[:limit], pages[limit].id
        return pages, None

    def search(self, request: SearchRequest) -> list[ScoredPoint]:
        """Top-k search merged across all segments."""
        query = request.as_array()
        params = request.params or SearchParams()
        tracer = get_tracer()
        per_segment: list[list[ScoredPoint]] = []
        for seg in self._segments:
            if len(seg) == 0:
                continue
            with tracer.span(
                "segment.search",
                {"segment": seg.segment_id, "points": len(seg)}
                if tracer.enabled else None,
            ):
                per_segment.append(
                    seg.search(
                        query,
                        request.limit,
                        flt=request.filter,
                        exact=params.exact,
                        ef=params.hnsw_ef,
                        nprobe=params.ivf_nprobe,
                        with_payload=request.with_payload,
                        with_vector=request.with_vector,
                        score_threshold=request.score_threshold,
                        quantization_rescore=params.quantization_rescore,
                    )
                )
        return merge_hits(per_segment, request.limit, self.config.vectors.distance)

    @property
    def distance(self):
        return self.config.vectors.distance

    def recommend(self, request) -> list[ScoredPoint]:
        """Positive/negative-example search (Qdrant's recommend API)."""
        from .recommend import recommend as _recommend

        return _recommend(self, request)

    def search_groups(
        self,
        request: SearchRequest,
        *,
        group_by: str,
        group_size: int = 1,
        limit: int | None = None,
    ) -> list[tuple[Any, list[ScoredPoint]]]:
        """Search, then collapse hits by a payload key (Qdrant's groups API).

        Returns up to ``limit`` (group key, top ``group_size`` hits) pairs,
        ordered by each group's best score.  The primary use here is
        chunked corpora: chunk-level hits grouped by ``paper_id`` yield
        paper-level results (§3.1's chunking future work).
        """
        return group_search(
            self.search, request, group_by=group_by, group_size=group_size, limit=limit
        )

    def count(self, flt: Condition | None = None) -> int:
        """Number of live points, optionally restricted by a filter."""
        if flt is None:
            return len(self)
        total = 0
        for seg in self._segments:
            for pid in seg.point_ids():
                if seg.payload_store.evaluate(flt, pid):
                    total += 1
        return total

    def delete_by_filter(self, flt: Condition) -> int:
        """Delete every point matching the filter; returns the count."""
        victims: list[PointId] = []
        for seg in self._segments:
            for pid in seg.point_ids():
                if seg.payload_store.evaluate(flt, pid):
                    victims.append(pid)
        if victims:
            self.delete(victims)
        return len(victims)

    def search_batch(self, requests: Sequence[SearchRequest]) -> list[list[ScoredPoint]]:
        """Batched search; element ``i`` matches ``search(requests[i])``.

        Any batch that is *homogeneous* — same limit, filter object and
        search parameters across requests — is pushed down to each segment's
        batch entry point (compiled HNSW traversal, flat GEMM) in one call
        per segment, with no per-query re-entry.  Heterogeneous batches fall
        back to a per-request loop; the limit participates in the
        homogeneity key because HNSW widens its beam with ``k``, so mixed
        limits are not equivalent to one shared batched call.
        """
        if not requests:
            return []
        r0 = requests[0]
        p0 = r0.params or SearchParams()

        def key(r: SearchRequest):
            p = r.params or SearchParams()
            return (
                r.limit,
                r.score_threshold,
                r.with_payload,
                r.with_vector,
                p.exact,
                p.hnsw_ef,
                p.ivf_nprobe,
                p.quantization_rescore,
            )

        homogeneous = all(r.filter is r0.filter and key(r) == key(r0) for r in requests)
        if not homogeneous:
            return [self.search(r) for r in requests]
        queries = np.stack([r.as_array() for r in requests])
        per_query: list[list[list[ScoredPoint]]] = [[] for _ in requests]
        for seg in self._segments:
            if len(seg) == 0:
                continue
            seg_hits = seg.search_batch(
                queries,
                r0.limit,
                flt=r0.filter,
                exact=p0.exact,
                ef=p0.hnsw_ef,
                nprobe=p0.ivf_nprobe,
                with_payload=r0.with_payload,
                with_vector=r0.with_vector,
                score_threshold=r0.score_threshold,
                quantization_rescore=p0.quantization_rescore,
            )
            for qi, hits in enumerate(seg_hits):
                per_query[qi].append(hits)
        distance = self.config.vectors.distance
        return [merge_hits(hits, r0.limit, distance) for hits in per_query]

    def close(self) -> None:
        driver = self._maintenance
        if driver is not None:
            driver.stop()
        if self._wal is not None:
            self._wal.close()
