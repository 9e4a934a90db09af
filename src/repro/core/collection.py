"""Collection: the user-facing container of points.

A collection is a list of :class:`~repro.core.segment.Segment` objects plus
a :class:`~repro.core.optimizer.SegmentOptimizer` and an optional WAL.  A
standalone collection is what a single Qdrant worker serves for one shard;
the cluster layer (:mod:`repro.core.cluster`) composes many of them.

Write path: an operation is validated whole, logged once — the WAL appends
its :mod:`~repro.core.ops` record and every open journal keeps the same
record — applied to the current appendable segment, and the optimizer runs
opportunistically.  With
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
from .ops import (
    Delete,
    Op,
    PayloadIndex,
    SetPayload,
    Upsert,
    from_wal,
    own_payload,
    point_count,
    replay,
)
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
    keeps the record of every op that lands after the pin; the coordinator
    drains and replays it on the target in O(mutations).
    """

    pins: list[tuple]          # [(segment, live_offsets ndarray), ...]
    starts: list[int]          # flattened start row of each pinned segment
    rows_total: int
    journal: list[Op]
    rows_exported: int = 0


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
    mid-pass point mutations re-imposed on replacement segments at swap
    time."""

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
        #: Ordered records of the ops written mid-pass, replayed onto the
        #: replacement segments at swap time; None outside a pass.
        self._maint_journal: list[Op] | None = None
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
            replay(from_wal(self._wal.replay()), _Apply(self))

    # -- WAL -------------------------------------------------------------------

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
        mutating operation (before and after its body), every maintenance
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

    def _apply_upsert(self, op: Upsert) -> None:
        """Apply an upsert block.  An id already in the appendable segment is
        overwritten in place; one in an older (sealed or pinned) segment is
        tombstoned there — the id map finds the owner, no scan — and appended
        afresh.  Appends are columnar, split at ``max_segment_size``."""
        ids, vectors, payloads = op.ids, op.vectors, op.payloads
        id_list = ids.tolist()
        id_map = self._id_to_segment
        target = self._appendable_segment()
        fresh: list[int] = []
        for row, pid in enumerate(id_list):
            owner = id_map.get(pid)
            if owner is target and not owner.is_sealed:
                owner.upsert(PointStruct(id=pid, vector=vectors[row], payload=payloads[row]))
                continue
            if owner is not None:
                owner.delete(pid)
                del id_map[pid]
            fresh.append(row)
        if len(fresh) < len(id_list):
            ids, vectors = ids[fresh], vectors[fresh]
            payloads = [payloads[r] for r in fresh]
            id_list = [id_list[r] for r in fresh]
        max_size = self.config.optimizer.max_segment_size
        start = 0
        while start < len(id_list):
            room = len(id_list) if max_size is None else max_size - len(target)
            if room <= 0:
                target.seal()
                target = self._appendable_segment()
                continue
            end = start + room
            target.upsert_columnar(ids[start:end], vectors[start:end], payloads[start:end])
            self._register_fresh(id_list[start:end], target)
            start = end
            if max_size is not None and len(target) >= max_size:
                target.seal()

    def _apply_delete(self, point_id: PointId) -> bool:
        seg = self._id_to_segment.pop(point_id, None)
        if seg is None:
            return False
        seg.delete(point_id)
        return True

    # An op is validated whole before any of it is logged or applied, so a
    # rejected op writes no record and changes nothing.

    def _check_retired(self) -> None:
        """Refuse mutations on a handed-off shard (caller holds _write_lock)."""
        if self._retired:
            raise CollectionNotFoundError(self.config.name)

    def _check_present(self, point_ids: Sequence[PointId]) -> None:
        id_map = self._id_to_segment
        for pid in point_ids:
            if pid not in id_map:
                raise PointNotFoundError(pid)

    def _log_op(self, op: Op) -> None:
        """Append ``op`` to the WAL and keep it in every open journal; while
        a journal is open, ``op`` must share no array with the caller."""
        if self._wal is not None:
            op.log(self._wal)
        if self._maint_journal is not None:
            self._maint_journal.append(op)
        if self._migration is not None:
            self._migration.journal.append(op)

    def _write(self, op: Op) -> int:
        """The write entry of one validated op (caller holds _write_lock):
        log it, apply it, kick maintenance and fence cached results.
        Returns the point mutations applied."""
        self._log_op(op)
        # Bumped before the body as well as after it: a lock-free search
        # that overlaps the body never reads one generation on both sides.
        self._generation += 1
        applied = replay((op,), _Apply(self))
        self._maybe_optimize()
        self._generation += 1
        self._operation_counter += 1
        return applied

    def upsert(self, points: Sequence[PointStruct] | PointStruct) -> UpdateResult:
        """Insert or overwrite points; runs the optimizer afterwards."""
        if isinstance(points, PointStruct):
            points = [points]
        return self._upsert(Upsert.of_points(points, self.config.vectors.size))

    def upsert_columnar(self, batch) -> UpdateResult:
        """Columnar fast-path upsert (Qdrant ``Batch`` semantics).

        Same write as :meth:`upsert`, minus the row-to-column conversion:
        the batch's arrays are the record, and the WAL logs the vector block
        as raw ndarray bytes, never materialized as Python lists.
        """
        from .batch import Batch

        if not isinstance(batch, Batch):
            raise TypeError("upsert_columnar expects a core.batch.Batch")
        batch.validate(expected_dim=self.config.vectors.size)
        return self._upsert(Upsert(batch.ids, batch.vectors, batch.payloads))

    def _upsert(self, op: Upsert) -> UpdateResult:
        with self._write_lock:
            self._check_retired()
            if self._maint_journal is not None or self._migration is not None:
                op = op.owned()  # a journal keeps it past this call
            self._write(op)
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def delete(self, point_ids: Sequence[PointId] | PointId) -> UpdateResult:
        if isinstance(point_ids, int):
            point_ids = [point_ids]
        point_ids = list(point_ids)
        with self._write_lock:
            self._check_retired()
            self._check_present(point_ids)
            self._write(Delete(point_ids))
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def set_payload(self, point_id: PointId, payload: Mapping[str, Any] | None) -> UpdateResult:
        with self._write_lock:
            self._check_retired()
            self._check_present((point_id,))
            self._write(SetPayload(point_id, own_payload(payload)))
            return UpdateResult(self._operation_counter, UpdateStatus.COMPLETED)

    def create_payload_index(self, key: str, *, kind: str = "keyword") -> None:
        """Create a secondary payload index on every segment."""
        if kind not in ("keyword", "numeric"):
            raise ValueError(f"unknown payload index kind {kind!r}")
        with self._write_lock:
            self._check_retired()
            self._write(PayloadIndex(key, kind))

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
        reconciled = self._apply_plan_locked(plan, self._maint_journal or ())
        self._maint_pinned = set()
        self._maint_journal = None
        self._maint_active = None
        self._generation += 1
        self._last_report = plan.report
        self.maint_stats.record(plan.did_work, reconciled)
        return plan.report

    def _apply_plan_locked(self, plan: MaintenancePlan, journal: Sequence[Op] = ()) -> int:
        """Swap a plan in: install indexes, reconcile the journal, splice.

        Runs under ``_write_lock`` and is O(installs + journal + moved
        points) — never O(collection): the id map is repointed only for
        points that changed segments, not rebuilt from scratch.  Returns
        the point mutations the journal re-imposed on the replacements.
        """
        for ins in plan.installs:
            ins.segment.install_index(ins.index, ins.index_kind)
            if ins.quantizer is not None:
                ins.segment.adopt_quantization(ins.quantizer, ins.codes)
        if not plan.replacements:
            return 0
        fresh = [rep.segment for rep in plan.replacements if rep.segment is not None]
        # Replay the ops written mid-pass, in arrival order, onto the
        # replacements built from the pinned snapshot.
        reconciled = replay(journal, _Replacements(fresh))
        self._segments = splice_segments(self._segments, plan.replacements)
        id_map = self._id_to_segment
        for seg in fresh:
            for pid in seg.point_ids():
                id_map[pid] = seg
        return reconciled

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
    # double-applied journal record cannot diverge the copy.

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

    def drain_migration_journal(self) -> list[Op]:
        """Hand over (and clear) the op records kept since the last drain."""
        with self._write_lock:
            mig = self._migration
            if mig is None:
                return []
            entries = mig.journal
            mig.journal = []
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
                return {"rows_total": 0, "rows_exported": 0, "journal": []}
            return {
                "rows_total": mig.rows_total,
                "rows_exported": mig.rows_exported,
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
                "journal_pending": point_count(mig.journal),
            }

    def apply_migration_entries(self, entries: Sequence[Op]) -> int:
        """Replay drained journal records in order (target side): each is one
        tolerant write through :meth:`_write`.  Returns the point mutations
        applied."""
        with self._write_lock:
            self._check_retired()
            return sum(self._write(op) for op in entries)

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


def _index_payload(segments: Sequence[Segment], op: PayloadIndex) -> None:
    for seg in segments:
        store = seg.payload_store
        (store.create_keyword_index if op.kind == "keyword" else store.create_numeric_index)(op.key)


class _Apply:
    """Replay target applying ops to a collection as they are: no log, no
    generation bump.  Deletes and payload edits skip absent ids, so a record
    applied twice, or a log written before ops were validated whole, cannot
    fail."""

    def __init__(self, collection: Collection):
        self._col = collection

    def upsert(self, op: Upsert) -> int:
        self._col._apply_upsert(op)
        return op.points

    def delete(self, op: Delete) -> int:
        return sum(self._col._apply_delete(pid) for pid in op.ids)

    def set_payload(self, op: SetPayload) -> int:
        seg = self._col._id_to_segment.get(op.id)
        if seg is not None:
            seg.set_payload(op.id, op.payload)
        return int(seg is not None)

    def payload_index(self, op: PayloadIndex) -> int:
        _index_payload(self._col._segments, op)
        return 0


class _Replacements:
    """Replay target at a maintenance swap: the replacement segments built
    from the pinned snapshot.  An upsert lands outside the pinned segments,
    so a snapshot copy of its ids is stale and goes, as for a delete."""

    def __init__(self, fresh: list[Segment]):
        self._fresh = fresh

    def _owner(self, point_id: PointId) -> Segment | None:
        return next((seg for seg in self._fresh if seg.contains(point_id)), None)

    def upsert(self, op: Upsert) -> int:
        return self.delete(Delete(op.ids.tolist()))

    def delete(self, op: Delete) -> int:
        removed = 0
        for pid in op.ids:
            seg = self._owner(pid)
            if seg is not None:
                seg.delete(pid)
                removed += 1
        return removed

    def set_payload(self, op: SetPayload) -> int:
        seg = self._owner(op.id)
        if seg is not None:
            seg.set_payload(op.id, op.payload)
        return int(seg is not None)

    def payload_index(self, op: PayloadIndex) -> int:
        _index_payload(self._fresh, op)
        return 0
