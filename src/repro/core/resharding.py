"""Live resharding: elastic scale-out with online shard migration.

Qdrant's static sharding (the configuration the paper benchmarks, §2.2)
makes adding a node an offline affair — the shard-per-worker layout is
fixed at collection creation, so growing the cluster means rebuilding.
This module adds the missing elasticity: a :class:`ReshardCoordinator`
that relocates shard replicas between workers *while the collection keeps
serving reads and writes*, with a bounded-pause cutover instead of a
stop-the-world copy.

Each :class:`~.router.ShardMove` executes as a three-phase protocol:

1. **Bulk copy** — the source pins a row snapshot (per-segment live
   offsets, maintenance paused so the pins stay valid) and streams it in
   columnar chunks (``chunk_rows`` / ``max_chunk_bytes``, optionally
   throttled to ``throttle_bytes_per_s``).  Writers are untouched: new
   mutations land normally on the source and are appended to a per-shard
   journal opened before the first chunk is read.
2. **Catch-up** — the journal is drained and replayed on the target in
   rounds until the backlog settles below ``catchup_settle_entries``;
   replay cost is O(mutations since copy start), not O(shard size).
3. **Cutover** — two short fences on the shard's write gate: the first
   drains the residual journal and turns on double-writing (the shard's
   writes now go to source *and* target, and the target becomes readable
   for failover); the second replays the final journal slice and swaps the
   shard's holder set in the placement plan atomically (bumping its
   epoch).  The source is then retired and its maintenance resumed.

Convergence argument: the journal opens before the first chunk leaves the
source and stays active through cutover, replay on the target is tolerant
and idempotent (re-applied upserts overwrite; deletes/payload edits apply
only if the point exists), and the final replay happens under a fence with
no writer in flight — so every interleaving of copy chunks, double writes
and journal records re-converges to the source's mutation order.

A move whose source dies mid-protocol falls back to a bulk pull from any
surviving replica (or, with no survivors, a lossy empty target — counted
in :class:`ReshardStats`).  The coordinator also runs as a background
driver thread (mirroring :class:`~.maintenance.MaintenanceDriver`'s
lifecycle: ``start`` / ``submit`` / ``drain`` / ``stop``) so rebalances
can be queued without blocking the caller.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.clock import monotonic
from ..obs.metrics import Counters
from ..obs.trace import get_tracer
from .errors import TransportError
from .ops import point_count
from .router import PlacementPlan, ShardMove

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .cluster import Cluster, ClusterCollectionState

__all__ = [
    "ReshardConfig",
    "ReshardStats",
    "ShardWriteGate",
    "ShardMigration",
    "MoveResult",
    "ReshardCoordinator",
]


@dataclass(frozen=True)
class ReshardConfig:
    """Tuning knobs for online shard migration."""

    #: Rows per copy chunk (upper bound; ``max_chunk_bytes`` may shrink it).
    chunk_rows: int = 1024
    #: Byte budget per chunk — large vectors get proportionally fewer rows.
    max_chunk_bytes: int = 4 * 1024 * 1024
    #: Copy-bandwidth cap in bytes/s (``None`` = unthrottled).  The copy
    #: loop sleeps after each chunk so the measured rate converges on this.
    throttle_bytes_per_s: float | None = None
    #: Max catch-up rounds before forcing cutover regardless of backlog.
    catchup_rounds: int = 8
    #: Journal backlog (point mutations per drain) considered "settled" — small
    #: enough that the fenced final replay stays a bounded pause.
    catchup_settle_entries: int = 16
    #: Background driver poll interval.
    interval_s: float = 0.05


@dataclass
class ReshardStats(Counters):
    """Counters for one coordinator's lifetime (guarded by a lock)."""

    jobs: int = 0
    moves_started: int = 0
    moves_completed: int = 0
    moves_failed: int = 0
    #: Moves that fell back to a bulk replica pull (source died mid-copy).
    fallback_moves: int = 0
    #: Moves with no surviving replica at all: target starts empty.
    lossy_moves: int = 0
    rows_copied: int = 0
    bytes_copied: int = 0
    chunks_sent: int = 0
    journal_replayed: int = 0
    cutovers: int = 0
    copy_seconds: float = 0.0
    #: Wall time the copy loop slept honouring ``throttle_bytes_per_s``.
    throttle_sleep_seconds: float = 0.0

    @property
    def copy_bytes_per_second(self) -> float:
        return 0.0 if self.copy_seconds <= 0 else self.bytes_copied / self.copy_seconds

    def record_job(self) -> None:
        with self._lock:
            self.jobs += 1

    def record_move_start(self) -> None:
        with self._lock:
            self.moves_started += 1

    def record_move_done(self, result: "MoveResult") -> None:
        with self._lock:
            self.moves_completed += 1
            if result.fallback:
                self.fallback_moves += 1
            if result.lossy:
                self.lossy_moves += 1
            self.rows_copied += result.rows_copied
            self.bytes_copied += result.bytes_copied
            self.journal_replayed += result.journal_replayed
            self.copy_seconds += result.copy_seconds
            if not result.fallback:
                self.cutovers += 1

    def record_move_failed(self) -> None:
        with self._lock:
            self.moves_failed += 1

    def record_chunk(self, nbytes: int, slept: float) -> None:
        with self._lock:
            self.chunks_sent += 1
            self.throttle_sleep_seconds += slept


class ShardWriteGate:
    """Reader-writer style gate fencing one shard's write path.

    Writers hold the gate in shared mode for the duration of one fan-out
    (``writer_enter`` / ``writer_exit``); the migration's cutover takes the
    ``fence`` — it blocks new writers, waits out those in flight, runs the
    critical section, then releases.  Writers must enter the gate *before*
    reading the placement plan: that ordering is what makes the fenced
    plan swap atomic with respect to replica-chain construction.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._writers = 0
        self._fenced = False

    def writer_enter(self) -> None:
        with self._cond:
            while self._fenced:
                self._cond.wait()
            self._writers += 1

    def writer_exit(self) -> None:
        with self._cond:
            self._writers -= 1
            if self._writers == 0:
                self._cond.notify_all()

    @contextmanager
    def fence(self):
        """Exclusive critical section: no writer in flight, none admitted."""
        with self._cond:
            while self._fenced:
                self._cond.wait()
            self._fenced = True
            while self._writers > 0:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._fenced = False
                self._cond.notify_all()


@dataclass
class ShardMigration:
    """Registry entry for one in-flight move (looked up by the write path)."""

    collection: str
    shard_id: int
    source: str
    target: str
    gate: ShardWriteGate = field(default_factory=ShardWriteGate)
    #: Phase flags flipped under the gate's fence.  ``double_write``: the
    #: shard's writes also go to the target; ``readable``: reads may fail
    #: over to the target (it is caught up to within one journal drain).
    double_write: bool = False
    readable: bool = False


@dataclass(frozen=True)
class MoveResult:
    """Outcome of one executed shard move."""

    shard_id: int
    source: str | None
    target: str
    rows_copied: int
    bytes_copied: int
    journal_replayed: int
    epoch: int
    copy_seconds: float = 0.0
    cutover_seconds: float = 0.0
    #: True when the three-phase protocol was abandoned for a bulk pull.
    fallback: bool = False
    #: True when no replica survived to donate data (target starts empty).
    lossy: bool = False


class ReshardCoordinator:
    """Plans and executes live shard migrations for one cluster.

    ``reshard_collection`` is synchronous (used by ``add_worker`` /
    ``remove_worker`` and tests); the background driver thread drains a
    queue of collection names so elasticity events can be fire-and-forget.
    Whole-collection jobs serialize on an internal lock — per-shard moves
    within a job run one at a time, keeping at most one fence active.
    """

    def __init__(self, cluster: "Cluster", config: ReshardConfig | None = None):
        self.cluster = cluster
        self.config = config or ReshardConfig()
        self.stats = ReshardStats()
        self._job_lock = threading.Lock()
        self._queue: list[str] = []
        self._queue_lock = threading.Lock()
        self._wake = threading.Event()
        self._stop_flag = threading.Event()
        self._thread: threading.Thread | None = None
        self._hist_move = cluster.metrics.histogram("reshard.move_s")
        self._hist_cutover = cluster.metrics.histogram("reshard.cutover_s")
        self._hist_chunk = cluster.metrics.histogram("reshard.copy_chunk_s")
        self._hist_catchup = cluster.metrics.histogram("reshard.catchup_s")
        cluster._resharder = self  # noqa: SLF001 - cooperating class

    # -- driver lifecycle ----------------------------------------------------

    def start(self) -> "ReshardCoordinator":
        if self._thread is not None:
            return self
        self._stop_flag.clear()
        self._thread = threading.Thread(
            target=self._loop, name="reshard-coordinator", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = False) -> None:
        """Stop the driver thread; with ``drain`` finish queued jobs first."""
        if drain:
            self.drain()
        self._stop_flag.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join()
        self._thread = None

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def submit(self, name: str) -> None:
        """Queue a collection for rebalancing on the driver thread."""
        with self._queue_lock:
            if name not in self._queue:
                self._queue.append(name)
        self._wake.set()

    def drain(self) -> list[MoveResult]:
        """Synchronously execute every queued job; returns their moves."""
        results: list[MoveResult] = []
        while True:
            with self._queue_lock:
                if not self._queue:
                    return results
                name = self._queue.pop(0)
            results.extend(self.reshard_collection(name, balance=True))

    def _loop(self) -> None:
        while not self._stop_flag.is_set():
            self._wake.wait(self.config.interval_s)
            if self._stop_flag.is_set():
                break
            self._wake.clear()
            while True:
                with self._queue_lock:
                    if not self._queue:
                        break
                    name = self._queue.pop(0)
                try:
                    self.reshard_collection(name, balance=True)
                except Exception:
                    self.stats.record_move_failed()

    # -- planning ------------------------------------------------------------

    def reshard_collection(
        self,
        name: str,
        new_worker_ids: list[str] | None = None,
        *,
        balance: bool = False,
    ) -> list[MoveResult]:
        """Migrate one collection onto ``new_worker_ids`` (default: the
        cluster's current worker set), executing each planned move live.

        With ``balance=True`` the plan also spreads replicas onto
        under-loaded workers (the scale-out case).  Moves execute in the
        deterministic ``(shard_id, target)`` order the planner emits; a
        shard moved more than once cuts over to its final holder set on
        the last move.
        """
        with self._job_lock:
            cluster = self.cluster
            name, state = cluster._resolve(name)  # noqa: SLF001
            workers = (
                list(new_worker_ids)
                if new_worker_ids is not None
                else list(cluster._workers)  # noqa: SLF001
            )
            new_plan, moves = state.plan.rebalance(workers, balance=balance)
            self.stats.record_job()
            if not moves:
                state.plan.worker_ids[:] = workers
                return []
            remaining: dict[int, int] = {}
            for move in moves:
                remaining[move.shard_id] = remaining.get(move.shard_id, 0) + 1
            current: dict[int, list[str]] = {
                s: state.plan.workers_for(s) for s in remaining
            }
            results: list[MoveResult] = []
            for move in moves:
                shard = move.shard_id
                remaining[shard] -= 1
                desired = self._desired_holders(
                    move, current[shard], new_plan, last=remaining[shard] == 0
                )
                results.append(
                    self._execute_move(name, state, move, current[shard], desired)
                )
                current[shard] = desired
            state.plan.worker_ids[:] = workers
            return results

    @staticmethod
    def _desired_holders(
        move: ShardMove,
        holders: list[str],
        new_plan: PlacementPlan,
        *,
        last: bool,
    ) -> list[str]:
        """Holder set a move cuts over to.

        The last move of a shard lands on the planner's final assignment;
        an intermediate move (multi-replica repair) applies the single
        relocation it describes, preserving replica order.
        """
        if last:
            return new_plan.workers_for(move.shard_id)
        out = list(holders)
        if move.source is not None and move.source in out:
            out[out.index(move.source)] = move.target
        elif move.target not in out:
            out.append(move.target)
        return out

    # -- execution -----------------------------------------------------------

    def _execute_move(
        self,
        name: str,
        state: "ClusterCollectionState",
        move: ShardMove,
        holders: list[str],
        desired: list[str],
    ) -> MoveResult:
        """Run one move live; degrade to bulk pull / lossy empty on faults."""
        cluster = self.cluster
        self.stats.record_move_start()
        live = [
            w
            for w in holders
            if w in cluster._workers  # noqa: SLF001
            and cluster.transport.is_reachable(w)
        ]
        if move.source in live:
            source = move.source
        elif live:
            source = live[0]
        else:
            source = None
        t0 = monotonic()
        try:
            if source is not None and source != move.target:
                try:
                    return self._migrate(name, state, move, source, desired)
                except TransportError:
                    pass  # source faulted mid-protocol: bulk fallback below
            result = self._bulk_fallback(name, state, move, holders, desired)
            self.stats.record_move_done(result)
            return result
        except BaseException:
            self.stats.record_move_failed()
            raise
        finally:
            self._hist_move.observe(monotonic() - t0)

    def _migrate(
        self,
        name: str,
        state: "ClusterCollectionState",
        move: ShardMove,
        source: str,
        desired: list[str],
    ) -> MoveResult:
        """The three-phase protocol: bulk copy, catch-up, fenced cutover."""
        cluster = self.cluster
        cfg = self.config
        shard_id = move.shard_id
        target = move.target
        tracer = get_tracer()
        mig = ShardMigration(
            collection=name, shard_id=shard_id, source=source, target=target
        )
        registered = False
        began = False
        rows_copied = 0
        bytes_copied = 0
        replayed = 0
        t_move = monotonic()

        def catch_up(entries) -> int:
            """Replay one drained journal slice on the target; returns its
            point mutations."""
            nonlocal replayed
            if entries:
                replayed += cluster._call_with_retry(  # noqa: SLF001
                    target, "apply_shard_journal", name, shard_id, entries
                )
            return point_count(entries)

        def drain():
            return cluster._call_with_retry(  # noqa: SLF001
                source, "drain_shard_journal", name, shard_id
            )

        try:
            with tracer.span(
                "reshard.move",
                {"collection": name, "shard": shard_id,
                 "source": source, "target": target}
                if tracer.enabled else None,
            ):
                cluster._register_migration(mig)  # noqa: SLF001
                registered = True
                begun = cluster._call_with_retry(  # noqa: SLF001
                    source, "begin_shard_migration", name, shard_id
                )
                began = True
                if not cluster._call_with_retry(  # noqa: SLF001
                    target, "has_shard", name, shard_id
                ):
                    cluster._call_with_retry(  # noqa: SLF001
                        target, "create_shard", name, shard_id, state.config
                    )
                # Phase 1: throttled chunked bulk copy off the pinned snapshot.
                row_bytes = state.config.vectors.size * 4
                chunk_rows = max(
                    1, min(cfg.chunk_rows, cfg.max_chunk_bytes // max(row_bytes, 1))
                )
                t_copy = monotonic()
                with tracer.span(
                    "reshard.copy",
                    {"rows": begun["rows"], "chunk_rows": chunk_rows}
                    if tracer.enabled else None,
                ):
                    cursor: int | None = 0 if begun["rows"] else None
                    while cursor is not None:
                        t_chunk = monotonic()
                        chunk = cluster._call_with_retry(  # noqa: SLF001
                            source, "transfer_shard_out_columnar",
                            name, shard_id, cursor, chunk_rows,
                        )
                        n = len(chunk["ids"])
                        if n:
                            cluster._call_with_retry(  # noqa: SLF001
                                target, "transfer_shard_in_chunk", name, shard_id,
                                state.config, chunk["ids"], chunk["vectors"],
                                chunk["payloads"],
                            )
                        nbytes = int(chunk["vectors"].nbytes) + 8 * n
                        rows_copied += n
                        bytes_copied += nbytes
                        self._hist_chunk.observe(monotonic() - t_chunk)
                        slept = 0.0
                        if cfg.throttle_bytes_per_s:
                            budget = nbytes / cfg.throttle_bytes_per_s
                            wait = budget - (monotonic() - t_chunk)
                            if wait > 0:
                                time.sleep(wait)
                                slept = wait
                        self.stats.record_chunk(nbytes, slept)
                        cursor = chunk["next_cursor"]
                copy_seconds = monotonic() - t_copy
                # Phase 2: replay journal rounds until the backlog settles.
                t_catch = monotonic()
                for _ in range(max(1, cfg.catchup_rounds)):
                    if catch_up(drain()) <= cfg.catchup_settle_entries:
                        break
                self._hist_catchup.observe(monotonic() - t_catch)
                # Phase 3: fenced cutover.
                t_cut = monotonic()
                with tracer.span(
                    "reshard.cutover",
                    {"shard": shard_id, "target": target}
                    if tracer.enabled else None,
                ):
                    # Fence 1: sync the target and open double-writing; the
                    # target is now a readable failover replica.
                    with mig.gate.fence():
                        catch_up(drain())
                        mig.double_write = True
                        mig.readable = True
                    # Fence 2: final journal slice (double-write-phase
                    # interleavings re-imposed in source order), then the
                    # atomic per-shard plan swap.
                    with mig.gate.fence():
                        catch_up(drain())
                        epoch = state.plan.apply_move(shard_id, desired)
                        cluster._unregister_migration(mig)  # noqa: SLF001
                        registered = False
                cutover_seconds = monotonic() - t_cut
                self._hist_cutover.observe(cutover_seconds)
                # Straggler closure: a writer that resolved the shard before
                # the migration registered may still journal on the source
                # after fence 2.  First drain the in-flight write barrier —
                # any write whose replica chain was built from the pre-swap
                # plan lands on the source *now*, while its journal is still
                # open.  Then ``end_shard_migration`` hands back the
                # residual journal under the source's write lock and (when
                # the source leaves the replica set) retires the shard in
                # the same critical section, so a stale-plan writer landing
                # later gets CollectionNotFoundError — which the cluster
                # write path treats as "re-resolve and retry" — instead of
                # an acknowledged-but-lost row.  The barrier closes the
                # non-retiring case (source stays a holder): there the
                # retire fence never fires, so a post-drain straggler on the
                # source would otherwise be acknowledged but never replayed
                # onto the new replica.
                cluster.await_inflight_writes()
                out = cluster._call_with_retry(  # noqa: SLF001
                    source, "end_shard_migration", name, shard_id,
                    retire=source not in desired,
                )
                began = False
                catch_up(out.get("journal") or [])
                if source not in desired:
                    try:
                        cluster._call_with_retry(  # noqa: SLF001
                            source, "drop_shard", name, shard_id
                        )
                    except TransportError:  # pragma: no cover - best effort
                        pass
            result = MoveResult(
                shard_id=shard_id,
                source=source,
                target=target,
                rows_copied=rows_copied,
                bytes_copied=bytes_copied,
                journal_replayed=replayed,
                epoch=epoch,
                copy_seconds=copy_seconds,
                cutover_seconds=cutover_seconds,
            )
            self.stats.record_move_done(result)
            return result
        except BaseException:
            if registered:
                cluster._unregister_migration(mig)  # noqa: SLF001
            if began:
                try:
                    cluster._call_with_retry(  # noqa: SLF001
                        source, "end_shard_migration", name, shard_id
                    )
                except TransportError:
                    pass
            raise

    def _bulk_fallback(
        self,
        name: str,
        state: "ClusterCollectionState",
        move: ShardMove,
        holders: list[str],
        desired: list[str],
    ) -> MoveResult:
        """Offline-style move: pull everything from a surviving replica.

        Used when the live protocol cannot run (source dead or faulting).
        With no reachable donor at all the target starts empty — a *lossy*
        move, counted so operators can see data loss rather than silence.
        """
        cluster = self.cluster
        target = move.target
        points: list = []
        pulled = False
        donors = [w for w in holders if w != target]
        if move.source in donors:  # prefer the planner's donor
            donors.remove(move.source)
            donors.insert(0, move.source)
        for donor in donors:
            if donor not in cluster._workers:  # noqa: SLF001
                continue
            try:
                points = cluster._call_with_retry(  # noqa: SLF001
                    donor, "transfer_shard_out", name, move.shard_id
                )
                pulled = True
                break
            except TransportError:
                continue
        cluster._call_with_retry(  # noqa: SLF001
            target, "transfer_shard_in", name, move.shard_id, state.config, points
        )
        epoch = state.plan.apply_move(move.shard_id, desired)
        return MoveResult(
            shard_id=move.shard_id,
            source=move.source if pulled else None,
            target=target,
            rows_copied=len(points),
            bytes_copied=0,
            journal_replayed=0,
            epoch=epoch,
            fallback=True,
            lossy=not pulled,
        )
