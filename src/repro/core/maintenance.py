"""Background copy-on-write segment maintenance.

The paper's insertion phase (§3.3) depends on maintenance being deferred
off the hot path: Qdrant runs its optimizer on background tasks so an HNSW
build or segment merge never blocks writers.  This module gives each
collection the same shape — a :class:`MaintenanceDriver` thread that runs
:meth:`Collection.run_maintenance_pass` whenever the write path kicks it:

* the pass snapshots and *pins* the current segment list under the write
  lock (microseconds);
* vacuum rewrites, merges, HNSW builds and quantizer training run with no
  lock held — concurrent upserts land in unpinned appendable segments,
  deletes/payload edits against pinned segments are tombstoned immediately
  and journaled;
* the finished replacements swap in under a short generation-fenced
  critical section, replaying the journal so nothing written mid-pass is
  lost.

Results are bit-identical to the synchronous ``Collection.optimize()``
path: both run the same :class:`~repro.core.optimizer.SegmentOptimizer`
plan, and reconciliation re-applies exactly the mutations a synchronous
pass would have observed.

Pacing: the driver wakes on :meth:`kick` (called by the collection after
every write batch) or every ``interval_s`` as a fallback, and coalesces
bursts of kicks into single passes.  ``stop(drain=True)`` runs one final
pass after the thread exits so shutdown/snapshot paths hand over a fully
maintained collection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.clock import monotonic
from ..obs.metrics import Counters
from .optimizer import OptimizerReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .collection import Collection

__all__ = ["MaintenanceDriver", "MaintenanceStats"]


@dataclass
class MaintenanceStats(Counters):
    """Counters for one driver's lifetime (guarded by an internal lock)."""

    passes: int = 0
    passes_with_work: int = 0
    segments_indexed: int = 0
    segments_merged: int = 0
    segments_vacuumed: int = 0
    vectors_indexed: int = 0
    errors: int = 0
    busy_seconds: float = 0.0

    def record(self, report: OptimizerReport, elapsed: float) -> None:
        with self._lock:
            self.passes += 1
            if report.did_work:
                self.passes_with_work += 1
            self.segments_indexed += report.segments_indexed
            self.segments_merged += report.segments_merged
            self.segments_vacuumed += report.segments_vacuumed
            self.vectors_indexed += report.vectors_indexed
            self.busy_seconds += elapsed

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1


class MaintenanceDriver:
    """Per-collection background thread running copy-on-write passes.

    While a driver is attached, the collection's write path stops running
    the optimizer inline — ``_maybe_optimize`` degenerates to
    :meth:`kick` — so maintenance cost leaves the write path entirely.
    """

    def __init__(self, collection: "Collection", *, interval_s: float = 0.05):
        self.collection = collection
        self.interval_s = interval_s
        self.stats = MaintenanceStats()
        self._wake = threading.Event()
        self._stop_flag = threading.Event()
        self._thread: threading.Thread | None = None
        #: Set while a live shard migration owns the collection: passes are
        #: skipped (pins freeze segment offsets) until :meth:`resume`.
        self._paused = threading.Event()
        self._pass_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MaintenanceDriver":
        """Attach to the collection and start the background thread."""
        if self._thread is not None:
            return self
        self.collection.attach_maintenance(self)
        self._thread = threading.Thread(
            target=self._loop,
            name=f"maint-{self.collection.config.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = False) -> None:
        """Stop the thread; with ``drain`` run one final pass after it exits.

        Idempotent, and safe to call on a never-started driver.
        """
        self._stop_flag.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join()
        self._thread = None
        if drain:
            self._run_once_guarded()
        self.collection.detach_maintenance(self)

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- migration handshake ---------------------------------------------------

    def pause(self) -> None:
        """Stop scheduling passes and wait out any pass already in flight.

        On return no optimizer pass is running and none will start until
        :meth:`resume` — the quiescence a live shard migration needs before
        pinning segment offsets.  Idempotent.
        """
        self._paused.set()
        # An in-flight pass holds _pass_lock for its whole duration; taking
        # and releasing it here is the barrier.
        with self._pass_lock:
            pass

    def resume(self) -> None:
        """Re-enable passes (and kick once to catch up on skipped work)."""
        if self._paused.is_set():
            self._paused.clear()
            self._wake.set()

    @property
    def is_paused(self) -> bool:
        return self._paused.is_set()

    # -- pacing --------------------------------------------------------------

    def kick(self) -> None:
        """Request a pass soon; bursts coalesce into one wake-up."""
        self._wake.set()

    def drain(self) -> OptimizerReport:
        """Synchronously run a pass now, consuming any pending kick.

        Callers that need a fully maintained collection (snapshots, shard
        transfers, shutdown) use this; the pass serializes with the
        background thread on the collection's maintenance mutex.
        """
        self._wake.clear()
        with self._pass_lock:
            if self._paused.is_set():
                return OptimizerReport()
            return self.collection.run_maintenance_pass()

    def run_once(self) -> OptimizerReport:
        """One synchronous pass, recorded in this driver's stats."""
        return self._run_once_guarded(reraise=True)

    # -- internals -----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop_flag.is_set():
            self._wake.wait(self.interval_s)
            if self._stop_flag.is_set():
                break
            self._wake.clear()
            self._run_once_guarded()

    def _run_once_guarded(self, *, reraise: bool = False) -> OptimizerReport:
        with self._pass_lock:
            if self._paused.is_set():
                return OptimizerReport()
            t0 = monotonic()
            try:
                report = self.collection.run_maintenance_pass()
            except Exception:
                self.stats.record_error()
                if reraise:
                    raise
                return OptimizerReport()
            self.stats.record(report, monotonic() - t0)
            return report
