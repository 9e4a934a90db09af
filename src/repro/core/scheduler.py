"""Dynamic micro-batching query scheduler.

The paper's §3.4 concurrency sweep shows query throughput is bounded by
per-query broadcast–reduce overhead: every independent caller pays one
full fan-out, so N concurrent clients issue N·W transport calls where a
single batched caller would issue W.  ``Cluster.search_batch`` already
amortizes that overhead — but only for a caller that *holds* a batch.
Serving systems close the gap with **server-side batching** (HARMONY's
request coalescing, HAKES' shared-scan/per-query-refine split): requests
from independent callers are held for a tiny window, merged into one
batch, executed through the shared fan-out, and demultiplexed.

:class:`QueryCoalescer` implements that pipeline, behind the result
cache — the order is cache → coalescer → fan-out:

* **cache stage** — :meth:`QueryCoalescer.submit` first runs
  :meth:`Cluster.cached` in the caller's thread.  A hit returns at once as
  an already-resolved future: coalescing amortizes a fan-out, and a hit
  has none, so it pays no collector or dispatch hop;
* **admission** — a miss is enqueued into a bounded queue and
  :meth:`QueryCoalescer.submit` returns its
  :class:`~concurrent.futures.Future`.  A full queue (or a closed
  coalescer) returns ``None`` — backpressure: the caller runs the direct
  :meth:`Cluster.search` path instead of blocking unboundedly;
* **collection** — a collector thread drains the queue under a tunable
  policy (:class:`CoalescePolicy`): at most ``max_batch`` queries per
  batch, waiting at most ``max_wait_us`` for stragglers.  The window is
  *adaptive*: consecutive solo dispatches shrink it toward
  ``min_wait_us`` so an idle system adds near-zero latency to lone
  queries, while saturated dispatches grow it back toward ``max_wait_us``;
* **compatibility** — only requests with the same coalescing key (same
  collection, same search params (ef / exact / nprobe / rescore), same
  filter-shard signature) are merged, so a batch's predicated fan-out is
  exactly the fan-out each member would have run alone;
* **execution / demux** — each batch runs through
  :meth:`Cluster.search_batch_demux` (whose own cache lookup catches a
  fill that landed while the miss was queued), which shares one
  predicated fan-out across the batch but applies **per-request**
  failover semantics: a shard with no live replica degrades only the
  callers that cover it
  (``allow_partial=True`` callers get a flagged degraded result,
  ``allow_partial=False`` callers get ``NoReplicaAvailableError`` on
  their own future) and never poisons the rest of the batch.

Results are bit-identical to the uncoalesced path: the batch fan-out
gathers in submission order and reduces with the same deterministic
tie-breaking ``Cluster.search`` uses, and the compatibility key prevents
any merge that could change a member's shard coverage.

Observability: dispatches run under ``cluster.coalesce`` spans, per-query
queue wait and batch width land in the ``coalesce.wait_s`` /
``coalesce.width`` histograms of the cluster's metrics registry, and
:class:`CoalesceStats` (batches, widths, bypasses, wait percentiles) is
carried by ``Cluster.telemetry()``.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.clock import monotonic
from ..obs.metrics import Counters, gauge
from ..obs.trace import get_tracer
from .types import SearchRequest, SearchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports types)
    from .cluster import Cluster

__all__ = ["CoalescePolicy", "CoalesceStats", "QueryCoalescer"]

#: Bucket bounds for the batch-width histogram (widths, not seconds).
WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class CoalescePolicy:
    """Tunable knobs of the collector.

    ``max_wait_us`` bounds how long the collector holds the *first* query
    of a batch waiting for companions; ``max_batch`` bounds the batch
    width.  With ``adaptive=True`` the effective window starts at
    ``min_wait_us`` and moves between the two bounds: solo dispatches
    halve it (idle traffic should not pay the window), full batches or a
    backlog double it (dense traffic should amortize wider).
    ``queue_capacity`` bounds the admission queue — beyond it ``submit``
    refuses and the caller falls back to the direct path.
    ``dispatch_threads`` sets how many batches may be in flight at once
    (the collector hands batches to a small pool so collection never
    stalls behind a slow fan-out).
    """

    max_batch: int = 32
    max_wait_us: float = 500.0
    min_wait_us: float = 0.0
    queue_capacity: int = 1024
    adaptive: bool = True
    dispatch_threads: int = 4

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0 or self.min_wait_us < 0:
            raise ValueError("wait bounds must be >= 0")
        if self.min_wait_us > self.max_wait_us:
            raise ValueError("min_wait_us must be <= max_wait_us")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.dispatch_threads < 1:
            raise ValueError("dispatch_threads must be >= 1")

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_us * 1e-6

    @property
    def min_wait_s(self) -> float:
        return self.min_wait_us * 1e-6


@dataclass
class CoalesceStats(Counters):
    """Counters describing the coalescer's behaviour.

    ``coalesced / batches`` is the mean batch width — the amortization
    factor achieved; ``solo_batches`` counts width-1 dispatches (idle
    traffic); ``bypasses`` counts queries refused at admission
    (queue full or closed) that ran the direct path instead.  A
    result-cache hit served before admission is neither a batch member
    nor a bypass: these counters see only misses.
    """

    batches: int = 0
    coalesced: int = 0
    total_width: int = 0
    max_width: int = gauge()
    solo_batches: int = 0
    bypasses: int = 0
    #: Queries answered by another in-flight identical query (same canonical
    #: fingerprint) without executing — the in-flight dedupe at dispatch.
    #: Repeats of a cached query are hits before admission, so this counts
    #: concurrent identical misses only.
    deduped: int = 0

    @property
    def mean_width(self) -> float:
        return 0.0 if self.batches == 0 else self.total_width / self.batches

    def record_batch(self, width: int) -> None:
        with self._lock:
            self.batches += 1
            self.coalesced += width
            self.total_width += width
            self.max_width = max(self.max_width, width)
            if width == 1:
                self.solo_batches += 1

    def record_bypass(self) -> None:
        with self._lock:
            self.bypasses += 1

    def record_deduped(self, n: int) -> None:
        with self._lock:
            self.deduped += n


class _Pending:
    """One admitted query waiting for its batch."""

    __slots__ = ("key", "collection", "request", "future", "enqueued_s")

    def __init__(self, key, collection: str, request: SearchRequest):
        self.key = key
        self.collection = collection
        self.request = request
        self.future: Future = Future()
        self.enqueued_s = monotonic()


#: Guards lazy creation of a cluster's shared coalescer.
_FOR_CLUSTER_LOCK = threading.Lock()


class QueryCoalescer:
    """Admission queue + collector + demux between clients and a cluster."""

    def __init__(self, cluster: "Cluster", *, policy: CoalescePolicy | None = None):
        self.cluster = cluster
        self.policy = policy or CoalescePolicy()
        self.stats = CoalesceStats()
        self._wait_hist = cluster.metrics.histogram("coalesce.wait_s")
        self._width_hist = cluster.metrics.histogram(
            "coalesce.width", bounds=WIDTH_BUCKETS
        )
        self._queue: deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        #: Batches currently executing in the dispatcher pool.  Nonzero at
        #: collect time means arrivals outpace fan-outs — the signal the
        #: adaptive window grows on (a backlog never forms otherwise: the
        #: collector always drains faster than the fan-outs it hands off).
        self._inflight = 0
        # Effective collect window; adapts between the policy bounds.
        self._window_s = (
            self.policy.min_wait_s if self.policy.adaptive else self.policy.max_wait_s
        )
        self._dispatcher = ThreadPoolExecutor(
            max_workers=self.policy.dispatch_threads,
            thread_name_prefix="coalesce-exec",
        )
        self._collector = threading.Thread(
            target=self._run, name="coalesce-collector", daemon=True
        )
        self._collector.start()
        cluster.coalescer = self

    @classmethod
    def for_cluster(cls, cluster: "Cluster",
                    *, policy: CoalescePolicy | None = None) -> "QueryCoalescer":
        """The cluster's shared coalescer, created on first use.

        All clients of one cluster should share one coalescer — coalescing
        only amortizes across callers that enter the *same* queue.
        """
        with _FOR_CLUSTER_LOCK:
            coalescer = getattr(cluster, "coalescer", None)
            if coalescer is None or coalescer.closed:
                coalescer = cls(cluster, policy=policy)
            return coalescer

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def window_s(self) -> float:
        """Current (adaptive) collect window in seconds."""
        with self._lock:
            return self._window_s

    # -- admission -----------------------------------------------------------

    def compat_key(self, collection: str, request: SearchRequest):
        """Coalescing key: only requests with equal keys may share a batch.

        The key pins everything that decides the *shape* of the fan-out or
        the index traversal: the (alias-resolved) collection, the search
        params (ef / exact / nprobe / rescore), and the filter-shard
        signature — the exact shard set a HasId-predicated request would
        fan out to alone (``None`` = broadcast).  Merging only inside a
        key means a coalesced request contacts exactly the shards its solo
        fan-out would have, so results and degraded-read semantics stay
        bit-identical.  ``limit`` / ``score_threshold`` / ``with_*`` /
        ``allow_partial`` are applied per request and need not match.
        """
        name, state = self.cluster._resolve(collection)  # noqa: SLF001 - same package
        shards = self.cluster._predicated_shards(state, request)  # noqa: SLF001
        signature = None if shards is None else tuple(sorted(shards))
        params = request.params
        return (
            name,
            params.hnsw_ef,
            params.exact,
            params.ivf_nprobe,
            params.quantization_rescore,
            signature,
        )

    def submit(self, collection: str, request: SearchRequest) -> Future | None:
        """Admit one query; returns its future, or ``None`` on backpressure.

        A result-cache hit (:meth:`Cluster.cached`, run here in the caller's
        thread) comes back as an already-resolved future and never queues:
        it has no fan-out to share.  ``None`` means the queue is full (or
        the coalescer closed): the caller must run the direct path —
        admission never blocks.
        """
        hit = self.cluster.cached(collection, request)
        if hit is not None:
            future = Future()
            future.set_result(hit)
            return future
        key = self.compat_key(collection, request)
        pending = _Pending(key, collection, request)
        with self._wakeup:
            if self._closed or len(self._queue) >= self.policy.queue_capacity:
                self.stats.record_bypass()
                return None
            self._queue.append(pending)
            self._wakeup.notify()
        return pending.future

    def search(self, collection: str, request: SearchRequest) -> SearchResult:
        """Blocking search through the coalescer (the ``SyncClient`` path).

        Falls back to ``Cluster.search`` on backpressure, so the call
        always completes with the same semantics as the direct path.
        """
        future = self.submit(collection, request)
        if future is None:
            return self.cluster.search(collection, request)
        return future.result()

    # -- collection ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and fully drained
                first = self._queue.popleft()
            batch = self._gather(first)
            with self._lock:
                backlog = len(self._queue)
                inflight = self._inflight
                self._inflight += 1
            self._adapt_window(len(batch), backlog, inflight)
            self._dispatcher.submit(self._dispatch, batch)

    def _gather(self, first: _Pending) -> list[_Pending]:
        """Collect companions for ``first`` until the window closes.

        The window is measured from ``first``'s *arrival*, so time already
        spent queued counts against it.  Incompatible queries are left at
        the head of the queue and end the batch early — they must not be
        held hostage behind another key's window.
        """
        policy = self.policy
        batch = [first]
        deadline = first.enqueued_s + self._window_s
        while len(batch) < policy.max_batch:
            with self._wakeup:
                while not self._queue:
                    remaining = deadline - monotonic()
                    if remaining <= 0 or self._closed:
                        return batch
                    self._wakeup.wait(remaining)
                skipped: list[_Pending] = []
                while self._queue and len(batch) < policy.max_batch:
                    item = self._queue.popleft()
                    if item.key == first.key:
                        batch.append(item)
                    else:
                        skipped.append(item)
                if skipped:
                    self._queue.extendleft(reversed(skipped))
                    return batch
            if monotonic() >= deadline or self._closed:
                return batch
        return batch

    def _adapt_window(self, width: int, backlog: int, inflight: int = 0) -> None:
        """Shrink the window on idle traffic, grow it under load.

        Load is any of: a full batch, queries still queued after collecting,
        a batch of ≥2 (arrivals are clustering), or fan-outs still in
        flight when the next batch forms (arrivals outpace dispatches — the
        common signature of many concurrent solo clients).  A width-1 batch
        with none of those means idle traffic: the window halves so lone
        queries stop paying it.
        """
        policy = self.policy
        if not policy.adaptive:
            return
        if width >= 2 or backlog > 0 or inflight > 0:
            grown = max(self._window_s * 2.0, policy.max_wait_s / 8.0)
            self._window_s = min(policy.max_wait_s, grown)
        else:
            shrunk = self._window_s * 0.5
            if shrunk < 1e-6:
                shrunk = policy.min_wait_s
            self._window_s = max(policy.min_wait_s, shrunk)

    # -- execution / demux ---------------------------------------------------

    @staticmethod
    def _resolve_future(future: Future, outcome) -> None:
        """Complete one caller's future (tolerating caller-side cancel)."""
        try:
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)
        except InvalidStateError:  # pragma: no cover - caller cancelled
            pass

    def _dispatch(self, batch: list[_Pending]) -> None:
        """Execute one batch through the shared fan-out and demux results."""
        now = monotonic()
        for pending in batch:
            self._wait_hist.observe(now - pending.enqueued_s)
        width = len(batch)
        self._width_hist.observe(float(width))
        self.stats.record_batch(width)
        tracer = get_tracer()
        collection = batch[0].collection
        try:
            with tracer.span(
                "cluster.coalesce",
                {"collection": collection, "width": width}
                if tracer.enabled else None,
            ):
                # In-flight dedupe: identical queries (same canonical
                # fingerprint — alias-resolved collection, exact vector
                # bytes, order-insensitive filter clauses) execute once and
                # fan the one result out to every waiting caller.  The
                # fingerprint, not object identity, decides equality, so
                # two callers whose filters list the same clauses in a
                # different order still share a single execution — and a
                # single cache fill.
                name = batch[0].key[0]  # alias-resolved by compat_key
                fingerprints = [p.request.fingerprint(name) for p in batch]
                slot: dict[str, int] = {}
                unique: list[_Pending] = []
                for pending, fp in zip(batch, fingerprints):
                    if fp not in slot:
                        slot[fp] = len(unique)
                        unique.append(pending)
                if len(unique) < width:
                    self.stats.record_deduped(width - len(unique))
                unique_out = self.cluster.search_batch_demux(
                    collection, [p.request for p in unique]
                )
                outcomes = [unique_out[slot[fp]] for fp in fingerprints]
        except BaseException as exc:  # noqa: BLE001 - fan one failure out to all
            outcomes = [exc] * len(batch)
        # Drop the in-flight count *before* waking callers: a solo caller
        # blocked on its future resubmits the instant it resolves, and must
        # see an idle scheduler, not its own just-finished dispatch.
        with self._lock:
            self._inflight -= 1
        for pending, outcome in zip(batch, outcomes):
            self._resolve_future(pending.future, outcome)

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop admitting, drain every queued query, and shut down.

        Queued futures are still dispatched (callers blocked on them wake
        with real results); new ``submit`` calls return ``None``.
        Idempotent.
        """
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        self._collector.join()
        self._dispatcher.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if not self._closed:
                self._closed = True
                self._dispatcher.shutdown(wait=False)
        except Exception:
            pass
