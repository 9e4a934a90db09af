"""Cluster coordinator: sharded, replicated, stateful distributed search.

Implements the distributed architecture the paper evaluates (§2.1, Figure 1
approach 1):

* data is **sharded** by point-id hash (:class:`~repro.core.router.ShardRouter`)
  and each shard lives on the **stateful workers** assigned by a
  :class:`~repro.core.router.PlacementPlan` (with optional replication);
* a non-predicated search is **broadcast** to all workers holding shards.
  As in Qdrant, the client contacts one *entry worker*, which fans the
  query out, gathers per-shard partial results, and **reduces** them into
  the global top-k (footnote 4 of the paper).  Over a transport whose
  calls wait (a network, injected latency) the fan-out runs on a thread
  pool (one transport call per worker, issued concurrently) so per-worker
  latency overlaps instead of adding up — the behaviour the paper's
  broadcast–reduce model assumes.  Over an in-process transport a call
  never waits, so the lanes run inline on the calling thread, where a
  pool would add only thread handoffs.  Results are gathered in
  submission order, so the reduce sees exactly what a serial loop would;
* adding/removing workers triggers shard **rebalancing** — the expensive
  data movement §2.2 attributes to stateful designs;
* every transport call is wrapped in a :class:`~repro.core.failover.RetryPolicy`
  (bounded retries, exponential backoff with deterministic jitter, optional
  per-call timeout), per-worker health feeds a **circuit breaker** consulted
  during replica resolution, reads **fail over** to the next live replica of
  only the failed shards, and ``SearchRequest.allow_partial`` turns total
  replica loss into a flagged **degraded read** instead of an error — the
  availability behaviour the paper leans on Qdrant's replication for when
  workers live on preemptible HPC nodes (§2.1).

The coordinator here plays the role of Qdrant's internal cluster state
machine (driven by Raft in the real system); consensus is out of scope for
the paper's runtime study, so membership changes are applied synchronously.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping, Sequence

from ..obs.clock import monotonic
from ..obs.metrics import Counters, MetricsRegistry, gauge, get_registry
from ..obs.trace import TraceContext, get_tracer
from .errors import (
    ClusterConfigError,
    CollectionExistsError,
    CollectionNotFoundError,
    NoReplicaAvailableError,
    PointNotFoundError,
    RequestTimeoutError,
    ShardRetiredError,
    TransportError,
    WorkerUnavailableError,
)
from .cache import CachePolicy, ResultCache
from .collection import group_search
from .distances import merge_hits
from .failover import BreakerState, FailoverStats, HealthTracker, RetryPolicy
from .router import PlacementPlan, ShardMove, ShardRouter
from .transport import LocalTransport, Transport
from .types import (
    CollectionConfig,
    CollectionInfo,
    PointId,
    PointStruct,
    Record,
    ScoredPoint,
    SearchRequest,
    SearchResult,
    UpdateResult,
    UpdateStatus,
)
from .worker import Worker

__all__ = ["Cluster", "ClusterCollectionState", "FanoutStats", "IngestStats"]

#: Histograms the cluster's telemetry reads from the *global* registry: the
#: segment, collection and resharding code that records them cannot know
#: which cluster owns it.
GLOBAL_HISTOGRAM_PREFIXES = ("quant.", "maint.", "reshard.")

#: Size of the fan-out pool when ``max_fanout_threads`` is None/0: one
#: thread per contacted worker up to this many (threads start on demand).
FANOUT_POOL_CAP = 32


@dataclass
class FanoutStats(Counters):
    """Counters describing the cluster's broadcast fan-outs.

    ``total_width / fanouts`` is the mean number of workers contacted per
    broadcast — predicated routing shows up here as a width below the
    worker count.  ``worker_seconds`` holds per-worker wall time spent
    inside transport calls, which exposes stragglers in a reduce.
    """

    fanouts: int = 0
    total_calls: int = 0
    max_width: int = gauge()
    total_width: int = 0
    wall_seconds: float = 0.0
    worker_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def mean_width(self) -> float:
        return 0.0 if self.fanouts == 0 else self.total_width / self.fanouts

    def record_fanout(self, width: int, wall: float, *, calls: int | None = None) -> None:
        """Record one broadcast: ``width`` parallel lanes, ``calls`` transport
        calls (defaults to ``width``; write fan-outs chain replicas, so one
        shard lane may issue several calls)."""
        with self._lock:
            self.fanouts += 1
            self.total_calls += width if calls is None else calls
            self.total_width += width
            self.max_width = max(self.max_width, width)
            self.wall_seconds += wall

    def record_worker(self, worker_id: str, seconds: float) -> None:
        with self._lock:
            self.worker_seconds[worker_id] = (
                self.worker_seconds.get(worker_id, 0.0) + seconds
            )


@dataclass
class IngestStats(Counters):
    """Counters describing the cluster's write path (Figure 2's subject).

    ``points / wall_seconds`` is ingest throughput;
    ``shard_seconds`` holds per-shard wall time spent inside the write
    fan-out (replica chain included), exposing write stragglers the same
    way ``FanoutStats.worker_seconds`` does for queries.
    """

    upserts: int = 0
    deletes: int = 0
    points: int = 0
    bytes: int = 0
    wall_seconds: float = 0.0
    fanouts: int = 0
    total_width: int = 0
    max_width: int = gauge()
    shard_seconds: dict[int, float] = field(default_factory=dict)

    @property
    def mean_width(self) -> float:
        return 0.0 if self.fanouts == 0 else self.total_width / self.fanouts

    @property
    def points_per_second(self) -> float:
        return 0.0 if self.wall_seconds <= 0 else self.points / self.wall_seconds

    @property
    def bytes_per_second(self) -> float:
        return 0.0 if self.wall_seconds <= 0 else self.bytes / self.wall_seconds

    def record_write(
        self, *, points: int, nbytes: int, width: int, wall: float, delete: bool = False
    ) -> None:
        with self._lock:
            if delete:
                self.deletes += 1
            else:
                self.upserts += 1
            self.points += points
            self.bytes += nbytes
            self.wall_seconds += wall
            self.fanouts += 1
            self.total_width += width
            self.max_width = max(self.max_width, width)

    def record_shard(self, shard_id: int, seconds: float) -> None:
        with self._lock:
            self.shard_seconds[shard_id] = (
                self.shard_seconds.get(shard_id, 0.0) + seconds
            )


class ClusterCollectionState:
    """Routing + placement state for one distributed collection."""

    def __init__(self, config: CollectionConfig, plan: PlacementPlan):
        self.config = config
        self.plan = plan
        self.router = ShardRouter(plan.shard_number)


class Cluster:
    """Coordinates workers and distributed collections."""

    def __init__(
        self,
        transport: Transport | None = None,
        *,
        max_fanout_threads: int | None = None,
        retry_policy: RetryPolicy | None = None,
        health: HealthTracker | None = None,
        metrics: MetricsRegistry | None = None,
        cache: "ResultCache | CachePolicy | bool | None" = None,
    ):
        self.transport = transport or LocalTransport()
        self._workers: dict[str, Worker] = {}
        self._collections: dict[str, ClusterCollectionState] = {}
        self._aliases: dict[str, str] = {}
        # Round-robin entry-worker selection.  ``itertools.count`` hands out
        # unique ticks without a lock — the bare ``+= 1`` it replaces was
        # racy under concurrent clients.
        self._rr_counter = itertools.count()
        #: Fan-out lanes run inline on the calling thread when the transport
        #: does not wait (``Transport.waits``, false for ``LocalTransport``).
        #: Over a waiting transport they run on one shared pool of
        #: ``max_fanout_threads`` threads: 1 = serial, ``None``/0 = up to
        #: ``FANOUT_POOL_CAP``.  Threads start on demand, on first use.
        self.max_fanout_threads = max_fanout_threads
        self.fanout_stats = FanoutStats()
        self.ingest_stats = IngestStats()
        self.failover_stats = FailoverStats()
        self.metrics = metrics or MetricsRegistry()
        # Hot-path histogram handles, resolved once (registry lookups lock).
        self._hist_query = self.metrics.histogram("cluster.query_s")
        self._hist_query_batch = self.metrics.histogram("cluster.query_batch_s")
        self._hist_upsert = self.metrics.histogram("cluster.upsert_s")
        self._hist_rpc = self.metrics.histogram("cluster.rpc_s")
        self._hist_cache_lookup = self.metrics.histogram("cache.lookup_s")
        #: Generation-fenced result cache (:mod:`repro.core.cache`), or None.
        self.result_cache: ResultCache | None = None
        if cache is not None and cache is not False:
            self.enable_cache(None if cache is True else cache)
        self.retry_policy = retry_policy or RetryPolicy()
        self.health = health or HealthTracker(stats=self.failover_stats)
        if self.health.stats is None:
            self.health.stats = self.failover_stats
        self._executor: ThreadPoolExecutor | None = None
        self._pools_lock = threading.Lock()
        # Separate pool used only to bound call wall time when the retry
        # policy sets ``timeout_s`` (an abandoned call keeps its thread
        # until the transport returns, as with a real socket timeout).
        self._timeout_pool: ThreadPoolExecutor | None = None
        #: Shared micro-batching scheduler, attached lazily by
        #: :meth:`repro.core.scheduler.QueryCoalescer.for_cluster`.
        self.coalescer = None
        #: In-flight live shard migrations, ``(collection, shard_id)`` ->
        #: :class:`~repro.core.resharding.ShardMigration`.  The write path
        #: consults this to enter migration gates / double-write; reads use
        #: it to fail over onto a caught-up migration target.
        self._migrations: dict[tuple[str, int], Any] = {}
        self._migrations_lock = threading.Lock()
        #: Tickets for gated writes currently in flight.  A migration's
        #: cutover snapshots this set after the plan swap and waits for it
        #: to drain before the final journal hand-off, so a write whose
        #: replica chain was built against the pre-swap plan lands on the
        #: source while its journal is still open (see
        #: :meth:`await_inflight_writes`).
        self._inflight_writes: set[int] = set()
        self._inflight_cv = threading.Condition(threading.Lock())
        self._write_ticket_seq = 0
        #: Lazily constructed :class:`~repro.core.resharding.ReshardCoordinator`.
        self._resharder = None

    # -- fan-out --------------------------------------------------------------

    def _fanout_pool(self) -> ThreadPoolExecutor:
        """The one broadcast pool: created on first use, sized once, and
        shut down only by :meth:`close`, so a thread that fetched it can
        always submit."""
        with self._pools_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_fanout_threads or FANOUT_POOL_CAP,
                    thread_name_prefix="fanout",
                )
            return self._executor

    # -- failure-aware transport calls ---------------------------------------

    def _bounded_call(self, worker_id: str, method: str, *args, **kwargs):
        """One transport call, bounded by the policy's per-call timeout."""
        timeout = self.retry_policy.timeout_s
        if timeout is None:
            return self.transport.call(worker_id, method, *args, **kwargs)
        with self._pools_lock:
            if self._timeout_pool is None:
                self._timeout_pool = ThreadPoolExecutor(
                    max_workers=32, thread_name_prefix="call-timeout"
                )
        future = self._timeout_pool.submit(
            self.transport.call, worker_id, method, *args, **kwargs
        )
        try:
            return future.result(timeout)
        except FuturesTimeoutError:
            self.failover_stats.record_timeout()
            raise RequestTimeoutError(worker_id, method, timeout) from None

    def _call_with_retry(self, worker_id: str, method: str, *args, **kwargs):
        """Run one call under the retry policy, feeding the health tracker.

        Transient :class:`TransportError`\\ s (injected faults, timeouts) are
        retried with deterministic backoff; :class:`WorkerUnavailableError`
        is *not* retried on the same worker — a dead worker will not revive
        within a backoff window, so the caller should fail over instead.
        Every failed attempt counts toward the worker's breaker; a success
        resets it (and closes a half-open breaker).
        """
        policy = self.retry_policy
        last: TransportError | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.failover_stats.record_retry()
                delay = policy.backoff_s(attempt - 1, key=f"{worker_id}:{method}")
                if delay > 0:
                    time.sleep(delay)
            try:
                result = self._bounded_call(worker_id, method, *args, **kwargs)
            except WorkerUnavailableError:
                self.health.record_failure(worker_id)
                raise
            except TransportError as exc:
                self.health.record_failure(worker_id)
                last = exc
                continue
            self.health.record_success(worker_id)
            return result
        assert last is not None
        raise last

    def _timed_call(self, call: tuple, ctx: TraceContext | None = None):
        """One retried transport call, timed and traced.

        ``ctx`` is the submitting thread's trace context: fan-out pool
        threads have an empty span stack, so the rpc span re-parents under
        it explicitly.  An inline lane re-activates the context it already
        runs under, which changes nothing (``activate(None)`` is a no-op).
        """
        tracer = get_tracer()
        t0 = monotonic()
        try:
            if tracer.enabled:
                with tracer.activate(ctx):
                    with tracer.span("rpc." + call[1], {"worker": call[0]}):
                        return self._call_with_retry(*call)
            else:
                return self._call_with_retry(*call)
        finally:
            elapsed = monotonic() - t0
            self.fanout_stats.record_worker(call[0], elapsed)
            self._hist_rpc.observe(elapsed)

    def _fan_out(self, tasks: Sequence, run, *, calls: int | None = None) -> list:
        """Run ``run(task, ctx)`` for every task, concurrently when it pays.

        Lanes run on the fan-out pool only when the transport waits and
        ``max_fanout_threads`` allows more than one; otherwise they run
        inline, in order, on the calling thread.  ``ctx`` is the submitting
        thread's trace context, so work on pool threads re-parents under
        the one ``cluster.fanout`` span.  Results come back in submission
        order regardless of completion order, so every reducer sees exactly
        what a serial loop would produce.  ``calls`` is the number of
        transport calls the tasks issue when it is not one per task (a
        write's replica chain issues several).
        """
        if not tasks:
            return []
        tracer = get_tracer()
        limit = self.max_fanout_threads or FANOUT_POOL_CAP
        width = min(limit, len(tasks)) if self.transport.waits else 1
        calls = len(tasks) if calls is None else calls
        t0 = monotonic()
        with tracer.span(
            "cluster.fanout",
            {"tasks": len(tasks), "calls": calls, "width": width}
            if tracer.enabled else None,
        ):
            ctx = tracer.current_context()
            if width <= 1:
                results = [run(task, ctx) for task in tasks]
            else:
                pool = self._fanout_pool()
                futures = [pool.submit(run, task, ctx) for task in tasks]
                results = [f.result() for f in futures]
        self.fanout_stats.record_fanout(len(tasks), monotonic() - t0, calls=calls)
        return results

    def _fan_out_collect(self, calls: list[tuple]) -> list:
        """One transport call per ``(worker_id, method, *args)`` tuple, where
        a failed call yields its error in the result list instead of
        raising — the failover read path re-issues only the failed lanes."""

        def guarded(call: tuple, ctx):
            try:
                return self._timed_call(call, ctx)
            except (TransportError, CollectionNotFoundError) as exc:
                # CollectionNotFoundError: stale routing against a shard
                # retired by a live migration (the worker dropped it
                # post-cutover); the shard re-resolves against the fresh plan.
                return exc

        return self._fan_out(calls, guarded)

    def _run_shard_chain(self, task: tuple[int, list[tuple]],
                         ctx: TraceContext | None = None):
        """Write one shard: ``task`` is ``(shard_id, per-replica calls)``, and
        replicas are called in plan order (primary first) so replica logs
        stay identically ordered.

        Each replica call runs under the retry policy (writes are
        idempotent — an upsert re-applied after a timeout converges to the
        same state).  A replica that still fails is *skipped* (a failover:
        the survivors keep the shard writable) and the shard's result
        degrades to ``ACKNOWLEDGED``; if **no** replica accepts the write,
        the shard raises ``NoReplicaAvailableError``.  A chain refused
        whole by retired replicas returns their ``CollectionNotFoundError``
        so the caller can rebuild it from the fresh plan.
        """
        shard_id, calls = task
        tracer = get_tracer()
        t0 = monotonic()
        result = None
        ok = 0
        stale: CollectionNotFoundError | None = None
        try:
            with tracer.activate(ctx):
                with tracer.span(
                    "cluster.shard_write",
                    {"shard": shard_id, "replicas": len(calls)}
                    if tracer.enabled else None,
                ):
                    for call in calls:
                        try:
                            outcome = self._timed_call(call)
                        except TransportError:
                            self.failover_stats.record_failover()
                            continue
                        except CollectionNotFoundError as exc:
                            # A retired migration source reached through a
                            # stale plan.  It refused the write before
                            # applying anything, so skipping it is safe; the
                            # surviving replicas are the fresh-plan holders.
                            stale = exc
                            continue
                        except PointNotFoundError:
                            if ok == 0 and stale is None:
                                raise  # authoritative primary: client error
                            # Replica lag (e.g. a double-write target whose
                            # journal replay has not landed the point yet);
                            # the catch-up replay converges it.
                            continue
                        result = outcome
                        ok += 1
        finally:
            self.ingest_stats.record_shard(shard_id, monotonic() - t0)
        if ok == 0:
            if stale is not None:
                return stale  # whole chain stale: nothing applied, retriable
            raise NoReplicaAvailableError(shard_id)
        if ok < len(calls) and isinstance(result, UpdateResult):
            result = UpdateResult(result.operation_id, UpdateStatus.ACKNOWLEDGED)
        return result

    @staticmethod
    def _aggregate_update(results: list) -> UpdateResult:
        """Deterministic aggregate of per-shard write outcomes.

        The operation id is the *max* across shards (each shard counts its
        own operations), independent of gather order — not "last shard
        wins".  The status degrades to ACKNOWLEDGED if any shard reported
        less than COMPLETED.
        """
        results = [r for r in results if isinstance(r, UpdateResult)]
        if not results:
            return UpdateResult(0)
        status = (
            UpdateStatus.COMPLETED
            if all(r.status is UpdateStatus.COMPLETED for r in results)
            else UpdateStatus.ACKNOWLEDGED
        )
        return UpdateResult(max(r.operation_id for r in results), status)

    def _gated_write(self, name: str, state, method: str, shard_args: Mapping[int, tuple]):
        """Build and run one write fan-out under the migration write gates.

        Gates are entered BEFORE the placement plan is read: the fenced
        cutover swaps holder sets with no writer in flight, so a gated
        writer always sees either the old or the new replica chain, whole.
        Each holder of shard ``s`` gets ``method(name, s, *shard_args[s])``;
        the holders include the double-write target when the shard is
        mid-cutover.

        A writer that read the migration registry *before* a move
        registered can still land on the source after the move finished and
        the shard was retired — that surfaces as
        :class:`CollectionNotFoundError` from the fan-out.  Since a
        genuinely unknown collection raises earlier (at ``_resolve``), the
        error here can only mean a stale plan: re-enter the gates, rebuild
        that shard's chain from the fresh plan and re-issue.  Only the
        refused shards retry (a stale chain applied nothing, so re-issuing
        it cannot double-apply), never shards that already acknowledged.

        The result cache is fenced on every attempt, failed ones too: a
        shard may have applied before another shard refused.

        Returns ``(results, fanout_width)``.
        """
        pending = sorted(shard_args)
        width = len(pending)
        done: dict[int, Any] = {}
        last: CollectionNotFoundError | None = None
        ticket = self._enter_write_ticket()
        try:
            for _ in range(3):
                entered, extra = self._enter_migration_gates(name, pending)
                try:
                    tasks: list[tuple[int, list[tuple]]] = []
                    for shard_id in pending:
                        holders = state.plan.workers_for(shard_id)
                        target = extra.get(shard_id)
                        if target is not None and target not in holders:
                            holders.append(target)  # double-write to move target
                        call = (method, name, shard_id, *shard_args[shard_id])
                        tasks.append((shard_id, [(w, *call) for w in holders]))
                    # One pool task per shard: shards are independent, while
                    # each shard's replica chain stays serial for ordering.
                    outcomes = self._fan_out(
                        tasks, self._run_shard_chain,
                        calls=sum(len(c) for _, c in tasks),
                    )
                finally:
                    self._exit_migration_gates(entered)
                failed: list[int] = []
                for shard_id, outcome in zip(pending, outcomes):
                    if isinstance(outcome, CollectionNotFoundError):
                        failed.append(shard_id)
                        last = outcome
                    else:
                        done[shard_id] = outcome
                if not failed:
                    return [done[s] for s in sorted(done)], width
                pending = failed
            raise last
        finally:
            self._exit_write_ticket(ticket)
            self._bump_cache_epoch(name)

    def _enter_write_ticket(self) -> int:
        with self._inflight_cv:
            self._write_ticket_seq += 1
            ticket = self._write_ticket_seq
            self._inflight_writes.add(ticket)
            return ticket

    def _exit_write_ticket(self, ticket: int) -> None:
        with self._inflight_cv:
            self._inflight_writes.discard(ticket)
            self._inflight_cv.notify_all()

    def await_inflight_writes(self, timeout: float = 2.0) -> bool:
        """Block until every gated write in flight *right now* has landed.

        A writer registers its ticket before it reads the migration
        registry or the placement plan, so after a cutover swaps the plan,
        the tickets present here are a superset of the writers that could
        have built a replica chain from the pre-swap plan.  The reshard
        coordinator waits on this barrier between the plan swap and the
        final source-journal drain: any straggler still lands on the source
        while its journal is open and gets replayed onto the target,
        instead of silently diverging the replicas.  Later writers read the
        post-swap plan and need no barrier.  Returns False on timeout
        (callers degrade to today's behaviour rather than deadlock).
        """
        with self._inflight_cv:
            snapshot = set(self._inflight_writes)
            if not snapshot:
                return True
            deadline = monotonic() + timeout
            while snapshot & self._inflight_writes:
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
            return True

    # -- live migration plumbing ---------------------------------------------

    def _register_migration(self, mig) -> None:
        with self._migrations_lock:
            self._migrations[(mig.collection, mig.shard_id)] = mig
        # Conservative cache fence: a live migration changes which replica
        # serves the shard mid-flight, so cached fan-outs stop being served.
        self._bump_cache_epoch(mig.collection)

    def _unregister_migration(self, mig) -> None:
        with self._migrations_lock:
            self._migrations.pop((mig.collection, mig.shard_id), None)
        # Fence again at cutover/abort: post-migration holders answer next.
        self._bump_cache_epoch(mig.collection)

    def _migration_for(self, name: str, shard_id: int):
        if not self._migrations:  # hot-path fast exit, no lock
            return None
        with self._migrations_lock:
            return self._migrations.get((name, shard_id))

    def _enter_migration_gates(
        self, name: str, shard_ids
    ) -> tuple[list, dict[int, str]]:
        """Enter the write gate of every migrating shard in ``shard_ids``.

        Returns the migrations entered (for :meth:`_exit_migration_gates`)
        and ``{shard_id: target}`` for shards in the double-write phase.
        The caller must read the placement plan only *after* this returns —
        gate-then-plan-read is what makes the fenced cutover atomic with
        respect to replica-chain construction.
        """
        if not self._migrations:
            return [], {}
        with self._migrations_lock:
            migs = [
                m
                for (coll, shard), m in self._migrations.items()
                if coll == name and shard in shard_ids
            ]
        entered = []
        extra: dict[int, str] = {}
        try:
            for mig in migs:
                mig.gate.writer_enter()
                entered.append(mig)
                if mig.double_write:
                    extra[mig.shard_id] = mig.target
        except BaseException:  # pragma: no cover - gate enter cannot raise
            self._exit_migration_gates(entered)
            raise
        return entered, extra

    @staticmethod
    def _exit_migration_gates(entered: list) -> None:
        for mig in entered:
            mig.gate.writer_exit()

    @property
    def resharder(self):
        """The cluster's :class:`~repro.core.resharding.ReshardCoordinator`
        (constructed lazily with default config on first use)."""
        if self._resharder is None:
            from .resharding import ReshardCoordinator

            ReshardCoordinator(self)  # attaches itself to self._resharder
        return self._resharder

    # -- result cache ---------------------------------------------------------

    def enable_cache(
        self, cache: "ResultCache | CachePolicy | None" = None
    ) -> ResultCache:
        """Turn on the generation-fenced result cache (idempotent).

        ``cache`` may be a ready :class:`~repro.core.cache.ResultCache`, a
        :class:`~repro.core.cache.CachePolicy`, or None for defaults.  When
        the policy enables the shard tier, every current worker gets a
        :class:`~repro.core.cache.ShardResultCache` too (workers added
        later are wired up in :meth:`add_worker`).
        """
        if self.result_cache is None:
            if isinstance(cache, ResultCache):
                self.result_cache = cache
            else:
                self.result_cache = ResultCache(cache)
            self.result_cache.bind_metrics(self.metrics)
        policy = self.result_cache.policy
        if policy.shard_tier:
            for worker_id in list(self._workers):
                try:
                    self._call_with_retry(
                        worker_id, "enable_shard_cache", policy
                    )
                except TransportError:
                    continue
        return self.result_cache

    def disable_cache(self) -> None:
        """Drop both cache tiers (no-op when caching is off)."""
        if self.result_cache is None:
            return
        self.result_cache = None
        for worker_id in list(self._workers):
            try:
                self._call_with_retry(worker_id, "disable_shard_cache")
            except TransportError:
                continue

    def _bump_cache_epoch(self, name: str) -> None:
        """Fence the result cache after one cluster-level mutation attempt."""
        cache = self.result_cache
        if cache is not None:
            cache.bump_epoch(name)

    def close(self) -> None:
        """Shut down the coalescer and fan-out pools (idempotent)."""
        if self._resharder is not None:
            self._resharder.stop()
        if self.coalescer is not None:
            # Drain queued queries first: their dispatches still need the
            # fan-out pools shut down below.
            self.coalescer.close()
        # Stop any background maintenance drivers (in-process workers):
        # their threads must not outlive the cluster's shard objects.
        for worker in self._workers.values():
            for driver in list(getattr(worker, "_maintenance", {}).values()):
                driver.stop()
            getattr(worker, "_maintenance", {}).clear()
        with self._pools_lock:
            executor, self._executor = self._executor, None
            timeout_pool, self._timeout_pool = self._timeout_pool, None
        if executor is not None:
            executor.shutdown(wait=True)
        if timeout_pool is not None:
            timeout_pool.shutdown(wait=False)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
            if self._timeout_pool is not None:
                self._timeout_pool.shutdown(wait=False)
        except Exception:
            pass

    # -- membership -------------------------------------------------------------

    @classmethod
    def with_workers(
        cls,
        n_workers: int,
        *,
        workers_per_node: int = 4,
        transport: Transport | None = None,
        max_fanout_threads: int | None = None,
    ) -> "Cluster":
        """Convenience: a cluster of ``n_workers``, packed 4 per node as on
        Polaris (§3.2: "four Qdrant workers per machine")."""
        cluster = cls(transport, max_fanout_threads=max_fanout_threads)
        for i in range(n_workers):
            cluster.add_worker(Worker(f"worker-{i}", node_id=f"node-{i // workers_per_node}"))
        return cluster

    def add_worker(self, worker: Worker, *, rebalance: bool = False) -> list[ShardMove]:
        """Register a worker; optionally rebalance existing collections onto it."""
        if worker.worker_id in self._workers:
            raise ClusterConfigError(f"worker {worker.worker_id!r} already registered")
        self._workers[worker.worker_id] = worker
        if isinstance(self.transport, LocalTransport):
            self.transport.register(worker.worker_id, worker)
        else:
            base = getattr(self.transport, "inner", None)
            if isinstance(base, LocalTransport):
                base.register(worker.worker_id, worker)
        if self.result_cache is not None and self.result_cache.policy.shard_tier:
            try:
                self._call_with_retry(
                    worker.worker_id, "enable_shard_cache", self.result_cache.policy
                )
            except TransportError:
                pass
        moves: list[ShardMove] = []
        if rebalance:
            # Live scale-out: spread existing replicas onto the newcomer with
            # the three-phase migration protocol (collections keep serving).
            resharder = self.resharder
            for name in self._collections:
                for r in resharder.reshard_collection(name, balance=True):
                    moves.append(
                        ShardMove(shard_id=r.shard_id, source=r.source, target=r.target)
                    )
        return moves

    def remove_worker(self, worker_id: str, *, rebalance: bool = True) -> list[ShardMove]:
        """Deregister a worker, moving its shard replicas elsewhere.

        The departing worker stays registered while its replicas migrate
        off it — a *graceful* leave streams each shard live (copy,
        catch-up, fenced cutover); a worker that is already dead makes the
        protocol fall back to a bulk pull from a surviving replica.
        """
        if worker_id not in self._workers:
            raise WorkerUnavailableError(worker_id)
        # Refuse before mutating anything if the remaining workers cannot
        # honour some collection's replication factor.
        remaining = [w for w in self._workers if w != worker_id]
        for name, state in self._collections.items():
            if state.plan.replication_factor > len(remaining):
                raise ClusterConfigError(
                    f"removing {worker_id!r} would leave {len(remaining)} workers, "
                    f"below collection {name!r}'s replication factor "
                    f"{state.plan.replication_factor}"
                )
        moves: list[ShardMove] = []
        if rebalance:
            resharder = self.resharder
            for name in self._collections:
                for r in resharder.reshard_collection(name, remaining):
                    moves.append(
                        ShardMove(shard_id=r.shard_id, source=r.source, target=r.target)
                    )
        del self._workers[worker_id]
        if isinstance(self.transport, LocalTransport):
            self.transport.deregister(worker_id)
        else:
            base = getattr(self.transport, "inner", None)
            if isinstance(base, LocalTransport):
                base.deregister(worker_id)
        self.health.forget(worker_id)
        return moves

    @property
    def worker_ids(self) -> list[str]:
        return list(self._workers)

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def workers(self) -> list[Worker]:
        return list(self._workers.values())

    def node_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for w in self._workers.values():
            if w.node_id is not None:
                seen.setdefault(w.node_id, None)
        return list(seen)

    # -- collections ------------------------------------------------------------------

    def create_collection(self, config: CollectionConfig) -> ClusterCollectionState:
        """Create a sharded collection across the current workers.

        ``config.shard_number=None`` yields one shard per worker — Qdrant's
        default, and the configuration the paper benchmarks.
        """
        if config.name in self._collections:
            raise CollectionExistsError(config.name)
        if not self._workers:
            raise ClusterConfigError("cannot create a collection on an empty cluster")
        shard_number = config.shard_number or len(self._workers)
        plan = PlacementPlan(
            worker_ids=list(self._workers),
            shard_number=shard_number,
            replication_factor=config.replication_factor,
        )
        state = ClusterCollectionState(config, plan)
        for shard_id, holders in plan.assignments.items():
            for worker_id in holders:
                self.transport.call(worker_id, "create_shard", config.name, shard_id, config)
        self._collections[config.name] = state
        return state

    def drop_collection(self, name: str) -> None:
        name, state = self._resolve(name)
        self._aliases = {a: c for a, c in self._aliases.items() if c != name}
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        self.transport.call(worker_id, "drop_shard", name, shard_id)
                    except TransportError:
                        continue  # dead replica: its shard dies with it
        del self._collections[name]
        self._bump_cache_epoch(name)

    def _state(self, name: str) -> ClusterCollectionState:
        try:
            return self._collections[self._aliases.get(name, name)]
        except KeyError:
            raise CollectionNotFoundError(name) from None

    def _resolve(self, name: str) -> tuple[str, ClusterCollectionState]:
        """Alias-resolved canonical collection name plus its state."""
        canonical = self._aliases.get(name, name)
        return canonical, self._state(canonical)

    def collection_names(self) -> list[str]:
        return list(self._collections)

    # -- aliases -----------------------------------------------------------------

    def create_alias(self, alias: str, collection: str) -> None:
        """Point an alias at a collection (Qdrant alias semantics: aliases
        let callers switch the backing collection atomically)."""
        if alias in self._collections:
            raise CollectionExistsError(alias)
        if collection not in self._collections:
            raise CollectionNotFoundError(collection)
        self._aliases[alias] = collection

    def delete_alias(self, alias: str) -> None:
        self._aliases.pop(alias, None)

    def aliases(self) -> dict[str, str]:
        return dict(self._aliases)

    def placement(self, name: str) -> PlacementPlan:
        return self._state(name).plan

    # -- writes ---------------------------------------------------------------------------

    def _routed_write(self, span: str, name: str, state, method: str,
                      shard_args: Mapping[int, tuple], *, points: int, nbytes: int,
                      delete: bool = False, **attrs) -> UpdateResult:
        """One :meth:`_gated_write` under ``span``, counted in the ingest stats."""
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            span,
            {"collection": name, "points": points, **attrs} if tracer.enabled else None,
        ):
            results, width = self._gated_write(name, state, method, shard_args)
        wall = monotonic() - t0
        self.ingest_stats.record_write(
            points=points, nbytes=nbytes, width=width, wall=wall, delete=delete
        )
        if not delete:
            self._hist_upsert.observe(wall)
        return self._aggregate_update(results)

    def upsert(self, name: str, points: Sequence[PointStruct]) -> UpdateResult:
        """Route points to their shards and write every shard in parallel.

        One fan-out task per shard; a shard's replicas are written serially
        inside their task (primary first) so replica state stays ordered,
        while distinct shards overlap on the broadcast pool.
        """
        name, state = self._resolve(name)
        points = list(points)
        by_id = {p.id: p for p in points}
        by_shard = state.router.partition([p.id for p in points])
        return self._routed_write(
            "cluster.upsert", name, state, "upsert",
            {shard_id: ([by_id[pid] for pid in ids],) for shard_id, ids in by_shard.items()},
            points=len(points), nbytes=sum(p.as_array().nbytes for p in points),
        )

    def upsert_columnar(self, name: str, batch) -> UpdateResult:
        """Columnar upsert: vectorized shard routing, parallel shard fan-out.

        The id array is hashed in one numpy pass (no per-point Python
        hashing) and each shard's sub-batch ships as columnar arrays.
        """
        name, state = self._resolve(name)
        sub_batches = batch.split(state.router.partition_rows(batch.ids))
        return self._routed_write(
            "cluster.upsert", name, state, "upsert_columnar",
            {shard_id: (sub,) for shard_id, sub in sub_batches.items()},
            points=len(batch), nbytes=batch.nbytes, columnar=True,
        )

    def delete(self, name: str, point_ids: Sequence[PointId]) -> UpdateResult:
        name, state = self._resolve(name)
        point_ids = list(point_ids)
        by_shard = state.router.partition(point_ids)
        return self._routed_write(
            "cluster.delete", name, state, "delete",
            {shard_id: (ids,) for shard_id, ids in by_shard.items()},
            points=len(point_ids), nbytes=0, delete=True,
        )

    def set_payload(
        self, name: str, point_id: PointId, payload: Mapping[str, Any] | None
    ) -> UpdateResult:
        name, state = self._resolve(name)
        shard_id = state.router.shard_for(point_id)
        results, _ = self._gated_write(
            name, state, "set_payload", {shard_id: (point_id, payload)}
        )
        return self._aggregate_update(results)

    # -- reads -------------------------------------------------------------------------------

    def _entry_worker(self) -> str:
        """Round-robin choice of the worker a client contacts (§3.4),
        skipping workers whose breaker is refusing requests."""
        if not self._workers:
            raise ClusterConfigError("cluster has no workers")
        ids = list(self._workers)
        start = next(self._rr_counter)
        for offset in range(len(ids)):
            worker = ids[(start + offset) % len(ids)]
            if self.health.state(worker) is not BreakerState.OPEN:
                return worker
        return ids[start % len(ids)]  # every breaker open: pick anyway

    def _probe_worker(self, worker_id: str) -> bool:
        """Half-open breaker probe: one cheap ``healthcheck`` RPC decides
        whether the worker is re-admitted (success closes the breaker,
        failure re-opens it)."""
        try:
            self._bounded_call(worker_id, "healthcheck")
        except TransportError:
            self.health.record_failure(worker_id)
            return False
        self.health.record_success(worker_id)
        return True

    def _live_holder(
        self,
        state: ClusterCollectionState,
        shard_id: int,
        *,
        exclude: frozenset[str] | set[str] = frozenset(),
    ) -> str:
        """A live replica holder for the shard, preferring the primary.

        Consults the per-worker circuit breaker: open breakers are skipped
        outright; a breaker whose cooldown has elapsed gets one
        ``healthcheck`` probe and is used only if the probe succeeds.
        ``exclude`` removes replicas that already failed this operation
        (the failover path re-resolving a shard).
        """
        for worker_id in state.plan.workers_for(shard_id):
            if worker_id in exclude or worker_id not in self._workers:
                continue
            if not self.transport.is_reachable(worker_id):
                continue
            was_closed = self.health.state(worker_id) is BreakerState.CLOSED
            if not self.health.admit(worker_id):
                continue
            if not was_closed and not self._probe_worker(worker_id):
                continue  # half-open probe failed: breaker re-opened
            return worker_id
        # Mid-migration failover: once the move target is caught up
        # (``readable``, set under the first cutover fence) it can serve
        # reads for a shard whose regular holders are all gone.
        mig = self._migration_for(state.config.name, shard_id)
        if (
            mig is not None
            and mig.readable
            and mig.target not in exclude
            and mig.target in self._workers
            and self.transport.is_reachable(mig.target)
        ):
            self.failover_stats.record_migration_read()
            return mig.target
        raise NoReplicaAvailableError(shard_id)

    def _shard_assignment(
        self,
        state: ClusterCollectionState,
        shard_ids: Sequence[int],
        exclude: Mapping[int, set[str]],
    ) -> dict[str, list[int]]:
        """worker -> shards it will serve (one live replica per shard); a
        shard with no admissible replica left is in no worker's list."""
        assignment: dict[str, list[int]] = {}
        for shard_id in shard_ids:
            try:
                holder = self._live_holder(state, shard_id, exclude=exclude[shard_id])
            except NoReplicaAvailableError:
                continue
            assignment.setdefault(holder, []).append(shard_id)
        return assignment

    def _failover_read(
        self,
        name: str,
        state: ClusterCollectionState,
        shard_ids: Sequence[int],
        method: str,
        payload,
    ) -> tuple[list, set[int]]:
        """Fan a read over ``shard_ids`` with per-shard replica failover.

        Issues one ``method`` call per chosen holder.  When a call fails
        (after the per-call retry policy), only *its* shards are re-resolved
        against the placement plan — excluding every replica that already
        failed them in this read — and re-issued; healthy lanes are never
        repeated.  A worker that refused one shard (``ShardRetiredError``)
        is excluded for that shard only.
        Returns the successful per-call results and the set of shards that
        answered; a shard whose replicas are all gone is simply missing from
        it (the caller decides, per request, whether that is an error).
        """
        pending = list(shard_ids)
        tried: dict[int, set[str]] = {s: set() for s in pending}
        results: list = []
        answered: set[int] = set()
        while pending:
            assignment = self._shard_assignment(state, pending, tried)
            if not assignment:
                break
            calls = [
                (worker_id, method, name, assigned, payload)
                for worker_id, assigned in assignment.items()
            ]
            outcomes = self._fan_out_collect(calls)
            pending = []
            for call, outcome in zip(calls, outcomes):
                worker_id, _, _, assigned, _ = call
                if isinstance(outcome, (TransportError, CollectionNotFoundError)):
                    if isinstance(outcome, ShardRetiredError) and outcome.shard_id in assigned:
                        # The worker still holds the lane's other shards;
                        # only the one a cutover moved away needs a new holder.
                        tried[outcome.shard_id].add(worker_id)
                    else:
                        for shard in assigned:
                            tried[shard].add(worker_id)
                    pending.extend(assigned)
                else:
                    results.append(outcome)
                    answered.update(assigned)
            if pending:
                self.failover_stats.record_failover(len(pending))
        return results, answered

    def _predicated_shards(self, state: ClusterCollectionState, request: SearchRequest
                           ) -> set[int] | None:
        """Shard prefiltering for predicated queries (§2.1 footnote 4).

        When the filter pins the result to specific point ids (a HasId
        must-condition), only the shards owning those ids need to be
        searched; the broadcast collapses to a targeted fan-out.  Returns
        ``None`` when no narrowing applies (the non-predicated case, where
        all systems broadcast).
        """
        flt = request.filter
        ids: frozenset | None = None
        from .filters import Filter, HasId

        if isinstance(flt, HasId):
            ids = flt.ids
        elif isinstance(flt, Filter):
            for cond in flt.must:
                if isinstance(cond, HasId):
                    ids = cond.ids
                    break
        if ids is None:
            return None
        return {state.router.shard_for(pid) for pid in ids}

    def _query_shards(
        self, state: ClusterCollectionState, only_shards: set[int] | None
    ) -> list[int]:
        """The shard set a query must cover (all, or the predicated subset)."""
        if only_shards is None:
            return list(range(state.plan.shard_number))
        return sorted(s for s in only_shards if 0 <= s < state.plan.shard_number)

    def cached(self, name: str, request: SearchRequest) -> SearchResult | None:
        """The result-cache stage alone, run in the caller's thread.

        Returns the cached answer to ``request`` when a valid entry exists —
        through the same fenced lookup :meth:`_serve` runs — and ``None``
        otherwise (no cache, a miss, or no shard to cover), leaving the
        caller to run a full read path.  That path looks the request up
        again and counts the miss there, so this probe counts only a hit,
        and each request lands once in ``cache.lookups`` and in the
        ``cache.lookup_s`` histogram.  A hit observes ``cluster.query_s``
        like any served query.  The query coalescer runs this before
        admission, so a hit never queues.
        """
        cache = self.result_cache
        if cache is None:
            return None
        t0 = monotonic()
        name, state = self._resolve(name)
        shard_ids = self._query_shards(state, self._predicated_shards(state, request))
        if not shard_ids:
            return None
        result = self._cache_lookup(
            cache, name, request.fingerprint(name), shard_ids, count_miss=False
        )
        if result is not None:
            self._hist_query.observe(monotonic() - t0)
        return result

    def _cache_lookup(self, cache: ResultCache, name: str, fingerprint: str,
                      shard_ids: list[int], *, count_miss: bool = True
                      ) -> SearchResult | None:
        """One fenced result-cache lookup, timed into ``cache.lookup_s``
        whenever the cache counts it (see :meth:`ResultCache.lookup`)."""
        t0 = monotonic()
        result = cache.lookup(
            fingerprint, collection=name, shard_set=frozenset(shard_ids),
            count_miss=count_miss,
        )
        if result is not None or count_miss:
            self._hist_cache_lookup.observe(monotonic() - t0)
        return result

    def search(self, name: str, request: SearchRequest) -> SearchResult:
        """Broadcast–reduce distributed search (one query).

        Failed lanes fail over to surviving replicas; with
        ``request.allow_partial`` the result degrades (flagged on the
        returned :class:`~repro.core.types.SearchResult`) instead of
        raising when a shard has no live replica left.  Served through the
        result cache when one is enabled.
        """
        name, state = self._resolve(name)
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "cluster.search",
            {"collection": name} if tracer.enabled else None,
        ) as sp:
            [result] = self._serve(name, state, [request], self.result_cache)
            if isinstance(result, NoReplicaAvailableError):
                raise result
            sp.set_attr("shards", result.shards_total)
        self._hist_query.observe(monotonic() - t0)
        return result

    def recommend(self, name: str, request) -> list[ScoredPoint]:
        """Distributed recommend: resolve examples, search, merge."""
        from .recommend import recommend as _recommend

        cluster = self

        class _Bound:
            distance = self._state(name).config.vectors.distance

            @staticmethod
            def search(req: SearchRequest):
                return cluster.search(name, req)

            @staticmethod
            def retrieve(point_id, *, with_vector=True, with_payload=False):
                return cluster.retrieve(
                    name, point_id, with_vector=with_vector, with_payload=with_payload
                )

        return _recommend(_Bound, request)

    def search_groups(
        self,
        name: str,
        request: SearchRequest,
        *,
        group_by: str,
        group_size: int = 1,
        limit: int | None = None,
    ):
        """Distributed grouped search: broadcast wide, group at the reducer."""
        return group_search(
            partial(self.search, name), request,
            group_by=group_by, group_size=group_size, limit=limit,
        )

    def delete_by_filter(self, name: str, flt) -> int:
        """Delete matching points on every shard; returns the total removed.

        Victims are collected per shard from one replica (with failover),
        then removed by one :meth:`delete`, which enters the migration
        gates, double-writes to a move target and fences the result cache.
        """
        name, state = self._resolve(name)
        victims: list[PointId] = []
        for shard_id in range(state.plan.shard_number):
            page, _ = self._read_shard(
                state, shard_id, "scroll", name, shard_id, limit=10**9, flt=flt,
                with_payload=False, with_vector=False,
            )
            victims.extend(r.id for r in page)
        if victims:
            self.delete(name, victims)
        return len(victims)

    def search_batch(self, name: str, requests: Sequence[SearchRequest]
                     ) -> list[SearchResult]:
        """Broadcast–reduce for a batch of queries (one fan-out per worker).

        Element ``i`` equals ``search(requests[i])`` on an uncached cluster,
        ``shards_total`` and strictness included; the first strict request
        whose shard went unanswered raises.  Never served from or filled
        into the result cache: batch traffic is unique queries, and filling
        from it would evict the hot entries repeated traffic hits.
        """
        name, state = self._resolve(name)
        requests = list(requests)
        if not requests:
            return []
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "cluster.search_batch",
            {"collection": name, "requests": len(requests)}
            if tracer.enabled else None,
        ):
            out = self._serve(name, state, requests, None)
            for result in out:
                if isinstance(result, NoReplicaAvailableError):
                    raise result
        wall = monotonic() - t0
        self._hist_query_batch.observe(wall)
        # Amortized per-query latency keeps cluster.query_s meaningful under
        # batch workloads (the paper's Figures 4–5 report per-query numbers).
        self._hist_query.observe(wall / len(requests))
        return out

    def search_batch_demux(
        self, name: str, requests: Sequence[SearchRequest]
    ) -> list["SearchResult | Exception"]:
        """One shared fan-out, per-request failover semantics.

        The coalescer's execution path.  Slot ``i`` of the returned list
        carries exactly what :meth:`search` would return or raise for
        ``requests[i]`` — a ``SearchResult`` with that request's own
        ``shards_total`` / ``shards_answered``, or the
        ``NoReplicaAvailableError`` a strict request would have raised — so
        a failed shard degrades only the callers whose shard set covers it
        and never poisons the batch.  Served through the result cache when
        one is enabled, like :meth:`search`: the coalescer has already
        served hits in the caller's thread (:meth:`cached`), and this lookup
        catches a fill that landed while a miss was queued.
        """
        name, state = self._resolve(name)
        requests = list(requests)
        if not requests:
            return []
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "cluster.search_batch",
            {"collection": name, "requests": len(requests), "demux": True}
            if tracer.enabled else None,
        ):
            out = self._serve(name, state, requests, self.result_cache)
        wall = monotonic() - t0
        self._hist_query_batch.observe(wall)
        self._hist_query.observe(wall / len(requests))
        return out

    def _serve(
        self,
        name: str,
        state: ClusterCollectionState,
        requests: Sequence[SearchRequest],
        cache: ResultCache | None,
    ) -> list["SearchResult | NoReplicaAvailableError"]:
        """The one read body behind :meth:`search`, :meth:`search_batch` and
        :meth:`search_batch_demux`.

        Each request covers its own shard set (all shards, or the subset a
        predicate pins).  With a ``cache``, the collection's write epoch is
        read *before* the lookups (:meth:`_cache_lookup`, the one lookup
        stage, which :meth:`cached` also runs), so a write landing mid-flight
        refuses the fill, and only the misses fan out — through the fenced
        RPCs, whose per-shard generations feed the cache's staleness tracking
        and fence each fill.  The misses share one fan-out over the union of
        their shards: the single RPC for one miss, the batch RPC for several
        (segments guarantee ``search_batch(qs)[i] == search(qs[i])`` bit for
        bit, so the choice changes no result).

        The fan-out never raises for a lost shard.  Slot ``i`` gets a result
        with request ``i``'s own ``shards_total`` / ``shards_answered``
        (degraded only when one of *its* shards went unanswered and it set
        ``allow_partial``), or the ``NoReplicaAvailableError`` a strict
        request raises.  A degraded result is served but never cached.
        """
        shard_sets = [
            self._query_shards(state, self._predicated_shards(state, r))
            for r in requests
        ]
        out: list = [None] * len(requests)
        if cache is not None:
            fingerprints = [r.fingerprint(name) for r in requests]
            epoch = cache.epoch(name)
        misses: list[int] = []
        for qi, shard_ids in enumerate(shard_sets):
            if not shard_ids:
                # e.g. an empty HasId predicate: nothing to fan out to.
                out[qi] = SearchResult([], shards_total=0)
                continue
            if cache is not None:
                out[qi] = self._cache_lookup(cache, name, fingerprints[qi], shard_ids)
            if out[qi] is None:
                misses.append(qi)
        if not misses:
            return out
        single = len(misses) == 1
        batch = [requests[qi] for qi in misses]
        method, payload = ("search", batch[0]) if single else ("search_batch", batch)
        if cache is not None:
            miss_fps = [fingerprints[qi] for qi in misses]
            method += "_fenced"
            payload = (payload, miss_fps[0] if single else miss_fps)
        union = sorted({s for qi in misses for s in shard_sets[qi]})
        replies, answered = self._failover_read(name, state, union, method, payload)
        gen_map: dict[int, int] = {}
        if cache is not None:
            for _, gens in replies:
                for shard_id, gen in gens.items():
                    if gen > gen_map.get(shard_id, -1):
                        gen_map[shard_id] = gen
            cache.observe_generations(name, gen_map)
            replies = [hits for hits, _ in replies]
        distance = state.config.vectors.distance
        degraded = False
        for mi, qi in enumerate(misses):
            request, shard_ids = requests[qi], shard_sets[qi]
            missing = set(shard_ids) - answered
            if missing and not request.allow_partial:
                out[qi] = NoReplicaAvailableError(min(missing))
                continue
            degraded = degraded or bool(missing)
            partials = replies if single else [reply[mi] for reply in replies]
            out[qi] = result = SearchResult(
                merge_hits(partials, request.limit, distance),
                shards_total=len(shard_ids),
                shards_answered=len(shard_ids) - len(missing),
            )
            if cache is not None and not missing and all(s in gen_map for s in shard_ids):
                cache.fill(
                    fingerprints[qi], result, collection=name,
                    shard_set=frozenset(shard_ids), epoch=epoch,
                    gen_vector={s: gen_map[s] for s in shard_ids},
                )
        if degraded:
            self.failover_stats.record_degraded()
        return out

    def _read_shard(self, state: ClusterCollectionState, shard_id: int,
                    method: str, *args, **kwargs):
        """One-shard read with retry and replica failover: walk the shard's
        live replicas (breaker-aware) until one answers."""
        tried: set[str] = set()
        while True:
            worker_id = self._live_holder(state, shard_id, exclude=tried)
            try:
                return self._call_with_retry(worker_id, method, *args, **kwargs)
            except (TransportError, CollectionNotFoundError):
                # CollectionNotFoundError: the replica dropped this shard
                # after a migration cutover; walk to the next holder (the
                # collection itself is known — ``_state`` resolved it).
                tried.add(worker_id)
                self.failover_stats.record_failover()

    def retrieve(self, name: str, point_id: PointId, *, with_vector: bool = False,
                 with_payload: bool = True) -> Record:
        name, state = self._resolve(name)
        shard_id = state.router.shard_for(point_id)
        return self._read_shard(
            state, shard_id, "retrieve", name, shard_id, point_id,
            with_vector=with_vector, with_payload=with_payload,
        )

    def count(self, name: str) -> int:
        """Total live points (each shard counted at one replica)."""
        name, state = self._resolve(name)
        total = 0
        for shard_id in range(state.plan.shard_number):
            total += self._read_shard(state, shard_id, "count", name, shard_id)
        return total

    def scroll(self, name: str, *, limit: int = 100, offset_id: PointId | None = None,
               flt=None, with_payload: bool = True, with_vector: bool = False
               ) -> tuple[list[Record], PointId | None]:
        """Global scroll in ascending id order across all shards."""
        name, state = self._resolve(name)
        records: list[Record] = []
        for shard_id in range(state.plan.shard_number):
            page, _ = self._read_shard(
                state, shard_id, "scroll", name, shard_id,
                offset_id=offset_id, limit=limit + 1, flt=flt,
                with_payload=with_payload, with_vector=with_vector,
            )
            records.extend(page)
        records.sort(key=lambda r: r.id)
        if len(records) > limit:
            return records[:limit], records[limit].id
        return records, None

    # -- maintenance -----------------------------------------------------------------------------

    def telemetry(self):
        """One aggregated snapshot of worker, fan-out and ingest counters
        (:func:`repro.core.telemetry.collect` bound to this cluster)."""
        from .telemetry import collect

        return collect(self)

    def reset_telemetry(self, *, workers: bool = True,
                        histograms: bool = True) -> None:
        """Zero every counter set of the cluster and, with ``workers``, of
        each worker (see :meth:`Worker.reset_stats`).

        Safe on a live cluster: every set is zeroed under the same lock its
        ``record_*`` methods take, so a concurrent fan-out update lands
        either wholly before or wholly after the reset — never into a
        half-zeroed struct.  Counters kept inside stored data (index, WAL
        and quantized-segment counts) are not counter sets and are measured
        by ``TelemetrySnapshot.diff`` instead.
        """
        self.fanout_stats.reset()
        self.ingest_stats.reset()
        self.failover_stats.reset()
        if self.coalescer is not None:
            self.coalescer.stats.reset()
        if self.result_cache is not None:
            # Counters only: cached entries (and the fence state that keeps
            # them honest) survive a telemetry reset.
            self.result_cache.stats.reset()
        if workers:
            for worker in self.workers():
                worker.reset_stats()
        if histograms:
            self.metrics.reset()
            # Telemetry overlays segment/collection-level histograms from
            # the *global* registry; reset those too so a post-reset
            # collect() starts from zero like the cluster's own.
            for name, hist in get_registry().histograms().items():
                if name.startswith(GLOBAL_HISTOGRAM_PREFIXES):
                    hist.reset()
        if self._resharder is not None:
            self._resharder.stats.reset()

    def flush_wals(self, name: str) -> None:
        """Force group-commit buffered WAL records out on every shard replica.

        Best-effort: a replica that is down simply misses the flush (its WAL
        will replay on recovery), so dead workers do not fail the call."""
        name, state = self._resolve(name)
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        self._call_with_retry(worker_id, "flush_wal", name, shard_id)
                    except TransportError:
                        continue

    def build_index(self, name: str, kind: str = "hnsw") -> dict[str, list[int]]:
        """Deferred index build on every shard replica (§3.3).

        Per-shard builds are independent, so they are fanned out on the
        broadcast pool (Figure 3's per-worker indexing parallelism).
        Returns ``worker -> [vectors indexed per shard]`` so callers (and
        the perf model) can see the per-worker build sizes.
        """
        name, state = self._resolve(name)
        calls: list[tuple] = []
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id not in self._workers:
                    continue
                calls.append((worker_id, "build_index", name, shard_id, kind))
        tracer = get_tracer()
        with tracer.span(
            "cluster.build_index",
            {"collection": name, "kind": kind, "calls": len(calls)}
            if tracer.enabled else None,
        ):
            reports = self._fan_out(calls, self._timed_call)
        built: dict[str, list[int]] = {}
        for call, report in zip(calls, reports):
            built.setdefault(call[0], []).extend(n for _, n in report.index_builds)
        return built

    def optimize(self, name: str) -> None:
        """Best-effort optimize on every live shard replica."""
        name, state = self._resolve(name)
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        self._call_with_retry(worker_id, "optimize", name, shard_id)
                    except TransportError:
                        continue

    def enable_maintenance(self, name: str, *, interval_s: float = 0.05) -> int:
        """Start background copy-on-write maintenance on every live shard
        replica; returns the number of drivers started.

        While enabled, writers never run the optimizer inline — merges,
        vacuums and HNSW builds happen on per-shard background threads and
        swap in under each collection's generation fence.
        """
        name, state = self._resolve(name)
        started = 0
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        if self._call_with_retry(
                            worker_id, "enable_maintenance", name, shard_id,
                            interval_s=interval_s,
                        ):
                            started += 1
                    except TransportError:
                        continue
        return started

    def disable_maintenance(self, name: str, *, drain: bool = True) -> None:
        """Best-effort stop of every shard's background driver."""
        name, state = self._resolve(name)
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        self._call_with_retry(
                            worker_id, "disable_maintenance", name, shard_id,
                            drain=drain,
                        )
                    except TransportError:
                        continue

    def drain_maintenance(self, name: str) -> None:
        """Synchronously complete in-flight maintenance on every replica."""
        name, state = self._resolve(name)
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        self._call_with_retry(
                            worker_id, "drain_maintenance", name, shard_id
                        )
                    except TransportError:
                        continue

    def maintenance_stats(self, name: str) -> dict[str, dict]:
        """``"worker/shard" -> counters`` for every live shard replica."""
        name, state = self._resolve(name)
        out: dict[str, dict] = {}
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        out[f"{worker_id}/{shard_id}"] = self._call_with_retry(
                            worker_id, "maintenance_stats", name, shard_id
                        )
                    except TransportError:
                        continue
        return out

    # -- resharding lifecycle ---------------------------------------------------

    def reshard(self, name: str, *, balance: bool = True) -> list:
        """Synchronously rebalance one collection onto the current worker
        set with live shard migrations; returns the executed
        :class:`~repro.core.resharding.MoveResult`\\ s."""
        return self.resharder.reshard_collection(name, balance=balance)

    def enable_resharding(self, *, config=None) -> None:
        """Start the background reshard driver (mirrors
        :meth:`enable_maintenance`'s lifecycle).  ``config`` replaces the
        coordinator's :class:`~repro.core.resharding.ReshardConfig`."""
        if config is not None:
            from .resharding import ReshardCoordinator

            if self._resharder is not None:
                self._resharder.stop()
                self._resharder = None
            ReshardCoordinator(self, config)
        self.resharder.start()

    def disable_resharding(self, *, drain: bool = True) -> None:
        """Stop the background reshard driver; with ``drain`` finish queued
        jobs first."""
        if self._resharder is not None:
            self._resharder.stop(drain=drain)

    def drain_resharding(self) -> list:
        """Synchronously execute every queued reshard job."""
        return self.resharder.drain()

    def reshard_stats(self) -> dict:
        """The coordinator's counters (all-zero before any reshard ran)."""
        return self.resharder.stats.snapshot()

    def create_payload_index(self, name: str, key: str, *, kind: str = "keyword") -> None:
        """Best-effort payload-index creation on every live shard replica."""
        name, state = self._resolve(name)
        for shard_id, holders in state.plan.assignments.items():
            for worker_id in holders:
                if worker_id in self._workers:
                    try:
                        self._call_with_retry(
                            worker_id, "create_payload_index", name, shard_id,
                            key, kind=kind,
                        )
                    except TransportError:
                        continue

    def info(self, name: str) -> list[CollectionInfo]:
        name, state = self._resolve(name)
        infos = []
        for shard_id in range(state.plan.shard_number):
            infos.append(self._read_shard(state, shard_id, "info", name, shard_id))
        return infos
