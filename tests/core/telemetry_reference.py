"""Frozen reference telemetry code — do not simplify.

A verbatim copy of the cluster telemetry this repository shipped while every
counter set had a hand-written mirror: the seven frozen ``*Telemetry``
dataclasses with their ``minus`` bodies, the snapshot's ``diff``, and
``collect``'s field-by-field mapping from each live stats object's
``snapshot()`` dict.  The production :mod:`repro.core.telemetry` derives the
same values from each counter set's field list instead and must report the
same values, field by field; ``test_telemetry_golden.py`` compares the two.

It reads the cluster only through the surfaces both versions share: each
stats object's ``snapshot()`` dict, ``Worker.snapshot_stats``,
``Collection.maint_stats[...]``, ``wal_stats`` and the segment/index counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import HistogramSnapshot, get_registry
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class WorkerTelemetry:
    """One worker's counters at a point in time."""

    worker_id: str
    node_id: str | None
    vectors_inserted: int
    batches_received: int
    searches_served: int
    queries_served: int
    index_builds: tuple[tuple[str, int, int], ...]
    distance_computations: int
    indexed_vectors: int
    points: int
    #: Wall time this worker spent serving search calls / building indexes
    #: (per-worker straggler diagnostics for the broadcast–reduce).
    search_seconds: float = 0.0
    build_seconds: float = 0.0
    #: Wall time spent applying writes, and vector bytes ingested.
    write_seconds: float = 0.0
    bytes_ingested: int = 0
    #: WAL activity summed over this worker's shards (appends, flushes,
    #: bytes) — group commit shows up as flushes << appends.
    wal_appends: int = 0
    wal_flushes: int = 0
    wal_bytes: int = 0
    #: Quantized-path counters summed over this worker's segments: first
    #: passes served from uint8 codes (flat scans + quantized HNSW
    #: traversals), code rows scored in flat scans, and candidates
    #: exact-rescored.
    quant_scans: int = 0
    quant_scanned_codes: int = 0
    quant_rescored: int = 0
    #: Copy-on-write maintenance counters summed over this worker's shards:
    #: fenced passes completed, passes whose swap changed segment state, and
    #: journaled mid-pass mutations reconciled at swap time.
    maint_passes: int = 0
    maint_swaps: int = 0
    maint_reconciled: int = 0

    def minus(self, earlier: "WorkerTelemetry") -> "WorkerTelemetry":
        return WorkerTelemetry(
            worker_id=self.worker_id,
            node_id=self.node_id,
            vectors_inserted=self.vectors_inserted - earlier.vectors_inserted,
            batches_received=self.batches_received - earlier.batches_received,
            searches_served=self.searches_served - earlier.searches_served,
            queries_served=self.queries_served - earlier.queries_served,
            index_builds=self.index_builds[len(earlier.index_builds):],
            distance_computations=self.distance_computations - earlier.distance_computations,
            indexed_vectors=self.indexed_vectors - earlier.indexed_vectors,
            points=self.points - earlier.points,
            search_seconds=self.search_seconds - earlier.search_seconds,
            build_seconds=self.build_seconds - earlier.build_seconds,
            write_seconds=self.write_seconds - earlier.write_seconds,
            bytes_ingested=self.bytes_ingested - earlier.bytes_ingested,
            wal_appends=self.wal_appends - earlier.wal_appends,
            wal_flushes=self.wal_flushes - earlier.wal_flushes,
            wal_bytes=self.wal_bytes - earlier.wal_bytes,
            quant_scans=self.quant_scans - earlier.quant_scans,
            quant_scanned_codes=self.quant_scanned_codes - earlier.quant_scanned_codes,
            quant_rescored=self.quant_rescored - earlier.quant_rescored,
            maint_passes=self.maint_passes - earlier.maint_passes,
            maint_swaps=self.maint_swaps - earlier.maint_swaps,
            maint_reconciled=self.maint_reconciled - earlier.maint_reconciled,
        )


@dataclass(frozen=True)
class FanoutTelemetry:
    """Cluster-level broadcast counters (from :class:`~.cluster.FanoutStats`).

    ``mean_width`` is the average number of workers contacted per
    broadcast; predicated shard routing shows up as a width below the
    worker count.  ``wall_seconds`` is coordinator-side fan-out wall time —
    with the thread-pool broadcast it tracks the *slowest* worker rather
    than the sum of all workers.
    """

    fanouts: int = 0
    calls: int = 0
    max_width: int = 0
    total_width: int = 0
    wall_seconds: float = 0.0

    @property
    def mean_width(self) -> float:
        return 0.0 if self.fanouts == 0 else self.total_width / self.fanouts

    def minus(self, earlier: "FanoutTelemetry") -> "FanoutTelemetry":
        return FanoutTelemetry(
            fanouts=self.fanouts - earlier.fanouts,
            calls=self.calls - earlier.calls,
            max_width=self.max_width,
            total_width=self.total_width - earlier.total_width,
            wall_seconds=self.wall_seconds - earlier.wall_seconds,
        )


@dataclass(frozen=True)
class IngestTelemetry:
    """Cluster-level write-path counters (from :class:`~.cluster.IngestStats`).

    ``points_per_second`` / ``bytes_per_second`` are coordinator-side ingest
    throughput over the fan-out wall time; ``shard_seconds`` exposes write
    stragglers per shard (replica chains included).
    """

    upserts: int = 0
    deletes: int = 0
    points: int = 0
    bytes: int = 0
    wall_seconds: float = 0.0
    fanouts: int = 0
    total_width: int = 0
    max_width: int = 0
    shard_seconds: tuple[tuple[int, float], ...] = ()

    @property
    def mean_width(self) -> float:
        return 0.0 if self.fanouts == 0 else self.total_width / self.fanouts

    @property
    def points_per_second(self) -> float:
        return 0.0 if self.wall_seconds <= 0 else self.points / self.wall_seconds

    @property
    def bytes_per_second(self) -> float:
        return 0.0 if self.wall_seconds <= 0 else self.bytes / self.wall_seconds

    def minus(self, earlier: "IngestTelemetry") -> "IngestTelemetry":
        earlier_shard = dict(earlier.shard_seconds)
        return IngestTelemetry(
            upserts=self.upserts - earlier.upserts,
            deletes=self.deletes - earlier.deletes,
            points=self.points - earlier.points,
            bytes=self.bytes - earlier.bytes,
            wall_seconds=self.wall_seconds - earlier.wall_seconds,
            fanouts=self.fanouts - earlier.fanouts,
            total_width=self.total_width - earlier.total_width,
            max_width=self.max_width,
            shard_seconds=tuple(
                (shard, seconds - earlier_shard.get(shard, 0.0))
                for shard, seconds in self.shard_seconds
            ),
        )


@dataclass(frozen=True)
class FailoverTelemetry:
    """Failure-handling counters (from :class:`~.failover.FailoverStats`).

    ``retries`` counts re-attempts against the *same* worker (transient
    faults); ``failovers`` counts lanes re-issued to a *different* replica;
    ``degraded_queries`` counts reads served with ``allow_partial`` after
    total replica loss of some shard.  ``breaker_state`` is the current
    per-worker circuit-breaker state (not a counter, so ``minus`` keeps the
    later value).
    """

    retries: int = 0
    failovers: int = 0
    timeouts: int = 0
    degraded_queries: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    migration_reads: int = 0
    breaker_state: tuple[tuple[str, str], ...] = ()

    def minus(self, earlier: "FailoverTelemetry") -> "FailoverTelemetry":
        return FailoverTelemetry(
            retries=self.retries - earlier.retries,
            failovers=self.failovers - earlier.failovers,
            timeouts=self.timeouts - earlier.timeouts,
            degraded_queries=self.degraded_queries - earlier.degraded_queries,
            breaker_opens=self.breaker_opens - earlier.breaker_opens,
            breaker_half_opens=self.breaker_half_opens - earlier.breaker_half_opens,
            breaker_closes=self.breaker_closes - earlier.breaker_closes,
            migration_reads=self.migration_reads - earlier.migration_reads,
            breaker_state=self.breaker_state,
        )


@dataclass(frozen=True)
class CoalesceTelemetry:
    """Micro-batching counters (from :class:`~.scheduler.CoalesceStats`).

    ``mean_width`` is the amortization factor the coalescer achieved —
    queries per shared fan-out; ``solo_batches`` counts width-1 dispatches
    (idle traffic paying ~no window); ``bypasses`` counts admissions
    refused under backpressure (those queries ran the direct path).  Queue
    wait percentiles live in the ``coalesce.wait_s`` histogram of
    :attr:`TelemetrySnapshot.histograms`.  All zero when no coalescer is
    attached.  ``max_width`` is a high-water mark, kept (not subtracted)
    by ``minus``.
    """

    batches: int = 0
    coalesced: int = 0
    total_width: int = 0
    max_width: int = 0
    solo_batches: int = 0
    bypasses: int = 0
    deduped: int = 0

    @property
    def mean_width(self) -> float:
        return 0.0 if self.batches == 0 else self.total_width / self.batches

    def minus(self, earlier: "CoalesceTelemetry") -> "CoalesceTelemetry":
        return CoalesceTelemetry(
            batches=self.batches - earlier.batches,
            coalesced=self.coalesced - earlier.coalesced,
            total_width=self.total_width - earlier.total_width,
            max_width=self.max_width,
            solo_batches=self.solo_batches - earlier.solo_batches,
            bypasses=self.bypasses - earlier.bypasses,
            deduped=self.deduped - earlier.deduped,
        )


@dataclass(frozen=True)
class CacheTelemetry:
    """Result-cache counters (from :class:`~.cache.CacheStats`).

    The cluster-tier fields describe the fingerprint-keyed result cache
    (``hit_rate`` = hits / lookups); the ``shard_*`` fields aggregate every
    worker's shard-result cache, whose hits skip per-shard search work on a
    cluster-tier miss.  ``invalidations`` counts entries dropped by the
    generation fence — correctness at work, not a fault.  ``entries`` /
    ``bytes`` are current occupancy gauges, kept (not subtracted) by
    ``minus``.  All zero when caching is disabled.  Lookup latency
    percentiles live in the ``cache.lookup_s`` histogram of
    :attr:`TelemetrySnapshot.histograms`.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0
    entries: int = 0
    bytes: int = 0
    shard_lookups: int = 0
    shard_hits: int = 0
    shard_invalidations: int = 0
    shard_entries: int = 0
    shard_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        return 0.0 if self.lookups == 0 else self.hits / self.lookups

    @property
    def shard_hit_rate(self) -> float:
        return 0.0 if self.shard_lookups == 0 else self.shard_hits / self.shard_lookups

    def minus(self, earlier: "CacheTelemetry") -> "CacheTelemetry":
        return CacheTelemetry(
            lookups=self.lookups - earlier.lookups,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            fills=self.fills - earlier.fills,
            evictions=self.evictions - earlier.evictions,
            invalidations=self.invalidations - earlier.invalidations,
            rejected=self.rejected - earlier.rejected,
            entries=self.entries,
            bytes=self.bytes,
            shard_lookups=self.shard_lookups - earlier.shard_lookups,
            shard_hits=self.shard_hits - earlier.shard_hits,
            shard_invalidations=(
                self.shard_invalidations - earlier.shard_invalidations
            ),
            shard_entries=self.shard_entries,
            shard_bytes=self.shard_bytes,
        )


@dataclass(frozen=True)
class ReshardTelemetry:
    """Live-resharding counters (from :class:`~.resharding.ReshardStats`).

    ``lossy_moves`` counts moves that found no surviving donor replica —
    the only case where live resharding loses data.  ``cutovers`` counts
    fenced plan swaps (one per three-phase move that completed without a
    bulk fallback).  Copy-phase latency percentiles live in the
    ``reshard.*`` histograms of :attr:`TelemetrySnapshot.histograms`.  All
    zero when no coordinator is attached.
    """

    jobs: int = 0
    moves_started: int = 0
    moves_completed: int = 0
    moves_failed: int = 0
    fallback_moves: int = 0
    lossy_moves: int = 0
    rows_copied: int = 0
    bytes_copied: int = 0
    chunks_sent: int = 0
    journal_replayed: int = 0
    cutovers: int = 0
    copy_seconds: float = 0.0
    throttle_sleep_seconds: float = 0.0

    @property
    def copy_bytes_per_second(self) -> float:
        return 0.0 if self.copy_seconds <= 0 else self.bytes_copied / self.copy_seconds

    def minus(self, earlier: "ReshardTelemetry") -> "ReshardTelemetry":
        return ReshardTelemetry(
            jobs=self.jobs - earlier.jobs,
            moves_started=self.moves_started - earlier.moves_started,
            moves_completed=self.moves_completed - earlier.moves_completed,
            moves_failed=self.moves_failed - earlier.moves_failed,
            fallback_moves=self.fallback_moves - earlier.fallback_moves,
            lossy_moves=self.lossy_moves - earlier.lossy_moves,
            rows_copied=self.rows_copied - earlier.rows_copied,
            bytes_copied=self.bytes_copied - earlier.bytes_copied,
            chunks_sent=self.chunks_sent - earlier.chunks_sent,
            journal_replayed=self.journal_replayed - earlier.journal_replayed,
            cutovers=self.cutovers - earlier.cutovers,
            copy_seconds=self.copy_seconds - earlier.copy_seconds,
            throttle_sleep_seconds=(
                self.throttle_sleep_seconds - earlier.throttle_sleep_seconds
            ),
        )


@dataclass
class ReferenceSnapshot:
    """All workers' counters, plus cluster-level aggregates."""

    workers: dict[str, WorkerTelemetry] = field(default_factory=dict)
    fanout: FanoutTelemetry = field(default_factory=FanoutTelemetry)
    ingest: IngestTelemetry = field(default_factory=IngestTelemetry)
    failover: FailoverTelemetry = field(default_factory=FailoverTelemetry)
    coalesce: CoalesceTelemetry = field(default_factory=CoalesceTelemetry)
    cache: CacheTelemetry = field(default_factory=CacheTelemetry)
    reshard: ReshardTelemetry = field(default_factory=ReshardTelemetry)
    #: Aggregated over every shard-collection's last parallel build pass:
    #: pool utilization is ``busy / (wall * workers)``.
    build_wall_seconds: float = 0.0
    build_busy_seconds: float = 0.0
    build_pool_workers: int = 0
    #: Latency histograms from the cluster's metrics registry
    #: (``cluster.query_s``, ``cluster.upsert_s``, ``cluster.rpc_s``, …).
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)
    #: Spans currently buffered in the global tracer / span batches dropped
    #: to the buffer cap (0/0 whenever tracing is disabled).
    spans_recorded: int = 0
    spans_dropped: int = 0

    def diff(self, earlier: "ReferenceSnapshot") -> "ReferenceSnapshot":
        """Counters accumulated since ``earlier`` (matching workers only)."""
        out = ReferenceSnapshot()
        for wid, now in self.workers.items():
            if wid in earlier.workers:
                out.workers[wid] = now.minus(earlier.workers[wid])
            else:
                out.workers[wid] = now
        out.fanout = self.fanout.minus(earlier.fanout)
        out.ingest = self.ingest.minus(earlier.ingest)
        out.failover = self.failover.minus(earlier.failover)
        out.coalesce = self.coalesce.minus(earlier.coalesce)
        out.cache = self.cache.minus(earlier.cache)
        out.reshard = self.reshard.minus(earlier.reshard)
        out.build_wall_seconds = self.build_wall_seconds - earlier.build_wall_seconds
        out.build_busy_seconds = self.build_busy_seconds - earlier.build_busy_seconds
        out.build_pool_workers = self.build_pool_workers
        for name, snap in self.histograms.items():
            before = earlier.histograms.get(name)
            out.histograms[name] = snap.minus(before) if before is not None else snap
        out.spans_recorded = self.spans_recorded - earlier.spans_recorded
        out.spans_dropped = self.spans_dropped - earlier.spans_dropped
        return out



def reference_collect(cluster) -> ReferenceSnapshot:
    """The parent's ``collect``: one field-by-field mapping per counter set."""
    snapshot = ReferenceSnapshot()
    fs = cluster.fanout_stats.snapshot()
    snapshot.fanout = FanoutTelemetry(
        fanouts=fs["fanouts"],
        calls=fs["total_calls"],
        max_width=fs["max_width"],
        total_width=fs["total_width"],
        wall_seconds=fs["wall_seconds"],
    )
    ing = cluster.ingest_stats.snapshot()
    snapshot.ingest = IngestTelemetry(
        upserts=ing["upserts"],
        deletes=ing["deletes"],
        points=ing["points"],
        bytes=ing["bytes"],
        wall_seconds=ing["wall_seconds"],
        fanouts=ing["fanouts"],
        total_width=ing["total_width"],
        max_width=ing["max_width"],
        shard_seconds=tuple(sorted(ing["shard_seconds"].items())),
    )
    fo = cluster.failover_stats.snapshot()
    snapshot.failover = FailoverTelemetry(
        retries=fo["retries"],
        failovers=fo["failovers"],
        timeouts=fo["timeouts"],
        degraded_queries=fo["degraded_queries"],
        breaker_opens=fo["breaker_opens"],
        breaker_half_opens=fo["breaker_half_opens"],
        breaker_closes=fo["breaker_closes"],
        migration_reads=fo["migration_reads"],
        breaker_state=tuple(
            sorted((wid, state.value) for wid, state in cluster.health.states().items())
        ),
    )
    if cluster.coalescer is not None:
        cs = cluster.coalescer.stats.snapshot()
        snapshot.coalesce = CoalesceTelemetry(
            batches=cs["batches"],
            coalesced=cs["coalesced"],
            total_width=cs["total_width"],
            max_width=cs["max_width"],
            solo_batches=cs["solo_batches"],
            bypasses=cs["bypasses"],
            deduped=cs["deduped"],
        )
    if cluster.result_cache is not None:
        cc = cluster.result_cache.snapshot()
        shard_lookups = shard_hits = shard_invalidations = 0
        shard_entries = shard_bytes = 0
        for worker in cluster.workers():
            ws = worker.shard_cache_snapshot()
            if ws is None:
                continue
            shard_lookups += ws["lookups"]
            shard_hits += ws["hits"]
            shard_invalidations += ws["invalidations"]
            shard_entries += ws["entries"]
            shard_bytes += ws["bytes"]
        snapshot.cache = CacheTelemetry(
            lookups=cc["lookups"],
            hits=cc["hits"],
            misses=cc["misses"],
            fills=cc["fills"],
            evictions=cc["evictions"],
            invalidations=cc["invalidations"],
            rejected=cc["rejected"],
            entries=cc["entries"],
            bytes=cc["bytes"],
            shard_lookups=shard_lookups,
            shard_hits=shard_hits,
            shard_invalidations=shard_invalidations,
            shard_entries=shard_entries,
            shard_bytes=shard_bytes,
        )
    resharder = getattr(cluster, "_resharder", None)
    if resharder is not None:
        rs = resharder.stats.snapshot()
        snapshot.reshard = ReshardTelemetry(
            jobs=rs["jobs"],
            moves_started=rs["moves_started"],
            moves_completed=rs["moves_completed"],
            moves_failed=rs["moves_failed"],
            fallback_moves=rs["fallback_moves"],
            lossy_moves=rs["lossy_moves"],
            rows_copied=rs["rows_copied"],
            bytes_copied=rs["bytes_copied"],
            chunks_sent=rs["chunks_sent"],
            journal_replayed=rs["journal_replayed"],
            cutovers=rs["cutovers"],
            copy_seconds=rs["copy_seconds"],
            throttle_sleep_seconds=rs["throttle_sleep_seconds"],
        )
    snapshot.histograms = cluster.metrics.snapshot_histograms()
    # Quantized-path and maintenance latency histograms live on the *global*
    # registry (the segment/collection hot paths cannot know which cluster
    # owns them); overlay them.
    for name, hist in get_registry().snapshot_histograms().items():
        if name.startswith(("quant.", "maint.", "reshard.")) and name not in snapshot.histograms:
            snapshot.histograms[name] = hist
    tracer = get_tracer()
    snapshot.spans_recorded = tracer.span_count
    snapshot.spans_dropped = tracer.dropped_batches
    for worker in cluster.workers():
        distance_computations = 0
        indexed = 0
        points = 0
        wal_appends = 0
        wal_flushes = 0
        wal_bytes = 0
        quant_scans = 0
        quant_scanned = 0
        quant_rescored = 0
        maint_passes = 0
        maint_swaps = 0
        maint_reconciled = 0
        for collection in worker._shards.values():  # noqa: SLF001 - same package
            points += len(collection)
            ms = collection.maint_stats
            maint_passes += ms["passes"]
            maint_swaps += ms["swaps"]
            maint_reconciled += ms["reconciled"]
            appends, flushes, nbytes = collection.wal_stats
            wal_appends += appends
            wal_flushes += flushes
            wal_bytes += nbytes
            report = collection.last_build_report
            snapshot.build_wall_seconds += report.wall_seconds
            snapshot.build_busy_seconds += report.busy_seconds
            snapshot.build_pool_workers = max(snapshot.build_pool_workers, report.workers)
            for seg in collection.segments:
                qs = seg.quant_stats
                quant_scans += qs["scans"]
                quant_scanned += qs["scanned_codes"]
                quant_rescored += qs["rescored"]
                if seg.index is not None:
                    distance_computations += seg.index.stats.distance_computations
                    indexed += len(seg)
                    iqs = getattr(seg.index, "quant_stats", None)
                    if iqs is not None:
                        quant_scans += iqs["searches"]
                        quant_rescored += iqs["rescored"]
        wstats = worker.snapshot_stats()
        snapshot.workers[worker.worker_id] = WorkerTelemetry(
            worker_id=worker.worker_id,
            node_id=worker.node_id,
            vectors_inserted=wstats["vectors_inserted"],
            batches_received=wstats["batches_received"],
            searches_served=wstats["searches_served"],
            queries_served=wstats["queries_served"],
            index_builds=tuple(wstats["index_builds"]),
            distance_computations=distance_computations,
            indexed_vectors=indexed,
            points=points,
            search_seconds=wstats["search_seconds"],
            build_seconds=wstats["build_seconds"],
            write_seconds=wstats["write_seconds"],
            bytes_ingested=wstats["bytes_ingested"],
            wal_appends=wal_appends,
            wal_flushes=wal_flushes,
            wal_bytes=wal_bytes,
            quant_scans=quant_scans,
            quant_scanned_codes=quant_scanned,
            quant_rescored=quant_rescored,
            maint_passes=maint_passes,
            maint_swaps=maint_swaps,
            maint_reconciled=maint_reconciled,
        )
    return snapshot
