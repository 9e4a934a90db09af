"""Cluster telemetry.

Aggregates the counters workers and indexes already maintain into one
snapshot — the software-side equivalent of the profiling the paper leans
on (§3.2's per-batch decomposition, §3.3's CPU saturation): vectors
inserted, batches received, searches served, index builds with sizes, and
distance computations per worker.  Since the observability subsystem
landed, the snapshot also carries the cluster's latency histograms
(``cluster.query_s`` / ``cluster.upsert_s`` / ``cluster.rpc_s``, p50/p95/p99
via :class:`repro.obs.metrics.HistogramSnapshot`) and the tracer's span
counters.

Every counter set is one :class:`repro.obs.metrics.Counters` dataclass: a
:class:`TelemetrySnapshot` holds detached copies of the live sets
(:class:`~.cluster.FanoutStats`, :class:`~.cluster.IngestStats`,
:class:`~.scheduler.CoalesceStats`, :class:`~.resharding.ReshardStats`),
each copied *under the same lock the hot-path updates take* — a
``collect`` racing a live fan-out sees each set either wholly before or
wholly after any concurrent update, never half-applied.  The three records
that combine several sources — :class:`WorkerTelemetry`,
:class:`FailoverTelemetry` and :class:`CacheTelemetry` — extend their live
set with the extra fields.

``TelemetrySnapshot.diff`` supports before/after measurement around a
workload phase, which is how the benches use it: each set diffs through
its one ``minus`` (gauges keep the later value), histograms through their
bucket-wise ``minus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import HistogramSnapshot, gauge, get_registry
from ..obs.trace import get_tracer
from .cache import CacheStats
from .cluster import GLOBAL_HISTOGRAM_PREFIXES, Cluster, FanoutStats, IngestStats
from .failover import FailoverStats
from .resharding import ReshardStats
from .scheduler import CoalesceStats
from .worker import WorkerStats

__all__ = [
    "WorkerTelemetry",
    "FailoverTelemetry",
    "CacheTelemetry",
    "TelemetrySnapshot",
    "collect",
]

#: The counter sets a :class:`TelemetrySnapshot` carries besides its workers.
_COUNTER_SETS = ("fanout", "ingest", "failover", "coalesce", "cache", "reshard")


@dataclass
class WorkerTelemetry(WorkerStats):
    """One worker's counters at a point in time: its :class:`WorkerStats`
    plus what ``collect`` sums over the worker's shards."""

    worker_id: str = gauge("")
    node_id: str | None = gauge(None)
    distance_computations: int = 0
    indexed_vectors: int = 0
    points: int = 0
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


@dataclass
class FailoverTelemetry(FailoverStats):
    """Failure-handling counters plus the breaker states.

    ``retries`` counts re-attempts against the *same* worker (transient
    faults); ``failovers`` counts lanes re-issued to a *different* replica;
    ``degraded_queries`` counts reads served with ``allow_partial`` after
    total replica loss of some shard.  ``breaker_state`` is the current
    per-worker circuit-breaker state.
    """

    breaker_state: tuple[tuple[str, str], ...] = gauge(())


@dataclass
class CacheTelemetry(CacheStats):
    """Both result-cache tiers' counters.

    The inherited fields describe the fingerprint-keyed cluster tier
    (``hit_rate`` = hits / lookups); the ``shard_*`` fields aggregate every
    worker's shard-result cache, whose hits skip per-shard search work on a
    cluster-tier miss.  ``invalidations`` counts entries dropped by the
    generation fence — correctness at work, not a fault.  ``entries`` /
    ``bytes`` are current occupancy.  All zero when caching is disabled.
    Lookup latency percentiles live in the ``cache.lookup_s`` histogram of
    :attr:`TelemetrySnapshot.histograms`.
    """

    entries: int = gauge()
    bytes: int = gauge()
    shard_lookups: int = 0
    shard_hits: int = 0
    shard_invalidations: int = 0
    shard_entries: int = gauge()
    shard_bytes: int = gauge()

    @property
    def shard_hit_rate(self) -> float:
        return 0.0 if self.shard_lookups == 0 else self.shard_hits / self.shard_lookups


@dataclass
class TelemetrySnapshot:
    """All workers' counters, plus cluster-level aggregates.

    A set whose subsystem is off (no coalescer, cache or resharder) reads
    all zero.
    """

    workers: dict[str, WorkerTelemetry] = field(default_factory=dict)
    fanout: FanoutStats = field(default_factory=FanoutStats)
    ingest: IngestStats = field(default_factory=IngestStats)
    failover: FailoverTelemetry = field(default_factory=FailoverTelemetry)
    coalesce: CoalesceStats = field(default_factory=CoalesceStats)
    cache: CacheTelemetry = field(default_factory=CacheTelemetry)
    reshard: ReshardStats = field(default_factory=ReshardStats)
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

    @property
    def build_utilization(self) -> float:
        denom = self.build_wall_seconds * max(self.build_pool_workers, 1)
        return 0.0 if denom <= 0 else self.build_busy_seconds / denom

    @property
    def total_search_seconds(self) -> float:
        return sum(w.search_seconds for w in self.workers.values())

    @property
    def total_build_seconds(self) -> float:
        return sum(w.build_seconds for w in self.workers.values())

    @property
    def total_vectors_inserted(self) -> int:
        return sum(w.vectors_inserted for w in self.workers.values())

    @property
    def total_searches(self) -> int:
        return sum(w.searches_served for w in self.workers.values())

    @property
    def total_queries(self) -> int:
        return sum(w.queries_served for w in self.workers.values())

    @property
    def total_distance_computations(self) -> int:
        return sum(w.distance_computations for w in self.workers.values())

    @property
    def total_points(self) -> int:
        return sum(w.points for w in self.workers.values())

    @property
    def total_write_seconds(self) -> float:
        return sum(w.write_seconds for w in self.workers.values())

    @property
    def total_bytes_ingested(self) -> int:
        return sum(w.bytes_ingested for w in self.workers.values())

    @property
    def total_quant_scans(self) -> int:
        return sum(w.quant_scans for w in self.workers.values())

    @property
    def total_quant_rescored(self) -> int:
        return sum(w.quant_rescored for w in self.workers.values())

    @property
    def total_maint_passes(self) -> int:
        return sum(w.maint_passes for w in self.workers.values())

    @property
    def total_maint_reconciled(self) -> int:
        return sum(w.maint_reconciled for w in self.workers.values())

    @property
    def total_wal_appends(self) -> int:
        return sum(w.wal_appends for w in self.workers.values())

    @property
    def total_wal_flushes(self) -> int:
        return sum(w.wal_flushes for w in self.workers.values())

    def per_node(self) -> dict[str, int]:
        """Points hosted per compute node (placement-balance diagnostic)."""
        out: dict[str, int] = {}
        for w in self.workers.values():
            key = w.node_id or w.worker_id
            out[key] = out.get(key, 0) + w.points
        return out

    def imbalance(self) -> float:
        """max/mean point load across workers (1.0 = perfectly balanced)."""
        loads = [w.points for w in self.workers.values()]
        if not loads or sum(loads) == 0:
            return 1.0
        return max(loads) / (sum(loads) / len(loads))

    def latency_summary(self) -> dict[str, dict]:
        """p50/p95/p99 summaries (``HistogramSnapshot.as_dict``) per metric,
        skipping empty histograms."""
        return {
            name: snap.as_dict()
            for name, snap in sorted(self.histograms.items())
            if snap.count
        }

    def diff(self, earlier: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Counters accumulated since ``earlier`` (matching workers only)."""
        out = TelemetrySnapshot()
        for wid, now in self.workers.items():
            if wid in earlier.workers:
                out.workers[wid] = now.minus(earlier.workers[wid])
            else:
                out.workers[wid] = now
        for name in _COUNTER_SETS:
            setattr(out, name, getattr(self, name).minus(getattr(earlier, name)))
        out.build_wall_seconds = self.build_wall_seconds - earlier.build_wall_seconds
        out.build_busy_seconds = self.build_busy_seconds - earlier.build_busy_seconds
        out.build_pool_workers = self.build_pool_workers
        for name, snap in self.histograms.items():
            before = earlier.histograms.get(name)
            out.histograms[name] = snap.minus(before) if before is not None else snap
        out.spans_recorded = self.spans_recorded - earlier.spans_recorded
        out.spans_dropped = self.spans_dropped - earlier.spans_dropped
        return out


def collect(cluster: Cluster) -> TelemetrySnapshot:
    """Snapshot the counters of every worker in the cluster."""
    snapshot = TelemetrySnapshot(
        fanout=cluster.fanout_stats.copy(),
        ingest=cluster.ingest_stats.copy(),
        failover=FailoverTelemetry(
            **cluster.failover_stats.snapshot(),
            breaker_state=tuple(sorted(
                (wid, state.value) for wid, state in cluster.health.states().items()
            )),
        ),
    )
    if cluster.coalescer is not None:
        snapshot.coalesce = cluster.coalescer.stats.copy()
    if cluster.result_cache is not None:
        shard = [s for w in cluster.workers() if (s := w.shard_cache_snapshot()) is not None]
        snapshot.cache = CacheTelemetry(
            **cluster.result_cache.snapshot(),
            **{
                f"shard_{key}": sum(s[key] for s in shard)
                for key in ("lookups", "hits", "invalidations", "entries", "bytes")
            },
        )
    resharder = getattr(cluster, "_resharder", None)
    if resharder is not None:
        snapshot.reshard = resharder.stats.copy()
    snapshot.histograms = cluster.metrics.snapshot_histograms()
    for name, hist in get_registry().snapshot_histograms().items():
        if name.startswith(GLOBAL_HISTOGRAM_PREFIXES) and name not in snapshot.histograms:
            snapshot.histograms[name] = hist
    tracer = get_tracer()
    snapshot.spans_recorded = tracer.span_count
    snapshot.spans_dropped = tracer.dropped_batches
    for worker in cluster.workers():
        wt = WorkerTelemetry(
            worker_id=worker.worker_id, node_id=worker.node_id, **worker.snapshot_stats()
        )
        for collection in worker._shards.values():  # noqa: SLF001 - same package
            wt.points += len(collection)
            ms = collection.maint_stats.snapshot()
            wt.maint_passes += ms["passes"]
            wt.maint_swaps += ms["swaps"]
            wt.maint_reconciled += ms["reconciled"]
            appends, flushes, nbytes = collection.wal_stats
            wt.wal_appends += appends
            wt.wal_flushes += flushes
            wt.wal_bytes += nbytes
            report = collection.last_build_report
            snapshot.build_wall_seconds += report.wall_seconds
            snapshot.build_busy_seconds += report.busy_seconds
            snapshot.build_pool_workers = max(snapshot.build_pool_workers, report.workers)
            for seg in collection.segments:
                qs = seg.quant_stats
                wt.quant_scans += qs["scans"]
                wt.quant_scanned_codes += qs["scanned_codes"]
                wt.quant_rescored += qs["rescored"]
                if seg.index is not None:
                    wt.distance_computations += seg.index.stats.distance_computations
                    wt.indexed_vectors += len(seg)
                    iqs = getattr(seg.index, "quant_stats", None)
                    if iqs is not None:
                        wt.quant_scans += iqs["searches"]
                        wt.quant_rescored += iqs["rescored"]
        snapshot.workers[worker.worker_id] = wt
    return snapshot
