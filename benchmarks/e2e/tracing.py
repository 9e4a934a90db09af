"""Benchmark-owned tracing: spans around each layer's public functions.

The traced run (``run.py --trace 1``) installs wrappers from this file on
the public methods of the ``repro.core`` layers and routes worker calls
through a delegating :class:`TracingTransport`.  The untraced run imports
none of this, so end-to-end metrics are measured with no wrapper at all.

A span is ``(id, name, start, end, thread, parent, request)``.  The parent
is the span open on the same thread, or — across a
``ThreadPoolExecutor.submit`` hop — the span that was open on the submitting
thread.  Spans of one client operation share its request id.  Functions
called hundreds of times per query (the quantizer's scoring kernels) are
*leaf timers*: they add to a per-name total and to the enclosing span's
child time, but store no span.

Self time of a span is its duration minus the part of its interval that its
children (and leaf timers) cover; children running in parallel on pool
threads are merged before subtracting, so a fan-out is not counted four
times.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from repro.core.cache import ResultCache, ShardResultCache
from repro.core.client import SyncClient
from repro.core.cluster import Cluster
from repro.core.collection import Collection
from repro.core.index.hnsw import HnswIndex
from repro.core.quantization import ScalarQuantizer
from repro.core.resharding import ReshardCoordinator
from repro.core.router import ShardRouter
from repro.core.scheduler import QueryCoalescer
from repro.core.segment import Segment
from repro.core.transport import InstrumentedTransport, LocalTransport
from repro.core.wal import WriteAheadLog
from repro.core.worker import Worker
from workloads import SERVE, wal_bytes

now = time.perf_counter

#: (class, public method, span name).
SPANS = [
    (SyncClient, "upload", "client.upload"),
    (SyncClient, "upload_pipelined", "client.upload_pipelined"),
    (SyncClient, "search", "client.search"),
    (SyncClient, "search_many", "client.search_many"),
    (QueryCoalescer, "search", "scheduler.search"),
    (ResultCache, "lookup", "cache.lookup"),
    (ResultCache, "fill", "cache.fill"),
    (ShardResultCache, "lookup", "cache.shard_lookup"),
    (ShardResultCache, "fill", "cache.shard_fill"),
    (Cluster, "search", "cluster.search"),
    (Cluster, "search_batch", "cluster.search_batch"),
    (Cluster, "search_batch_demux", "cluster.search_batch_demux"),
    (Cluster, "upsert", "cluster.upsert"),
    (Cluster, "upsert_columnar", "cluster.upsert_columnar"),
    (Cluster, "delete", "cluster.delete"),
    (Cluster, "build_index", "cluster.build_index"),
    (Cluster, "optimize", "cluster.optimize"),
    (ShardRouter, "partition", "router.partition"),
    (ShardRouter, "partition_rows", "router.partition_rows"),
    (Worker, "search", "worker.search"),
    (Worker, "search_batch", "worker.search_batch"),
    (Worker, "search_fenced", "worker.search_fenced"),
    (Worker, "search_batch_fenced", "worker.search_batch_fenced"),
    (Worker, "upsert", "worker.upsert"),
    (Worker, "upsert_columnar", "worker.upsert_columnar"),
    (Worker, "delete", "worker.delete"),
    (Worker, "build_index", "worker.build_index"),
    (Collection, "search", "collection.search"),
    (Collection, "search_batch", "collection.search_batch"),
    (Collection, "upsert", "collection.upsert"),
    (Collection, "upsert_columnar", "collection.upsert_columnar"),
    (Collection, "delete", "collection.delete"),
    (Collection, "build_index", "collection.build_index"),
    (Collection, "run_maintenance_pass", "maintenance.pass"),
    (WriteAheadLog, "append", "wal.append"),
    (WriteAheadLog, "append_columnar", "wal.append_columnar"),
    (WriteAheadLog, "flush", "wal.flush"),
    (Segment, "search", "segment.search"),
    (Segment, "search_batch", "segment.search_batch"),
    (Segment, "upsert", "segment.upsert"),
    (Segment, "upsert_batch", "segment.upsert_batch"),
    (Segment, "upsert_columnar", "segment.upsert_columnar"),
    (HnswIndex, "build", "hnsw.build"),
    (HnswIndex, "search", "hnsw.search"),
    (ReshardCoordinator, "reshard_collection", "reshard.move"),
]

LEAVES = [
    (ScalarQuantizer, "encode_query", "quantization.encode_query"),
    (ScalarQuantizer, "score_codes", "quantization.score"),
    (ScalarQuantizer, "score_codes_batch", "quantization.score"),
    (ScalarQuantizer, "train", "quantization.train_encode"),
    (ScalarQuantizer, "encode", "quantization.train_encode"),
]


class Span:
    __slots__ = ("id", "name", "t0", "t1", "tid", "parent", "also", "rid", "client",
                 "n", "leaf_s", "err")

    def __init__(self, sid, name, parent, tid, client):
        self.id = sid
        self.name = name
        self.parent = parent
        #: Further spans blocked on this one (callers sharing a coalesced batch).
        self.also = ()
        self.rid = parent.rid if parent is not None else sid
        self.tid = tid
        #: A client operation: no parent, opened by a load-generating thread.
        self.client = client and parent is None
        self.n = 1
        self.leaf_s = 0.0
        self.err = False
        self.t1 = 0.0
        self.t0 = now()

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """In-memory span store; ``enabled`` gates recording to the timed phases."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        #: leaf name -> thread id -> [seconds, calls]; per-thread cells so
        #: concurrent ``+=`` never loses an update.
        self.leaves: dict[str, dict[int, list]] = defaultdict(dict)
        #: HnswIndex instances seen by ``hnsw.search`` with their counters
        #: at first sight, so build-time distance computations are excluded.
        self.indexes: dict[int, tuple] = {}
        #: id(SearchRequest) -> the ``scheduler.search`` span blocked on it;
        #: how a coalesced batch finds its callers across the collector hop.
        self.waiting: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def current(self) -> Span | None:
        return getattr(self._tls, "span", None)

    def mark_client_thread(self) -> None:
        """Spans this thread opens with no parent are client operations."""
        self._tls.client = True

    def _open(self, name: str) -> Span:
        tls = self._tls
        span = Span(next(self._ids), name, getattr(tls, "span", None),
                    threading.get_ident(), getattr(tls, "client", False))
        tls.span = span
        return span

    def _close(self, span: Span) -> None:
        span.t1 = now()
        self._tls.span = span.parent
        self.spans.append(span)

    def _wrap_span(self, fn, name):
        rec = self

        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            span = rec._open(name)
            if name == "client.search_many":
                span.n = len(args[1])       # queries in the call
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.err = True
                raise
            finally:
                rec._close(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, fn, name):
        rec = self
        cells = self.leaves[name]

        def timed(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                tid = threading.get_ident()
                cell = cells.get(tid)
                if cell is None:
                    cell = cells[tid] = [0.0, 0]
                cell[0] += dt
                cell[1] += 1
                span = getattr(rec._tls, "span", None)
                if span is not None:
                    span.leaf_s += dt

        timed.__wrapped__ = fn
        return timed

    def _wrap_scheduler_search(self, fn):
        """``scheduler.search`` span, findable by the request it waits on."""
        rec = self

        def search(coalescer, collection, request):
            if not rec.enabled:
                return fn(coalescer, collection, request)
            span = rec._open("scheduler.search")
            rec.waiting[id(request)] = span
            try:
                return fn(coalescer, collection, request)
            except BaseException:
                span.err = True
                raise
            finally:
                del rec.waiting[id(request)]
                rec._close(span)

        search.__wrapped__ = fn
        return search

    def _wrap_demux(self, fn):
        """``cluster.search_batch_demux`` span, parented to the callers whose
        requests it executes (it runs on a dispatcher thread with no span)."""
        rec = self

        def demux(cluster, name, requests):
            if not rec.enabled:
                return fn(cluster, name, requests)
            requests = list(requests)
            callers = [c for r in requests if (c := rec.waiting.get(id(r))) is not None]
            tls = rec._tls
            saved = getattr(tls, "span", None)
            if saved is None and callers:
                tls.span = callers[0]
            span = rec._open("cluster.search_batch_demux")
            span.n = len(requests)
            span.also = tuple(callers[1:]) if saved is None else ()
            try:
                return fn(cluster, name, requests)
            except BaseException:
                span.err = True
                raise
            finally:
                rec._close(span)
                tls.span = saved

        demux.__wrapped__ = fn
        return demux

    def _wrap_hnsw_search(self, fn):
        """``hnsw.search`` span that also remembers the index instance."""
        traced = self._wrap_span(fn, "hnsw.search")
        rec = self

        def search(index, *args, **kwargs):
            if rec.enabled and id(index) not in rec.indexes:
                stats = index.stats
                rec.indexes.setdefault(
                    id(index), (index, stats.distance_computations, stats.hops)
                )
            return traced(index, *args, **kwargs)

        search.__wrapped__ = fn
        return search

    def index_counters(self) -> tuple[int, int]:
        """(distance computations, hops) spent searching since first sight."""
        dc = hops = 0
        for index, dc0, hops0 in self.indexes.values():
            dc += index.stats.distance_computations - dc0
            hops += index.stats.hops - hops0
        return dc, hops

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch the layer classes and ``ThreadPoolExecutor.submit``."""
        for cls, method, name in SPANS:
            fn = getattr(cls, method)
            special = {
                "hnsw.search": self._wrap_hnsw_search,
                "scheduler.search": self._wrap_scheduler_search,
                "cluster.search_batch_demux": self._wrap_demux,
            }.get(name)
            wrapped = special(fn) if special else self._wrap_span(fn, name)
            self._undo.append((cls, method, fn))
            setattr(cls, method, wrapped)
        for cls, method, name in LEAVES:
            fn = getattr(cls, method)
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._wrap_leaf(fn, name))
        rec = self
        submit = ThreadPoolExecutor.submit

        def submit_with_parent(pool, fn, /, *args, **kwargs):
            parent = rec.current()
            if parent is None or not rec.enabled:
                return submit(pool, fn, *args, **kwargs)

            def run(*a, **k):
                tls = rec._tls
                saved = getattr(tls, "span", None)
                tls.span = parent
                try:
                    return fn(*a, **k)
                finally:
                    tls.span = saved

            return submit(pool, run, *args, **kwargs)

        self._undo.append((ThreadPoolExecutor, "submit", submit))
        ThreadPoolExecutor.submit = submit_with_parent

    def uninstall(self) -> None:
        while self._undo:
            cls, method, fn = self._undo.pop()
            setattr(cls, method, fn)

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Calibrated cost of one wrapped call (for ``trace.overhead_share``)."""

        def noop():
            return None

        traced = self._wrap_span(noop, "calibration")
        was, self.enabled = self.enabled, True
        keep = len(self.spans)
        t0 = now()
        for _ in range(calls):
            traced()
        wrapped_s = now() - t0
        del self.spans[keep:]
        self.enabled = was
        t0 = now()
        for _ in range(calls):
            noop()
        return max(wrapped_s - (now() - t0), 0.0) / calls

    # -- output --------------------------------------------------------------

    def dump(self, path: str, origin: float) -> None:
        rows = [
            [s.id, s.name, round(s.t0 - origin, 7), round(s.t1 - origin, 7),
             s.tid, s.parent.id if s.parent is not None else None, s.rid]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "thread",
                                   "parent", "request"], "spans": rows}, fh)


class TracingTransport(InstrumentedTransport):
    """Delegating transport: one ``transport.<method>`` span per worker call,
    on top of ``InstrumentedTransport``'s call counts and estimated bytes."""

    def __init__(self, recorder: Recorder):
        super().__init__(LocalTransport())
        self.recorder = recorder

    def call(self, worker_id: str, method: str, *args, **kwargs):
        rec = self.recorder
        if not rec.enabled:
            # Untimed phases: no span, and no call or byte accounting either.
            return self.inner.call(worker_id, method, *args, **kwargs)
        span = rec._open("transport." + method)
        try:
            return super().call(worker_id, method, *args, **kwargs)
        except BaseException:
            span.err = True
            raise
        finally:
            rec._close(span)


# -- analysis ------------------------------------------------------------------


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of ``span``'s interval covered by ``kids``."""
    total = 0.0
    reach = span.t0
    for kid in sorted(kids, key=lambda k: k.t0):
        lo, hi = max(kid.t0, reach), min(kid.t1, span.t1)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Analysis:
    """Totals, self times and the client-blocking attribution of one trace."""

    def __init__(self, rec: Recorder):
        self.spans = rec.spans
        kids: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                kids[span.parent.id].append(span)
            for caller in span.also:
                kids[caller.id].append(span)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.weighted_s: dict[str, float] = defaultdict(float)
        self.weight: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        covered: dict[int, float] = {}
        for span in self.spans:
            cov = covered[span.id] = _covered(span, kids.get(span.id, ()))
            self.total_s[span.name] += span.dur
            self.weighted_s[span.name] += span.dur * span.n
            self.weight[span.name] += span.n
            self.self_s[span.name] += max(span.dur - cov - span.leaf_s, 0.0)
            self.calls[span.name] += 1
            self.errors[span.name] += span.err
        self.leaf_s = {n: sum(c[0] for c in cells.values()) for n, cells in rec.leaves.items()}
        self.leaf_calls = {n: sum(c[1] for c in cells.values()) for n, cells in rec.leaves.items()}

        # Client-blocking attribution: a client operation's wall is split
        # between its own self time and its children; children that overlap
        # (a parallel fan-out) share the covered interval in proportion to
        # their durations, so the shares always add up to the operation's wall.
        self.blocking_s: dict[str, float] = defaultdict(float)
        roots = [s for s in self.spans if s.client]
        self.client_wall_s = sum(s.dur for s in roots)
        stack = [(s, s.dur) for s in roots]
        while stack:
            span, weight = stack.pop()
            if span.dur <= 0 or weight <= 0:
                continue
            scale = weight / span.dur
            cov = covered[span.id]
            children = kids.get(span.id, ())
            leaf = min(span.leaf_s, span.dur - cov)
            self.blocking_s[layer_of(span.name)] += (span.dur - cov - leaf) * scale
            if leaf > 0:
                self.blocking_s["quantization"] += leaf * scale
            kid_total = sum(k.dur for k in children)
            if kid_total > 0:
                for kid in children:
                    stack.append((kid, cov * scale * kid.dur / kid_total))

    def total(self, *names: str) -> float:
        return sum(self.total_s.get(n, 0.0) for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def prefixed(self, table: dict, prefix: str):
        return sum(v for n, v in table.items() if n.startswith(prefix))


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "index.hnsw" if layer == "hnsw" else layer


def layer_table(an: Analysis) -> str:
    """The "where the time goes" table: one row per layer."""
    layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, calls in an.calls.items():
        row = layers[layer_of(name)]
        row[0] += calls
        row[1] += an.total_s[name]
        row[2] += an.self_s[name]
    for name, secs in an.leaf_s.items():
        row = layers[layer_of(name)]
        row[0] += an.leaf_calls[name]
        row[1] += secs
        row[2] += secs
    wall = an.client_wall_s or float("nan")
    lines = [
        f"{'layer':<14}{'spans':>9}{'total_s':>11}{'self_s':>11}{'blocking_s':>12}{'share':>8}",
    ]
    for layer in sorted(layers, key=lambda l: -an.blocking_s.get(l, 0.0)):
        calls, total, self_s = layers[layer]
        blocking = an.blocking_s.get(layer, 0.0)
        lines.append(
            f"{layer:<14}{calls:>9d}{total:>11.4f}{self_s:>11.4f}"
            f"{blocking:>12.4f}{blocking / wall:>8.1%}"
        )
    lines.append(f"{'client-blocking wall':<45}{an.client_wall_s:>12.4f}{1:>8.1%}")
    return "\n".join(lines)


# -- per-layer metrics ----------------------------------------------------------


def per_layer(rec: Recorder, res) -> tuple[dict[str, float], str]:
    """Every ``PER_LAYER`` metric, and the layer table.  Span sums come from
    the recorder and cover the timed phases; counts come from the public
    stats surfaces of the cluster that served the run, which ``workloads.run``
    zeroes after the warm-up.  Call before the serving checks (they switch
    the cache off, which drops its counters)."""
    an = Analysis(rec)
    env, extra = res.env, res.extra
    cluster = env.cluster

    coalesce = cluster.coalescer.stats.snapshot() if cluster.coalescer else {}
    cache = cluster.result_cache.snapshot() if cluster.result_cache else {}
    shard = [s for w in cluster.workers() if (s := w.shard_cache_snapshot())]
    shard_lookups = sum(s["lookups"] for s in shard)
    fanout = cluster.fanout_stats.snapshot()
    maint = list(cluster.maintenance_stats(SERVE).values())
    drivers = [m["driver"] for m in maint if "driver" in m]
    reshard = cluster.reshard_stats()
    wal_written = wal_bytes(env) - extra["wal_bytes_at_reset"]
    dc, hops = rec.index_counters()

    searches = ("transport.search", "transport.search_batch",
                "transport.search_fenced", "transport.search_batch_fenced")
    writes = ("transport.upsert", "transport.upsert_columnar", "transport.delete")
    queries = an.count("client.search") + an.weight["client.search_many"]
    cluster_writes = an.count("cluster.upsert", "cluster.upsert_columnar", "cluster.delete")
    hnsw_searches = an.count("hnsw.search")
    uploads = ("client.upload", "client.upload_pipelined")
    cluster_upserts = ("cluster.upsert", "cluster.upsert_columnar")
    demux_wait = an.weighted_s["cluster.search_batch_demux"]
    spans = len(rec.spans) + sum(an.leaf_calls.values())

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "client.upload_s": an.total(*uploads),
        "client.convert_s": an.self_time(*uploads),
        "scheduler.search_s": an.total("scheduler.search"),
        "scheduler.wait_s": max(an.total("scheduler.search") - demux_wait, 0.0),
        "scheduler.batches": coalesce.get("batches", 0),
        "scheduler.mean_width": ratio(coalesce.get("total_width", 0), coalesce.get("batches", 0)),
        "scheduler.deduped": coalesce.get("deduped", 0),
        "scheduler.bypasses": coalesce.get("bypasses", 0),
        "cache.lookup_s": an.total("cache.lookup", "cache.shard_lookup"),
        "cache.fill_s": an.total("cache.fill", "cache.shard_fill"),
        "cache.hit_rate": ratio(cache.get("hits", 0), cache.get("lookups", 0)),
        "cache.evictions": cache.get("evictions", 0),
        "cache.invalidations": cache.get("invalidations", 0),
        "cache.rejected": cache.get("rejected", 0),
        "cache.shard_hit_rate": ratio(sum(s["hits"] for s in shard), shard_lookups),
        "cache.bytes_used": cache.get("bytes", 0) + sum(s["bytes"] for s in shard),
        "cluster.search_s": an.total("cluster.search"),
        "cluster.search_self_s": an.self_time("cluster.search"),
        "cluster.search_batch_s": an.total("cluster.search_batch", "cluster.search_batch_demux"),
        "cluster.upsert_s": an.total(*cluster_upserts),
        "cluster.upsert_self_s": an.self_time(*cluster_upserts),
        "cluster.delete_s": an.total("cluster.delete"),
        "cluster.build_index_s": an.total("cluster.build_index"),
        "cluster.fanout_width_mean": ratio(fanout["total_width"], fanout["fanouts"]),
        "router.partition_s": an.total("router.partition", "router.partition_rows"),
        "router.partition_calls": an.count("router.partition", "router.partition_rows"),
        "transport.calls": an.prefixed(an.calls, "transport."),
        "transport.call_s": an.prefixed(an.total_s, "transport."),
        "transport.calls_per_query": ratio(an.count(*searches), queries),
        "transport.calls_per_write": ratio(an.count(*writes), cluster_writes),
        "transport.errors": an.prefixed(an.errors, "transport."),
        "transport.bytes_sent_est": env.transport.stats.bytes_sent,
        "transport.bytes_received_est": env.transport.stats.bytes_received,
        "worker.search_s": an.total(*(s.replace("transport", "worker") for s in searches)),
        "worker.search_calls": an.count(*(s.replace("transport", "worker") for s in searches)),
        "worker.upsert_s": an.total("worker.upsert", "worker.upsert_columnar"),
        "worker.upsert_calls": an.count("worker.upsert", "worker.upsert_columnar"),
        "collection.search_s": an.total("collection.search", "collection.search_batch"),
        "collection.upsert_s": an.total("collection.upsert"),
        "collection.upsert_columnar_s": an.total("collection.upsert_columnar"),
        "collection.delete_s": an.total("collection.delete"),
        "collection.segments_final": sum(i.segments_count for i in cluster.info(SERVE)),
        "wal.append_s": an.total("wal.append", "wal.append_columnar"),
        "wal.appends": an.count("wal.append", "wal.append_columnar"),
        "wal.flush_s": an.total("wal.flush"),
        "wal.flushes": an.count("wal.flush"),
        "wal.bytes_written": wal_written,
        "wal.replay_s": extra["wal_replay_s"],
        "segment.search_s": an.total("segment.search", "segment.search_batch"),
        "segment.search_calls": an.count("segment.search", "segment.search_batch"),
        "segment.upsert_s": an.total("segment.upsert", "segment.upsert_batch",
                                     "segment.upsert_columnar"),
        "hnsw.build_s": an.total("hnsw.build"),
        "hnsw.search_s": an.total("hnsw.search"),
        "hnsw.search_calls": hnsw_searches,
        "hnsw.distance_computations_per_query": ratio(dc, queries),
        "hnsw.hops_per_query": ratio(hops, queries),
        "quantization.encode_query_s": an.leaf_s.get("quantization.encode_query", 0.0),
        "quantization.score_s": an.leaf_s.get("quantization.score", 0.0),
        "quantization.train_encode_s": an.leaf_s.get("quantization.train_encode", 0.0),
        "maintenance.passes": sum(m["passes"] for m in maint),
        "maintenance.swaps": sum(m["swaps"] for m in maint),
        "maintenance.busy_s": sum(d["busy_seconds"] for d in drivers),
        "maintenance.vectors_indexed": sum(d["vectors_indexed"] for d in drivers),
        "maintenance.reconciled": sum(m["reconciled"] for m in maint),
        "maintenance.drain_s": extra.get("maintenance_drain_s", 0.0),
        "reshard.moves_completed": reshard["moves_completed"],
        "reshard.move_s": an.total("reshard.move"),
        "reshard.rows_copied": reshard["rows_copied"],
        "reshard.journal_replayed": reshard["journal_replayed"],
        "reshard.copy_s": reshard["copy_seconds"],
        "query_p99_ms": res.metrics["query_p99_ms"],
        "write_p95_ms": res.metrics["write_p95_ms"],
        "free.query_qps": extra["free_query_qps"],
        "free.query_p50_ms": extra["free_query_p50_ms"],
        "free.insert_points_per_s": extra["free_insert_points_per_s"],
        "mixed.writer_late_p95_ms": extra["writer_late_p95_ms"],
        "process.cpu_s_per_wall_s": ratio(extra["cpu_s"], extra["timed_s"]),
        "trace.overhead_share": ratio(spans * rec.span_cost_s(), extra["timed_s"]),
        "trace.unexplained_share": max(1.0 - ratio(an.client_wall_s, extra["busy_s"]), 0.0),
    }
    return values, layer_table(an)
