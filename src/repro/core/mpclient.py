"""Parallel multi-client upload pool.

The deployment of §3.2's distributed experiment: "we employ multiprocessing
to assign one client to each Qdrant worker", all clients running on a
single compute node.  The paper's §4 lesson is that this beats asyncio for
insertion because batch conversion is CPU-bound.

:class:`ParallelClientPool` models that layout: the point stream is
pre-partitioned by the collection's shard router so each client only
produces batches for its own worker's shards, then all clients run
concurrently (one thread per client here — with a real gRPC server the
conversion would also be parallel across OS processes; the perf model
accounts for the client node's core count when extrapolating to Polaris).

For CPU-parallel conversion on a real multi-core machine, the pool can also
run with ``use_processes=True``, in which case conversion happens in worker
processes and only the converted batches flow back to the coordinating
thread for upload (the cluster object itself is not picklable/shared).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..obs.clock import monotonic
from ..obs.trace import get_tracer
from .batch import Batch
from .client import chunk
from .cluster import Cluster
from .types import PointStruct

__all__ = [
    "ParallelClientPool",
    "ParallelQueryReport",
    "ParallelUploadReport",
    "convert_batch_worker",
    "convert_batch_arrays",
]


def convert_batch_worker(batch: list[tuple[int, list[float], dict | None]],
                         trace_ctx: Mapping[str, int] | None = None,
                         ) -> list[PointStruct]:
    """Top-level conversion function (picklable for process pools).

    ``trace_ctx`` is a wire-form :class:`~repro.obs.trace.TraceContext` from
    the submitting process.  Tracing degrades across the process boundary:
    if this process has a recording tracer the conversion gets a fresh root
    span carrying the parent's trace id; otherwise it is a no-op.  It never
    crashes the conversion.
    """
    tracer = get_tracer()
    with tracer.continue_trace(trace_ctx, "client.convert"):
        return [
            PointStruct(id=pid, vector=np.asarray(vec, dtype=np.float32), payload=payload)
            for pid, vec, payload in batch
        ]


def convert_batch_arrays(batch: list[tuple[int, list[float], dict | None]],
                         trace_ctx: Mapping[str, int] | None = None,
                         ) -> tuple[np.ndarray, np.ndarray, list[dict | None]]:
    """Columnar conversion for process pools: returns ``(ids, vectors,
    payloads)`` arrays so only dense buffers (not per-point objects) cross
    the process boundary.  ``trace_ctx`` as in :func:`convert_batch_worker`."""
    tracer = get_tracer()
    with tracer.continue_trace(trace_ctx, "client.convert"):
        ids = np.asarray([pid for pid, _, _ in batch], dtype=np.int64)
        vectors = np.asarray([vec for _, vec, _ in batch], dtype=np.float32)
        payloads = [payload for _, _, payload in batch]
        return ids, vectors, payloads


@dataclass
class ParallelUploadReport:
    """Outcome of a pool upload."""

    total_s: float
    points: int
    clients: int
    batches_per_client: dict[str, int] = field(default_factory=dict)
    per_client_s: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_pps(self) -> float:
        return self.points / self.total_s if self.total_s > 0 else float("inf")


@dataclass
class ParallelQueryReport:
    """Outcome of a pool query run."""

    total_s: float
    queries: int
    clients: int
    #: Coalescer counters accumulated during the run (empty when the run
    #: was uncoalesced): batches formed, widths, bypasses.
    coalesce: dict = field(default_factory=dict)
    #: Result-cache counters accumulated during the run (empty when the
    #: run was uncached): lookups, hits, fills, invalidations.
    cache: dict = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        return self.queries / self.total_s if self.total_s > 0 else float("inf")

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache.get("lookups", 0)
        return self.cache.get("hits", 0) / lookups if lookups else 0.0

    @property
    def mean_batch_width(self) -> float:
        batches = self.coalesce.get("batches", 0)
        return self.coalesce.get("total_width", 0) / batches if batches else 0.0


class ParallelClientPool:
    """One upload client per worker, running concurrently."""

    def __init__(self, cluster: Cluster, collection: str, *, use_processes: bool = False):
        self.cluster = cluster
        self.collection = collection
        self.use_processes = use_processes

    def _partition_by_worker(self, points: Sequence[PointStruct]
                             ) -> dict[str, list[PointStruct]]:
        """Split the stream so each client feeds its own worker's primary shards.

        Failure-aware: a shard whose primary is dead (or breaker-open) is
        routed to its next live replica, so one downed worker does not stall
        that partition of the upload.  The grouping only picks which client
        *carries* the points — the cluster still fans each write out to the
        full replica chain.
        """
        from .errors import NoReplicaAvailableError

        state = self.cluster._state(self.collection)  # noqa: SLF001 - same package
        by_worker: dict[str, list[PointStruct]] = {}
        holder_for: dict[int, str] = {}
        for p in points:
            shard_id = state.router.shard_for(p.id)
            holder = holder_for.get(shard_id)
            if holder is None:
                try:
                    holder = self.cluster._live_holder(state, shard_id)  # noqa: SLF001
                except NoReplicaAvailableError:
                    holder = state.plan.primary_for(shard_id)
                holder_for[shard_id] = holder
            by_worker.setdefault(holder, []).append(p)
        return by_worker

    def upload(self, points: Sequence[PointStruct], *, batch_size: int = 32,
               columnar: bool = False) -> ParallelUploadReport:
        """Upload the full point stream with one concurrent client per worker.

        With ``columnar=True`` each client ships its batches as columnar
        sub-batches through ``Cluster.upsert_columnar`` — in process mode
        only dense ``(ids, vectors, payloads)`` arrays come back from the
        conversion workers, never per-point Python objects.
        """
        by_worker = self._partition_by_worker(points)
        report = ParallelUploadReport(total_s=0.0, points=len(points), clients=len(by_worker))
        tracer = get_tracer()

        def client_run(worker_id: str, worker_points: list[PointStruct],
                       ctx) -> tuple[str, int, float]:
            t0 = monotonic()
            n_batches = 0
            with tracer.activate(ctx), tracer.span(
                "client.pool_client",
                {"worker": worker_id, "points": len(worker_points)}
                if tracer.enabled else None,
            ):
                inner_ctx = tracer.current_context()
                wire_ctx = inner_ctx.to_wire() if inner_ctx is not None else None
                if self.use_processes:
                    raw = [
                        (p.id, p.as_array().tolist(), dict(p.payload) if p.payload else None)
                        for p in worker_points
                    ]
                    with ProcessPoolExecutor(max_workers=1) as pool:
                        for batch in chunk(raw, batch_size):
                            if columnar:
                                ids, vectors, payloads = pool.submit(
                                    convert_batch_arrays, list(batch), wire_ctx
                                ).result()
                                self.cluster.upsert_columnar(
                                    self.collection,
                                    Batch.from_arrays(ids, vectors, payloads),
                                )
                            else:
                                wire = pool.submit(
                                    convert_batch_worker, list(batch), wire_ctx
                                ).result()
                                self.cluster.upsert(self.collection, wire)
                            n_batches += 1
                else:
                    for batch in chunk(worker_points, batch_size):
                        if columnar:
                            self.cluster.upsert_columnar(
                                self.collection, Batch.from_points(list(batch))
                            )
                        else:
                            wire = [
                                PointStruct(
                                    id=p.id,
                                    vector=np.ascontiguousarray(p.as_array()),
                                    payload=dict(p.payload) if p.payload else None,
                                )
                                for p in batch
                            ]
                            self.cluster.upsert(self.collection, wire)
                        n_batches += 1
            return worker_id, n_batches, monotonic() - t0

        start = monotonic()
        with tracer.span(
            "client.pool_upload",
            {"points": len(points), "clients": len(by_worker),
             "batch_size": batch_size, "columnar": columnar,
             "processes": self.use_processes}
            if tracer.enabled else None,
        ):
            ctx = tracer.current_context()
            if len(by_worker) == 1:
                outcomes = [client_run(*next(iter(by_worker.items())), ctx)]
            else:
                with ThreadPoolExecutor(max_workers=len(by_worker)) as pool:
                    outcomes = list(
                        pool.map(
                            lambda kv: client_run(kv[0], kv[1], ctx),
                            by_worker.items(),
                        )
                    )
        report.total_s = monotonic() - start
        for worker_id, n_batches, elapsed in outcomes:
            report.batches_per_client[worker_id] = n_batches
            report.per_client_s[worker_id] = elapsed
        return report

    def search_many(
        self,
        vectors: Sequence,
        *,
        limit: int = 10,
        clients: int | None = None,
        coalesce: bool = True,
        cache: bool = False,
        allow_partial: bool = False,
    ) -> tuple[list, ParallelQueryReport]:
        """Independent concurrent query clients over one shared coalescer.

        The multi-client half of §3.4: ``clients`` threads (default: one
        per worker, like the upload pool) stripe the vector list and each
        issues plain single-query searches.  With ``coalesce=True`` all
        clients share the *process-wide* coalescer for this cluster, so
        queries that arrive together merge into amortized fan-outs —
        without the clients ever exchanging batches.  ``coalesce=False``
        gives the uncoalesced baseline (each query pays a full fan-out).
        ``cache=True`` additionally enables the cluster's generation-fenced
        result cache, so repeated vectors skip the fan-out entirely (cache
        counters accumulated during the run land on the report).  Results
        preserve input order and are identical either way.
        """
        from .scheduler import QueryCoalescer
        from .types import SearchRequest

        vectors = list(vectors)
        n_clients = clients if clients is not None else max(1, len(self.cluster.workers()))
        n_clients = min(n_clients, len(vectors)) or 1
        if cache:
            self.cluster.enable_cache()
        result_cache = self.cluster.result_cache
        cache_before = result_cache.stats.copy() if result_cache is not None else None
        coalescer = QueryCoalescer.for_cluster(self.cluster) if coalesce else None
        before = coalescer.stats.copy() if coalescer is not None else None
        results: list = [None] * len(vectors)
        tracer = get_tracer()

        def client_run(stripe: int, ctx) -> None:
            with tracer.activate(ctx):
                for i in range(stripe, len(vectors), n_clients):
                    request = SearchRequest(
                        vector=vectors[i], limit=limit, allow_partial=allow_partial
                    )
                    if coalescer is not None:
                        results[i] = coalescer.search(self.collection, request)
                    else:
                        results[i] = self.cluster.search(self.collection, request)

        start = monotonic()
        with tracer.span(
            "client.pool_search",
            {"queries": len(vectors), "clients": n_clients, "coalesce": coalesce}
            if tracer.enabled else None,
        ):
            ctx = tracer.current_context()
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                futures = [
                    pool.submit(client_run, stripe, ctx) for stripe in range(n_clients)
                ]
                for f in futures:
                    f.result()
        report = ParallelQueryReport(
            total_s=monotonic() - start, queries=len(vectors), clients=n_clients
        )
        if coalescer is not None:
            report.coalesce = coalescer.stats.minus(before).snapshot()
        if result_cache is not None:
            report.cache = result_cache.stats.minus(cache_before).snapshot()
        return results, report
