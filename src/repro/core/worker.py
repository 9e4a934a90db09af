"""Stateful worker.

A worker is architecture 1 of Figure 1 in the paper: it *owns* a set of
shards — each shard being a full :class:`~repro.core.collection.Collection`
— and performs the compute for them.  Workers expose a flat RPC-style
method surface (called through a :class:`~repro.core.transport.Transport`):

* shard lifecycle: ``create_shard`` / ``drop_shard`` / ``transfer_shard_out``
* writes: ``upsert`` / ``delete`` / ``set_payload``
* reads: ``search`` / ``search_batch`` / ``retrieve`` / ``scroll`` / ``count``
* maintenance: ``build_index`` / ``optimize`` / ``info``, plus the
  background-driver lifecycle ``enable_maintenance`` /
  ``disable_maintenance`` / ``drain_maintenance`` / ``maintenance_stats``

Workers also keep CPU-work counters (vectors inserted, distance
computations, index build sizes) that the performance model reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from ..obs.clock import monotonic
from ..obs.metrics import Counters
from ..obs.trace import get_tracer
from .cache import CachePolicy, ShardResultCache
from .collection import Collection
from .errors import BadRequestError, ShardRetiredError
from .filters import Condition
from .maintenance import MaintenanceDriver
from .ops import Op
from .optimizer import OptimizerReport
from .types import (
    CollectionConfig,
    PointId,
    PointStruct,
    Record,
    ScoredPoint,
    SearchRequest,
)

__all__ = ["Worker", "WorkerStats"]


@dataclass
class WorkerStats(Counters):
    """CPU-work counters the perf model charges time for."""

    vectors_inserted: int = 0
    batches_received: int = 0
    searches_served: int = 0
    queries_served: int = 0
    index_builds: list[tuple[str, int, int]] = field(default_factory=list)
    #: (collection, shard, n_vectors) per build
    #: Wall time spent serving search/search_batch calls.
    search_seconds: float = 0.0
    #: Wall time spent building indexes (build_index calls).
    build_seconds: float = 0.0
    #: Wall time spent applying writes (upsert/upsert_columnar/delete).
    write_seconds: float = 0.0
    #: Vector payload bytes ingested via upserts.
    bytes_ingested: int = 0


class Worker:
    """One stateful vector-database worker process (in-process model)."""

    def __init__(self, worker_id: str, *, node_id: str | None = None):
        self.worker_id = worker_id
        #: Compute node hosting this worker (4 per node on Polaris, §3.2).
        self.node_id = node_id
        # Its lock guards every update: the cluster may issue concurrent
        # calls to the same worker (e.g. parallel per-shard index builds).
        self.stats = WorkerStats()
        # (collection_name, shard_id) -> Collection
        self._shards: dict[tuple[str, int], Collection] = {}
        # (collection_name, shard_id) -> background maintenance driver
        self._maintenance: dict[tuple[str, int], MaintenanceDriver] = {}
        # Per-shard result cache (second cache tier); enabled by the cluster.
        self._shard_cache: ShardResultCache | None = None

    # -- stats ---------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every counter set this worker owns — its own, the shard
        cache's, and each shard's swap and maintenance-driver counters —
        each under its own lock, so a concurrent update lands wholly before
        or wholly after the reset."""
        self.stats.reset()
        cache = self._shard_cache
        if cache is not None:
            cache.stats.reset()
        for shard in list(self._shards.values()):
            shard.maint_stats.reset()
        for driver in list(self._maintenance.values()):
            driver.stats.reset()

    def snapshot_stats(self) -> dict:
        """Consistent copy of the counters, taken under the stats lock."""
        return self.stats.snapshot()

    # -- shard lifecycle -----------------------------------------------------

    def create_shard(self, collection: str, shard_id: int, config: CollectionConfig) -> None:
        key = (collection, shard_id)
        if key in self._shards:
            raise BadRequestError(
                f"shard {shard_id} of {collection!r} already exists on {self.worker_id}"
            )
        shard_config = config.with_(name=f"{collection}#shard{shard_id}")
        wal = config.wal
        if wal.enabled and (wal.path is None or os.path.isdir(wal.path)
                            or wal.path.endswith(os.sep)):
            # Every worker gets the collection's one WalConfig; a directory of
            # its own keeps a shard move's source and target (both in this
            # process) from opening, and replaying, one log file.
            own_dir = os.path.join(wal.path or ".", self.worker_id, "")
            shard_config = shard_config.with_(wal=replace(wal, path=own_dir))
        self._shards[key] = Collection(shard_config)

    def drop_shard(self, collection: str, shard_id: int) -> None:
        driver = self._maintenance.pop((collection, shard_id), None)
        if driver is not None:
            driver.stop()
        self._shards.pop((collection, shard_id), None)
        if self._shard_cache is not None:
            self._shard_cache.drop_shard(collection, shard_id)

    def has_shard(self, collection: str, shard_id: int) -> bool:
        return (collection, shard_id) in self._shards

    def shard_ids(self, collection: str) -> list[int]:
        return sorted(s for (c, s) in self._shards if c == collection)

    def _shard(self, collection: str, shard_id: int) -> Collection:
        try:
            return self._shards[(collection, shard_id)]
        except KeyError:
            raise ShardRetiredError(collection, shard_id) from None

    def transfer_shard_out(self, collection: str, shard_id: int) -> list[PointStruct]:
        """Export all points of a shard (used during rebalancing)."""
        shard = self._shard(collection, shard_id)
        # Finish any in-flight background pass first: the export must see a
        # settled segment list, not one mid-swap.
        driver = self._maintenance.get((collection, shard_id))
        if driver is not None:
            driver.drain()
        points = []
        for seg in shard.segments:
            for record in seg.iter_points(with_vector=True):
                points.append(
                    PointStruct(id=record.id, vector=record.vector, payload=record.payload)
                )
        return points

    def transfer_shard_in(
        self, collection: str, shard_id: int, config: CollectionConfig,
        points: list[PointStruct],
    ) -> int:
        """Import a shard's points (target side of a rebalance move)."""
        if not self.has_shard(collection, shard_id):
            self.create_shard(collection, shard_id, config)
        if points:
            self._shard(collection, shard_id).upsert(points)
            with self.stats._lock:
                self.stats.vectors_inserted += len(points)
        return len(points)

    # -- live shard migration RPCs --------------------------------------------
    #
    # Source-side protocol: ``begin_shard_migration`` pauses the shard's
    # maintenance driver (pins must survive the copy), pins a row snapshot
    # and opens the mutation journal; ``transfer_shard_out_columnar`` streams
    # one pinned chunk; ``drain_shard_journal`` hands over mid-copy
    # mutations; ``end_shard_migration`` releases pins and resumes
    # maintenance.  Target-side: ``transfer_shard_in_chunk`` imports one
    # columnar chunk idempotently, ``apply_shard_journal`` replays a drain.

    def begin_shard_migration(self, collection: str, shard_id: int) -> dict:
        shard = self._shard(collection, shard_id)
        driver = self._maintenance.get((collection, shard_id))
        if driver is not None:
            driver.pause()
        try:
            rows = shard.begin_migration()
        except BaseException:
            if driver is not None:
                driver.resume()
            raise
        return {"rows": rows}

    def transfer_shard_out_columnar(
        self, collection: str, shard_id: int, cursor: int, max_rows: int
    ) -> dict:
        """Export one chunk of the pinned migration snapshot."""
        return self._shard(collection, shard_id).migration_chunk(cursor, max_rows)

    def drain_shard_journal(self, collection: str, shard_id: int) -> list[Op]:
        return self._shard(collection, shard_id).drain_migration_journal()

    def end_shard_migration(
        self, collection: str, shard_id: int, *, retire: bool = False
    ) -> dict:
        shard = self._shard(collection, shard_id)
        out = shard.end_migration(retire=retire)
        driver = self._maintenance.get((collection, shard_id))
        if driver is not None:
            driver.resume()
        return out

    def transfer_shard_in_chunk(
        self, collection: str, shard_id: int, config: CollectionConfig,
        ids, vectors, payloads,
    ) -> int:
        """Import one columnar migration chunk (idempotent: re-sent chunks
        after a transport retry overwrite rather than duplicate)."""
        from .batch import Batch

        if not self.has_shard(collection, shard_id):
            self.create_shard(collection, shard_id, config)
        n = len(ids)
        if n == 0:
            return 0
        batch = Batch.from_arrays(ids, vectors, payloads)
        self._shard(collection, shard_id).upsert_columnar(batch)
        with self.stats._lock:
            self.stats.vectors_inserted += n
        return n

    def apply_shard_journal(
        self, collection: str, shard_id: int, entries: list[Op]
    ) -> int:
        """Replay drained journal records on the migration target."""
        return self._shard(collection, shard_id).apply_migration_entries(entries)

    def migration_stats(self, collection: str, shard_id: int) -> dict:
        return self._shard(collection, shard_id).migration_stats()

    # -- writes -------------------------------------------------------------

    def upsert(self, collection: str, shard_id: int, points: Sequence[PointStruct]):
        tracer = get_tracer()
        t0 = monotonic()
        points = list(points)
        with tracer.span(
            "worker.upsert",
            {"worker": self.worker_id, "shard": shard_id, "points": len(points)}
            if tracer.enabled else None,
        ):
            result = self._shard(collection, shard_id).upsert(points)
        # The cluster fans writes for *different* shards of this worker out
        # concurrently, so the counters need the same lock the read path uses.
        with self.stats._lock:
            self.stats.vectors_inserted += len(points)
            self.stats.batches_received += 1
            self.stats.bytes_ingested += sum(p.as_array().nbytes for p in points)
            self.stats.write_seconds += monotonic() - t0
        return result

    def upsert_columnar(self, collection: str, shard_id: int, batch):
        """Columnar upsert of a routed sub-batch."""
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "worker.upsert",
            {"worker": self.worker_id, "shard": shard_id, "points": len(batch),
             "columnar": True}
            if tracer.enabled else None,
        ):
            result = self._shard(collection, shard_id).upsert_columnar(batch)
        with self.stats._lock:
            self.stats.vectors_inserted += len(batch)
            self.stats.batches_received += 1
            self.stats.bytes_ingested += batch.nbytes
            self.stats.write_seconds += monotonic() - t0
        return result

    def delete(self, collection: str, shard_id: int, point_ids: Sequence[PointId]):
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "worker.delete",
            {"worker": self.worker_id, "shard": shard_id}
            if tracer.enabled else None,
        ):
            result = self._shard(collection, shard_id).delete(list(point_ids))
        with self.stats._lock:
            self.stats.write_seconds += monotonic() - t0
        return result

    def flush_wal(self, collection: str, shard_id: int) -> None:
        """Push out any group-commit buffered WAL records for one shard."""
        self._shard(collection, shard_id).flush_wal()

    def set_payload(
        self, collection: str, shard_id: int, point_id: PointId,
        payload: Mapping[str, Any] | None,
    ):
        return self._shard(collection, shard_id).set_payload(point_id, payload)

    # -- reads ----------------------------------------------------------------

    def search(self, collection: str, shard_ids: Sequence[int], request: SearchRequest
               ) -> list[ScoredPoint]:
        """Search the given local shards and return merged local hits."""
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "worker.search",
            {"worker": self.worker_id, "shards": len(shard_ids)}
            if tracer.enabled else None,
        ):
            hits: list[ScoredPoint] = []
            for shard_id in shard_ids:
                shard_hits = self._shard(collection, shard_id).search(request)
                for h in shard_hits:
                    h.shard_id = shard_id
                hits.extend(shard_hits)
        with self.stats._lock:
            self.stats.searches_served += 1
            self.stats.queries_served += 1
            self.stats.search_seconds += monotonic() - t0
        return hits

    def search_batch(
        self, collection: str, shard_ids: Sequence[int], requests: Sequence[SearchRequest]
    ) -> list[list[ScoredPoint]]:
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "worker.search_batch",
            {"worker": self.worker_id, "shards": len(shard_ids),
             "requests": len(requests)}
            if tracer.enabled else None,
        ):
            out: list[list[ScoredPoint]] = [[] for _ in requests]
            for shard_id in shard_ids:
                shard = self._shard(collection, shard_id)
                for qi, hits in enumerate(shard.search_batch(list(requests))):
                    for h in hits:
                        h.shard_id = shard_id
                    out[qi].extend(hits)
        with self.stats._lock:
            self.stats.searches_served += 1
            self.stats.queries_served += len(requests)
            self.stats.search_seconds += monotonic() - t0
        return out

    # -- fenced (cacheable) reads ---------------------------------------------

    def enable_shard_cache(self, policy: CachePolicy | None = None) -> bool:
        """Create this worker's shard-result cache (idempotent)."""
        if self._shard_cache is not None:
            return False
        self._shard_cache = ShardResultCache(policy)
        return True

    def disable_shard_cache(self) -> bool:
        cache, self._shard_cache = self._shard_cache, None
        return cache is not None

    def shard_cache_snapshot(self) -> dict | None:
        """Counters of the shard-result cache, or None when disabled."""
        cache = self._shard_cache
        return None if cache is None else cache.snapshot()

    def _search_shard_fenced(
        self, collection: str, shard_id: int, request: SearchRequest,
        fingerprint: str, gens: dict[int, int],
    ) -> list[ScoredPoint]:
        """Search one shard through the shard-result cache.

        The generation is read before and after the actual search: the
        result is cached only if the shard did not mutate underneath it
        (otherwise the hits may reflect a state no generation names), and
        the generation reported upward is always one the hits are valid
        *at or before* — a concurrently landed write yields a newer
        generation, which correctly fences the cluster-tier entry.
        """
        shard = self._shard(collection, shard_id)
        cache = self._shard_cache
        gen = shard.generation
        if cache is not None:
            cached = cache.lookup(collection, shard_id, fingerprint, gen)
            if cached is not None:
                gens[shard_id] = gen
                return cached
        shard_hits = shard.search(request)
        for h in shard_hits:
            h.shard_id = shard_id
        gen_after = shard.generation
        if cache is not None and gen_after == gen:
            cache.fill(collection, shard_id, fingerprint, shard_hits, gen)
        gens[shard_id] = gen_after
        return shard_hits

    def search_fenced(
        self, collection: str, shard_ids: Sequence[int],
        payload: tuple[SearchRequest, str],
    ) -> tuple[list[ScoredPoint], dict[int, int]]:
        """Like :meth:`search`, but consults the shard-result cache and
        returns the observed ``{shard_id: generation}`` vector alongside
        the hits so the cluster tier can fence its own cache entry."""
        request, fingerprint = payload
        tracer = get_tracer()
        t0 = monotonic()
        gens: dict[int, int] = {}
        with tracer.span(
            "worker.search_fenced",
            {"worker": self.worker_id, "shards": len(shard_ids)}
            if tracer.enabled else None,
        ):
            hits: list[ScoredPoint] = []
            for shard_id in shard_ids:
                hits.extend(
                    self._search_shard_fenced(
                        collection, shard_id, request, fingerprint, gens
                    )
                )
        with self.stats._lock:
            self.stats.searches_served += 1
            self.stats.queries_served += 1
            self.stats.search_seconds += monotonic() - t0
        return hits, gens

    def search_batch_fenced(
        self, collection: str, shard_ids: Sequence[int],
        payload: tuple[Sequence[SearchRequest], Sequence[str]],
    ) -> tuple[list[list[ScoredPoint]], dict[int, int]]:
        """Batched :meth:`search_fenced`: per-request hit lists plus one
        merged ``{shard_id: generation}`` vector (the max generation each
        shard was observed at across the batch)."""
        requests, fingerprints = payload
        tracer = get_tracer()
        t0 = monotonic()
        gens: dict[int, int] = {}
        with tracer.span(
            "worker.search_batch_fenced",
            {"worker": self.worker_id, "shards": len(shard_ids),
             "requests": len(requests)}
            if tracer.enabled else None,
        ):
            out: list[list[ScoredPoint]] = [[] for _ in requests]
            for shard_id in shard_ids:
                shard_gens: dict[int, int] = {}
                for qi, request in enumerate(requests):
                    out[qi].extend(
                        self._search_shard_fenced(
                            collection, shard_id, request,
                            fingerprints[qi], shard_gens,
                        )
                    )
                    if shard_gens[shard_id] > gens.get(shard_id, -1):
                        gens[shard_id] = shard_gens[shard_id]
        with self.stats._lock:
            self.stats.searches_served += 1
            self.stats.queries_served += len(requests)
            self.stats.search_seconds += monotonic() - t0
        return out, gens

    def retrieve(self, collection: str, shard_id: int, point_id: PointId,
                 *, with_vector: bool = False, with_payload: bool = True) -> Record:
        return self._shard(collection, shard_id).retrieve(
            point_id, with_vector=with_vector, with_payload=with_payload
        )

    def scroll(self, collection: str, shard_id: int, *, offset_id=None, limit: int = 100,
               flt: Condition | None = None, with_payload: bool = True,
               with_vector: bool = False):
        return self._shard(collection, shard_id).scroll(
            offset_id=offset_id, limit=limit, flt=flt,
            with_payload=with_payload, with_vector=with_vector,
        )

    def count(self, collection: str, shard_id: int) -> int:
        return len(self._shard(collection, shard_id))

    def contains(self, collection: str, shard_id: int, point_id: PointId) -> bool:
        return self._shard(collection, shard_id).contains(point_id)

    # -- maintenance -------------------------------------------------------------

    def build_index(self, collection: str, shard_id: int, kind: str = "hnsw"
                    ) -> OptimizerReport:
        tracer = get_tracer()
        t0 = monotonic()
        with tracer.span(
            "worker.build_index",
            {"worker": self.worker_id, "shard": shard_id, "kind": kind}
            if tracer.enabled else None,
        ):
            report = self._shard(collection, shard_id).build_index(kind)
        with self.stats._lock:
            self.stats.build_seconds += monotonic() - t0
            for _, n in report.index_builds:
                self.stats.index_builds.append((collection, shard_id, n))
        return report

    def optimize(self, collection: str, shard_id: int) -> OptimizerReport:
        return self._shard(collection, shard_id).optimize()

    def enable_maintenance(self, collection: str, shard_id: int,
                           *, interval_s: float = 0.05) -> bool:
        """Start a background maintenance driver for one shard.

        Returns False when one is already running.  While enabled, the
        write path never runs the optimizer inline — upserts only nudge
        the driver.
        """
        key = (collection, shard_id)
        if key in self._maintenance:
            return False
        shard = self._shard(collection, shard_id)
        self._maintenance[key] = MaintenanceDriver(
            shard, interval_s=interval_s
        ).start()
        return True

    def disable_maintenance(self, collection: str, shard_id: int,
                            *, drain: bool = True) -> bool:
        """Stop a shard's driver; with ``drain`` run one final pass."""
        driver = self._maintenance.pop((collection, shard_id), None)
        if driver is None:
            return False
        driver.stop(drain=drain)
        return True

    def drain_maintenance(self, collection: str, shard_id: int) -> bool:
        """Synchronously complete maintenance for one shard, if enabled."""
        driver = self._maintenance.get((collection, shard_id))
        if driver is None:
            return False
        driver.drain()
        return True

    def maintenance_stats(self, collection: str, shard_id: int) -> dict:
        """Driver counters + collection swap-protocol counters for a shard."""
        shard = self._shard(collection, shard_id)
        driver = self._maintenance.get((collection, shard_id))
        out = {"enabled": driver is not None}
        out.update(shard.maint_stats.snapshot())
        if driver is not None:
            out["driver"] = driver.stats.snapshot()
        return out

    def create_payload_index(self, collection: str, shard_id: int, key: str,
                             *, kind: str = "keyword") -> None:
        self._shard(collection, shard_id).create_payload_index(key, kind=kind)

    def info(self, collection: str, shard_id: int):
        return self._shard(collection, shard_id).info()

    def ping(self) -> str:
        return self.worker_id

    def healthcheck(self) -> dict:
        """Cheap liveness probe used by the cluster's circuit breaker.

        Deliberately touches no shard data (no locks beyond a dict size),
        so a probe cannot stall behind a heavy query — the half-open
        breaker uses it to decide whether to re-admit this worker.
        """
        return {"worker_id": self.worker_id, "shards": len(self._shards)}
