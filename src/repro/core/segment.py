"""Segments: the unit of storage and search inside a shard.

A segment owns a :class:`~repro.core.storage.VectorArena`, an
:class:`~repro.core.storage.IdTracker`, a payload store, and zero or one ANN
index.  Mirroring Qdrant's design:

* a fresh segment is **appendable** and served by exact scan (flat);
* the optimizer **seals** segments and builds an ANN index over them once
  they cross the collection's ``indexing_threshold``;
* deletes are tombstones everywhere; a **vacuum** rewrite reclaims space.

For COSINE collections, vectors are L2-normalised on write so scoring
reduces to dot products throughout the stack.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..obs.metrics import get_registry
from . import distances
from .errors import DimensionMismatchError, PointNotFoundError, SegmentSealedError
from .filters import Condition
from .index import FlatIndex, make_index
from .index.base import OffsetPredicate
from .payload import PayloadStore
from .quantization import CodeStore, ScalarQuantizer
from .storage import IdTracker, VectorArena
from .types import CollectionConfig, Distance, PointId, PointStruct, Record, ScoredPoint

__all__ = ["Segment"]

_segment_ids = itertools.count()


class Segment:
    """One storage + search unit; a shard holds one or more of these."""

    def __init__(self, config: CollectionConfig, *, directory: str | None = None):
        self.segment_id = next(_segment_ids)
        self.config = config
        self._dim = config.vectors.size
        self._distance = config.vectors.distance
        self._arena = VectorArena(
            self._dim, on_disk=config.vectors.on_disk, directory=directory
        )
        self._ids = IdTracker()
        self._payloads = PayloadStore()
        self._index = None  # ANN index (built by optimizer / build_index)
        self._index_kind: str | None = None
        self._sealed = False
        self._quantizer: ScalarQuantizer | None = None
        self._codes: CodeStore | None = None
        #: Quantized-path counters, aggregated by cluster telemetry:
        #: ``scans`` quantized first passes served, ``scanned_codes`` code
        #: rows scored in them, ``rescored`` candidates exact-rescored.
        self.quant_stats = {"scans": 0, "scanned_codes": 0, "rescored": 0}
        # Process-wide quantizer metrics, bound once: a by-name registry
        # lookup takes the registry's lock on every scan.
        registry = get_registry()
        self._scan_counter = registry.counter("quant.scan")
        self._scan_hist = registry.histogram("quant.scan_s")
        self._rescore_counter = registry.counter("quant.rescore")
        self._rescore_hist = registry.histogram("quant.rescore_s")

    # -- introspection -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def distance(self) -> Distance:
        return self._distance

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    @property
    def is_indexed(self) -> bool:
        return self._index is not None

    @property
    def index_kind(self) -> str | None:
        return self._index_kind

    @property
    def index(self):
        return self._index

    @property
    def deleted_ratio(self) -> float:
        total = self._ids.total_offsets
        return 0.0 if total == 0 else self._ids.deleted_count / total

    @property
    def nbytes(self) -> int:
        return self._arena.nbytes

    @property
    def payload_store(self) -> PayloadStore:
        return self._payloads

    def contains(self, point_id: PointId) -> bool:
        return self._ids.contains(point_id)

    def point_ids(self) -> list[PointId]:
        return self._ids.live_ids()

    # -- write path -----------------------------------------------------------

    def _prepare_vector(self, vector: np.ndarray) -> np.ndarray:
        vec = np.asarray(vector, dtype=np.float32)
        if vec.shape != (self._dim,):
            raise DimensionMismatchError(self._dim, int(vec.shape[-1]) if vec.ndim else 0)
        if self._distance is Distance.COSINE:
            vec = distances.normalize(vec)
        return vec

    def upsert(self, point: PointStruct) -> None:
        """Insert or overwrite a single point."""
        if self._sealed:
            raise SegmentSealedError(f"segment {self.segment_id} is sealed")
        vec = self._prepare_vector(point.as_array())
        if self._ids.contains(point.id):
            offset = self._ids.offset_of(point.id)
            self._arena.overwrite(offset, vec)
            if self._codes is not None:
                self._codes.overwrite(offset, self._quantizer.encode(vec))
        else:
            offset = self._arena.append(vec)
            # Codes before the id: a lock-free quantized scan gathers a code
            # row for every registered id.
            if self._codes is not None:
                self._codes.extend(self._quantizer.encode(vec[None, :]))
            self._ids.register(point.id, offset)
            if self._index is not None and self._index.supports_incremental_add:
                self._index.add(offset, vec)
        self._payloads.set(point.id, point.payload)

    def upsert_batch(self, points: Iterable[PointStruct]) -> int:
        """Insert a batch; returns the number of points written.

        New points are appended with one vectorized arena extend; existing
        ids fall back to per-point overwrite.
        """
        if self._sealed:
            raise SegmentSealedError(f"segment {self.segment_id} is sealed")
        points = list(points)
        fresh = [p for p in points if not self._ids.contains(p.id)]
        existing = [p for p in points if self._ids.contains(p.id)]
        if fresh:
            mat = np.stack([p.as_array() for p in fresh])
            if mat.shape[1] != self._dim:
                raise DimensionMismatchError(self._dim, mat.shape[1])
            if self._distance is Distance.COSINE:
                mat = distances.normalize_batch(mat)
            offsets = self._arena.extend(mat)
            if self._codes is not None:  # codes before ids, as in upsert
                self._codes.extend(self._quantizer.encode(mat))
            self._ids.register_batch([p.id for p in fresh], offsets)
            for p, off in zip(fresh, offsets):
                self._payloads.set(p.id, p.payload)
                if self._index is not None and self._index.supports_incremental_add:
                    self._index.add(int(off), mat[int(off) - int(offsets[0])])
        for p in existing:
            self.upsert(p)
        return len(points)

    def upsert_columnar(self, ids: np.ndarray, vectors: np.ndarray,
                        payloads: list) -> int:
        """Vectorized append of *fresh* ids from a columnar batch.

        All ids must be new to this segment (the collection routes
        overwrites through the per-point path first).  One normalisation
        pass and one arena extend cover the whole batch.
        """
        if self._sealed:
            raise SegmentSealedError(f"segment {self.segment_id} is sealed")
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self._dim:
            raise DimensionMismatchError(self._dim, vectors.shape[-1] if vectors.ndim else 0)
        if self._distance is Distance.COSINE:
            vectors = distances.normalize_batch(vectors)
        offsets = self._arena.extend(vectors)
        if self._codes is not None:  # codes before ids, as in upsert
            self._codes.extend(self._quantizer.encode(vectors))
        id_list = np.asarray(ids, dtype=np.int64).tolist()
        self._ids.register_batch(id_list, offsets)
        for pid, payload in zip(id_list, payloads):
            self._payloads.set(pid, payload)
        if self._index is not None and self._index.supports_incremental_add:
            for off, vec in zip(offsets, vectors):
                self._index.add(int(off), vec)
        return len(offsets)

    def delete(self, point_id: PointId) -> None:
        """Tombstone a point (space reclaimed on vacuum)."""
        offset = self._ids.mark_deleted(point_id)
        self._payloads.delete(point_id)
        if isinstance(self._index, FlatIndex):
            try:
                self._index.remove(offset)
            except ValueError:
                pass

    def set_payload(self, point_id: PointId, payload: Mapping[str, Any] | None) -> None:
        if not self._ids.contains(point_id):
            raise PointNotFoundError(point_id)
        self._payloads.set(point_id, payload)

    # -- lifecycle -------------------------------------------------------------

    def seal(self) -> None:
        """Make the segment immutable (precedes index build / merge).

        Sealing also compiles a present index into its sealed form (HNSW
        trims its link arrays) — no more mutations can unseal it.
        """
        self._sealed = True
        if self._index is not None and hasattr(self._index, "compile"):
            self._index.compile()

    def build_index(self, kind: str = "hnsw") -> None:
        """Build an ANN index over all live vectors (deferred-index path)."""
        index = make_index(kind, self._arena, self.config)
        live = self._ids.live_offsets()
        index.build(self._arena.take(live), live)
        self.install_index(index, kind)

    def install_index(self, index, kind: str) -> None:
        """Adopt an already-built index (parallel build workers use this).

        Compiles the index when it supports a sealed form; for an appendable
        segment the next ``add`` simply unseals it, so compiling eagerly is
        always safe.
        """
        if hasattr(index, "compile"):
            index.compile()
        self._index = index
        self._index_kind = kind
        if self._quantizer is not None and hasattr(index, "attach_quantization"):
            index.attach_quantization(self._codes, self._quantizer)

    def drop_index(self) -> None:
        self._index = None
        self._index_kind = None

    def prepare_quantization(self) -> tuple[ScalarQuantizer, CodeStore]:
        """Train a quantizer and encode all vectors, without adopting them.

        The pure-build half of :meth:`enable_quantization`: background
        maintenance calls this off-lock (the arena of a sealed/pinned
        segment cannot change underneath it) and adopts the result inside
        the swap critical section.
        """
        qc = self.config.quantization
        live = self._ids.live_offsets()
        if live.size == 0:
            raise ValueError("cannot quantize an empty segment")
        quantizer = ScalarQuantizer(qc.quantile)
        quantizer.train(self._arena.take(live))
        codes = CodeStore(self._dim)
        codes.extend(quantizer.encode(self._arena.view()))
        return quantizer, codes

    def adopt_quantization(self, quantizer: ScalarQuantizer, codes: CodeStore) -> None:
        """Install a pre-trained quantizer + code store.

        Codes are published *before* the quantizer: racing searches gate on
        ``_quantizer is not None`` and then assume ``_codes`` exists, so
        this order keeps lock-free readers consistent.
        """
        self._codes = codes
        self._quantizer = quantizer
        if self._index is not None and hasattr(self._index, "attach_quantization"):
            self._index.attach_quantization(codes, quantizer)

    def enable_quantization(self) -> None:
        """Train the scalar quantizer and encode all vectors into a
        :class:`CodeStore`.

        The store is offset-aligned with the arena and maintained
        incrementally by the write path, so later upserts never leave stale
        codes behind.  When an index supporting quantized traversal is
        installed (HNSW), the codes are attached to it — indexing and
        quantization compose instead of excluding each other.
        """
        quantizer, codes = self.prepare_quantization()
        self.adopt_quantization(quantizer, codes)

    @property
    def is_quantized(self) -> bool:
        return self._quantizer is not None

    def export_columnar(self) -> tuple[list[PointId], np.ndarray, list]:
        """``(ids, vectors, payloads)`` for all live points, arena order.

        The columnar twin of :meth:`iter_points`; merge/rewrite feed it
        straight into :meth:`upsert_columnar` on the destination segment —
        one gather + one vectorized append instead of a per-point loop.
        """
        live = self._ids.live_offsets()
        ids = [self._ids.id_at(int(off)) for off in live]
        vectors = self._arena.take(live)
        payloads = [self._payloads.get(pid) for pid in ids]
        return ids, vectors, payloads

    def pin_live_offsets(self) -> np.ndarray:
        """Live offsets right now — the pinned cursor space for chunked export."""
        return self._ids.live_offsets()

    def export_rows(self, offsets: np.ndarray) -> tuple[list[PointId], np.ndarray, list]:
        """``(ids, vectors, payloads)`` for a pinned offset slice.

        Offsets may have been tombstoned since they were pinned: the id
        tracker keeps tombstoned entries resolvable, so the row still
        exports (a mutation journal replays the delete afterwards).
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        ids = [self._ids.id_at(int(off)) for off in offsets]
        vectors = self._arena.take(offsets)
        payloads = [self._payloads.get(pid) for pid in ids]
        return ids, vectors, payloads

    def rewrite_live(self) -> "Segment":
        """Copy-on-write rewrite: live points only, into a fresh segment.

        Secondary payload indexes carry over *per kind* — numeric keys get
        numeric indexes again (recreating everything as keyword indexes
        silently killed range prefiltering after every vacuum).
        """
        fresh = Segment(self.config)
        ids, vectors, payloads = self.export_columnar()
        if len(ids):
            fresh.upsert_columnar(np.asarray(ids, dtype=np.int64), vectors, payloads)
        for key in self._payloads.keyword_indexed_keys:
            fresh.payload_store.create_keyword_index(key)
        for key in self._payloads.numeric_indexed_keys:
            fresh.payload_store.create_numeric_index(key)
        if self._quantizer is not None and len(fresh):
            # The rewrite compacts offsets, so codes are re-derived (and the
            # range retrained) over the surviving vectors.
            fresh.enable_quantization()
        return fresh

    def vacuum(self) -> "Segment":
        """Rewrite into a fresh appendable segment without tombstones."""
        return self.rewrite_live()

    # -- read path ---------------------------------------------------------------

    def retrieve(
        self, point_id: PointId, *, with_vector: bool = False, with_payload: bool = True
    ) -> Record:
        offset = self._ids.offset_of(point_id)
        return Record(
            id=point_id,
            payload=self._payloads.get(point_id) if with_payload else None,
            vector=self._arena.get(offset).copy() if with_vector else None,
        )

    def scroll(
        self,
        *,
        offset_id: PointId | None = None,
        limit: int = 100,
        flt: Condition | None = None,
        with_payload: bool = True,
        with_vector: bool = False,
    ) -> tuple[list[Record], PointId | None]:
        """Paginate points in ascending id order; returns (page, next_id)."""
        ids = sorted(self._ids.live_ids())
        if offset_id is not None:
            ids = [i for i in ids if i >= offset_id]
        out: list[Record] = []
        for pid in ids:
            if flt is not None and not self._payloads.evaluate(flt, pid):
                continue
            if len(out) == limit:
                return out, pid
            out.append(self.retrieve(pid, with_vector=with_vector, with_payload=with_payload))
        return out, None

    def iter_points(self, *, with_vector: bool = True) -> Iterator[Record]:
        for pid in self._ids.live_ids():
            yield self.retrieve(pid, with_vector=with_vector)

    # -- search ---------------------------------------------------------------------

    def _offset_predicate(self, flt: Condition | None) -> OffsetPredicate | None:
        """Compose the deletion bitmap with an optional payload filter.

        Uses the payload store's prefilter (secondary indexes) when it can
        narrow the candidate set — Qdrant-style prefiltering.
        """
        has_deleted = self._ids.deleted_count > 0
        if flt is None:
            if not has_deleted:
                return None
            return lambda off: not self._ids.is_deleted(off)

        candidates = self._payloads.prefilter_candidates(flt)
        ids = self._ids
        payloads = self._payloads
        if candidates is not None:
            def predicate(off: int) -> bool:
                if ids.is_deleted(off):
                    return False
                pid = ids.id_at(off)
                return pid in candidates and payloads.evaluate(flt, pid)
        else:
            def predicate(off: int) -> bool:
                if ids.is_deleted(off):
                    return False
                return payloads.evaluate(flt, ids.id_at(off))
        return predicate

    def _live_offsets_filtered(self, flt: Condition | None) -> np.ndarray:
        """Live offsets passing the payload filter, gathered once per call.

        ``IdTracker.live_offsets`` already excludes tombstones, so unlike
        :meth:`_offset_predicate` there is no per-offset deletion recheck;
        batch paths call this once and reuse the array for every query.
        """
        live = self._ids.live_offsets()
        if flt is None or live.size == 0:
            return live
        ids, payloads = self._ids, self._payloads
        candidates = payloads.prefilter_candidates(flt)
        if candidates is not None:
            keep = [
                o
                for o in live
                if (pid := ids.id_at(int(o))) in candidates
                and payloads.evaluate(flt, pid)
            ]
        else:
            keep = [o for o in live if payloads.evaluate(flt, ids.id_at(int(o)))]
        return np.asarray(keep, dtype=np.int64)

    def _gather_codes(
        self, live: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, Σc, Σc²)`` rows for ``live`` — zero-copy views when the
        segment has no tombstones and no filter narrowed the set."""
        assert self._codes is not None
        n = live.size
        if n == len(self._codes):
            # ``live`` is rows 0..n-1; a row an append published after the
            # length check must not join this scan.
            codes = self._codes.view()[:n]
            sums, sq = self._codes.corrections()
            sums, sq = sums[:n], sq[:n]
        else:
            codes = self._codes.take(live)
            sums, sq = self._codes.corrections(live)
        return codes, sums, sq

    def _quantized_refine(
        self,
        query: np.ndarray,
        k: int,
        live: np.ndarray,
        scores: np.ndarray,
        rescore: bool | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared second half of the quantized scan: keep the approximate
        top ``rescore_factor·k`` and (optionally) exact-rescore them."""
        qc = self.config.quantization
        refine_k = min(live.size, max(k, qc.rescore_factor * k))
        idx, _ = distances.top_k(scores, refine_k, self._distance)
        cand = live[idx]
        do_rescore = qc.rescore if rescore is None else rescore
        if do_rescore:
            t0 = time.perf_counter()
            exact = distances.score_batch(self._arena.take(cand), query, self._distance)
            idx2, top = distances.top_k(exact, k, self._distance)
            self._rescore_counter.inc()
            self._rescore_hist.observe(time.perf_counter() - t0)
            self.quant_stats["rescored"] += int(cand.size)
            return cand[idx2], top
        return cand[:k], scores[idx][:k]

    def _quantized_scan(
        self,
        query: np.ndarray,
        k: int,
        live: np.ndarray,
        *,
        rescore: bool | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integer-domain scan over uint8 codes + exact rescore of the top
        ``rescore_factor·k`` candidates.

        The first pass never decodes the code matrix: the query is
        quantized and scored via the exact integer kernels, so per-query
        cost is one GEMV over the codes plus O(n) float64 corrections.
        """
        assert self._quantizer is not None and self._codes is not None
        if live.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        codes, sums, sq = self._gather_codes(live)
        qq = self._quantizer.encode_query(query)
        t0 = time.perf_counter()
        scores = self._quantizer.score_codes(codes, sums, sq, qq, self._distance)
        self._scan_counter.inc()
        self._scan_hist.observe(time.perf_counter() - t0)
        self.quant_stats["scans"] += 1
        self.quant_stats["scanned_codes"] += int(live.size)
        return self._quantized_refine(query, k, live, scores, rescore)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        flt: Condition | None = None,
        exact: bool = False,
        ef: int | None = None,
        nprobe: int | None = None,
        with_payload: bool = False,
        with_vector: bool = False,
        score_threshold: float | None = None,
        quantization_rescore: bool | None = None,
    ) -> list[ScoredPoint]:
        """Top-k search over this segment, honouring filters and tombstones.

        With both an index and a quantizer present, indexed traversal runs
        over the quantized codes (with exact rescore of the beam output)
        when the index supports it — quantization and HNSW compose rather
        than excluding each other.
        """
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self._dim,):
            raise DimensionMismatchError(self._dim, int(query.shape[-1]) if query.ndim else 0)
        if self._distance is Distance.COSINE:
            query = distances.normalize(query)

        if self._index is not None and not exact:
            predicate = self._offset_predicate(flt)
            offsets, scores = self._index.search(
                query, k, predicate=predicate, ef=ef, nprobe=nprobe,
                **self._index_quant_params(quantization_rescore),
            )
        elif self._quantizer is not None and not exact:
            live = self._live_offsets_filtered(flt)
            offsets, scores = self._quantized_scan(
                query, k, live, rescore=quantization_rescore
            )
        else:
            offsets, scores = self._flat_scan(query, k, self._offset_predicate(flt))
        return self._postprocess(
            offsets,
            scores,
            score_threshold=score_threshold,
            with_payload=with_payload,
            with_vector=with_vector,
        )

    def _postprocess(
        self,
        offsets: np.ndarray,
        scores: np.ndarray,
        *,
        score_threshold: float | None,
        with_payload: bool,
        with_vector: bool,
    ) -> list[ScoredPoint]:
        """Translate ``(offsets, scores)`` into scored points, applying the
        score threshold — shared by the single and batched search paths."""
        out: list[ScoredPoint] = []
        for off, score in zip(offsets, scores):
            score = float(score)
            if score_threshold is not None:
                if self._distance.higher_is_better and score < score_threshold:
                    continue
                if not self._distance.higher_is_better and score > score_threshold:
                    continue
            pid = self._ids.id_at(int(off))
            out.append(
                ScoredPoint(
                    id=pid,
                    score=score,
                    payload=self._payloads.get(pid) if with_payload else None,
                    vector=self._arena.get(int(off)).copy() if with_vector else None,
                )
            )
        return out

    def _index_quant_params(self, rescore: bool | None) -> dict:
        """Extra index-search kwargs enabling quantized traversal when both
        an index and a quantizer are installed (and the index supports it)."""
        if self._quantizer is None or not getattr(
            self._index, "supports_quantized_search", False
        ):
            return {}
        qc = self.config.quantization
        return {
            "quantized": True,
            "rescore": qc.rescore if rescore is None else rescore,
        }

    def _flat_scan(self, query, k, predicate) -> tuple[np.ndarray, np.ndarray]:
        live = self._ids.live_offsets()
        if predicate is not None:
            live = np.asarray(
                [o for o in live if predicate(int(o))], dtype=np.int64
            )
        if live.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        matrix = self._arena.take(live)
        scores = distances.score_batch(matrix, query, self._distance)
        idx, top = distances.top_k(scores, k, self._distance)
        return live[idx], top

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        flt: Condition | None = None,
        exact: bool = False,
        ef: int | None = None,
        nprobe: int | None = None,
        with_payload: bool = False,
        with_vector: bool = False,
        score_threshold: float | None = None,
        quantization_rescore: bool | None = None,
    ) -> list[list[ScoredPoint]]:
        """Batched search; element ``i`` matches ``search(queries[i], k, ...)``.

        Routes through the index's batch entry point (compiled HNSW, flat
        shared-gather scan) whenever one applies — the filter predicate is built once for
        the whole batch instead of once per query, and ``ef``/
        ``score_threshold`` no longer force the per-query fallback.  The
        quantized scan runs as one whole-batch code GEMM over a single
        shared live-offset gather, with only the top-``rescore_factor·k``
        per query rescored — results stay bit-identical to per-query
        ``search`` because the integer code products are exact in both
        kernels.  Only forced-exact-over-index falls back to a per-query
        loop.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise DimensionMismatchError(
                self._dim, int(queries.shape[-1]) if queries.ndim else 0
            )

        if self._index is not None and not exact:
            # Per-query normalisation (not normalize_batch): the single-query
            # path normalises each query with `distances.normalize`, and the
            # batch must reproduce its results bit-for-bit.
            if self._distance is Distance.COSINE and len(queries):
                queries = np.stack([distances.normalize(q) for q in queries])
            predicate = self._offset_predicate(flt)
            pairs = self._index.search_batch(
                queries, k, predicate=predicate, ef=ef, nprobe=nprobe,
                **self._index_quant_params(quantization_rescore),
            )
            return [
                self._postprocess(
                    offsets,
                    scores,
                    score_threshold=score_threshold,
                    with_payload=with_payload,
                    with_vector=with_vector,
                )
                for offsets, scores in pairs
            ]

        if self._quantizer is not None and not exact:
            return self._quantized_scan_batch(
                queries,
                k,
                flt=flt,
                rescore=quantization_rescore,
                with_payload=with_payload,
                with_vector=with_vector,
                score_threshold=score_threshold,
            )

        # Flat scan: the live-offset list, filter evaluation and arena gather
        # are computed once instead of once per query; scoring stays on the
        # single-query GEMV kernel so results are bit-identical to
        # ``search`` (a whole-batch GEMM rounds differently in the last bit).
        if self._distance is Distance.COSINE and len(queries):
            queries = np.stack([distances.normalize(q) for q in queries])
        live = self._live_offsets_filtered(flt)
        if live.size == 0:
            return [[] for _ in range(len(queries))]
        matrix = self._arena.take(live)
        out = []
        for query in queries:
            scores = distances.score_batch(matrix, query, self._distance)
            idx, top = distances.top_k(scores, k, self._distance)
            out.append(
                self._postprocess(
                    live[idx],
                    top,
                    score_threshold=score_threshold,
                    with_payload=with_payload,
                    with_vector=with_vector,
                )
            )
        return out

    def _quantized_scan_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        flt: Condition | None,
        rescore: bool | None,
        with_payload: bool,
        with_vector: bool,
        score_threshold: float | None,
    ) -> list[list[ScoredPoint]]:
        """Whole-batch quantized scan: one live-offset gather, one tiled
        code GEMM, per-query exact rescore of the top ``rescore_factor·k``.

        Bit-identical to per-query :meth:`search`: the batched GEMM yields
        the same exact integer code products as the per-query GEMV, and the
        affine correction + rescore run identically per query.
        """
        assert self._quantizer is not None and self._codes is not None
        if self._distance is Distance.COSINE and len(queries):
            queries = np.stack([distances.normalize(q) for q in queries])
        live = self._live_offsets_filtered(flt)
        if live.size == 0:
            return [[] for _ in range(len(queries))]
        codes, sums, sq = self._gather_codes(live)
        qqs = [self._quantizer.encode_query(q) for q in queries]
        t0 = time.perf_counter()
        score_list = self._quantizer.score_codes_batch(
            codes, sums, sq, qqs, self._distance
        )
        self._scan_counter.inc(len(qqs))
        self._scan_hist.observe(time.perf_counter() - t0)
        self.quant_stats["scans"] += len(qqs)
        self.quant_stats["scanned_codes"] += int(live.size) * len(qqs)
        out = []
        for query, scores in zip(queries, score_list):
            offsets, top = self._quantized_refine(query, k, live, scores, rescore)
            out.append(
                self._postprocess(
                    offsets,
                    top,
                    score_threshold=score_threshold,
                    with_payload=with_payload,
                    with_vector=with_vector,
                )
            )
        return out
