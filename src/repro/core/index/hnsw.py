"""Hierarchical Navigable Small World (HNSW) graph index.

A from-scratch implementation of Malkov & Yashunin's algorithm — the index
Qdrant builds per segment and the one whose construction cost dominates the
paper's §3.3 experiment.  The implementation follows the paper's Algorithms
1–5:

* level assignment ``l = floor(-ln(U) * mL)`` with ``mL = 1/ln(M)``;
* insertion descends greedily from the entry point to the target level, then
  runs an ``ef_construct`` beam search per layer and links to ``M``
  neighbours chosen by the *heuristic* selection rule (Algorithm 4), which
  prefers neighbours closer to the new node than to already-selected ones —
  this keeps the graph navigable on clustered data;
* layer 0 allows ``2M`` links (``M0``), upper layers ``M``;
* search descends greedily to layer 1, then beam-searches layer 0 with
  ``ef = max(ef_search, k)``.

Internally all comparisons use a "smaller is better" distance: similarities
(cosine/dot) are negated.  Scores returned by :meth:`search` are converted
back to the collection's native convention.

Filtered search visits the graph normally but only admits offsets passing
the predicate into the result set, expanding ``ef`` adaptively — the
standard post-filtering strategy for graph indexes.

Neighbour distance evaluations are batched per hop (one BLAS matvec per
popped node) per the vectorization idiom, instead of per-edge Python loops.

Adjacency is array-backed, the way hnswlib holds it, and there is one
representation for construction and search:

* **layer 0** is a ``(capacity, 2M)`` int64 link matrix indexed by arena
  offset that grows with the arena, plus a degree vector.  Unused slots of
  a row hold the row's own offset; a beam has always visited the node it
  expands, so padding drops out in the visited test and a hop reads a whole
  row without consulting the degree;
* **upper layers** are sparse (one node in ``M`` reaches layer 1): a dict
  from offset to one exact-length array per layer, replaced on every link.

One beam (:meth:`_search_layer`) serves ``add``, float ``search`` and
quantized ``search`` alike, so an ``add`` never moves searches onto a slower
path; a quantized search passes it a kernel that reads a per-query table of
code distances (:meth:`_code_kernel`) instead of scoring arena rows.
:meth:`compile` seals the graph by trimming the arrays' spare capacity; it
changes no result.

Thread safety: any number of searches may overlap each other and one
writer's ``add``.  Every beam checks its own epoch-tagged visited array out
of a free list, copies the row it expands in one call, and row updates are
single assignments, so a reader sees each row either before or after a
relink, never half of one.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable

import numpy as np

from ...obs.metrics import get_registry
from ..quantization import CodeStore, QuantizedQuery, ScalarQuantizer
from ..storage import VectorArena
from ..types import Distance, HnswConfig
from .base import IndexStats, OffsetPredicate

__all__ = ["HnswIndex"]

_NO_LINKS = np.empty(0, dtype=np.int64)

#: Offsets -> internal (smaller-is-better) distances to one search's query.
DistanceKernel = Callable[[np.ndarray], np.ndarray]

#: Largest code store (rows × dim, i.e. bytes of uint8 codes) a quantized
#: search scores whole into a per-query distance table.  The table costs
#: O(rows · dim) per query while the per-hop kernels it replaces cost about
#: 1 ms per search, so past ~1 MiB of codes (~8 k rows at dim 128) the beam
#: scores each hop's neighbours on their own again.
_CODE_TABLE_BUDGET = 1 << 20


class _Visited:
    """Epoch-tagged visit marks, held by one beam search at a time.

    Bumping ``epoch`` clears the marks in O(1) instead of reallocating a
    set per search.
    """

    __slots__ = ("marks", "epoch")

    def __init__(self, size: int):
        self.marks = np.zeros(size, dtype=np.int32)
        self.epoch = 0

    def next_epoch(self) -> int:
        self.epoch += 1
        if self.epoch >= np.iinfo(np.int32).max:
            self.marks[:] = 0
            self.epoch = 1
        return self.epoch


class HnswIndex:
    """Graph ANN index over a :class:`VectorArena`."""

    def __init__(self, arena: VectorArena, distance: Distance, config: HnswConfig | None = None):
        self._arena = arena
        self.distance = distance
        self.config = config or HnswConfig()
        self.stats = IndexStats()
        self._entry_point: int | None = None
        self._max_level = -1
        self._ml = 1.0 / math.log(self.config.m)
        self._rng = np.random.default_rng(self.config.seed)
        self._m0 = 2 * self.config.m
        self._size = 0
        self._links = np.empty((0, self._m0), dtype=np.int64)
        self._deg = np.zeros(0, dtype=np.int32)
        self._level = np.zeros(0, dtype=np.int16)  # -1: offset not in the index
        self._upper: dict[int, list[np.ndarray]] = {}
        self._sealed = False
        #: Free list of visited scratch; a beam pops one and pushes it back.
        self._scratch: list[_Visited] = []
        self._qstore: CodeStore | None = None
        self._quantizer: ScalarQuantizer | None = None
        #: Quantized-traversal counters (aggregated by cluster telemetry).
        self.quant_stats = {"searches": 0, "rescored": 0}
        # Process-wide quantizer metrics, bound once: a by-name registry
        # lookup takes the registry's lock on every search.
        registry = get_registry()
        self._scan_counter = registry.counter("quant.scan")
        self._scan_hist = registry.histogram("quant.scan_s")
        self._rescore_counter = registry.counter("quant.rescore")
        self._rescore_hist = registry.histogram("quant.rescore_s")

    # -- basic properties ---------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def supports_incremental_add(self) -> bool:
        return True

    @property
    def is_compiled(self) -> bool:
        return self._sealed

    @property
    def entry_point(self) -> int | None:
        return self._entry_point

    @property
    def max_level(self) -> int:
        return self._max_level

    @property
    def supports_quantized_search(self) -> bool:
        return self._qstore is not None

    def attach_quantization(self, store: CodeStore, quantizer: ScalarQuantizer) -> None:
        """Adopt a segment's code store for quantized traversal.

        The store is the same offset-aligned :class:`CodeStore` the flat
        quantized scan uses, so beam neighbours are scored straight from
        uint8 codes and only the final ``ef`` candidates touch the float
        vectors for rescoring.
        """
        self._qstore = store
        self._quantizer = quantizer

    def detach_quantization(self) -> None:
        self._qstore = None
        self._quantizer = None

    def _has(self, offset: int) -> bool:
        return 0 <= offset < self._level.shape[0] and self._level[offset] >= 0

    def level_of(self, offset: int) -> int:
        """Top layer of ``offset`` (used by tests and graph diagnostics)."""
        if not self._has(offset):
            raise KeyError(offset)
        return int(self._level[offset])

    def neighbors_of(self, offset: int, layer: int = 0) -> list[int]:
        """Adjacency introspection (used by tests and graph diagnostics)."""
        return self._row(offset, layer).tolist() if layer <= self.level_of(offset) else []

    def edge_count(self) -> int:
        """Total directed edges across all layers."""
        return int(self._deg.sum()) + sum(
            row.size for rows in self._upper.values() for row in rows
        )

    # -- distance helpers -----------------------------------------------------
    # Internal convention: smaller is better.

    def _dist_one(self, query: np.ndarray, offset: int) -> float:
        self.stats.distance_computations += 1
        vec = self._arena.get(offset)
        if self.distance is Distance.EUCLID:
            diff = vec - query
            return float(diff @ diff)
        return -float(vec @ query)

    def _dist_many(self, query: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        self.stats.distance_computations += len(offsets)
        matrix = self._arena.take(offsets)
        if self.distance is Distance.EUCLID:
            diff = matrix - query
            return np.einsum("ij,ij->i", diff, diff)
        return -(matrix @ query)

    def _to_score(self, internal: float) -> float:
        return internal if self.distance is Distance.EUCLID else -internal

    def _prepare(self, vector: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(vector, dtype=np.float32)

    # -- adjacency ----------------------------------------------------------------

    def _reserve(self, offset: int) -> None:
        """Grow the per-offset arrays to the arena's capacity.

        The link matrix never has more rows than the arena, and a beam reads
        ``_links`` before the arena buffer: every offset it can meet in the
        matrix it holds indexes the (same or newer) buffer and its own
        visited array, whatever a concurrent ``add`` does meanwhile.
        """
        old = self._links.shape[0]
        if offset < old:
            return
        cap = self._arena.capacity
        links = np.empty((cap, self._m0), dtype=np.int64)
        links[:old] = self._links
        links[old:] = np.arange(old, cap)[:, None]  # unused slots name the row's own node
        deg = np.zeros(cap, dtype=np.int32)
        deg[:old] = self._deg
        level = np.full(cap, -1, dtype=np.int16)
        level[:old] = self._level
        self._links, self._deg, self._level = links, deg, level

    def _insert_node(self, offset: int, level: int) -> None:
        """Register ``offset`` with empty links on layers 0..level."""
        self._reserve(offset)
        self._level[offset] = level
        if level:
            self._upper[offset] = [_NO_LINKS] * level
        self._size += 1

    def _row(self, offset: int, layer: int) -> np.ndarray:
        if layer:
            return self._upper[offset][layer - 1]
        return self._links[offset, : self._deg[offset]]

    def _set_row(self, offset: int, layer: int, nbrs) -> None:
        if layer:
            self._upper[offset][layer - 1] = np.asarray(nbrs, dtype=np.int64)
            return
        row = np.full(self._m0, offset, dtype=np.int64)
        row[: len(nbrs)] = nbrs
        self._links[offset] = row  # one assignment: readers never see half a relink
        self._deg[offset] = len(nbrs)

    # -- construction -----------------------------------------------------------

    def _assign_level(self) -> int:
        u = float(self._rng.random())
        level = int(-math.log(max(u, 1e-12)) * self._ml)
        if self.config.max_level is not None:
            level = min(level, self.config.max_level)
        return level

    def add(self, offset: int, vector: np.ndarray) -> None:
        """Insert one vector (Algorithm 1)."""
        if self._has(offset):
            raise ValueError(f"offset {offset} already in index")
        self._sealed = False
        query = self._prepare(vector)
        level = self._assign_level()
        self._insert_node(offset, level)
        self.stats.inserts += 1

        if self._entry_point is None:
            self._entry_point = offset
            self._max_level = level
            return

        ep = self._entry_point
        ep_dist = self._dist_one(query, ep)

        # Greedy descent through layers above the new node's level.
        for layer in range(self._max_level, level, -1):
            ep, ep_dist = self._greedy_step(query, ep, ep_dist, layer)

        # Beam search + heuristic selection on layers min(level, max_level)..0.
        linked: list[list[int]] = []
        for layer in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(query, [(ep_dist, ep)], self.config.ef_construct, layer)
            selected = self._select_heuristic(candidates, self.config.m)
            linked.append([o for _, o in selected])
            self._set_row(offset, layer, linked[-1])
            if candidates:
                ep_dist, ep = min(candidates)
        # Back-links last, bottom layer first: a concurrent search can reach
        # the node only through one, and by then every row it will read there
        # is in place.  Layer L's back-links touch layer-L rows only, which no
        # lower beam reads, so the graph is the one linking per layer builds.
        for layer, nbrs in enumerate(reversed(linked)):
            for nbr in nbrs:
                self._link(nbr, offset, layer, self.config.m if layer else self._m0)

        if level > self._max_level:
            self._entry_point = offset
            self._max_level = level

    def build(self, vectors: np.ndarray, offsets: np.ndarray) -> None:
        """Bulk build by sequential insertion (deferred-index path of §3.3)."""
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        for vec, off in zip(vectors, offsets):
            self.add(int(off), vec)

    def _greedy_step(self, query, ep: int, ep_dist: float, layer: int,
                     kernel: DistanceKernel | None = None) -> tuple[int, float]:
        """Descend one upper layer greedily to the local minimum (Algorithm 2,
        ef=1), scoring neighbours with ``kernel`` if given, else from the arena."""
        upper = self._upper
        improved = True
        while improved:
            improved = False
            nbrs = upper[ep][layer - 1]
            if nbrs.size == 0:
                break
            if kernel is None:
                dists = self._dist_many(query, nbrs)
            else:
                self.stats.distance_computations += nbrs.size
                dists = kernel(nbrs)
            self.stats.hops += 1
            best = int(np.argmin(dists))
            if dists[best] < ep_dist:
                ep = int(nbrs[best])
                ep_dist = float(dists[best])
                improved = True
        return ep, ep_dist

    def _checkout(self, size: int) -> _Visited:
        """Visited scratch for one beam; the caller appends it back to
        ``_scratch`` when done.  Overlapping beams (other threads, a
        predicate that searches, a writer's ``add``) each hold their own."""
        try:
            scratch = self._scratch.pop()
        except IndexError:
            return _Visited(size)
        return scratch if scratch.marks.shape[0] >= size else _Visited(size)

    def _search_layer(
        self,
        query: np.ndarray,
        entry: list[tuple[float, int]],
        ef: int,
        layer: int,
        predicate: OffsetPredicate | None = None,
        kernel: DistanceKernel | None = None,
    ) -> list[tuple[float, int]]:
        """Beam search on one layer (Algorithm 2).

        Returns up to ``ef`` ``(distance, offset)`` pairs.  With a predicate,
        traversal still flows through non-matching nodes (to preserve
        navigability) but only matching offsets enter the result heap.
        ``kernel`` scores each hop's fresh neighbours in place of the
        inline float matvec over the arena.
        """
        links = self._links  # before the arena buffer: see _reserve
        vectors = self._arena.buffer()
        upper = self._upper
        scratch = self._checkout(links.shape[0])
        try:
            visited = scratch.marks
            epoch = scratch.next_epoch()
            for _, o in entry:
                visited[o] = epoch
            # candidates: min-heap by distance; results: max-heap (negated).
            candidates = list(entry)
            heapq.heapify(candidates)
            if predicate is None:
                results = [(-d, o) for d, o in entry]
            else:
                results = [(-d, o) for d, o in entry if predicate(o)]
            heapq.heapify(results)

            heappush = heapq.heappush
            heappop = heapq.heappop
            euclid = self.distance is Distance.EUCLID
            nres = len(results)
            # ``bound`` is ``-results[0][0]`` whenever the heap is full and
            # +inf before that.
            bound = -results[0][0] if nres >= ef else math.inf
            hops = 0
            dcs = 0

            while candidates:
                dist, current = heappop(candidates)
                if nres >= ef and dist > bound:
                    break
                row = upper[current][layer - 1] if layer else links[current].copy()
                fresh = row[visited[row] != epoch]
                if fresh.size == 0:
                    continue
                visited[fresh] = epoch
                dcs += fresh.size
                if kernel is not None:
                    dists = kernel(fresh)
                elif euclid:
                    diff = vectors[fresh] - query
                    dists = np.einsum("ij,ij->i", diff, diff)
                else:
                    dists = vectors[fresh] @ query
                    np.negative(dists, out=dists)
                hops += 1
                if nres >= ef:
                    # Exact pre-filter: once the result heap is full the bound only
                    # shrinks, so anything at or above the hop-entry bound would be
                    # rejected by the sequential admission test too.  Survivors
                    # still run through the identical per-neighbour logic below.
                    keep = dists < bound
                    nkeep = np.count_nonzero(keep)
                    if nkeep != keep.shape[0]:
                        if nkeep == 0:
                            continue
                        dists = dists[keep]
                        fresh = fresh[keep]
                for nbr_dist, nbr in zip(dists.tolist(), fresh.tolist()):
                    if nbr_dist < bound or nres < ef:
                        heappush(candidates, (nbr_dist, nbr))
                        if predicate is None or predicate(nbr):
                            heappush(results, (-nbr_dist, nbr))
                            if nres == ef:
                                heappop(results)
                            else:
                                nres += 1
                            if nres >= ef:
                                bound = -results[0][0]
        finally:
            self._scratch.append(scratch)
        self.stats.hops += hops
        self.stats.distance_computations += dcs
        return [(-nd, o) for nd, o in results]

    def _select_heuristic(
        self, candidates: list[tuple[float, int]], m: int
    ) -> list[tuple[float, int]]:
        """Neighbour selection heuristic (Algorithm 4).

        A candidate is kept only if it is closer to the base point than to
        every already-selected neighbour; this spreads links across
        directions instead of clustering them.  Candidate offsets must be
        distinct.
        """
        ordered = sorted(candidates)
        n = len(ordered)
        if n <= 1:
            return ordered[:m]
        # One pairwise kernel call over the candidate set replaces the
        # per-pair arena.get + Python dot products of the naive rule.
        offs = np.fromiter((o for _, o in ordered), dtype=np.int64, count=n)
        vecs = self._arena.take(offs)
        if self.distance is Distance.EUCLID:
            diff = vecs[:, None, :] - vecs[None, :, :]
            pair = np.einsum("ijk,ijk->ij", diff, diff)
        else:
            pair = -(vecs @ vecs.T)
        self.stats.distance_computations += n * (n - 1) // 2
        # closer[r, s]: candidate r is nearer to candidate s than to the base,
        # so selecting s rules r out.  Selecting s therefore blocks *column*
        # s — ``pair`` comes out of a GEMM and is not symmetric in the last
        # bit, so the row would choose a different graph.
        dists = np.fromiter((d for d, _ in ordered), dtype=np.float32, count=n)
        closer = pair < dists[:, None]
        blocked = np.zeros(n, dtype=bool)
        rows: list[int] = []
        row = 0
        while len(rows) < m and row < n:
            row += int(blocked[row:].argmin())  # first candidate not ruled out yet
            if blocked[row]:
                break
            rows.append(row)
            blocked |= closer[:, row]
            row += 1
        if len(rows) < m:
            # Back-fill with nearest rejected candidates (keepPrunedConnections).
            chosen = set(rows)
            rows += [r for r in range(n) if r not in chosen][: m - len(rows)]
        return [ordered[r] for r in rows]

    def _link(self, src: int, dst: int, layer: int, m_max: int) -> None:
        """Add a back-edge, shrinking the neighbour list if it overflows."""
        nbrs = self._row(src, layer)
        if not layer and nbrs.size < m_max:
            self._links[src, nbrs.size] = dst
            self._deg[src] += 1
            return
        nbrs = np.append(nbrs, dst)
        if nbrs.size > m_max:
            dists = self._dist_many(self._arena.get(src), nbrs)
            kept = self._select_heuristic(list(zip(dists.tolist(), nbrs.tolist())), m_max)
            nbrs = [o for _, o in kept]
        self._set_row(src, layer, nbrs)

    # -- sealed form ---------------------------------------------------------------

    def compile(self) -> None:
        """Seal the graph: trim the per-offset arrays to the arena's length.

        Idempotent, and a pure representation change — construction and
        search read the same arrays through the same beam before and after,
        so results are bit-identical.  The next ``add`` unseals and regrows.
        """
        if self._sealed or self._entry_point is None:
            return
        n = len(self._arena)
        if self._links.shape[0] > n:
            self._links = self._links[:n].copy()
            self._deg = self._deg[:n].copy()
            self._level = self._level[:n].copy()
        self._sealed = True

    def decompile(self) -> None:
        """Mark the graph unsealed (the arrays regrow on the next ``add``)."""
        self._sealed = False

    # -- quantized traversal -----------------------------------------------------

    def _qdist_many(self, qq: QuantizedQuery, rows: np.ndarray) -> np.ndarray:
        """Internal (smaller-is-better) distances of ``rows`` straight from
        their uint8 codes: one exact-integer GEMV plus the affine correction."""
        sums, sq = self._qstore.corrections(rows)
        scores = self._quantizer.score_codes(
            self._qstore.take(rows), sums, sq, qq, self.distance
        )
        if self.distance is Distance.EUCLID:
            return scores
        return -scores

    def _code_kernel(self, qq: QuantizedQuery) -> DistanceKernel:
        """The beam's distance kernel for one quantized search.

        Below :data:`_CODE_TABLE_BUDGET` the query is scored against every
        stored code row at once and a hop is a gather from that table: one
        numpy call instead of the ~15 of :meth:`_qdist_many`.  Each entry
        equals :meth:`_qdist_many`'s value bit for bit — code products are
        exact integers whatever rows a kernel sums over, and the affine
        correction is elementwise float64 on identical inputs.  A node
        linked after the table was built (an ``add`` beside or inside this
        search) has no entry; its hop falls back to :meth:`_qdist_many`.
        """
        store = self._qstore
        # The count before the buffers: a concurrent extend writes past it only.
        n = len(store)
        if n * store.dim > _CODE_TABLE_BUDGET:
            return lambda rows: self._qdist_many(qq, rows)
        sums, sq = store.corrections()
        table = self._quantizer.score_codes(
            store.view()[:n], sums[:n], sq[:n], qq, self.distance
        )
        if self.distance is not Distance.EUCLID:
            np.negative(table, out=table)

        def kernel(rows: np.ndarray) -> np.ndarray:
            try:
                return table[rows]
            except IndexError:
                return self._qdist_many(qq, rows)

        return kernel

    def _search_quantized(
        self,
        query: np.ndarray,
        k: int,
        ef_eff: int,
        predicate: OffsetPredicate | None,
        rescore: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Graph traversal over quantized codes, exact rescore of the final
        ``ef`` candidates (HAKES-style filter-on-compressed + refine)."""
        qq = self._quantizer.encode_query(query)
        self.quant_stats["searches"] += 1
        self._scan_counter.inc()
        t0 = time.perf_counter()
        kernel = self._code_kernel(qq)
        ep = self._entry_point
        self.stats.distance_computations += 1
        ep_dist = float(kernel(np.asarray([ep], dtype=np.int64))[0])
        for layer in range(int(self._level[ep]), 0, -1):
            ep, ep_dist = self._greedy_step(query, ep, ep_dist, layer, kernel)
        results = self._search_layer(query, [(ep_dist, ep)], ef_eff, 0, predicate, kernel)
        self._scan_hist.observe(time.perf_counter() - t0)
        if not results:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        if rescore:
            t0 = time.perf_counter()
            offs = np.asarray(sorted(o for _, o in results), dtype=np.int64)
            exact = np.asarray(self._dist_many(query, offs))
            order = np.lexsort((offs, exact))[:k]
            offsets = offs[order]
            scores = np.asarray(
                [self._to_score(float(d)) for d in exact[order]], dtype=np.float32
            )
            self.quant_stats["rescored"] += int(offs.size)
            self._rescore_counter.inc()
            self._rescore_hist.observe(time.perf_counter() - t0)
            return offsets, scores
        results.sort()
        results = results[:k]
        offsets = np.asarray([o for _, o in results], dtype=np.int64)
        scores = np.asarray(
            [self._to_score(d) for d, _ in results], dtype=np.float32
        )
        return offsets, scores

    # -- persistence -----------------------------------------------------------

    def to_arrays(self) -> dict:
        """Serialise the graph structure (not the vectors) to plain arrays.

        Layout: per-node offset/level arrays plus one flattened adjacency
        array with (start, end) ranges per (node, layer).  Loading with
        :meth:`from_arrays` against the same arena reproduces the graph
        exactly — no rebuild, which is what lets a stateless worker fetch a
        prebuilt index from durable storage (§2.2).
        """
        offsets = np.flatnonzero(self._level >= 0)
        levels = self._level[offsets].astype(np.int32)
        flat: list[int] = []
        ranges = []  # (offset_idx, layer, start, end)
        for idx, (off, level) in enumerate(zip(offsets.tolist(), levels.tolist())):
            for layer in range(level + 1):
                start = len(flat)
                flat.extend(self._row(off, layer).tolist())
                ranges.append((idx, layer, start, len(flat)))
        return {
            "offsets": offsets,
            "levels": levels,
            "adjacency": np.asarray(flat, dtype=np.int64),
            "ranges": np.asarray(ranges, dtype=np.int64).reshape(-1, 4),
            "entry_point": np.int64(-1 if self._entry_point is None else self._entry_point),
            "max_level": np.int64(self._max_level),
        }

    @classmethod
    def from_arrays(cls, arena: VectorArena, distance: Distance, data: dict,
                    config: HnswConfig | None = None) -> "HnswIndex":
        """Reconstruct an index from :meth:`to_arrays` output."""
        index = cls(arena, distance, config)
        offsets = data["offsets"]
        adjacency = data["adjacency"]
        for off, level in zip(offsets.tolist(), data["levels"].tolist()):
            index._insert_node(off, level)
        for idx, layer, start, end in data["ranges"].tolist():
            index._set_row(int(offsets[idx]), layer, adjacency[start:end])
        ep = int(data["entry_point"])
        index._entry_point = None if ep < 0 else ep
        index._max_level = int(data["max_level"])
        index.stats.inserts = len(offsets)
        return index

    # -- search --------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        predicate: OffsetPredicate | None = None,
        ef: int | None = None,
        quantized: bool = False,
        rescore: bool = True,
        **params,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search (Algorithm 5); returns ``(offsets, scores)``.

        With ``quantized=True`` (and a code store attached) the beam runs
        over uint8 codes and the final ``ef`` candidates are exact-rescored
        from the float arena — the composition of quantization with HNSW
        that real Qdrant ships.
        """
        if self._entry_point is None or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        query = self._prepare(query)
        if self.distance is Distance.COSINE:
            norm = float(np.linalg.norm(query))
            if norm > 0:
                query = query / np.float32(norm)
        ef_eff = max(ef if ef is not None else self.config.ef_search, k)
        if predicate is not None:
            # widen the beam so enough admissible points survive filtering
            ef_eff = max(ef_eff, 4 * k)

        if quantized and self._qstore is not None:
            return self._search_quantized(query, k, ef_eff, predicate, rescore)

        ep = self._entry_point
        ep_dist = self._dist_one(query, ep)
        # From the entry point's own level, not ``_max_level``: one read, so a
        # concurrent ``add`` that raises both cannot hand us a mismatched pair.
        for layer in range(int(self._level[ep]), 0, -1):
            ep, ep_dist = self._greedy_step(query, ep, ep_dist, layer)

        results = self._search_layer(query, [(ep_dist, ep)], ef_eff, 0, predicate)
        results.sort()
        results = results[:k]
        offsets = np.asarray([o for _, o in results], dtype=np.int64)
        scores = np.asarray([self._to_score(d) for d, _ in results], dtype=np.float32)
        return offsets, scores

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        predicate: OffsetPredicate | None = None,
        ef: int | None = None,
        **params,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched top-k search; element ``i`` equals ``search(queries[i], k)``.

        Seals the graph on first use, as a sealed segment would.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        self.compile()
        return [self.search(q, k, predicate=predicate, ef=ef, **params) for q in queries]
