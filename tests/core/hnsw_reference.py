"""Frozen reference HNSW code — do not optimise.

:class:`ReferenceHnsw` is a verbatim copy of the dict-adjacency construction
this repository shipped before the array-backed rewrite of
``repro.core.index.hnsw``: ``add``, ``_greedy_step``, ``_search_layer``,
``_select_heuristic`` (the naive rule: one Python iteration per candidate)
and ``_link``.  The production index must build the *same graph, bit for
bit*; ``test_hnsw_build_identity.py`` compares the two.  Arithmetic that
decides an edge (the pairwise kernel, the per-hop matvec, the float
comparisons) is written exactly as it was, so a difference here is a
difference in the graph.

:class:`ReferenceQuantizedSearch` is a verbatim copy of the quantized search
that scored every hop's neighbours with their own code kernel
(``_qdist_many``, ``_greedy_step_q``, ``_search_layer_q``,
``_search_quantized``), run over a production index's graph and code store.
The production search reads those distances from a per-query table instead
and must return the same results and counters, bit for bit;
``test_hnsw_quantized_table.py`` compares the two.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from repro.core.index.base import IndexStats, OffsetPredicate
from repro.core.quantization import QuantizedQuery
from repro.core.types import Distance, HnswConfig
from repro.obs.metrics import get_registry


class _Node:
    __slots__ = ("offset", "level", "neighbors")

    def __init__(self, offset: int, level: int):
        self.offset = offset
        self.level = level
        self.neighbors: list[list[int]] = [[] for _ in range(level + 1)]


class ReferenceHnsw:
    """The pre-rewrite builder: per-node Python lists, per-candidate selection."""

    def __init__(self, arena, distance: Distance, config: HnswConfig | None = None):
        self._arena = arena
        self.distance = distance
        self.config = config or HnswConfig()
        self.stats = IndexStats()
        self._nodes: dict[int, _Node] = {}
        self.entry_point: int | None = None
        self.max_level = -1
        self._ml = 1.0 / math.log(self.config.m)
        self._rng = np.random.default_rng(self.config.seed)
        self._m0 = 2 * self.config.m

    # -- introspection mirroring HnswIndex ---------------------------------

    def level_of(self, offset: int) -> int:
        return self._nodes[offset].level

    def neighbors_of(self, offset: int, layer: int = 0) -> list[int]:
        node = self._nodes[offset]
        return list(node.neighbors[layer]) if layer <= node.level else []

    # -- distances ------------------------------------------------------------

    def _dist_one(self, query: np.ndarray, offset: int) -> float:
        self.stats.distance_computations += 1
        vec = self._arena.get(offset)
        if self.distance is Distance.EUCLID:
            diff = vec - query
            return float(diff @ diff)
        return -float(vec @ query)

    def _dist_many(self, query: np.ndarray, offsets: list[int]) -> np.ndarray:
        self.stats.distance_computations += len(offsets)
        matrix = self._arena.take(np.asarray(offsets, dtype=np.int64))
        if self.distance is Distance.EUCLID:
            diff = matrix - query
            return np.einsum("ij,ij->i", diff, diff)
        return -(matrix @ query)

    # -- construction -----------------------------------------------------------

    def _assign_level(self) -> int:
        u = float(self._rng.random())
        level = int(-math.log(max(u, 1e-12)) * self._ml)
        if self.config.max_level is not None:
            level = min(level, self.config.max_level)
        return level

    def add(self, offset: int, vector: np.ndarray) -> None:
        query = np.ascontiguousarray(vector, dtype=np.float32)
        level = self._assign_level()
        node = _Node(offset, level)
        self._nodes[offset] = node
        self.stats.inserts += 1

        if self.entry_point is None:
            self.entry_point = offset
            self.max_level = level
            return

        ep = self.entry_point
        ep_dist = self._dist_one(query, ep)

        for layer in range(self.max_level, level, -1):
            ep, ep_dist = self._greedy_step(query, ep, ep_dist, layer)

        for layer in range(min(level, self.max_level), -1, -1):
            candidates = self._search_layer(query, [(ep_dist, ep)], self.config.ef_construct, layer)
            m_max = self._m0 if layer == 0 else self.config.m
            selected = self._select_heuristic(candidates, self.config.m)
            node.neighbors[layer] = [o for _, o in selected]
            for dist, nbr in selected:
                self._link(nbr, offset, dist, layer, m_max)
            if candidates:
                ep_dist, ep = min(candidates)

        if level > self.max_level:
            self.max_level = level
            self.entry_point = offset

    def build(self, vectors: np.ndarray, offsets: np.ndarray) -> None:
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        for vec, off in zip(vectors, offsets):
            self.add(int(off), vec)

    def _greedy_step(self, query, ep: int, ep_dist: float, layer: int) -> tuple[int, float]:
        improved = True
        while improved:
            improved = False
            nbrs = self._nodes[ep].neighbors[layer]
            if not nbrs:
                break
            dists = self._dist_many(query, nbrs)
            self.stats.hops += 1
            best = int(np.argmin(dists))
            if dists[best] < ep_dist:
                ep = nbrs[best]
                ep_dist = float(dists[best])
                improved = True
        return ep, ep_dist

    def _search_layer(self, query, entry, ef: int, layer: int) -> list[tuple[float, int]]:
        visited = {o for _, o in entry}
        candidates = list(entry)
        heapq.heapify(candidates)
        results = [(-d, o) for d, o in entry]
        heapq.heapify(results)

        while candidates:
            dist, current = heapq.heappop(candidates)
            if results and len(results) >= ef and dist > -results[0][0]:
                break
            nbrs = [o for o in self._nodes[current].neighbors[layer] if o not in visited]
            if not nbrs:
                continue
            visited.update(nbrs)
            dists = self._dist_many(query, nbrs)
            self.stats.hops += 1
            bound = -results[0][0] if len(results) >= ef else math.inf
            for nbr_dist, nbr in zip(dists, nbrs):
                nbr_dist = float(nbr_dist)
                if nbr_dist < bound or len(results) < ef:
                    heapq.heappush(candidates, (nbr_dist, nbr))
                    heapq.heappush(results, (-nbr_dist, nbr))
                    if len(results) > ef:
                        heapq.heappop(results)
                    bound = -results[0][0] if len(results) >= ef else math.inf
        return [(-nd, o) for nd, o in results]

    def _select_heuristic(self, candidates, m: int) -> list[tuple[float, int]]:
        ordered = sorted(candidates)
        selected: list[tuple[float, int]] = []
        pair: np.ndarray | None = None
        if len(ordered) > 1:
            offs = np.fromiter((o for _, o in ordered), dtype=np.int64, count=len(ordered))
            vecs = self._arena.take(offs)
            if self.distance is Distance.EUCLID:
                diff = vecs[:, None, :] - vecs[None, :, :]
                pair = np.einsum("ijk,ijk->ij", diff, diff)
            else:
                pair = -(vecs @ vecs.T)
            self.stats.distance_computations += len(ordered) * (len(ordered) - 1) // 2
        selected_rows: list[int] = []
        for row, (dist, offset) in enumerate(ordered):
            if len(selected) >= m:
                break
            if selected_rows and bool((pair[row, selected_rows] < dist).any()):
                continue
            selected.append((dist, offset))
            selected_rows.append(row)
        if len(selected) < m:
            chosen = {o for _, o in selected}
            for dist, offset in ordered:
                if len(selected) >= m:
                    break
                if offset not in chosen:
                    selected.append((dist, offset))
                    chosen.add(offset)
        return selected

    def _link(self, from_offset: int, to_offset: int, dist: float, layer: int, m_max: int) -> None:
        node = self._nodes[from_offset]
        nbrs = node.neighbors[layer]
        nbrs.append(to_offset)
        if len(nbrs) <= m_max:
            return
        base = self._arena.get(from_offset)
        dists = self._dist_many(base, nbrs)
        candidates = [(float(d), o) for d, o in zip(dists, nbrs)]
        node.neighbors[layer] = [o for _, o in self._select_heuristic(candidates, m_max)]


class ReferenceQuantizedSearch:
    """The per-hop quantized search, run over a production ``HnswIndex``.

    Attributes the frozen methods do not define here (``_links``,
    ``_upper``, ``_level``, ``_entry_point``, ``_qstore``, ``_quantizer``,
    ``_checkout``, ``_scratch``, ``_dist_many``, ``_to_score``, ``stats``,
    ``quant_stats``) are the index's own, so the counters land where the
    production search puts them.
    """

    def __init__(self, index):
        self._index = index

    def __getattr__(self, name):
        return getattr(self._index, name)

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        predicate: OffsetPredicate | None = None,
        ef: int | None = None,
        rescore: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``HnswIndex.search(..., quantized=True)`` as it was."""
        if self._entry_point is None or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        query = np.ascontiguousarray(query, dtype=np.float32)
        if self.distance is Distance.COSINE:
            norm = float(np.linalg.norm(query))
            if norm > 0:
                query = query / np.float32(norm)
        ef_eff = max(ef if ef is not None else self.config.ef_search, k)
        if predicate is not None:
            ef_eff = max(ef_eff, 4 * k)
        return self._search_quantized(query, k, ef_eff, predicate, rescore)

    def search_batch(self, queries: np.ndarray, k: int, **params):
        """``HnswIndex.search_batch(..., quantized=True)`` as it was."""
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        self.compile()
        return [self.search(q, k, **params) for q in queries]

    # -- frozen: the per-hop quantized traversal ----------------------------

    def _qdist_many(self, qq: QuantizedQuery, rows: np.ndarray) -> np.ndarray:
        self.stats.distance_computations += int(rows.size)
        sums, sq = self._qstore.corrections(rows)
        scores = self._quantizer.score_codes(
            self._qstore.take(rows), sums, sq, qq, self.distance
        )
        if self.distance is Distance.EUCLID:
            return scores
        return -scores

    def _greedy_step_q(
        self, qq: QuantizedQuery, ep: int, ep_dist: float, layer: int
    ) -> tuple[int, float]:
        upper = self._upper
        improved = True
        while improved:
            improved = False
            nbrs = upper[ep][layer - 1]
            if nbrs.size == 0:
                break
            dists = self._qdist_many(qq, nbrs)
            self.stats.hops += 1
            best = int(np.argmin(dists))
            if dists[best] < ep_dist:
                ep = int(nbrs[best])
                ep_dist = float(dists[best])
                improved = True
        return ep, ep_dist

    def _search_layer_q(
        self,
        qq: QuantizedQuery,
        entry: list[tuple[float, int]],
        ef: int,
        predicate: OffsetPredicate | None = None,
    ) -> list[tuple[float, int]]:
        links = self._links
        scratch = self._checkout(links.shape[0])
        try:
            visited = scratch.marks
            epoch = scratch.next_epoch()
            for _, o in entry:
                visited[o] = epoch
            candidates = list(entry)
            heapq.heapify(candidates)
            if predicate is None:
                results = [(-d, o) for d, o in entry]
            else:
                results = [(-d, o) for d, o in entry if predicate(o)]
            heapq.heapify(results)

            heappush = heapq.heappush
            heappop = heapq.heappop
            nres = len(results)
            bound = -results[0][0] if nres >= ef else math.inf

            while candidates:
                dist, current = heappop(candidates)
                if nres >= ef and dist > bound:
                    break
                row = links[current].copy()
                fresh = row[visited[row] != epoch]
                if fresh.size == 0:
                    continue
                visited[fresh] = epoch
                dists = self._qdist_many(qq, fresh)
                self.stats.hops += 1
                if nres >= ef:
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
        return [(-nd, o) for nd, o in results]

    def _search_quantized(
        self,
        query: np.ndarray,
        k: int,
        ef_eff: int,
        predicate: OffsetPredicate | None,
        rescore: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        registry = get_registry()
        qq = self._quantizer.encode_query(query)
        self.quant_stats["searches"] += 1
        registry.counter("quant.scan").inc()
        t0 = time.perf_counter()
        ep = self._entry_point
        ep_dist = float(self._qdist_many(qq, np.asarray([ep], dtype=np.int64))[0])
        for layer in range(int(self._level[ep]), 0, -1):
            ep, ep_dist = self._greedy_step_q(qq, ep, ep_dist, layer)
        results = self._search_layer_q(qq, [(ep_dist, ep)], ef_eff, predicate)
        registry.histogram("quant.scan_s").observe(time.perf_counter() - t0)
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
            registry.counter("quant.rescore").inc()
            registry.histogram("quant.rescore_s").observe(time.perf_counter() - t0)
            return offsets, scores
        results.sort()
        results = results[:k]
        offsets = np.asarray([o for _, o in results], dtype=np.int64)
        scores = np.asarray(
            [self._to_score(d) for d, _ in results], dtype=np.float32
        )
        return offsets, scores
