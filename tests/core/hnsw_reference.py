"""Frozen reference HNSW builder — do not optimise.

A verbatim copy of the dict-adjacency construction this repository shipped
before the array-backed rewrite of ``repro.core.index.hnsw``: ``add``,
``_greedy_step``, ``_search_layer``, ``_select_heuristic`` (the naive rule:
one Python iteration per candidate) and ``_link``.  The production index
must build the *same graph, bit for bit*; ``test_hnsw_build_identity.py``
compares the two.  Arithmetic that decides an edge (the pairwise kernel, the
per-hop matvec, the float comparisons) is written exactly as it was, so a
difference here is a difference in the graph.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.index.base import IndexStats
from repro.core.types import Distance, HnswConfig


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
