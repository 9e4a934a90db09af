"""HNSW index tests: construction invariants, recall, filtering, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index.flat import FlatIndex
from repro.core.index.hnsw import HnswIndex
from repro.core.storage import VectorArena
from repro.core.types import Distance, HnswConfig

DIM = 16


def build(n: int, distance=Distance.COSINE, seed=0, config=None):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, DIM)).astype(np.float32)
    if distance is Distance.COSINE:
        data /= np.linalg.norm(data, axis=1, keepdims=True)
    arena = VectorArena(DIM)
    arena.extend(data)
    index = HnswIndex(arena, distance, config or HnswConfig())
    index.build(data, np.arange(n, dtype=np.int64))
    return arena, index, data


class TestConstruction:
    def test_empty_search(self):
        arena = VectorArena(DIM)
        index = HnswIndex(arena, Distance.COSINE)
        offsets, scores = index.search(np.zeros(DIM, dtype=np.float32), 5)
        assert len(offsets) == 0

    def test_single_point(self):
        arena = VectorArena(DIM)
        v = np.ones(DIM, dtype=np.float32) / np.sqrt(DIM)
        off = arena.append(v)
        index = HnswIndex(arena, Distance.COSINE)
        index.add(off, v)
        offsets, scores = index.search(v, 1)
        assert offsets.tolist() == [0]
        assert scores[0] == pytest.approx(1.0, abs=1e-5)

    def test_duplicate_offset_rejected(self):
        arena = VectorArena(DIM)
        v = np.ones(DIM, dtype=np.float32)
        off = arena.append(v)
        index = HnswIndex(arena, Distance.COSINE)
        index.add(off, v)
        with pytest.raises(ValueError):
            index.add(off, v)

    def test_degree_bounds(self):
        """Layer-0 degree <= 2M, upper layers <= M (graph invariant)."""
        _, index, _ = build(400)
        m = index.config.m
        for off in range(400):
            assert len(index.neighbors_of(off, 0)) <= 2 * m
            for layer in range(1, index.level_of(off) + 1):
                assert len(index.neighbors_of(off, layer)) <= m

    def test_entry_point_is_max_level(self):
        _, index, _ = build(300)
        ep = index.entry_point
        assert index.level_of(ep) == index.max_level

    def test_graph_connected_layer0(self):
        """Every node is reachable from the entry point on layer 0."""
        _, index, _ = build(300)
        seen = {index.entry_point}
        frontier = [index.entry_point]
        while frontier:
            nxt = []
            for node in frontier:
                for nbr in index.neighbors_of(node, 0):
                    if nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            frontier = nxt
        assert len(seen) == 300

    def test_deterministic_build(self):
        _, a, _ = build(200, seed=3)
        _, b, _ = build(200, seed=3)
        assert a.edge_count() == b.edge_count()
        q = np.random.default_rng(9).normal(size=DIM).astype(np.float32)
        ra = a.search(q, 10)[0].tolist()
        rb = b.search(q, 10)[0].tolist()
        assert ra == rb


class TestSearchQuality:
    @pytest.mark.parametrize("distance", [Distance.COSINE, Distance.EUCLID, Distance.DOT])
    def test_recall_at_10(self, distance):
        arena, index, data = build(600, distance=distance, seed=1)
        flat = FlatIndex(arena, distance)
        flat.build(data, np.arange(600, dtype=np.int64))
        rng = np.random.default_rng(2)
        recalls = []
        for _ in range(20):
            q = rng.normal(size=DIM).astype(np.float32)
            exact = set(flat.search(q, 10)[0].tolist())
            approx = set(index.search(q, 10, ef=128)[0].tolist())
            recalls.append(len(exact & approx) / 10)
        assert np.mean(recalls) >= 0.95

    def test_scores_ordered_best_first(self):
        _, index, _ = build(300)
        q = np.random.default_rng(5).normal(size=DIM).astype(np.float32)
        _, scores = index.search(q, 10)
        assert np.all(np.diff(scores) <= 1e-6)  # similarity descending

    def test_euclid_scores_ascending(self):
        _, index, _ = build(300, distance=Distance.EUCLID)
        q = np.random.default_rng(5).normal(size=DIM).astype(np.float32)
        _, scores = index.search(q, 10)
        assert np.all(np.diff(scores) >= -1e-6)

    def test_self_query_returns_self(self):
        arena, index, data = build(400, seed=7)
        for i in (0, 101, 399):
            offsets, _ = index.search(data[i], 1, ef=64)
            assert offsets[0] == i

    def test_ef_improves_recall(self):
        arena, index, data = build(800, seed=11)
        flat = FlatIndex(arena, Distance.COSINE)
        flat.build(data, np.arange(800, dtype=np.int64))
        rng = np.random.default_rng(4)
        queries = rng.normal(size=(15, DIM)).astype(np.float32)

        def mean_recall(ef):
            total = 0.0
            for q in queries:
                exact = set(flat.search(q, 10)[0].tolist())
                approx = set(index.search(q, 10, ef=ef)[0].tolist())
                total += len(exact & approx) / 10
            return total / len(queries)

        assert mean_recall(256) >= mean_recall(8) - 1e-9

    def test_k_larger_than_index(self):
        _, index, _ = build(5)
        q = np.zeros(DIM, dtype=np.float32)
        offsets, _ = index.search(q, 50)
        assert len(offsets) == 5


class TestFilteredSearch:
    def test_predicate_respected(self):
        _, index, data = build(300)
        even = lambda off: off % 2 == 0
        offsets, _ = index.search(data[10], 10, predicate=even)
        assert len(offsets) > 0
        assert all(o % 2 == 0 for o in offsets)

    def test_restrictive_predicate(self):
        _, index, data = build(300)
        allowed = {7}
        offsets, _ = index.search(data[7], 5, predicate=lambda o: o in allowed)
        # graph search may or may not reach node 7, but must never return others
        assert set(offsets.tolist()) <= allowed

    def test_none_predicate_equals_unfiltered(self):
        _, index, data = build(200)
        a = index.search(data[0], 10)[0].tolist()
        b = index.search(data[0], 10, predicate=None)[0].tolist()
        assert a == b


class TestStats:
    def test_distance_computations_counted(self):
        _, index, data = build(300)
        index.stats.reset()
        index.search(data[0], 10)
        assert 0 < index.stats.distance_computations < 300 * 2

    def test_inserts_counted(self):
        _, index, _ = build(50)
        assert index.stats.inserts == 50


@given(st.integers(2, 60), st.integers(1, 10))
@settings(max_examples=10, deadline=None)
def test_hnsw_size_and_search_never_crash(n, k):
    """Property: any size/k combination returns <= min(n, k) unique offsets."""
    _, index, data = build(n, seed=n)
    offsets, _ = index.search(data[0], k, ef=32)
    assert len(offsets) <= min(n, k)
    assert len(set(offsets.tolist())) == len(offsets)


class TestPersistence:
    def test_roundtrip_identical_searches(self, tmp_path):
        arena, index, data = build(400, seed=21)
        arrays = index.to_arrays()
        # through-disk roundtrip (npz), as a snapshot would store it
        path = tmp_path / "graph.npz"
        np.savez(path, **arrays)
        loaded = dict(np.load(path))
        revived = HnswIndex.from_arrays(arena, Distance.COSINE, loaded)
        rng = np.random.default_rng(22)
        for _ in range(10):
            q = rng.normal(size=DIM).astype(np.float32)
            a = index.search(q, 10)[0].tolist()
            b = revived.search(q, 10)[0].tolist()
            assert a == b

    def test_roundtrip_preserves_structure(self):
        arena, index, _ = build(200, seed=23)
        revived = HnswIndex.from_arrays(arena, Distance.COSINE, index.to_arrays())
        assert revived.size == index.size
        assert revived.entry_point == index.entry_point
        assert revived.max_level == index.max_level
        assert revived.edge_count() == index.edge_count()
        for off in (0, 57, 199):
            assert revived.neighbors_of(off, 0) == index.neighbors_of(off, 0)

    def test_revived_index_supports_incremental_add(self):
        arena, index, _ = build(100, seed=24)
        revived = HnswIndex.from_arrays(arena, Distance.COSINE, index.to_arrays())
        v = np.random.default_rng(25).normal(size=DIM).astype(np.float32)
        v /= np.linalg.norm(v)
        off = arena.append(v)
        revived.add(off, v)
        assert revived.search(v, 1)[0][0] == off

    def test_empty_index_roundtrip(self):
        arena = VectorArena(DIM)
        index = HnswIndex(arena, Distance.COSINE)
        revived = HnswIndex.from_arrays(arena, Distance.COSINE, index.to_arrays())
        assert revived.size == 0 and revived.entry_point is None
