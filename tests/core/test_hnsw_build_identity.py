"""The HNSW graph is a contract: construction must reproduce, bit for bit,
the graph of the frozen reference builder in ``hnsw_reference.py``.

Identity is checked where it is decided — the selection heuristic, on
adversarial candidate sets — and on whole builds: per-node levels,
adjacency *order* per layer, entry point, top level and the work counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnsw_reference import ReferenceHnsw
from repro.core.index.hnsw import HnswIndex
from repro.core.storage import VectorArena
from repro.core.types import Distance, HnswConfig

DISTANCES = [Distance.COSINE, Distance.DOT, Distance.EUCLID]
DIM = 24


def arena_of(vectors: np.ndarray, distance: Distance) -> VectorArena:
    vectors = np.asarray(vectors, dtype=np.float32)
    if distance is Distance.COSINE:
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors = vectors / np.where(norms > 0, norms, 1)
    arena = VectorArena(vectors.shape[1])
    if len(vectors):
        arena.extend(vectors)
    return arena


def random_arena(n: int, distance: Distance, seed: int = 5) -> VectorArena:
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, DIM))
    if n >= 17:
        vectors[3::7] = vectors[3]  # duplicate vectors: exact distance ties
    return arena_of(vectors, distance)


def build_pair(arena: VectorArena, distance: Distance, config: HnswConfig):
    offsets = np.arange(len(arena), dtype=np.int64)
    new = HnswIndex(arena, distance, config)
    new.build(arena.take(offsets), offsets)
    ref = ReferenceHnsw(arena, distance, config)
    ref.build(arena.take(offsets), offsets)
    return new, ref


def assert_same_graph(new: HnswIndex, ref: ReferenceHnsw, n: int) -> None:
    assert new.size == n
    assert new.entry_point == ref.entry_point
    assert new.max_level == ref.max_level
    for off in range(n):
        level = ref.level_of(off)
        assert new.level_of(off) == level
        for layer in range(level + 2):  # one past the top: must be empty in both
            assert new.neighbors_of(off, layer) == ref.neighbors_of(off, layer), (off, layer)
    assert new.stats.distance_computations == ref.stats.distance_computations
    assert new.stats.hops == ref.stats.hops
    assert new.stats.inserts == ref.stats.inserts


def assert_identical(a, b) -> None:
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


# Small integer coordinates: duplicate vectors and exactly tied distances are
# the common case, not the rare one.
grid_vectors = st.lists(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=40
)


@given(
    rows=grid_vectors,
    n=st.integers(0, 40),
    m=st.sampled_from([4, 16, 32]),
    distance=st.sampled_from(DISTANCES),
)
@settings(max_examples=150, deadline=None)
def test_select_heuristic_matches_naive_rule(rows, n, m, distance):
    """Same list, order included, and the same work counted."""
    arena = arena_of(np.asarray(rows, dtype=np.float32), distance)
    config = HnswConfig(m=m)
    new = HnswIndex(arena, distance, config)
    ref = ReferenceHnsw(arena, distance, config)
    offsets = np.arange(min(n, len(arena)), dtype=np.int64)
    base = arena.get(0)
    dists = new._dist_many(base, offsets).tolist() if len(offsets) else []
    candidates = list(zip(dists, offsets.tolist()))
    before = new.stats.distance_computations, ref.stats.distance_computations
    assert new._select_heuristic(list(candidates), m) == ref._select_heuristic(
        list(candidates), m
    )
    assert (
        new.stats.distance_computations - before[0]
        == ref.stats.distance_computations - before[1]
    )


@pytest.mark.parametrize("distance", DISTANCES)
@pytest.mark.parametrize("n", [1, 2, 17, 400])
def test_build_matches_reference_graph(distance, n):
    arena = random_arena(n, distance)
    new, ref = build_pair(arena, distance, HnswConfig(m=16, ef_construct=100))
    assert_same_graph(new, ref, n)


@pytest.mark.parametrize("distance", DISTANCES)
def test_small_m_build_matches_reference_graph(distance):
    """m=4: every layer overflows early, so most edges go through ``_link``."""
    arena = random_arena(150, distance, seed=8)
    new, ref = build_pair(arena, distance, HnswConfig(m=4, ef_construct=40))
    assert new.max_level >= 2
    assert_same_graph(new, ref, 150)


@pytest.mark.parametrize("distance", DISTANCES)
def test_arrays_round_trip_searches_identically(distance):
    arena = random_arena(200, distance)
    offsets = np.arange(200, dtype=np.int64)
    index = HnswIndex(arena, distance, HnswConfig(m=8, ef_construct=48))
    index.build(arena.take(offsets), offsets)
    arrays = index.to_arrays()
    restored = HnswIndex.from_arrays(arena, distance, arrays, index.config)
    again = restored.to_arrays()
    assert arrays.keys() == again.keys()
    for key in arrays:
        np.testing.assert_array_equal(arrays[key], again[key])
    rng = np.random.default_rng(11)
    for q in rng.normal(size=(15, DIM)).astype(np.float32):
        assert_identical(restored.search(q, 10), index.search(q, 10))
        assert_identical(
            restored.search(q, 5, predicate=lambda o: o % 2 == 0),
            index.search(q, 5, predicate=lambda o: o % 2 == 0),
        )


@pytest.mark.parametrize("distance", DISTANCES)
def test_add_after_compile_equals_fresh_build(distance):
    """Sealing is a representation change only: build 250, compile, add 50
    more — the graph and every search equal a straight build of all 300."""
    arena = random_arena(300, distance, seed=13)
    config = HnswConfig(m=8, ef_construct=48)
    offsets = np.arange(300, dtype=np.int64)
    staged = HnswIndex(arena, distance, config)
    staged.build(arena.take(offsets[:250]), offsets[:250])
    staged.compile()
    assert staged.is_compiled
    staged.build(arena.take(offsets[250:]), offsets[250:])
    assert not staged.is_compiled
    ref = ReferenceHnsw(arena, distance, config)
    ref.build(arena.take(offsets), offsets)
    assert_same_graph(staged, ref, 300)

    fresh = HnswIndex(arena, distance, config)
    fresh.build(arena.take(offsets), offsets)
    rng = np.random.default_rng(14)
    for q in rng.normal(size=(15, DIM)).astype(np.float32):
        assert_identical(staged.search(q, 10), fresh.search(q, 10))


def test_index_grows_with_an_appending_arena():
    """Interleaved arena appends and adds (the appendable-segment write path)
    cross several capacity doublings and still match the reference."""
    rng = np.random.default_rng(17)
    vectors = rng.normal(size=(220, DIM)).astype(np.float32)
    arena, ref_arena = VectorArena(DIM), VectorArena(DIM)
    config = HnswConfig(m=8, ef_construct=32)
    new = HnswIndex(arena, Distance.EUCLID, config)
    ref = ReferenceHnsw(ref_arena, Distance.EUCLID, config)
    for vec in vectors:
        new.add(arena.append(vec), vec)
        ref.add(ref_arena.append(vec), vec)
    assert_same_graph(new, ref, 220)
