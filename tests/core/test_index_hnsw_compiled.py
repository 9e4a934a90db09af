"""Sealed (compiled) HNSW equivalence tests.

Compiling is a pure representation change: a sealed graph must return
bit-identical ``(offsets, scores)`` to the appendable one for every query,
metric, predicate and ef — that equivalence is what lets ``Segment.seal``
compile unconditionally.  Construction and search share one beam over one
array-backed adjacency, so the suite also pins down what overlapping
searches (and a writer's ``add``) may assume of each other.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.index.hnsw import HnswIndex
from repro.core.quantization import CodeStore, ScalarQuantizer
from repro.core.storage import VectorArena
from repro.core.types import Distance, HnswConfig

DIM = 16
N = 300


def build_index(distance: Distance, n: int = N, seed: int = 3) -> HnswIndex:
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, DIM)).astype(np.float32)
    if distance is Distance.COSINE:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    arena = VectorArena(DIM)
    arena.extend(vectors)
    index = HnswIndex(arena, distance, HnswConfig(m=8, ef_construct=32))
    offsets = np.arange(n, dtype=np.int64)
    index.build(arena.take(offsets), offsets)
    return index


def queries(n: int = 20, seed: int = 9) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, DIM)).astype(np.float32)


def assert_identical(a, b):
    """Exact equality of an (offsets, scores) pair."""
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


@pytest.mark.parametrize("distance", [Distance.COSINE, Distance.DOT, Distance.EUCLID])
class TestCompiledEquivalence:
    def test_compile_matches_dict_form(self, distance):
        index = build_index(distance)
        assert not index.is_compiled
        expected = [index.search(q, 10) for q in queries()]
        index.compile()
        assert index.is_compiled
        for q, exp in zip(queries(), expected):
            assert_identical(index.search(q, 10), exp)

    def test_decompile_round_trip(self, distance):
        index = build_index(distance)
        expected = [index.search(q, 5) for q in queries()]
        index.compile()
        index.decompile()
        assert not index.is_compiled
        for q, exp in zip(queries(), expected):
            assert_identical(index.search(q, 5), exp)

    def test_from_arrays_round_trip(self, distance):
        index = build_index(distance)
        restored = HnswIndex.from_arrays(
            index._arena, distance, index.to_arrays(), index.config
        )
        restored.compile()
        for q in queries():
            assert_identical(restored.search(q, 10), index.search(q, 10))

    def test_predicate_and_ef_equivalence(self, distance):
        index = build_index(distance)
        predicate = lambda off: off % 3 == 0  # noqa: E731
        expected = [index.search(q, 8, predicate=predicate, ef=200) for q in queries()]
        index.compile()
        for q, exp in zip(queries(), expected):
            got = index.search(q, 8, predicate=predicate, ef=200)
            assert_identical(got, exp)
            assert all(off % 3 == 0 for off in got[0])

    def test_batch_matches_single(self, distance):
        index = build_index(distance)
        qs = queries()
        batch = index.search_batch(qs, 10)
        assert index.is_compiled  # batch entry compiles on first use
        for q, pair in zip(qs, batch):
            assert_identical(pair, index.search(q, 10))


class TestCompiledLifecycle:
    def test_add_invalidates_compiled_form(self):
        # EUCLID: the nearest neighbour of a stored vector is itself.
        index = build_index(Distance.EUCLID)
        index.compile()
        vec = np.random.default_rng(1).normal(size=DIM).astype(np.float32)
        off = index._arena.append(vec)
        index.add(off, vec)
        assert not index.is_compiled
        offsets, _ = index.search(vec, 1, ef=64)
        assert offsets[0] == off

    def test_recompile_after_add_matches_dict_form(self):
        index = build_index(Distance.DOT)
        index.compile()
        rng = np.random.default_rng(2)
        for _ in range(10):
            vec = rng.normal(size=DIM).astype(np.float32)
            off = index._arena.append(vec)
            index.add(off, vec)
        expected = [index.search(q, 10) for q in queries()]
        index.compile()
        for q, exp in zip(queries(), expected):
            assert_identical(index.search(q, 10), exp)

    def test_empty_index_search(self):
        arena = VectorArena(DIM)
        index = HnswIndex(arena, Distance.COSINE)
        index.compile()  # must not blow up on an empty graph
        offsets, scores = index.search(np.zeros(DIM, dtype=np.float32), 5)
        assert offsets.size == 0 and scores.size == 0


def quantized_index(n: int = 600) -> HnswIndex:
    index = build_index(Distance.COSINE, n=n)
    quantizer = ScalarQuantizer(0.99)
    quantizer.train(index._arena.view())
    codes = CodeStore(DIM)
    codes.extend(quantizer.encode(index._arena.view()))
    index.attach_quantization(codes, quantizer)
    index.compile()
    return index


class TestOverlappingSearches:
    """Searches of one graph share nothing mutable: each beam checks out its
    own visited scratch, so a search started while another is in flight —
    on another thread, or from inside a predicate — changes neither."""

    @pytest.mark.parametrize("quantized", [False, True])
    def test_search_from_inside_a_predicate(self, quantized):
        index = quantized_index()
        # The inner search repeats the outer query, so it walks the very
        # nodes whose visit marks the outer beam still depends on.
        q = queries(1, seed=4)[0]
        always = lambda off: True  # noqa: E731
        solo = index.search(q, 10, predicate=always, quantized=quantized)
        inner_solo = index.search(q, 10, quantized=quantized)
        calls = []

        def reentrant(off):
            calls.append(off)
            if len(calls) == 40:
                assert_identical(index.search(q, 10, quantized=quantized), inner_solo)
            return True

        got = index.search(q, 10, predicate=reentrant, quantized=quantized)
        assert len(calls) >= 40
        assert len(set(got[0].tolist())) == 10
        assert_identical(got, solo)

    def test_add_from_inside_a_predicate(self):
        """Construction runs the same beam: an insert in the middle of a
        search must not disturb the search's visit marks either."""
        index = build_index(Distance.EUCLID)
        index.compile()
        q = queries(1, seed=6)[0]
        always = lambda off: True  # noqa: E731
        solo = index.search(q, 10, predicate=always)
        # Far from every stored point and from ``q``: it cannot enter the top 10.
        vec = np.full(DIM, 50.0, dtype=np.float32)
        calls = []

        def inserting(off):
            calls.append(off)
            if len(calls) == 25:
                index.add(index._arena.append(vec), vec)
            return True

        assert_identical(index.search(q, 10, predicate=inserting), solo)
        assert index.size == N + 1

    @pytest.mark.parametrize("quantized", [False, True])
    def test_two_thread_hammer_matches_solo_results(self, quantized):
        index = quantized_index()
        qs = queries(24, seed=12)
        solo = [index.search(q, 10, quantized=quantized) for q in qs]
        errors: list[BaseException] = []

        def hammer(order):
            try:
                for _ in range(6):
                    for i in order:
                        assert_identical(index.search(qs[i], 10, quantized=quantized), solo[i])
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(range(24),)),
                threading.Thread(target=hammer, args=(range(23, -1, -1),)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]

    def test_searches_beside_one_writer(self):
        """A writer's ``add`` (the appendable indexed segment's write path)
        runs beside searches: no search may fail or return an offset twice,
        across link-matrix and arena reallocations, and the writer's graph
        must come out as if nobody had been reading."""
        rng = np.random.default_rng(21)
        extra = rng.normal(size=(200, DIM)).astype(np.float32)
        index = build_index(Distance.EUCLID)
        index.compile()
        qs = queries(8, seed=22)
        done = threading.Event()
        errors: list[BaseException] = []
        searches = [0]

        def reader():
            try:
                while not done.is_set():
                    for q in qs:
                        offsets, scores = index.search(q, 10)
                        assert len(set(offsets.tolist())) == 10
                        assert (np.diff(scores) >= 0).all()
                        searches[0] += 1
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        def writer():
            try:
                for vec in extra:
                    index.add(index._arena.append(vec), vec)
            except BaseException as exc:
                errors.append(exc)
            finally:
                done.set()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
            done.set()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert searches[0] > 0 and index.size == N + 200

        twin = build_index(Distance.EUCLID)
        for vec in extra:
            twin.add(twin._arena.append(vec), vec)
        for off in range(N + 200):
            assert index.neighbors_of(off) == twin.neighbors_of(off)
