"""The quantized HNSW search reads one per-query code table, bit for bit.

A quantized search scores its query against every stored code row once and
lets the beam read each hop's distances from that table.  It must return
what the per-hop search returned (``hnsw_reference.ReferenceQuantizedSearch``,
a frozen copy): the same offsets, the same scores, and the same
``distance_computations`` and ``hops`` — for every distance, with and
without a predicate, an ``ef`` override and rescoring, through ``search``
and ``search_batch``, with the table and above its size budget.  A node
linked after the table was built takes the per-hop kernel instead.
"""

import sys
import threading

import numpy as np
import pytest

from hnsw_reference import ReferenceQuantizedSearch
from repro.core.index import hnsw
from repro.core.index.hnsw import HnswIndex
from repro.core.quantization import CodeStore, ScalarQuantizer
from repro.core.storage import VectorArena
from repro.core.types import Distance, HnswConfig

DIM = 16
N = 300
K = 10


def build(distance: Distance, n: int = N, *, spare: int = 0, seed: int = 3) -> HnswIndex:
    """A quantized index over ``n`` random vectors; ``spare`` extra arena
    rows leave the link matrix room for adds without reallocating."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, DIM)).astype(np.float32)
    if distance is Distance.COSINE:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    arena = VectorArena(DIM)
    arena.reserve(n + spare)
    offsets = arena.extend(vectors)
    index = HnswIndex(arena, distance, HnswConfig(m=8, ef_construct=32, ef_search=24))
    index.build(vectors, offsets)
    quantizer = ScalarQuantizer(0.99)
    quantizer.train(vectors)
    codes = CodeStore(DIM)
    codes.extend(quantizer.encode(vectors))
    index.attach_quantization(codes, quantizer)
    return index


def queries(n: int = 12, seed: int = 9) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, DIM)).astype(np.float32)


def counted(index: HnswIndex, run):
    """``run()``'s result and the (distance computations, hops) it cost."""
    dcs, hops = index.stats.distance_computations, index.stats.hops
    out = run()
    return out, (index.stats.distance_computations - dcs, index.stats.hops - hops)


def assert_same_hits(got, expected):
    """Exact equality of an (offsets, scores) pair."""
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])


def assert_identical(got, expected):
    """Same hits at the same cost, for two :func:`counted` runs."""
    assert_same_hits(got[0], expected[0])
    assert got[1] == expected[1]


@pytest.fixture(params=["table", "per-hop"])
def budget(request, monkeypatch):
    """Run with the table, and with the store above the table budget."""
    if request.param == "per-hop":
        monkeypatch.setattr(hnsw, "_CODE_TABLE_BUDGET", 0)
    else:
        assert N * DIM <= hnsw._CODE_TABLE_BUDGET
    return request.param


CASES = {
    "plain": {},
    "predicate": {"predicate": lambda off: off % 3 == 0},
    "ef": {"ef": 60},
    "no-rescore": {"rescore": False},
    "all-three": {"predicate": lambda off: off % 2 == 1, "ef": 40, "rescore": False},
}


@pytest.mark.parametrize("distance", list(Distance))
@pytest.mark.parametrize("case", list(CASES))
def test_search_matches_per_hop_reference(distance, case, budget):
    index = build(distance)
    reference = ReferenceQuantizedSearch(index)
    params = CASES[case]
    for q in queries():
        expected = counted(index, lambda: reference.search(q, K, **params))
        got = counted(index, lambda: index.search(q, K, quantized=True, **params))
        assert_identical(got, expected)
        assert got[0][0].size == K


@pytest.mark.parametrize("distance", list(Distance))
@pytest.mark.parametrize("rescore", [True, False])
def test_search_batch_matches_per_hop_reference(distance, rescore, budget):
    index = build(distance)
    reference = ReferenceQuantizedSearch(index)
    qs = queries(16, seed=11)
    expected = counted(index, lambda: reference.search_batch(qs, K, rescore=rescore))
    got = counted(index, lambda: index.search_batch(qs, K, quantized=True, rescore=rescore))
    assert got[1] == expected[1]
    for g, e in zip(got[0], expected[0]):
        assert_same_hits(g, e)


def test_table_budget_boundary(monkeypatch):
    """At the budget the search scores a table; one row past it, every hop
    runs its own code kernel."""
    dim = 128
    rows = hnsw._CODE_TABLE_BUDGET // dim
    rng = np.random.default_rng(0)
    quantizer = ScalarQuantizer(0.99)
    quantizer.train(rng.normal(size=(256, dim)))
    codes = CodeStore(dim)
    codes.extend(rng.integers(0, 256, size=(rows, dim), dtype=np.uint8))
    index = HnswIndex(VectorArena(dim), Distance.DOT)
    index.attach_quantization(codes, quantizer)
    qq = quantizer.encode_query(rng.normal(size=dim).astype(np.float32))
    per_hop = []
    qdist = index._qdist_many
    monkeypatch.setattr(index, "_qdist_many", lambda q, r: per_hop.append(r) or qdist(q, r))
    some = np.array([0, 7, rows - 1], dtype=np.int64)

    at_budget = index._code_kernel(qq)(some)
    assert per_hop == []
    codes.extend(rng.integers(0, 256, size=(1, dim), dtype=np.uint8))
    past_budget = index._code_kernel(qq)(some)
    assert len(per_hop) == 1
    np.testing.assert_array_equal(at_budget, past_budget)


def test_node_added_mid_search_takes_the_per_hop_kernel():
    """A predicate inserts a node next to the query on its 5th call.  The
    beam later meets that node, which the table built at the start of the
    search has no row for: that hop falls back to the per-hop kernel and
    the search still matches the reference run with the same hook."""
    q = queries(1, seed=4)[0]
    runs = []
    for make_search in (ReferenceQuantizedSearch, lambda index: index):
        index = build(Distance.EUCLID, spare=8)
        searcher = make_search(index)
        fallbacks = []
        qdist = index._qdist_many
        index._qdist_many = lambda qq, rows: fallbacks.append(rows) or qdist(qq, rows)
        calls = []

        def inserting(off, index=index, calls=calls):
            calls.append(off)
            if len(calls) == 5:
                new = index._arena.append(q)
                index._qstore.extend(index._quantizer.encode(q[None, :]))
                index.add(new, q)
            return True

        kwargs = {"quantized": True} if searcher is index else {}
        got = counted(index, lambda: searcher.search(q, K, predicate=inserting, **kwargs))
        runs.append((got, fallbacks))
    (expected, _), (got, fallbacks) = runs
    assert_identical(got, expected)
    assert N in got[0][0].tolist()  # the beam reached the new node...
    assert any(N in rows.tolist() for rows in fallbacks)  # ...through the fallback


def test_searches_beside_a_writer():
    """Quantized searches race a writer that appends codes and links nodes
    the searches' tables do not cover: none may fail, each returns K
    distinct hits."""
    rng = np.random.default_rng(21)
    extra = rng.normal(size=(150, DIM)).astype(np.float32)
    index = build(Distance.EUCLID)
    index.compile()
    qs = queries(8, seed=22)
    done = threading.Event()
    errors: list[BaseException] = []
    searches = [0]

    def reader():
        try:
            while not done.is_set():
                for q in qs:
                    offsets, scores = index.search(q, K, quantized=True)
                    assert len(set(offsets.tolist())) == K
                    assert (np.diff(scores) >= 0).all()
                    searches[0] += 1
        except BaseException as exc:  # surfaced in the main thread below
            errors.append(exc)

    def writer():
        try:
            for vec in extra:
                off = index._arena.append(vec)
                index._qstore.extend(index._quantizer.encode(vec[None, :]))
                index.add(off, vec)
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
        done.set()
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert searches[0] > 0 and index.size == N + len(extra)
