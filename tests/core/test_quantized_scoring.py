"""Integer-domain quantized scoring engine tests.

Covers the PR-7 acceptance properties:

* integer-domain scores match decode-then-score within the documented
  tolerance (|Δ| ≤ 1e-5 · max(1, |score|)) for all three distances
  (hypothesis property);
* quantized ``search_batch`` equals per-query ``search`` bit for bit
  (ids *and* scores), with and without rescore/filters/deletes;
* recall@10 under rescore is no worse than the pre-change decode-based
  quantized path on a seeded corpus;
* incremental correction terms equal recompute-from-scratch after
  upsert/delete/vacuum;
* a sealed segment runs HNSW traversal over quantized codes with exact
  rescore (quantization and indexing compose).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    QuantizationConfig,
    SearchRequest,
    VectorParams,
)
from repro.core import distances
from repro.core.collection import Collection
from repro.core.quantization import CodeStore, ScalarQuantizer, code_corrections
from repro.core.segment import Segment
from repro.core.types import PointStruct
from repro.core.filters import FieldMatch, Filter

DISTANCES = [Distance.DOT, Distance.COSINE, Distance.EUCLID]


def _config(distance, **quant_kwargs):
    return CollectionConfig(
        "q",
        VectorParams(size=32, distance=distance),
        quantization=QuantizationConfig(enabled=True, **quant_kwargs),
    )


def _seeded_segment(distance, n=800, dim=32, seed=5, payload_every=None):
    seg = Segment(_config(distance))
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n):
        payload = None
        if payload_every is not None:
            payload = {"bucket": "a" if i % payload_every == 0 else "b"}
        pts.append(PointStruct(id=i, vector=rng.normal(size=dim), payload=payload))
    seg.upsert_batch(pts)
    return seg


def _keys(hits):
    return [(h.id, h.score) for h in hits]


class TestIntegerDomainTolerance:
    """score_codes == decode-then-score within the documented tolerance."""

    @pytest.mark.parametrize("distance", DISTANCES)
    @given(data=arrays(np.float32, (24, 12),
                       elements=st.floats(-50, 50, allow_nan=False, width=32)),
           qrow=st.integers(0, 23))
    @settings(max_examples=25, deadline=None)
    def test_matches_decode_then_score(self, distance, data, qrow):
        q = ScalarQuantizer(quantile=1.0)
        q.train(data)
        codes = q.encode(data)
        sums, sq = code_corrections(codes)
        query = data[qrow]
        if distance is Distance.COSINE:
            query = distances.normalize(query)
        qq = q.encode_query(query)
        got = q.score_codes(codes, sums, sq, qq, distance)
        # Reference: decode both sides and score in float64, so the test
        # isolates integer-domain rounding from reference-kernel rounding.
        approx = codes.astype(np.float64) * q._scale + q._lo  # noqa: SLF001
        qhat = qq.codes.astype(np.float64) * qq.scale + qq.lo
        if distance is Distance.EUCLID:
            diff = approx - qhat
            ref = np.einsum("ij,ij->i", diff, diff)
        else:
            ref = approx @ qhat
        tol = 1e-5 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(got.astype(np.float64) - ref) <= tol)

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_batch_equals_single_kernel_bitwise(self, distance):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(500, 48)).astype(np.float32)
        q = ScalarQuantizer()
        q.train(data)
        codes = q.encode(data)
        sums, sq = code_corrections(codes)
        qqs = [q.encode_query(rng.normal(size=48).astype(np.float32)) for _ in range(7)]
        batch = q.score_codes_batch(codes, sums, sq, qqs, distance)
        for qq, col in zip(qqs, batch):
            single = q.score_codes(codes, sums, sq, qq, distance)
            assert np.array_equal(single, col)


class TestBatchBitIdentity:
    """Quantized ``search_batch`` == per-query ``search``, bit for bit."""

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_plain(self, distance):
        seg = _seeded_segment(distance)
        seg.enable_quantization()
        rng = np.random.default_rng(17)
        queries = rng.normal(size=(9, 32)).astype(np.float32)
        single = [seg.search(q, 10) for q in queries]
        batch = seg.search_batch(queries, 10)
        for s, b in zip(single, batch):
            assert _keys(s) == _keys(b)

    def test_with_deletes_upserts_and_filter(self):
        seg = _seeded_segment(Distance.COSINE, payload_every=3)
        seg.enable_quantization()
        rng = np.random.default_rng(19)
        # Mutations after quantization: codes must stay offset-aligned.
        seg.upsert_batch(
            [PointStruct(id=1000 + i, vector=rng.normal(size=32),
                         payload={"bucket": "a"}) for i in range(25)]
        )
        seg.upsert(PointStruct(id=4, vector=rng.normal(size=32),
                               payload={"bucket": "a"}))
        for pid in (0, 9, 12):
            seg.delete(pid)
        flt = Filter(must=[FieldMatch(key="bucket", value="a")])
        queries = rng.normal(size=(6, 32)).astype(np.float32)
        single = [seg.search(q, 8, flt=flt) for q in queries]
        batch = seg.search_batch(queries, 8, flt=flt)
        for s, b in zip(single, batch):
            assert _keys(s) == _keys(b)
            assert all(h.id != 0 and h.id != 9 and h.id != 12 for h in s)

    def test_no_rescore_path(self):
        seg = _seeded_segment(Distance.EUCLID)
        seg.enable_quantization()
        rng = np.random.default_rng(23)
        queries = rng.normal(size=(5, 32)).astype(np.float32)
        single = [seg.search(q, 10, quantization_rescore=False) for q in queries]
        batch = seg.search_batch(queries, 10, quantization_rescore=False)
        for s, b in zip(single, batch):
            assert _keys(s) == _keys(b)


class TestRescoreRecall:
    """Recall@10 under rescore >= the pre-change decode-based quantized path."""

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_recall_no_worse_than_decode_path(self, distance):
        seg = _seeded_segment(distance, n=1200)
        rng = np.random.default_rng(29)
        queries = [rng.normal(size=32).astype(np.float32) for _ in range(20)]
        exact = {i: {h.id for h in seg.search(q, 10)} for i, q in enumerate(queries)}
        seg.enable_quantization()
        quantizer = seg._quantizer  # noqa: SLF001 - reproducing the old path
        codes = seg._codes.view()  # noqa: SLF001
        new_hits = 0
        old_hits = 0
        for i, q in enumerate(queries):
            query = distances.normalize(q) if distance is Distance.COSINE else q
            new_ids = {h.id for h in seg.search(q, 10)}
            # Pre-change path: decode the full code matrix per query, score
            # in float, rescore the top-4k exactly.
            approx = quantizer.decode(codes)
            scores = distances.score_batch(approx, query, distance)
            idx, _ = distances.top_k(scores, 40, distance)
            cand = idx
            exact_scores = distances.score_batch(
                seg._arena.take(cand), query, distance  # noqa: SLF001
            )
            idx2, _ = distances.top_k(exact_scores, 10, distance)
            old_ids = {int(seg._ids.id_at(int(o))) for o in cand[idx2]}  # noqa: SLF001
            new_hits += len(new_ids & exact[i])
            old_hits += len(old_ids & exact[i])
        assert new_hits >= old_hits
        assert new_hits >= 0.9 * 10 * len(queries)


class TestIncrementalCorrections:
    """CodeStore corrections stay equal to recompute-from-scratch."""

    def _assert_corrections_fresh(self, seg):
        store = seg._codes  # noqa: SLF001
        quantizer = seg._quantizer  # noqa: SLF001
        arena_view = seg._arena.view()  # noqa: SLF001
        assert len(store) == arena_view.shape[0]
        expected_codes = quantizer.encode(arena_view)
        assert np.array_equal(store.view(), expected_codes)
        sums, sq = code_corrections(store.view())
        got_sums, got_sq = store.corrections()
        assert np.array_equal(sums, got_sums)
        assert np.array_equal(sq, got_sq)

    def test_after_upsert_delete_vacuum(self):
        seg = _seeded_segment(Distance.DOT, n=300)
        seg.enable_quantization()
        rng = np.random.default_rng(31)
        self._assert_corrections_fresh(seg)
        # fresh appends (batch + single) and an overwrite
        seg.upsert_batch(
            [PointStruct(id=500 + i, vector=rng.normal(size=32)) for i in range(40)]
        )
        seg.upsert(PointStruct(id=7, vector=rng.normal(size=32)))
        self._assert_corrections_fresh(seg)
        # deletes tombstone only; codes remain aligned with the arena
        for pid in range(0, 60, 2):
            seg.delete(pid)
        self._assert_corrections_fresh(seg)
        # vacuum rewrites into a fresh quantized segment
        fresh = seg.vacuum()
        assert fresh.is_quantized
        self._assert_corrections_fresh(fresh)
        assert len(fresh) == len(seg)

    def test_columnar_upsert_keeps_codes(self):
        seg = _seeded_segment(Distance.COSINE, n=200)
        seg.enable_quantization()
        rng = np.random.default_rng(37)
        ids = np.arange(900, 960, dtype=np.int64)
        vectors = rng.normal(size=(60, 32)).astype(np.float32)
        seg.upsert_columnar(ids, vectors, [None] * 60)
        self._assert_corrections_fresh(seg)

    _assert_corrections_fresh.__test__ = False


class TestHnswQuantizedComposition:
    """Sealed segments run HNSW traversal over codes with exact rescore."""

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_indexed_and_quantized(self, distance):
        seg = _seeded_segment(distance, n=1500)
        seg.seal()
        seg.build_index("hnsw")
        exact = {h.id for h in seg.search(np.ones(32, dtype=np.float32), 10, exact=True)}
        seg.enable_quantization()
        assert seg.is_quantized and seg.is_indexed
        assert seg.index.supports_quantized_search
        hits = seg.search(np.ones(32, dtype=np.float32), 10)
        assert seg.index.quant_stats["searches"] == 1
        assert seg.index.quant_stats["rescored"] > 0
        recall = len({h.id for h in hits} & exact) / 10
        assert recall >= 0.8
        # Rescored scores are exact: re-derive them from the float vectors.
        for h in hits:
            vec = seg.retrieve(h.id, with_vector=True).vector
            q = np.ones(32, dtype=np.float32)
            if distance is Distance.COSINE:
                q = distances.normalize(q)
            if distance is Distance.EUCLID:
                expected = float(np.dot(vec - q, vec - q))
            else:
                expected = float(vec @ q)
            assert h.score == pytest.approx(expected, rel=1e-5)

    def test_quantize_then_index_attaches(self):
        seg = _seeded_segment(Distance.COSINE, n=600)
        seg.enable_quantization()
        seg.seal()
        seg.build_index("hnsw")
        assert seg.index.supports_quantized_search
        q = np.random.default_rng(41).normal(size=32).astype(np.float32)
        assert len(seg.search(q, 5)) == 5
        assert seg.index.quant_stats["searches"] == 1

    def test_batch_equals_single_through_index(self):
        seg = _seeded_segment(Distance.COSINE, n=900)
        seg.seal()
        seg.build_index("hnsw")
        seg.enable_quantization()
        rng = np.random.default_rng(43)
        queries = rng.normal(size=(5, 32)).astype(np.float32)
        single = [seg.search(q, 10) for q in queries]
        batch = seg.search_batch(queries, 10)
        for s, b in zip(single, batch):
            assert _keys(s) == _keys(b)

    def test_detach_falls_back_to_float_traversal(self):
        seg = _seeded_segment(Distance.DOT, n=500)
        seg.seal()
        seg.build_index("hnsw")
        seg.enable_quantization()
        q = np.random.default_rng(47).normal(size=32).astype(np.float32)
        quant_hits = seg.search(q, 10)
        seg.index.detach_quantization()
        assert not seg.index.supports_quantized_search
        float_hits = seg.search(q, 10)
        assert len(float_hits) == 10
        assert seg.index.quant_stats["searches"] == 1  # only the first search
        assert {h.id for h in quant_hits} == {h.id for h in float_hits}


class TestCodeStore:
    def test_validation_and_growth(self):
        with pytest.raises(ValueError):
            CodeStore(0)
        store = CodeStore(8)
        rng = np.random.default_rng(53)
        rows = rng.integers(0, 256, size=(300, 8)).astype(np.uint8)
        for start in range(0, 300, 37):
            store.extend(rows[start : start + 37])
        assert len(store) == 300
        assert np.array_equal(store.view(), rows)
        with pytest.raises(IndexError):
            store.overwrite(300, rows[0])
        with pytest.raises(ValueError):
            store.extend(np.zeros((2, 9), dtype=np.uint8))
        assert store.nbytes >= 300 * 8

    def test_take_and_partial_corrections(self):
        store = CodeStore(4)
        rows = np.arange(40, dtype=np.uint8).reshape(10, 4)
        store.extend(rows)
        offs = np.asarray([7, 2, 5], dtype=np.int64)
        assert np.array_equal(store.take(offs), rows[offs])
        sums, sq = store.corrections(offs)
        esums, esq = code_corrections(rows[offs])
        assert np.array_equal(sums, esums)
        assert np.array_equal(sq, esq)


class TestAppendPublishesCodesBeforeIds:
    """A quantized segment that still takes appends is scanned lock-free, and
    the scan gathers a code row for every registered id — so the write path
    must extend the code store before it registers the id."""

    @pytest.mark.parametrize("path", ["upsert", "upsert_batch", "upsert_columnar"])
    def test_scan_at_the_moment_an_id_is_registered(self, path):
        seg = _seeded_segment(Distance.COSINE, n=60)
        seg.enable_quantization()
        rng = np.random.default_rng(41)
        query = rng.normal(size=32).astype(np.float32)
        register = seg._ids.register  # noqa: SLF001
        scans = []

        def register_then_scan(point_id, offset):
            register(point_id, offset)
            # what a searcher scheduled right here would do
            scans.append(seg.search(query, 5))

        seg._ids.register = register_then_scan  # noqa: SLF001
        vectors = rng.normal(size=(3, 32)).astype(np.float32)
        if path == "upsert":
            seg.upsert(PointStruct(id=900, vector=vectors[0]))
        elif path == "upsert_batch":
            seg.upsert_batch([PointStruct(id=900 + i, vector=v) for i, v in enumerate(vectors)])
        else:
            seg.upsert_columnar(np.arange(900, 903), vectors, [None] * 3)
        assert scans and all(len(hits) == 5 for hits in scans)

    def test_searcher_beside_appends_after_vacuum(self):
        """The reproducer from benchmarks/e2e/README.md ("Three defects", 1):
        a vacuum leaves a quantized, unsealed segment; a searcher runs beside
        a writer that keeps appending to it."""
        rng = np.random.default_rng(0)
        col = Collection(CollectionConfig(
            "c", VectorParams(size=32),
            optimizer=OptimizerConfig(indexing_threshold=50_000),
            quantization=QuantizationConfig(enabled=True),
        ))
        col.upsert([PointStruct(id=i, vector=rng.normal(size=32)) for i in range(80)])
        col.build_index("hnsw")
        col.delete(list(range(30)))  # > 20 % deleted
        col.run_maintenance_pass()  # vacuum: 50 live, quantized, unsealed
        queries = rng.normal(size=(16, 32))
        done = threading.Event()
        errors: list[BaseException] = []
        searches = [0]

        def search():
            try:
                while not done.is_set():
                    for q in queries:
                        col.search(SearchRequest(vector=q, limit=10))
                        searches[0] += 1
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        searcher = threading.Thread(target=search)
        try:
            searcher.start()
            for i in range(1000, 7000, 3):
                if errors:
                    break
                col.upsert([PointStruct(id=i + j, vector=rng.normal(size=32)) for j in range(3)])
        finally:
            done.set()
            searcher.join(timeout=60)
            sys.setswitchinterval(old)
        assert not searcher.is_alive()
        assert not errors, repr(errors[0])
        assert searches[0] > 0
