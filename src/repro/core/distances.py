"""Vectorized distance/similarity kernels.

All kernels operate on a 2-D C-contiguous ``float32`` matrix of stored
vectors and either a single query (1-D) or a batch of queries (2-D), and are
written to stay inside BLAS for the heavy lifting (matrix–vector and
matrix–matrix products), following the vectorize-don't-loop idiom of the
scientific-Python optimization guide.

Conventions
-----------
* ``COSINE`` and ``DOT`` return *similarities* — higher is better.
* ``EUCLID`` returns squared Euclidean *distance* — lower is better.  Using
  the squared distance avoids a sqrt that cannot change the ranking.
* For cosine, stored vectors are expected to be pre-normalised (the storage
  layer normalises on insert), so cosine reduces to a dot product.  The
  kernels still work with unnormalised inputs via :func:`cosine_similarity`.
"""

from __future__ import annotations

import numpy as np

from .types import Distance

__all__ = [
    "normalize",
    "normalize_batch",
    "dot_scores",
    "cosine_similarity",
    "euclidean_sq",
    "score_batch",
    "score_pairwise",
    "dot_codes",
    "dot_codes_batch",
    "CODE_GEMM_TILE_ROWS",
    "top_k",
    "merge_top_k",
    "merge_hits",
]

_EPS = np.float32(1e-30)


def normalize(vec: np.ndarray) -> np.ndarray:
    """Return ``vec`` scaled to unit L2 norm (copy; zero vectors untouched)."""
    vec = np.asarray(vec, dtype=np.float32)
    norm = float(np.linalg.norm(vec))
    if norm <= float(_EPS):
        return vec.copy()
    return vec / np.float32(norm)


def normalize_batch(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """L2-normalise each row of ``mat``.

    Rows with (near-)zero norm are left unscaled rather than producing NaNs.
    ``out`` may alias ``mat`` for in-place normalisation (saves a copy of a
    potentially large matrix — memory idiom from the optimization guide).
    """
    mat = np.asarray(mat, dtype=np.float32)
    if mat.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {mat.shape}")
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    # Rows at or below _EPS divide by 1.0 (i.e. stay unscaled), matching
    # the single-vector ``normalize`` bit for bit on degenerate inputs.
    np.copyto(norms, np.float32(1.0), where=norms <= _EPS)
    if out is None:
        return mat / norms
    np.divide(mat, norms, out=out)
    return out


def dot_scores(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Inner product of every row of ``matrix`` with ``query`` (1-D)."""
    return matrix @ query


def cosine_similarity(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine similarity handling unnormalised inputs."""
    qn = float(np.linalg.norm(query))
    if qn <= float(_EPS):
        return np.zeros(matrix.shape[0], dtype=np.float32)
    mnorms = np.linalg.norm(matrix, axis=1)
    np.maximum(mnorms, _EPS, out=mnorms)
    return (matrix @ (query / qn)) / mnorms


def euclidean_sq(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of ``matrix`` to ``query``.

    Uses the ``|x-q|^2 = |x|^2 - 2 x.q + |q|^2`` expansion so the dominant
    cost is one BLAS matvec; the ``|q|^2`` term is constant and dropped from
    ranking-only uses but kept here so scores are true squared distances.
    """
    sq_norms = np.einsum("ij,ij->i", matrix, matrix)
    scores = sq_norms - 2.0 * (matrix @ query) + float(query @ query)
    # Clamp tiny negative values caused by floating-point cancellation.
    np.maximum(scores, 0.0, out=scores)
    return scores


def score_batch(
    matrix: np.ndarray,
    query: np.ndarray,
    distance: Distance,
    *,
    normalized_storage: bool = True,
) -> np.ndarray:
    """Score a single query against all rows of ``matrix``.

    ``normalized_storage`` tells the kernel that stored vectors are already
    unit-norm, letting cosine reduce to a dot product.
    """
    query = np.ascontiguousarray(query, dtype=np.float32)
    if distance is Distance.DOT:
        return dot_scores(matrix, query)
    if distance is Distance.COSINE:
        if normalized_storage:
            return dot_scores(matrix, normalize(query))
        return cosine_similarity(matrix, query)
    if distance is Distance.EUCLID:
        return euclidean_sq(matrix, query)
    raise ValueError(f"unknown distance {distance!r}")


def score_pairwise(
    matrix: np.ndarray,
    queries: np.ndarray,
    distance: Distance,
    *,
    normalized_storage: bool = True,
) -> np.ndarray:
    """Score a batch of queries: returns ``(n_queries, n_vectors)``.

    One BLAS GEMM instead of ``n_queries`` GEMVs — this is the kernel behind
    batched search, and the reason query batching pays off (Figure 4).
    """
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    if queries.ndim != 2:
        raise ValueError(f"expected 2-D query batch, got shape {queries.shape}")
    if distance is Distance.DOT:
        return queries @ matrix.T
    if distance is Distance.COSINE:
        qn = normalize_batch(queries)
        if normalized_storage:
            return qn @ matrix.T
        mn = normalize_batch(matrix)
        return qn @ mn.T
    if distance is Distance.EUCLID:
        m_sq = np.einsum("ij,ij->i", matrix, matrix)
        q_sq = np.einsum("ij,ij->i", queries, queries)
        scores = m_sq[None, :] - 2.0 * (queries @ matrix.T) + q_sq[:, None]
        np.maximum(scores, 0.0, out=scores)
        return scores
    raise ValueError(f"unknown distance {distance!r}")


#: Row-tile size for the batched code GEMM.  Bounds the float work buffer to
#: ``CODE_GEMM_TILE_ROWS * dim`` floats regardless of how many codes are
#: scored — the whole point of the integer-domain scan is never allocating
#: an O(n·d) float32 matrix.
CODE_GEMM_TILE_ROWS = 8192


def _code_accumulators(dim: int) -> tuple[type, type]:
    """(GEMV int dtype, GEMM float dtype) that make code products *exact*.

    A code product ``c · cq`` sums ``dim`` terms of at most ``255²``.  The
    integer GEMV accumulates in int32 (int64 past the overflow bound); the
    float GEMM path relies on every partial sum being an integer below the
    mantissa limit, so float32 is exact only while ``dim · 255² < 2^24`` and
    float64 (exact to 2^53) takes over beyond.  Exactness is what makes the
    GEMV and GEMM kernels agree *bit for bit* — integer arithmetic is
    associative, so the accumulation order BLAS picks cannot matter.
    """
    max_sum = dim * 255 * 255
    int_dtype = np.int32 if max_sum < 2**31 else np.int64
    float_dtype = np.float32 if max_sum < 2**24 else np.float64
    return int_dtype, float_dtype


def dot_codes(codes: np.ndarray, query_codes: np.ndarray) -> np.ndarray:
    """Integer dot product of every uint8 code row with a uint8 query code.

    One buffered-cast einsum — no float32 copy of ``codes`` is ever
    materialized (the nditer buffer is a few KiB), and the result is the
    *exact* integer product, so it equals any column of
    :func:`dot_codes_batch` bit for bit.
    """
    int_dtype, _ = _code_accumulators(codes.shape[1])
    return np.einsum("ij,j->i", codes, query_codes, dtype=int_dtype)


def dot_codes_batch(
    codes: np.ndarray,
    query_codes: np.ndarray,
    *,
    tile_rows: int = CODE_GEMM_TILE_ROWS,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact integer code products for a batch: returns ``(n_codes, n_queries)``.

    The code matrix is cast tile-by-tile into a reused ``tile_rows × dim``
    float buffer and multiplied against all query codes with one BLAS GEMM
    per tile — the cast streams the codes **once per batch** instead of once
    per query, which is where the batched quantized scan's speedup comes
    from.  Because every partial sum is an exactly-representable integer
    (see ``_code_accumulators``), the result equals per-query
    :func:`dot_codes` bit for bit.
    """
    if codes.ndim != 2 or query_codes.ndim != 2:
        raise ValueError("dot_codes_batch expects 2-D codes and query codes")
    n, dim = codes.shape
    _, float_dtype = _code_accumulators(dim)
    qt = np.ascontiguousarray(query_codes.T, dtype=float_dtype)
    if out is None:
        out = np.empty((n, query_codes.shape[0]), dtype=float_dtype)
    buf = np.empty((min(tile_rows, n), dim), dtype=float_dtype)
    for start in range(0, n, tile_rows):
        end = min(start + tile_rows, n)
        tile = buf[: end - start]
        tile[...] = codes[start:end]
        np.matmul(tile, qt, out=out[start:end])
    return out


def top_k(scores: np.ndarray, k: int, distance: Distance) -> tuple[np.ndarray, np.ndarray]:
    """Indices and scores of the best ``k`` entries, ordered best-first.

    Uses ``argpartition`` (O(n)) followed by a sort of only ``k`` items,
    instead of a full O(n log n) sort.  Tie-breaking is deterministic: on
    equal scores the lower index wins — both for which entries make the
    cut and for their order in the output.  Callers that concatenate
    partial results (``merge_top_k``) therefore keep the earlier partial.
    """
    n = scores.shape[0]
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=scores.dtype)
    k = min(k, n)
    # Work in "ascending is better" space so one code path serves both senses.
    keys = -scores if distance.higher_is_better else scores
    if k < n:
        part = np.argpartition(keys, k - 1)[:k]
        cut = keys[part].max()
        better = np.flatnonzero(keys < cut)
        # argpartition picks boundary ties arbitrarily; re-resolve them by
        # taking the lowest indices among the tied entries.
        ties = np.flatnonzero(keys == cut)[: k - better.size]
        idx = np.concatenate([better, ties])
    else:
        idx = np.arange(n)
    order = np.lexsort((idx, keys[idx]))
    idx = idx[order]
    return idx, scores[idx]


def merge_top_k(
    partials: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    distance: Distance,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(ids, scores)`` partial results into a global top-k.

    This is the *reduce* step of the broadcast–reduce query model (§2.1):
    each worker returns its local top-k and the entry worker merges them.
    ``ids`` arrays may be any integer dtype; ties keep the earlier partial
    (guaranteed by :func:`top_k`'s lower-concatenated-index tie-break).
    """
    parts = [(i, s) for i, s in partials if len(i) > 0]
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    all_ids = np.concatenate([np.asarray(i, dtype=np.int64) for i, _ in parts])
    all_scores = np.concatenate([np.asarray(s) for _, s in parts])
    idx, scores = top_k(all_scores, k, distance)
    return all_ids[idx], scores


def merge_hits(partials, limit: int, distance: Distance) -> list:
    """Merge per-shard or per-segment ``ScoredPoint`` lists into a top-``limit`` list.

    The hit-object form of :func:`merge_top_k`, for results that carry
    payloads and vectors: an id seen in several partials keeps its better
    score (the earlier partial on a tie), and the stable best-first sort
    keeps first-seen order among equal scores.
    """
    merged: dict = {}
    for hits in partials:
        for hit in hits:
            prev = merged.get(hit.id)
            if prev is None or distance.is_better(hit.score, prev.score):
                merged[hit.id] = hit
    ordered = sorted(
        merged.values(), key=lambda h: h.score, reverse=distance.higher_is_better
    )
    return ordered[:limit]
