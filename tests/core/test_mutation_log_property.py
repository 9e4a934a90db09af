"""Property tests of the one mutation-op vocabulary (``core/ops.py``).

Random sequences of upsert (row and columnar, fresh and overwrite), delete,
set_payload and payload_index — including ops the collection must reject
whole (a delete or payload edit naming an absent id) — are run against a
plain dict model, and three replays of their records must land on the
same points, vectors and payloads:

* a drained migration journal replayed once or twice onto a target;
* a collection reopened from its WAL;
* a collection whose ops interleave a copy-on-write maintenance pass.

Euclidean collections keep vectors as written, so states compare
bit-for-bit.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch import Batch
from repro.core.collection import Collection
from repro.core.errors import PointNotFoundError
from repro.core.types import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    VectorParams,
    WalConfig,
)

DIM = 4
IDS = st.integers(0, 11)
PAYLOADS = st.one_of(
    st.none(),
    st.fixed_dictionaries({"tag": st.sampled_from("abc"), "rank": st.integers(0, 9)}),
)

OPS = st.one_of(
    st.tuples(
        st.just("upsert"),
        st.lists(IDS, min_size=1, max_size=5, unique=True),
        st.booleans(),  # columnar
        st.integers(0, 2**16),  # vector seed
        PAYLOADS,
    ),
    st.tuples(st.just("delete"), st.lists(IDS, min_size=1, max_size=4, unique=True)),
    st.tuples(st.just("set_payload"), IDS, PAYLOADS),
    st.tuples(
        st.just("payload_index"),
        st.sampled_from(["tag", "rank"]),
        st.sampled_from(["keyword", "numeric"]),
    ),
)
SEQUENCES = st.lists(OPS, max_size=24)

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def config(name, wal_dir=None, **optimizer):
    optimizer.setdefault("indexing_threshold", 0)
    return CollectionConfig(
        name,
        VectorParams(size=DIM, distance=Distance.EUCLID),
        optimizer=OptimizerConfig(**optimizer),
        wal=WalConfig(enabled=True, path=wal_dir) if wal_dir else WalConfig(),
    )


def run(col, op, model):
    """Apply ``op`` to ``col`` and to ``model`` ({id: (vector bytes, payload)});
    an op the collection rejects must leave both unchanged."""
    kind = op[0]
    if kind == "upsert":
        _, ids, columnar, seed, payload = op
        vectors = np.random.default_rng(seed).normal(size=(len(ids), DIM)).astype(np.float32)
        payloads = [payload] * len(ids)
        if columnar:
            col.upsert_columnar(Batch.from_arrays(ids, vectors, payloads))
        else:
            col.upsert(
                [PointStruct(id=i, vector=v, payload=payload) for i, v in zip(ids, vectors)]
            )
        for i, v in zip(ids, vectors):
            model[i] = (v.tobytes(), payload)
    elif kind == "delete":
        ids = op[1]
        try:
            col.delete(ids)
        except PointNotFoundError:
            assert not set(ids) <= set(model)
            return
        for i in ids:
            del model[i]
    elif kind == "set_payload":
        _, pid, payload = op
        try:
            col.set_payload(pid, payload)
        except PointNotFoundError:
            assert pid not in model
            return
        model[pid] = (model[pid][0], payload)
    else:
        _, key, index_kind = op
        col.create_payload_index(key, kind=index_kind)


def state(col):
    """{id: (vector bytes, payload)} read off the segments; each id once."""
    out = {}
    for seg in col.segments:
        for rec in seg.iter_points(with_vector=True):
            assert rec.id not in out, f"point {rec.id} lives in two segments"
            out[rec.id] = (np.asarray(rec.vector, dtype=np.float32).tobytes(), rec.payload)
    assert set(col._id_to_segment) == set(out)
    return out


def seed_points(col, model, n=8):
    run(col, ("upsert", list(range(n)), True, 7, {"tag": "a", "rank": 1}), model)


@given(before=SEQUENCES, after=SEQUENCES)
@PROPERTY
def test_migration_journal_replays_idempotently(before, after):
    src = Collection(config("src", max_segment_size=5))
    model = {}
    seed_points(src, model)
    src.begin_migration()
    targets = [Collection(config("dst")), Collection(config("dst"))]
    for op in before:
        run(src, op, model)
    cursor = 0
    while cursor is not None:
        chunk = src.migration_chunk(cursor, 3)
        if len(chunk["ids"]):
            for dst in targets:
                dst.upsert_columnar(
                    Batch.from_arrays(chunk["ids"], chunk["vectors"], chunk["payloads"])
                )
        cursor = chunk["next_cursor"]
    for op in after:
        run(src, op, model)
    entries = src.drain_migration_journal()
    once, twice = targets
    applied = once.apply_migration_entries(entries)
    assert applied <= sum(op.points for op in entries)
    twice.apply_migration_entries(entries)
    twice.apply_migration_entries(entries)
    src.end_migration()
    assert state(src) == model
    assert state(once) == model
    assert state(twice) == model


@given(ops=SEQUENCES)
@PROPERTY
def test_reopened_from_wal_equals_live(ops):
    with tempfile.TemporaryDirectory() as wal_dir:
        live = Collection(config("live", wal_dir, max_segment_size=5))
        model = {}
        seed_points(live, model)
        for op in ops:
            run(live, op, model)
        live.close()
        reopened = Collection(config("live", wal_dir, max_segment_size=5))
        try:
            assert state(live) == model
            assert state(reopened) == model
        finally:
            reopened.close()


@given(
    doomed=st.lists(IDS, max_size=8, unique=True),
    before_plan=SEQUENCES,
    after_plan=SEQUENCES,
)
@PROPERTY
def test_ops_mid_maintenance_pass_equal_ops_without_one(doomed, before_plan, after_plan):
    cfg = config("maint", max_segment_size=4, vacuum_min_deleted_ratio=0.2)
    with_pass, without = Collection(cfg), Collection(cfg)
    models = [{}, {}]
    for col, model in zip((with_pass, without), models):
        run(col, ("upsert", list(range(12)), False, 3, {"tag": "b", "rank": 2}), model)
        if doomed:
            run(col, ("delete", doomed), model)  # tombstones make vacuum work
    with with_pass._write_lock:
        snapshot = with_pass._begin_maintenance_locked()
    assert snapshot is not None
    for op in before_plan:
        run(with_pass, op, models[0])
    plan = with_pass._optimizer.plan(snapshot.segments, generation=snapshot.generation)
    for op in after_plan:
        run(with_pass, op, models[0])
    with with_pass._write_lock:
        with_pass._commit_maintenance_locked(snapshot, plan)
    for op in before_plan + after_plan:
        run(without, op, models[1])
    assert models[0] == models[1]
    assert state(with_pass) == state(without) == models[0]
