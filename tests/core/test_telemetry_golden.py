"""Telemetry golden diff: ``collect`` / ``diff`` equal the frozen reference.

One scripted run drives every counter set the cluster reports — row and
columnar writes and deletes, cached and coalesced searches (with in-flight
dedupe), background and explicit maintenance passes, one live reshard, and
a breaker trip on a failed worker — and at each checkpoint takes the
production snapshot and the frozen reference one (``telemetry_reference.py``)
back to back on a quiescent cluster.  Every field and derived property of
the reference must read the same on the production snapshot, and so must
every ``diff`` between checkpoints.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from telemetry_reference import ReferenceSnapshot, reference_collect

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    QuantizationConfig,
    SearchRequest,
    VectorParams,
    WalConfig,
)
from repro.core.batch import Batch
from repro.core.cluster import Cluster
from repro.core.scheduler import CoalescePolicy, QueryCoalescer
from repro.core.telemetry import collect
from repro.core.transport import FaultInjectingTransport, LocalTransport
from repro.core.worker import Worker

DIM = 8

#: Reference fields the production snapshot reports under another name.
RENAMED = {"calls": "total_calls"}


def points(n, start=0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        PointStruct(id=start + i, vector=rng.normal(size=DIM), payload={"g": i % 3})
        for i in range(n)
    ]


def queries(n, seed):
    return np.random.default_rng(seed).normal(size=(n, DIM))


def normalized(value):
    """Containers compared by content: a dict and the sorted item tuple the
    reference kept are the same counters, as are a list and a tuple."""
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value


def assert_same(ref, new, where: str) -> None:
    names = [f.name for f in dataclasses.fields(ref)]
    names += [n for n, v in vars(type(ref)).items() if isinstance(v, property)]
    for name in names:
        new_name = name if hasattr(new, name) else RENAMED[name]
        got = normalized(getattr(new, new_name))
        want = normalized(getattr(ref, name))
        assert got == want, f"{where}.{name}: {got!r} != {want!r}"


def assert_snapshot_same(ref: ReferenceSnapshot, new) -> None:
    assert new.workers.keys() == ref.workers.keys()
    for wid, worker in ref.workers.items():
        assert_same(worker, new.workers[wid], f"workers[{wid}]")
    for f in dataclasses.fields(ref):
        value = getattr(ref, f.name)
        if dataclasses.is_dataclass(value):
            assert_same(value, getattr(new, f.name), f.name)
        elif f.name != "workers":
            assert getattr(new, f.name) == value, f.name


def take(cluster):
    return reference_collect(cluster), collect(cluster)


def scripted_run(wal_dir: str):
    transport = FaultInjectingTransport(LocalTransport(), advertise_failures=False)
    cluster = Cluster(transport)
    for i in range(3):
        cluster.add_worker(Worker(f"w{i}"))
    cluster.create_collection(CollectionConfig(
        "c", VectorParams(size=DIM, distance=Distance.EUCLID),
        optimizer=OptimizerConfig(indexing_threshold=24, max_segments=2,
                                  merge_threshold=64),
        quantization=QuantizationConfig(enabled=True),
        wal=WalConfig(enabled=True, path=wal_dir),
        shard_number=4, replication_factor=2,
    ))
    cluster.enable_cache()
    # A fixed window wide enough that four back-to-back submits share one
    # batch (and so dedupe); the batch dispatches once it holds all four.
    coalescer = QueryCoalescer.for_cluster(cluster, policy=CoalescePolicy(
        max_batch=4, max_wait_us=5_000_000.0, adaptive=False,
    ))
    checkpoints = [take(cluster)]

    # Writes, then cached, coalesced and deduped searches.
    cluster.upsert("c", points(150))
    cluster.upsert_columnar("c", Batch.from_points(points(90, start=150, seed=1)))
    cluster.delete("c", list(range(0, 40, 2)))
    hot = queries(4, seed=2)
    for _ in range(2):
        for q in hot:
            cluster.search("c", SearchRequest(vector=q, limit=5))
    # A vector not searched yet: a cached one would be served before
    # admission and never reach the coalescer.
    fresh = queries(1, seed=7)[0]
    futures = [coalescer.submit("c", SearchRequest(vector=fresh, limit=5))
               for _ in range(4)]
    for f in futures:
        assert f is not None and len(f.result(timeout=30)) == 5
    cluster.search_batch("c", [SearchRequest(vector=q, limit=3) for q in queries(5, seed=3)])
    checkpoints.append(take(cluster))

    # Background maintenance passes, then an explicit optimize.
    cluster.enable_maintenance("c", interval_s=0.01)
    cluster.upsert("c", points(60, start=240, seed=4))
    cluster.delete("c", list(range(150, 190)))
    cluster.drain_maintenance("c")
    cluster.disable_maintenance("c")
    cluster.optimize("c")
    for q in queries(3, seed=5):
        cluster.search("c", SearchRequest(vector=q, limit=5))
    checkpoints.append(take(cluster))

    # One live reshard onto a new worker.
    cluster.add_worker(Worker("w3"), rebalance=True)
    cluster.search("c", SearchRequest(vector=hot[1], limit=5))
    checkpoints.append(take(cluster))

    # A failed worker: failovers and a breaker trip.
    transport.fail_worker("w1")
    for q in queries(6, seed=6):
        cluster.search("c", SearchRequest(vector=q, limit=5))
    checkpoints.append(take(cluster))
    coalescer.close()
    cluster.close()
    return checkpoints


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    return scripted_run(str(tmp_path_factory.mktemp("wal")))


def test_run_exercises_every_counter_set(checkpoints):
    ref = checkpoints[-1][0].diff(checkpoints[0][0])
    assert ref.ingest.upserts and ref.ingest.deletes
    assert ref.cache.hits and ref.cache.shard_lookups
    assert ref.coalesce.batches and ref.coalesce.deduped
    assert ref.reshard.moves_completed
    assert ref.failover.failovers and ref.failover.breaker_opens
    assert dict(ref.failover.breaker_state)["w1"] == "open"
    workers = ref.workers.values()
    assert sum(w.maint_passes for w in workers) and sum(w.maint_swaps for w in workers)
    assert sum(w.wal_appends for w in workers)
    assert sum(w.quant_scans for w in workers)
    assert sum(w.distance_computations for w in workers)


def test_snapshots_match_reference(checkpoints):
    for ref, new in checkpoints:
        assert_snapshot_same(ref, new)


def test_diffs_match_reference(checkpoints):
    pairs = [(a, b) for i, a in enumerate(checkpoints) for b in checkpoints[i + 1:]]
    for (ref_before, new_before), (ref_after, new_after) in pairs:
        assert_snapshot_same(ref_after.diff(ref_before), new_after.diff(new_before))
