"""One trace tree whether or not a fan-out lane crosses a thread.

Over an in-process transport the cluster runs fan-out lanes inline on the
calling thread; over a transport whose calls wait it runs them on the
fan-out pool, and each pool thread re-parents its spans under the
submitting thread's ``cluster.fanout`` span.  Both paths must record the
same tree: the same parent of every span, and one trace id (this tracer's
request id) per request.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)
from repro.core.cluster import Cluster
from repro.core.transport import InstrumentedTransport, LocalTransport
from repro.obs.trace import Tracer, set_tracer

DIM = 8


@pytest.fixture
def tracer():
    t = Tracer(enabled=True)
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


def make_cluster(waiting: bool) -> Cluster:
    """Both sides wrap the transport, so both record ``transport.call``; only
    the injected latency (which makes the transport wait) differs."""
    transport = InstrumentedTransport(
        LocalTransport(), latency_s=1e-3 if waiting else 0.0
    )
    cluster = Cluster.with_workers(4, transport=transport)
    cluster.create_collection(
        CollectionConfig(
            "c",
            VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=0),
        )
    )
    return cluster


def points(n=48):
    rng = np.random.default_rng(3)
    return [PointStruct(id=i, vector=rng.normal(size=DIM)) for i in range(n)]


def tree(spans):
    """``(name, parent name)`` of every span, and the spans' trace ids."""
    by_id = {s.span_id: s for s in spans}
    edges = sorted(
        (s.name, by_id[s.parent_id].name if s.parent_id in by_id else None)
        for s in spans
    )
    return edges, {s.trace_id for s in spans}


def traced(tracer, cluster, op):
    tracer.reset()
    op(cluster)
    spans = tracer.spans()
    cluster.close()
    return spans


def search(cluster):
    cluster.upsert("c", points())
    cluster.search("c", SearchRequest(vector=points(1)[0].as_array(), limit=5))


@pytest.mark.parametrize("root", ["cluster.search", "cluster.upsert"])
def test_inline_and_pool_lanes_record_the_same_tree(tracer, root):
    inline = traced(tracer, make_cluster(waiting=False), search)
    pooled = traced(tracer, make_cluster(waiting=True), search)

    def request(spans):
        [top] = [s for s in spans if s.name == root]
        ids = {top.span_id}
        grew = True
        while grew:
            kids = {s.span_id for s in spans if s.parent_id in ids}
            grew = not kids <= ids
            ids |= kids
        return [s for s in spans if s.span_id in ids]

    inline_edges, inline_traces = tree(request(inline))
    pooled_edges, pooled_traces = tree(request(pooled))
    assert inline_edges == pooled_edges
    assert len(inline_traces) == len(pooled_traces) == 1
    lane = ("rpc.search", "cluster.fanout") if root == "cluster.search" else (
        "cluster.shard_write", "cluster.fanout"
    )
    assert lane in inline_edges
    assert ("cluster.fanout", root) in inline_edges


def test_inline_lanes_stay_on_the_caller_and_pool_lanes_leave_it(tracer):
    inline = traced(tracer, make_cluster(waiting=False), search)
    pooled = traced(tracer, make_cluster(waiting=True), search)
    me = threading.current_thread().name
    assert {s.thread for s in inline if s.name == "rpc.search"} == {me}
    pool_threads = {s.thread for s in pooled if s.name == "rpc.search"}
    assert pool_threads and all(t.startswith("fanout") for t in pool_threads)
    # The fan-out span itself always belongs to the caller.
    assert {s.thread for s in pooled if s.name == "cluster.fanout"} == {me}
