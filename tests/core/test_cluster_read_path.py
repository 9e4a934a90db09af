"""One read path: every cluster search entry serves exactly what ``search``
serves, request by request, at fixed transport-call and degraded counts.

Axes: result cache {off, on} × entry {``search``, ``search_batch``,
``search_batch_demux``, coalesced ``SyncClient.search``} × state {healthy,
one worker failed with ``allow_partial``, one worker failed and strict} ×
requests {unpredicated broadcasts, ``HasId`` filters pinned to different
shards}.  The reference is ``[search(r) for r in requests]`` on an
uncached twin in the same state.

Four workers each hold one of four shards (replication 1).  The failed
worker holds shard 0; its failure is advertised, so no call reaches it and
only successful calls are counted.
"""

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    HasId,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
)
from repro.core.client import SyncClient
from repro.core.cluster import Cluster
from repro.core.errors import NoReplicaAvailableError
from repro.core.transport import (
    FaultInjectingTransport,
    InstrumentedTransport,
    LocalTransport,
)
from repro.core.worker import Worker

DIM = 8
N_POINTS = 120
ENTRIES = ("search", "search_batch", "search_batch_demux", "coalesced")
STATES = ("healthy", "partial", "strict")

#: (state, predicated) -> transport calls on the first pass, per entry in
#: ``ENTRIES`` order.  Broadcasts: ``search`` pays one call per live worker
#: per request (3 requests × 4 or 3 workers); a batch pays one per live
#: worker.  Predicated: requests pinned to shard {0}, {1, 2} and {3}; the
#: batch fans out over their union.  The lost shard 0 takes no call.
FIRST_PASS_CALLS = {
    ("healthy", False): (12, 4, 4, 12),
    ("healthy", True): (4, 4, 4, 4),
    ("partial", False): (9, 3, 3, 9),
    ("partial", True): (3, 3, 3, 3),
    ("strict", False): (9, 3, 3, 9),
    ("strict", True): (3, 3, 3, 3),
}

#: Calls on a second, identical pass with the cache on.  Complete results
#: were cached by the first pass; degraded results and errors never are,
#: and ``search_batch`` never reads the cache.  Predicated, only the request
#: pinned to the lost shard misses again, and it takes no call.
SECOND_PASS_CALLS = {
    ("healthy", False): (0, 4, 0, 0),
    ("healthy", True): (0, 4, 0, 0),
    ("partial", False): (9, 3, 3, 9),
    ("partial", True): (0, 3, 0, 0),
    ("strict", False): (9, 3, 3, 9),
    ("strict", True): (0, 3, 0, 0),
}

#: ``failover_stats.degraded_queries`` after one pass: one per ``search``
#: served degraded, one per batch that served any request degraded.  A
#: strict request that fails is not a degraded read.
DEGRADED = {
    ("partial", False): (3, 1, 1, 3),
    ("partial", True): (1, 1, 1, 1),
}


def config():
    return CollectionConfig(
        "papers", VectorParams(size=DIM, distance=Distance.COSINE),
        optimizer=OptimizerConfig(indexing_threshold=0),
        shard_number=4, replication_factor=1,
    )


def points():
    rng = np.random.default_rng(0)
    return [
        PointStruct(id=i, vector=rng.normal(size=DIM), payload={"i": i})
        for i in range(N_POINTS)
    ]


def make_cluster(cache: bool, state: str):
    local = LocalTransport()
    faulty = FaultInjectingTransport(local)
    transport = InstrumentedTransport(faulty)
    cluster = Cluster(transport)
    for i in range(4):
        worker = Worker(f"w{i}")
        local.register(worker.worker_id, worker)
        cluster.add_worker(worker)
    cluster.create_collection(config())
    cluster.upsert("papers", points())
    plan = cluster.placement("papers")
    assert sorted(plan.workers_for(s)[0] for s in range(4)) == [f"w{i}" for i in range(4)]
    if cache:
        cluster.enable_cache()
    if state != "healthy":
        faulty.fail_worker(plan.workers_for(0)[0])
    transport.stats.reset()
    cluster.failover_stats.reset()
    return cluster, transport


def make_requests(cluster, state: str, predicated: bool) -> list[SearchRequest]:
    rng = np.random.default_rng(1)
    allow_partial = state == "partial"
    if not predicated:
        return [
            SearchRequest(vector=rng.normal(size=DIM), limit=5, allow_partial=allow_partial)
            for _ in range(3)
        ]
    router = cluster._state("papers").router
    ids_on = {s: [i for i in range(N_POINTS) if router.shard_for(i) == s][:2] for s in range(4)}
    pins = [ids_on[0], ids_on[1] + ids_on[2], ids_on[3]]
    return [
        SearchRequest(vector=rng.normal(size=DIM), limit=5, filter=HasId(pin),
                      allow_partial=allow_partial)
        for pin in pins
    ]


def outcome(call):
    try:
        return call()
    except NoReplicaAvailableError as exc:
        return exc


def key(out):
    if isinstance(out, Exception):
        return (type(out), out.shard_id)
    return ([(h.id, h.score) for h in out], out.shards_total, out.shards_answered)


def run_entry(entry: str, cluster: Cluster, requests: list[SearchRequest]) -> list:
    """The entry's outcome per request; ``search_batch`` raises as a whole,
    so its error fills every slot."""
    if entry == "search":
        return [outcome(lambda r=r: cluster.search("papers", r)) for r in requests]
    if entry == "search_batch":
        out = outcome(lambda: cluster.search_batch("papers", requests))
        return [out] * len(requests) if isinstance(out, Exception) else out
    if entry == "search_batch_demux":
        return cluster.search_batch_demux("papers", requests)
    client = SyncClient(cluster, "papers", coalesce=True)
    return [
        outcome(lambda r=r: client.search(
            r.vector, limit=r.limit, filter=r.filter, allow_partial=r.allow_partial
        ))
        for r in requests
    ]


def expected_methods(entry: str, cache: bool, calls: int) -> dict[str, int]:
    """``calls_by_method`` for a pass whose misses are all sent together:
    one miss takes the single RPC, several the batch RPC, and the cache
    selects the fenced pair."""
    if calls == 0:
        return {}
    if entry == "search_batch":
        return {"search_batch": calls}
    method = "search_batch" if entry == "search_batch_demux" else "search"
    return {method + ("_fenced" if cache else ""): calls}


@pytest.mark.parametrize("predicated", [False, True], ids=["broadcast", "pinned"])
@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("cache", [False, True], ids=["nocache", "cache"])
def test_entry_equals_search_per_request(cache, entry, state, predicated):
    twin, _ = make_cluster(cache=False, state=state)
    requests = make_requests(twin, state, predicated)
    want = [key(outcome(lambda r=r: twin.search("papers", r))) for r in requests]
    errors = [w[1] for w in want if w[0] is NoReplicaAvailableError]
    if state == "strict":
        # Broadcasts all cover the lost shard; pinned, only the first does.
        assert errors == ([0, 0, 0] if not predicated else [0])
    else:
        assert errors == []
    twin.close()

    cluster, transport = make_cluster(cache=cache, state=state)
    i = ENTRIES.index(entry)
    passes = [FIRST_PASS_CALLS] + ([SECOND_PASS_CALLS] if cache else [])
    for n, table in enumerate(passes, start=1):
        transport.stats.reset()
        got = run_entry(entry, cluster, requests)
        if entry == "search_batch" and errors:
            # The batch raises the first strict request's error.
            assert [key(g) for g in got] == [want[0]] * len(requests)
        else:
            assert [key(g) for g in got] == want
        calls = table[(state, predicated)][i]
        # A second pass whose only miss is the request pinned to the lost
        # shard sends nothing, whichever RPC it would have picked.
        assert transport.stats.calls_by_method == expected_methods(entry, cache, calls)
        degraded = DEGRADED.get((state, predicated), (0, 0, 0, 0))[i]
        assert cluster.failover_stats.degraded_queries == degraded * n
    cluster.close()

