"""The four workloads: inputs, phases, measurements and correctness checks.

Every workload runs the same pipeline on a real ``repro.core`` cluster with
zero injected latency and default fan-out settings; a :class:`Plan` says
how the cluster is configured and how much work each phase gets.  The
phases, in order:

1. **set-up** (three times, median is ``setup_s``): generate every input
   from the seed, start the cluster, create and load the serving collection
   and, after the build, send the warm-up queries.  The timed **index
   build** on that collection (median is ``index_build_s``) sits between
   load and warm-up and is not part of ``setup_s``; the first cluster is kept.
2. **ingest**: one row-path ``upload`` and one columnar ``upload_pipelined``
   per round, each into a fresh WAL-backed collection.
3. **queries**: closed-loop clients calling ``SyncClient.search``.
4. **batch queries**: one client calling ``search_many``.
5. **writes**: one writer; in ``mixed_rw`` it is open-loop, a closed-loop
   searcher and one live reshard run beside it, and the query metrics come
   from here.
6. **free-running** (unbounded): queries and one upload with the pin to one
   core lifted (``run.py`` says why there is a pin).
7. **checks** (untimed, after the last ingest round and at the end): every
   output is verified; a failed check or operation is counted in ``failed``.

Phases 2 to 4 run as four interleaved rounds, and the three set-ups and
builds open the first three of them, so every metric samples the whole run
rather than one stretch of it: on the reference box the clock speed drifts
by tens of percent over seconds to minutes.

All sizes are constants below, scaled from the issue's to fit the driver's
time cap (92 runs in 3420 s); ``--seconds`` scales op counts only.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import (
    CachePolicy,
    CollectionConfig,
    HnswConfig,
    OptimizerConfig,
    PointNotFoundError,
    PointStruct,
    QuantizationConfig,
    SearchRequest,
    VectorParams,
    WalConfig,
)
from repro.core.client import SyncClient
from repro.core.cluster import Cluster
from repro.core.distances import normalize, normalize_batch
from repro.core.wal import WriteAheadLog
from repro.core.worker import Worker
from metrics import RUN_SECONDS

DIM = 128
TOPICS = 64
SERVE = "serve"
SETUP_REPEATS = 3
WARMUP_QUERIES = 50
RECALL_QUERIES = 100
IDENTITY_QUERIES = 75
SAMPLED_IDS = 100
UPLOAD_BATCH = 32
COLUMNAR_BATCH = 256
QUERY_BATCH = 16
#: The ingest, query and batch phases run as this many interleaved slices;
#: the set-ups and builds open the first SETUP_REPEATS of them.
ROUNDS = 4
#: One write op: 3 new + 1 overwritten point; every eighth op deletes 1.
WRITE_NEW, WRITE_OVERWRITE, WRITE_DELETE = 3, 1, 1
ZIPF_S = 1.1
#: The free-running phase: this many unique queries from each of two clients
#: and one row upload of this many points, with the pin to one core lifted.
FREE_QUERIES = 100
FREE_INGEST = 8_192

now = time.perf_counter


@dataclass(frozen=True)
class Plan:
    """Cluster configuration and phase sizes of one workload."""

    serve_points: int
    ingest_points: int        # per round, row and columnar each
    query_ops: int            # per client over the run, two clients
    batch_queries: int        # per round
    write_ops: int
    #: The writer issues one op every this many seconds, whatever the system
    #: does (open loop); 0 = each op when the last returned (closed loop).
    write_period_s: float = 0.0
    workers: int = 4
    shards: int = 4
    replication: int = 1
    wal: bool = False
    quantized: bool = False
    #: Segment size at which the optimizer indexes on its own (0 = never).
    #: Must exceed ``serve_points / shards`` or loading indexes inline.
    indexing_threshold: int = 0
    maintenance: bool = False
    #: False: background passes merge and index but never vacuum.
    vacuum: bool = True
    cache: CachePolicy | None = None
    coalesce: bool = False
    #: 0 = every query unique; else Zipf(1.1) over a pool of this many.
    query_pool: int = 0
    #: Searcher beside the writer, plus one ``add_worker`` at this write op.
    concurrent_rw: bool = False
    reshard_at: int | None = None

    def scaled(self, factor: float) -> "Plan":
        def n(x, quantum=1):
            return max(quantum, int(round(x * factor / quantum)) * quantum)

        return replace(
            self,
            ingest_points=n(self.ingest_points, COLUMNAR_BATCH),
            query_ops=n(self.query_ops, ROUNDS),
            batch_queries=n(self.batch_queries, QUERY_BATCH),
            write_ops=n(self.write_ops, 8),
            reshard_at=None if self.reshard_at is None else n(self.reshard_at),
        )


PLANS: dict[str, Plan] = {
    "bulk_ingest": Plan(
        serve_points=800, ingest_points=48_128, query_ops=1_000,
        batch_queries=256, write_ops=800, wal=True,
    ),
    "pipeline_hnsw": Plan(
        serve_points=1_600, ingest_points=8_192, query_ops=600,
        batch_queries=160, write_ops=400,
    ),
    "serving_skewed": Plan(
        serve_points=1_400, ingest_points=8_192, query_ops=1_600,
        batch_queries=96, write_ops=400, quantized=True, coalesce=True,
        cache=CachePolicy(max_entries=512, shard_max_entries=1_024),
        query_pool=2_048,
    ),
    # vacuum off: a vacuum that leaves fewer live points than
    # ``indexing_threshold`` yields a quantized segment that still takes
    # appends, and a search of such a segment races the append
    # (``CodeStore.take`` raises IndexError: the id is registered before its
    # code row exists).  A defect in ``repro.core.segment``, reproduced in the
    # README; drop ``vacuum=False`` once it is fixed.
    #
    # replication 2: with one replica, a read that picked its holders just
    # before a shard move's cutover fails its whole lane on the source, and
    # ``Cluster._failover_read`` then gives up on the shard that stayed there
    # too (``NoReplicaAvailableError``, 2 of about 220 runs).  Also a defect,
    # reproduced in the README; with a second replica that shard is read there.
    #
    # One op every 50 ms, an eighth of the issue's op at twice its rate.
    # Background indexing costs 1-3 ms a point and holds the GIL while it
    # runs, so query latency has two modes, build running or not.  At the
    # issue's 210 new points a second builds ran about half the time and the
    # median query flipped between the modes from run to run; at 52 points a
    # second they run about a fifth of the time: the median sits in the quiet
    # mode, p95 in the other.
    "mixed_rw": Plan(
        serve_points=320, ingest_points=8_192, query_ops=0,
        batch_queries=128, write_ops=320, write_period_s=0.05,
        workers=3, replication=2, wal=True, quantized=True,
        indexing_threshold=100, maintenance=True, vacuum=False,
        cache=CachePolicy(), coalesce=True, query_pool=512,
        concurrent_rw=True, reshard_at=20,
    ),
}


class Tally:
    """Operations attempted and failed, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool, note: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if note and len(self.notes) < 20:
                    self.notes.append(note)


class Inputs:
    """Everything the program is fed, generated from the seed alone."""

    def __init__(self, seed: int, plan: Plan):
        self.centres = np.random.default_rng([seed, 0]).normal(size=(TOPICS, DIM))
        self._points_rng = np.random.default_rng([seed, 1])
        self._query_rng = np.random.default_rng([seed, 2])
        plan_rng = np.random.default_rng([seed, 3])

        self.serve = self.points(
            range(plan.serve_points),
            self._vectors(self._points_rng, plan.serve_points),
        )
        self.ingest = self.points(
            range(plan.ingest_points),
            self._vectors(self._points_rng, plan.ingest_points),
        )
        self.write_ops, self.live = self._write_plan(plan, plan_rng)

        q = self._query_rng
        self.warmup = self._vectors(q, WARMUP_QUERIES)
        self.batch = self._vectors(q, plan.batch_queries * ROUNDS)
        self.recall = self._vectors(q, RECALL_QUERIES)
        if plan.query_pool:
            self.pool = self._vectors(q, plan.query_pool)
            ranks = np.arange(1, plan.query_pool + 1, dtype=np.float64)
            weights = ranks ** -ZIPF_S
            # Enough draws for the read-only phase and for a searcher that
            # runs beside the writer (it cycles if it ever gets through them).
            draws = 2 * plan.query_ops + 64 * plan.write_ops
            self.zipf = plan_rng.choice(plan.query_pool, size=draws, p=weights / weights.sum())
        else:
            self.pool = self._vectors(q, 2 * plan.query_ops)
            self.zipf = np.arange(2 * plan.query_ops)
        #: Pool indices of the free-running phase's queries, unique everywhere.
        self.free = len(self.pool) + np.arange(2 * FREE_QUERIES)
        self.pool = np.concatenate([self.pool, self._vectors(q, 2 * FREE_QUERIES)])

    def _vectors(self, rng, n: int) -> np.ndarray:
        topics = rng.integers(0, TOPICS, size=n)
        return (self.centres[topics] + rng.normal(size=(n, DIM))).astype(np.float32)

    @staticmethod
    def points(ids, vectors: np.ndarray) -> list[PointStruct]:
        return [
            PointStruct(id=i, vector=vectors[row],
                        payload={"bucket": i % 10, "year": 2000 + i % 25})
            for row, i in enumerate(ids)
        ]

    def _write_plan(self, plan: Plan, rng):
        """The writer's op list and the id -> vector map it should leave."""
        live = {p.id: p.vector for p in self.serve}
        order = list(live)
        next_id = plan.serve_points
        ops = []
        for i in range(plan.write_ops):
            if i % 8 == 7:
                picks = rng.choice(len(order), size=WRITE_DELETE, replace=False)
                ids = [order[j] for j in picks]
                for pid in ids:
                    del live[pid]
                gone = set(ids)
                order = [pid for pid in order if pid not in gone]
                ops.append(("delete", ids))
            else:
                old = [order[j] for j in rng.choice(len(order), size=WRITE_OVERWRITE, replace=False)]
                ids = list(range(next_id, next_id + WRITE_NEW)) + old
                next_id += WRITE_NEW
                vectors = self._vectors(self._points_rng, len(ids))
                order.extend(ids[:WRITE_NEW])
                for pid, vec in zip(ids, vectors):
                    live[pid] = vec
                ops.append(("upsert", self.points(ids, vectors)))
        return ops, live


@dataclass
class Env:
    """One started cluster with its loaded serving collection."""

    cluster: Cluster
    client: SyncClient
    inputs: Inputs
    wal_dir: str
    #: The traced run's transport (None: the cluster's default LocalTransport).
    transport: object = None


@dataclass
class Result:
    plan: Plan
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-round values of the metrics reported as a median of rounds.
    series: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    samples: dict[str, int] = field(default_factory=dict)
    #: Harness-side numbers the traced run needs for per-layer metrics.
    extra: dict[str, float] = field(default_factory=lambda: {"busy_s": 0.0})
    env: Env | None = None


class NodeWorker(Worker):
    """A worker that keeps its WAL files in a directory of its own, as a
    worker on its own node does.  A collection's ``WalConfig.path`` is one
    path for every worker; in one process that gives the source and the
    target of a shard move the same log file."""

    def __init__(self, worker_id: str, wal_root: str, *, node_id: str):
        super().__init__(worker_id, node_id=node_id)
        self._wal_dir = os.path.join(wal_root, worker_id) + os.sep

    def create_shard(self, collection: str, shard_id: int, config: CollectionConfig) -> None:
        if config.wal.enabled:
            config = config.with_(wal=replace(config.wal, path=self._wal_dir))
        super().create_shard(collection, shard_id, config)


def collection_config(plan: Plan, name: str, *, serving: bool) -> CollectionConfig:
    """Serving collections follow the plan; ingest-round collections are the
    issue's bulk-upload configuration (WAL on, group commit of 8, no fsync,
    no automatic indexing) on every workload."""
    optimizer = OptimizerConfig(indexing_threshold=plan.indexing_threshold if serving else 0)
    if not plan.vacuum:
        optimizer = replace(optimizer, vacuum_min_deleted_ratio=1.0)
    return CollectionConfig(
        name,
        VectorParams(size=DIM),
        hnsw=HnswConfig(m=16, ef_construct=100, ef_search=64),
        optimizer=optimizer,
        quantization=QuantizationConfig(enabled=plan.quantized and serving),
        wal=WalConfig(enabled=plan.wal if serving else True, flush_every_n=8),
        shard_number=plan.shards,
        replication_factor=plan.replication if serving else 1,
    )


def wal_bytes(env: "Env", name: str | None = None) -> int:
    """Flushed size of the WAL files of collection ``name`` (None: of every
    collection) under the run's WAL directory."""
    for flushed in [name] if name else env.cluster.collection_names():
        env.cluster.flush_wals(flushed)
    return sum(os.path.getsize(path) for path in wal_files(env, name))


def wal_files(env: "Env", name: str | None) -> list[str]:
    return [
        os.path.join(folder, f)
        for folder, _, files in os.walk(env.wal_dir)
        for f in files
        if name is None or f.startswith(name + "#")
    ]


def set_up(plan: Plan, seed: int, workdir: str, recorder) -> Env:
    inputs = Inputs(seed, plan)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir)
    transport = None
    if recorder is not None:
        from tracing import TracingTransport

        transport = TracingTransport(recorder)
    cluster = Cluster(transport)
    for i in range(plan.workers):
        cluster.add_worker(NodeWorker(f"worker-{i}", wal_dir, node_id="node-0"))
    cluster.create_collection(collection_config(plan, SERVE, serving=True))
    client = SyncClient(cluster, SERVE, coalesce=plan.coalesce, cache=plan.cache)
    client.upload(inputs.serve, batch_size=UPLOAD_BATCH)
    return Env(cluster, client, inputs, wal_dir, transport)


def tear_down(env: Env) -> None:
    env.cluster.close()
    shutil.rmtree(env.wal_dir, ignore_errors=True)


# -- phases ------------------------------------------------------------------------


def timed_upload(plan: Plan, env: Env, tally: Tally, name: str, points: list,
                 *, columnar: bool) -> float:
    """Upload ``points`` into a fresh bulk-upload collection; returns seconds."""
    env.cluster.create_collection(collection_config(plan, name, serving=False))
    client = SyncClient(env.cluster, name)
    failure = ""
    t0 = now()
    try:
        if columnar:
            client.upload_pipelined(points, batch_size=COLUMNAR_BATCH, columnar=True)
        else:
            client.upload(points, batch_size=UPLOAD_BATCH)
    except Exception as exc:  # counted and reported; the run continues
        failure = f"{name}: {exc!r}"
    dt = now() - t0
    tally.op(not failure, failure)
    return dt


def ingest_round(plan: Plan, env: Env, res: Result, tally: Tally, rnd: int) -> None:
    """One row-path and one columnar upload, each into a fresh collection;
    the last collection of each kind stays for the checks."""
    points = env.inputs.ingest
    for kind, metric in (("row", "insert_points_per_s"),
                         ("col", "insert_columnar_points_per_s")):
        name = f"ingest_{kind}_{rnd}"
        dt = timed_upload(plan, env, tally, name, points, columnar=kind == "col")
        res.series[metric].append(len(points) / dt)
        res.extra["busy_s"] += dt
        if rnd < ROUNDS - 1:
            env.cluster.drop_collection(name)


class Clients:
    """Closed-loop client threads: each sends its next query when the
    previous one returned.  With ``stop`` a stream repeats until it is set;
    without, it is sent once.  A search that raises, or returns fewer than 10 hits, is a failed
    operation; nothing is retried."""

    def __init__(self, env: Env, streams: list[np.ndarray], tally: Tally,
                 recorder, stop: threading.Event | None = None):
        self.stop = stop
        self.latencies: list[list[float]] = [[] for _ in streams]
        barrier = threading.Barrier(len(streams) + 1)
        pool, client = env.inputs.pool, env.client

        def run(stream: np.ndarray, out: list) -> None:
            if recorder is not None:
                recorder.mark_client_thread()
            barrier.wait()
            while True:
                for idx in stream:
                    if stop is not None and stop.is_set():
                        return
                    t0 = now()
                    try:
                        hits = client.search(pool[idx], limit=10)
                        failure = "" if len(hits) == 10 else (
                            f"search returned {len(hits)} hits, not 10")
                    except Exception as exc:  # counted and reported; the run continues
                        failure = f"search: {exc!r}"
                    out.append(now() - t0)
                    tally.op(not failure, failure)
                if stop is None:
                    return

        self.threads = [threading.Thread(target=run, args=(s, out))
                        for s, out in zip(streams, self.latencies)]
        for t in self.threads:
            t.start()
        barrier.wait()
        self.t0 = now()

    def finish(self) -> tuple[np.ndarray, float]:
        """Wait for the clients; returns (latencies in seconds, wall)."""
        if self.stop is not None:
            self.stop.set()
        for t in self.threads:
            t.join()
        wall = now() - self.t0
        return np.concatenate([np.asarray(out) for out in self.latencies]), wall


def report_queries(res: Result, latency: np.ndarray, wall: float) -> None:
    """Query metrics over every single query of the run: completions per
    second of client wall, and latency percentiles over all samples."""
    ms = latency * 1e3
    res.metrics["query_qps"] = len(ms) / wall
    for name, pct in (("query_p50_ms", 50), ("query_p95_ms", 95), ("query_p99_ms", 99)):
        res.metrics[name] = float(np.percentile(ms, pct))
        res.samples[name] = len(ms)
    res.samples["query_qps"] = len(ms)
    res.extra["busy_s"] += float(latency.sum())


def batch_round(plan: Plan, env: Env, res: Result, tally: Tally, rnd: int) -> None:
    n = plan.batch_queries
    queries = env.inputs.batch[rnd * n:(rnd + 1) * n]
    t0 = now()
    try:
        out = env.client.search_many(queries, limit=10, batch_size=QUERY_BATCH)
        ok = len(out) == n and all(len(hits) == 10 for hits in out)
    except Exception:
        ok = False
    dt = now() - t0
    tally.op(ok, "search_many failed or returned short results")
    res.series["batch_query_qps"].append(n / dt)
    res.extra["busy_s"] += dt


def write_phase(plan: Plan, env: Env, res: Result, tally: Tally, recorder) -> None:
    """One writer.  Open loop (``mixed_rw``, with the searcher and the
    one-shot reshard beside it): op ``i`` is due at ``start + i * period`` and
    its latency runs from that due time, so a stall is charged to every op it
    delays.  Closed loop (the other workloads, where nothing runs beside the
    writer): an open loop there would time the VM waking an idle core, which
    took as long as the write and varied more."""
    cluster, ops = env.cluster, env.inputs.write_ops
    latency, late, service = [], [], []
    operator: list[threading.Thread] = []

    def writer() -> None:
        if recorder is not None:
            recorder.mark_client_thread()
        start = now()
        for i, (kind, arg) in enumerate(ops):
            if i == plan.reshard_at:
                op = threading.Thread(
                    target=add_worker, args=(env, tally), name="operator"
                )
                op.start()
                operator.append(op)
            due = start + i * plan.write_period_s if plan.write_period_s else now()
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            failure = ""
            t0 = now()
            try:
                if kind == "upsert":
                    cluster.upsert(SERVE, arg)
                else:
                    cluster.delete(SERVE, arg)
            except Exception as exc:
                failure = f"write {i}: {exc!r}"
            t1 = now()
            tally.op(not failure, failure)
            late.append(t0 - due)
            service.append(t1 - t0)
            latency.append(t1 - due)

    searcher = None
    if plan.concurrent_rw:
        searcher = Clients(env, [env.inputs.zipf], tally, recorder, threading.Event())
    w = threading.Thread(target=writer, name="writer")
    w.start()
    w.join()
    for op in operator:
        op.join()
    if searcher is not None:
        report_queries(res, *searcher.finish())

    ms = np.asarray(latency) * 1e3
    res.metrics["write_p50_ms"] = float(np.percentile(ms, 50))
    res.metrics["write_p95_ms"] = float(np.percentile(ms, 95))
    res.samples["write_p50_ms"] = res.samples["write_p95_ms"] = len(ms)
    res.extra["writer_late_p95_ms"] = float(np.percentile(np.asarray(late) * 1e3, 95))
    res.extra["busy_s"] += float(np.sum(service))


def add_worker(env: Env, tally: Tally) -> None:
    """The one-shot operator call: scale out by one worker, resharding live."""
    failure = ""
    try:
        env.cluster.add_worker(
            NodeWorker("worker-3", env.wal_dir, node_id="node-0"), rebalance=True
        )
    except Exception as exc:
        failure = f"add_worker: {exc!r}"
    tally.op(not failure, failure)


def run_on(cpus) -> None:
    """Move every thread of this process, pools included, onto ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:      # the thread ended meanwhile
            pass


def free_phase(plan: Plan, env: Env, res: Result, tally: Tally, cpus) -> None:
    """The same query and row-upload paths with the pin lifted (see
    ``run.py``): what a user of the defaults on ``cpus`` sees.  Too unsteady
    for an end-to-end bound, so reported beside the per-layer metrics."""
    pinned = os.sched_getaffinity(0)
    run_on(cpus)
    try:
        streams = [env.inputs.free[:FREE_QUERIES], env.inputs.free[FREE_QUERIES:]]
        latency, wall = Clients(env, streams, tally, None).finish()
        res.extra["free_query_qps"] = len(latency) / wall
        res.extra["free_query_p50_ms"] = float(np.median(latency)) * 1e3
        points = env.inputs.ingest[:FREE_INGEST]
        dt = timed_upload(plan, env, tally, "ingest_free", points, columnar=False)
        res.extra["free_insert_points_per_s"] = len(points) / dt
        env.cluster.drop_collection("ingest_free")
    finally:
        run_on(pinned)


# -- checks ------------------------------------------------------------------------


def same_vector(record, expected: np.ndarray) -> bool:
    """Cosine collections store unit vectors; the row and columnar paths
    normalise with different kernels, so allow the last float32 bit."""
    return record.vector is not None and np.allclose(
        record.vector, normalize(expected), rtol=0.0, atol=1e-6
    )


def check_ingest(plan: Plan, env: Env, res: Result, tally: Tally) -> None:
    """Last row and columnar collections: count, sampled vectors, WAL replay."""
    points = env.inputs.ingest
    res.metrics["wal_bytes_per_user_byte"] = wal_bytes(
        env, f"ingest_row_{ROUNDS - 1}"
    ) / (len(points) * DIM * 4)
    expected_ids = {p.id for p in points}
    sample = np.random.default_rng(len(points)).choice(
        len(points), size=min(SAMPLED_IDS, len(points)), replace=False
    )
    for kind in ("row", "col"):
        name = f"ingest_{kind}_{ROUNDS - 1}"
        count = env.cluster.count(name)
        tally.op(count == len(points), f"{name}: count {count} != {len(points)}")
        for j in sample:
            rec = env.cluster.retrieve(name, points[j].id, with_vector=True)
            tally.op(same_vector(rec, points[j].vector), f"{name}: id {points[j].id} differs")
        env.cluster.flush_wals(name)
        replayed: set[int] = set()
        logs = sorted(wal_files(env, name))
        tally.op(len(logs) == plan.shards, f"{name}: {len(logs)} WAL files, not {plan.shards}")
        for path in logs:
            log = WriteAheadLog(path)
            try:
                t0 = now()
                for record in log.replay():
                    if record.op == "upsert":
                        replayed.update(p.id for p in record.data)
                    elif record.op == "upsert_columnar":
                        replayed.update(int(i) for i in record.data[0])
                if kind == "row" and path == logs[0]:
                    res.extra["wal_replay_s"] = now() - t0
            finally:
                log.close()
        tally.op(replayed == expected_ids,
                 f"{name}: WAL replay yields {len(replayed)} of {len(expected_ids)} ids")
        env.cluster.drop_collection(name)


def check_serving(res: Result, tally: Tally) -> None:
    """The serving collection after the writes: count, last-written vectors,
    no resurrected deletes, recall against brute force, and (where a cache or
    the coalescer served) bit-identity with an uncached direct search."""
    plan, env = res.plan, res.env
    cluster, live = env.cluster, env.inputs.live
    count = cluster.count(SERVE)
    tally.op(count == len(live), f"serve: count {count} != {len(live)}")
    rng = np.random.default_rng(len(live))
    ids = list(live)
    for j in rng.choice(len(ids), size=min(SAMPLED_IDS, len(ids)), replace=False):
        rec = cluster.retrieve(SERVE, ids[j], with_vector=True)
        tally.op(same_vector(rec, live[ids[j]]), f"serve: id {ids[j]} is not its last write")
    deleted = [pid for kind, arg in env.inputs.write_ops if kind == "delete" for pid in arg]
    for pid in deleted:
        try:
            cluster.retrieve(SERVE, pid)
            gone = False
        except PointNotFoundError:
            gone = True
        tally.op(gone, f"serve: deleted id {pid} is back")

    matrix = normalize_batch(np.stack([live[i] for i in ids]))
    id_array = np.asarray(ids)
    queries = env.inputs.recall
    truth = np.argsort(-(normalize_batch(queries) @ matrix.T), axis=1)[:, :10]
    found = 0
    for q, top in zip(queries, truth):
        hits = env.client.search(q, limit=10)
        found += len({h.id for h in hits} & set(id_array[top].tolist()))
    recall = found / (10 * len(queries))
    res.metrics["recall_at_10"] = recall
    res.samples["recall_at_10"] = len(queries)
    tally.op(recall >= 0.9, f"recall_at_10 {recall:.3f} < 0.9")

    if plan.cache is not None or plan.coalesce:
        served = [
            [(h.id, h.score) for h in env.client.search(q, limit=10)]
            for _ in range(2)               # second pass is served from cache
            for q in env.inputs.pool[:IDENTITY_QUERIES]
        ]
        cluster.disable_cache()
        direct = [
            [(h.id, h.score) for h in cluster.search(SERVE, SearchRequest(vector=q, limit=10))]
            for q in env.inputs.pool[:IDENTITY_QUERIES]
        ]
        for got, want in zip(served, direct + direct):
            tally.op(got == want, "served result differs from uncached direct search")

    if plan.reshard_at is not None:
        held = cluster.placement(SERVE).shards_on("worker-3")
        tally.op(len(held) >= 1, "worker-3 holds no shard after the reshard")
        failed = cluster.reshard_stats()["moves_failed"]
        tally.op(failed == 0, f"{failed} reshard moves failed")


# -- the run -------------------------------------------------------------------------


class Timed:
    """Accumulates the wall and CPU time of the timed phases; the traced
    run records spans only inside them."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.first_t0 = None
        self.wall_s = self.cpu_s = 0.0

    def __enter__(self):
        self._t0, self._cpu0 = now(), time.process_time()
        if self.first_t0 is None:
            self.first_t0 = self._t0
        if self.recorder is not None:
            self.recorder.enabled = True

    def __exit__(self, *exc):
        if self.recorder is not None:
            self.recorder.enabled = False
        self.wall_s += now() - self._t0
        self.cpu_s += time.process_time() - self._cpu0


def run(workload: str, seed: int, seconds: float, workdir: str, free_cpus,
        recorder=None) -> tuple[Result, Tally]:
    """Set up, run every timed phase, the ingest checks and the free-running
    phase on ``free_cpus``; the caller reads the per-layer counters, then
    calls :func:`check_serving`."""
    plan = PLANS[workload].scaled(seconds / RUN_SECONDS)
    res, tally, timed = Result(plan=plan), Tally(), Timed(recorder)
    if recorder is not None:
        recorder.mark_client_thread()

    # The run is ROUNDS interleaved slices, so each metric samples the whole
    # run and not one stretch of machine noise.  Each of the first
    # SETUP_REPEATS slices begins by bringing up a fresh cluster: set-up,
    # the timed index build, warm-up.  The first cluster serves every later
    # phase; the others are torn down.
    env = None
    per_client = plan.query_ops // ROUNDS
    latencies, query_wall = [], 0.0
    for rnd in range(ROUNDS):
        if rnd < SETUP_REPEATS:
            t0 = now()
            fresh = set_up(plan, seed, workdir, recorder)
            setup_s = now() - t0
            with timed:
                t0 = now()
                fresh.cluster.build_index(SERVE, "hnsw")
                res.series["index_build_s"].append(now() - t0)
            res.extra["busy_s"] += res.series["index_build_s"][-1]
            # Set-up is everything before the first timed query except the
            # build, which is a metric of its own: the warm-up belongs to it.
            t0 = now()
            for q in fresh.inputs.warmup:
                fresh.client.search(q, limit=10)
            res.series["setup_s"].append(setup_s + now() - t0)
            if env is not None:
                tear_down(fresh)
            else:
                env = res.env = fresh
                # Counters of the stats surfaces start where the spans do.
                env.cluster.reset_telemetry()
                res.extra["wal_bytes_at_reset"] = wal_bytes(env)
                if plan.maintenance:
                    env.cluster.enable_maintenance(SERVE, interval_s=0.05)
        with timed:
            if not plan.concurrent_rw:
                first = 2 * rnd * per_client
                streams = [env.inputs.zipf[first:first + per_client],
                           env.inputs.zipf[first + per_client:first + 2 * per_client]]
                latency, wall = Clients(env, streams, tally, recorder).finish()
                latencies.append(latency)
                query_wall += wall
            batch_round(plan, env, res, tally, rnd)
            # After the batch queries, never right after a build: what the
            # fan-out pool did last decides whether the kernel keeps its
            # threads on one core, and the upload rate differs 2x with it.
            ingest_round(plan, env, res, tally, rnd)
    if latencies:
        report_queries(res, np.concatenate(latencies), query_wall)
    # Checked and dropped before the writes: the reshard in mixed_rw moves
    # shards of every collection, and these two are not part of that workload.
    check_ingest(plan, env, res, tally)
    with timed:
        write_phase(plan, env, res, tally, recorder)
    free_phase(plan, env, res, tally, free_cpus)

    for name, values in res.series.items():
        res.metrics[name] = float(statistics.median(values))
        res.samples[name] = len(values)
    res.extra.update(timed_t0=timed.first_t0, timed_s=timed.wall_s, cpu_s=timed.cpu_s)
    res.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if plan.maintenance:
        t0 = now()
        env.cluster.drain_maintenance(SERVE)
        res.extra["maintenance_drain_s"] = now() - t0
    return res, tally
