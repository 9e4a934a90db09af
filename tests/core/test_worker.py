"""Worker RPC-surface tests."""

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.errors import (
    BadRequestError,
    CollectionNotFoundError,
    PointNotFoundError,
    ShardRetiredError,
)
from repro.core.types import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
    WalConfig,
)
from repro.core.worker import Worker

DIM = 8
CFG = CollectionConfig(
    "col", VectorParams(size=DIM, distance=Distance.COSINE),
    optimizer=OptimizerConfig(indexing_threshold=0),
)


def points(n, start=0):
    rng = np.random.default_rng(start)
    return [PointStruct(id=start + i, vector=rng.normal(size=DIM)) for i in range(n)]


@pytest.fixture
def worker():
    w = Worker("w0", node_id="node-0")
    w.create_shard("col", 0, CFG)
    return w


class TestShardLifecycle:
    def test_create_and_drop(self, worker):
        assert worker.has_shard("col", 0)
        worker.create_shard("col", 1, CFG)
        assert worker.shard_ids("col") == [0, 1]
        worker.drop_shard("col", 1)
        assert worker.shard_ids("col") == [0]

    def test_duplicate_create_rejected(self, worker):
        with pytest.raises(BadRequestError):
            worker.create_shard("col", 0, CFG)

    def test_missing_shard_raises(self, worker):
        with pytest.raises(CollectionNotFoundError):
            worker.count("col", 99)

    def test_refusal_names_the_shard(self, worker):
        worker.create_shard("col", 1, CFG)
        worker.drop_shard("col", 1)
        with pytest.raises(ShardRetiredError) as refused:
            worker.search("col", [0, 1], SearchRequest(vector=np.ones(DIM), limit=3))
        assert refused.value.shard_id == 1


class TestReadWrite:
    def test_upsert_count_search(self, worker):
        worker.upsert("col", 0, points(30))
        assert worker.count("col", 0) == 30
        assert worker.stats.vectors_inserted == 30
        assert worker.stats.batches_received == 1
        target = worker.retrieve("col", 0, 7, with_vector=True).vector
        hits = worker.search("col", [0], SearchRequest(vector=target, limit=1))
        assert hits[0].id == 7
        assert hits[0].shard_id == 0

    def test_search_multiple_shards(self, worker):
        worker.create_shard("col", 1, CFG)
        worker.upsert("col", 0, points(10))
        worker.upsert("col", 1, points(10, start=100))
        q = np.random.default_rng(1).normal(size=DIM)
        hits = worker.search("col", [0, 1], SearchRequest(vector=q, limit=20))
        shard_ids = {h.shard_id for h in hits}
        assert shard_ids == {0, 1}

    def test_search_batch(self, worker):
        worker.upsert("col", 0, points(20))
        qs = np.random.default_rng(2).normal(size=(3, DIM))
        out = worker.search_batch("col", [0], [SearchRequest(vector=q, limit=5) for q in qs])
        assert len(out) == 3 and all(len(hits) == 5 for hits in out)
        assert worker.stats.queries_served >= 3

    def test_delete_and_payload(self, worker):
        worker.upsert("col", 0, points(5))
        worker.delete("col", 0, [2])
        assert worker.count("col", 0) == 4
        worker.set_payload("col", 0, 3, {"x": 1})
        assert worker.retrieve("col", 0, 3).payload == {"x": 1}

    def test_scroll(self, worker):
        worker.upsert("col", 0, points(15))
        page, nxt = worker.scroll("col", 0, limit=10)
        assert len(page) == 10 and nxt == 10

    def test_contains(self, worker):
        worker.upsert("col", 0, points(3))
        assert worker.contains("col", 0, 1)
        assert not worker.contains("col", 0, 99)


class TestMaintenance:
    def test_build_index_records_stats(self, worker):
        worker.upsert("col", 0, points(50))
        report = worker.build_index("col", 0)
        assert report.vectors_indexed == 50
        assert worker.stats.index_builds == [("col", 0, 50)]

    def test_info(self, worker):
        worker.upsert("col", 0, points(5))
        info = worker.info("col", 0)
        assert info.points_count == 5

    def test_ping(self, worker):
        assert worker.ping() == "w0"


class TestTransfer:
    def test_transfer_roundtrip(self, worker):
        worker.upsert("col", 0, points(12))
        exported = worker.transfer_shard_out("col", 0)
        assert len(exported) == 12
        other = Worker("w1")
        moved = other.transfer_shard_in("col", 0, CFG, exported)
        assert moved == 12
        assert other.count("col", 0) == 12
        # payload/vector fidelity
        a = worker.retrieve("col", 0, 3, with_vector=True)
        b = other.retrieve("col", 0, 3, with_vector=True)
        assert np.allclose(a.vector, b.vector)


def close_shards(*workers):
    for w in workers:
        for shard in w._shards.values():
            shard.close()


class TestWalPerWorker:
    """In one process every worker receives the collection's one WalConfig;
    each must still log its shards to files of its own."""

    def test_two_holders_of_one_shard_open_distinct_files(self, tmp_path):
        cfg = CFG.with_(wal=WalConfig(enabled=True, path=str(tmp_path)))
        a, b = Worker("w0"), Worker("w1")
        a.create_shard("col", 0, cfg)
        b.create_shard("col", 0, cfg)
        paths = {w.worker_id: w._shard("col", 0)._wal.path for w in (a, b)}
        close_shards(a, b)
        assert paths == {
            "w0": str(tmp_path / "w0" / "col#shard0.wal"),
            "w1": str(tmp_path / "w1" / "col#shard0.wal"),
        }

    def test_unset_path_logs_under_the_worker_id(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        w = Worker("w0")
        w.create_shard("col", 0, CFG.with_(wal=WalConfig(enabled=True)))
        w.upsert("col", 0, points(3))
        close_shards(w)
        assert (tmp_path / "w0" / "col#shard0.wal").stat().st_size > 0

    def test_reshard_target_does_not_replay_the_source_log(self, tmp_path):
        """The deletes sit in the source's unflushed group; a target that
        opened the source's file would replay the flushed upserts without
        them and bring the deleted points back."""
        cluster = Cluster.with_workers(3)
        cluster.create_collection(
            CFG.with_(
                shard_number=4,
                wal=WalConfig(enabled=True, path=str(tmp_path), flush_every_n=10_000),
            )
        )
        cluster.upsert("col", points(120))
        cluster.flush_wals("col")
        cluster.delete("col", list(range(40)))
        cluster.add_worker(Worker("worker-3"), rebalance=True)
        assert cluster.count("col") == 80
        for pid in range(40):
            with pytest.raises(PointNotFoundError):
                cluster.retrieve("col", pid)
        cluster.close()
        close_shards(*cluster._workers.values())
