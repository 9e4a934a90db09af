"""Exception hierarchy for the :mod:`repro.core` vector database.

Every error raised by the database derives from :class:`VectorDBError`, so
callers can catch a single base class.  The hierarchy mirrors the error
surface of a Qdrant-style system: bad requests (dimension mismatch, unknown
collection), state errors (sealed segments, missing points) and transport /
cluster failures (unreachable worker, no replica available).
"""

from __future__ import annotations

__all__ = [
    "VectorDBError",
    "BadRequestError",
    "DimensionMismatchError",
    "CollectionNotFoundError",
    "ShardRetiredError",
    "CollectionExistsError",
    "PointNotFoundError",
    "SegmentSealedError",
    "MaintenanceConflictError",
    "IndexNotBuiltError",
    "WALCorruptionError",
    "TransportError",
    "WorkerUnavailableError",
    "NoReplicaAvailableError",
    "RequestTimeoutError",
    "ClusterConfigError",
    "SnapshotError",
]


class VectorDBError(Exception):
    """Base class for all errors raised by :mod:`repro.core`."""


class BadRequestError(VectorDBError):
    """The request is malformed or violates collection configuration."""


class DimensionMismatchError(BadRequestError):
    """A vector's dimensionality does not match the collection's."""

    def __init__(self, expected: int, got: int):
        super().__init__(f"expected vectors of dimension {expected}, got {got}")
        self.expected = expected
        self.got = got


class CollectionNotFoundError(BadRequestError):
    """The named collection does not exist on this worker/cluster."""

    def __init__(self, name: str):
        super().__init__(f"collection {name!r} does not exist")
        self.name = name


class ShardRetiredError(CollectionNotFoundError):
    """A worker refused a request for one shard it does not hold.

    After a live migration moves a shard away, its old holder drops it; a
    read routed there just before the cutover is refused with this error.
    ``shard_id`` names the refused shard, so a failover re-routes that
    shard alone and keeps the worker for the rest of the request.
    """

    def __init__(self, collection: str, shard_id: int):
        super().__init__(f"{collection}#shard{shard_id}")
        self.shard_id = shard_id


class CollectionExistsError(BadRequestError):
    """Attempted to create a collection whose name is already taken."""

    def __init__(self, name: str):
        super().__init__(f"collection {name!r} already exists")
        self.name = name


class PointNotFoundError(BadRequestError):
    """A point id referenced by retrieve/delete does not exist."""

    def __init__(self, point_id):
        super().__init__(f"point {point_id!r} does not exist")
        self.point_id = point_id


class SegmentSealedError(VectorDBError):
    """Write attempted against a sealed (immutable) segment."""


class MaintenanceConflictError(VectorDBError):
    """A maintenance pass tried to commit against a stale snapshot.

    The generation fence rejected the swap: another pass (or an abort)
    replaced the collection's active snapshot after this one was taken.
    """


class IndexNotBuiltError(VectorDBError):
    """An operation required an ANN index that has not been built yet."""


class WALCorruptionError(VectorDBError):
    """The write-ahead log failed checksum or framing validation on replay."""


class TransportError(VectorDBError):
    """A message could not be delivered to a worker."""


class WorkerUnavailableError(TransportError):
    """The target worker is down or has been removed from the cluster."""

    def __init__(self, worker_id: str):
        super().__init__(f"worker {worker_id!r} is unavailable")
        self.worker_id = worker_id


class NoReplicaAvailableError(TransportError):
    """Every replica of a shard is unavailable; the search cannot complete."""

    def __init__(self, shard_id: int):
        super().__init__(f"no live replica for shard {shard_id}")
        self.shard_id = shard_id


class RequestTimeoutError(TransportError):
    """A transport call exceeded its retry policy's per-call timeout.

    The underlying call may still complete on the worker; timeouts are a
    *client-side* bound, so callers must only retry idempotent operations.
    """

    def __init__(self, worker_id: str, method: str, timeout_s: float):
        super().__init__(
            f"call {method!r} to worker {worker_id!r} timed out after {timeout_s}s"
        )
        self.worker_id = worker_id
        self.method = method
        self.timeout_s = timeout_s


class ClusterConfigError(VectorDBError):
    """Invalid cluster topology (e.g. replication factor > worker count)."""


class SnapshotError(VectorDBError):
    """Snapshot serialization or restore failed."""
