"""A Qdrant-like distributed vector database, implemented from scratch.

Layering (bottom-up):

* :mod:`repro.core.distances` — vectorized similarity kernels
* :mod:`repro.core.storage` — dense vector arenas + id tracking
* :mod:`repro.core.index` — flat / HNSW / IVF(-PQ) / KD-tree indexes
* :mod:`repro.core.segment` / :mod:`repro.core.collection` — storage units,
  optimizer, WAL, snapshots
* :mod:`repro.core.cluster` — sharding, stateful workers, broadcast–reduce
  distributed search (§2.1 architecture 1 of the paper)
* :mod:`repro.core.client` / ``aioclient`` / ``mpclient`` — the client
  stacks whose tuning the paper studies in §3.2 and §3.4

Quickstart::

    from repro.core import Collection, CollectionConfig, VectorParams, Distance, PointStruct, SearchRequest

    config = CollectionConfig("papers", VectorParams(size=128, distance=Distance.COSINE))
    papers = Collection(config)
    papers.upsert([PointStruct(id=1, vector=[...]*128, payload={"title": "..."})])
    hits = papers.search(SearchRequest(vector=[...]*128, limit=5))
"""

from .batch import Batch
from .cache import CachePolicy, CacheStats, ResultCache, ShardResultCache
from .collection import Collection
from .errors import (
    BadRequestError,
    CollectionExistsError,
    CollectionNotFoundError,
    DimensionMismatchError,
    MaintenanceConflictError,
    NoReplicaAvailableError,
    PointNotFoundError,
    RequestTimeoutError,
    ShardRetiredError,
    TransportError,
    VectorDBError,
    WorkerUnavailableError,
)
from .filters import FieldIn, FieldMatch, FieldRange, Filter, HasId, IsEmpty
from .maintenance import MaintenanceDriver, MaintenanceStats
from .recommend import RecommendRequest
from .resharding import (
    MoveResult,
    ReshardConfig,
    ReshardCoordinator,
    ReshardStats,
    ShardMigration,
    ShardWriteGate,
)
from .scheduler import CoalescePolicy, CoalesceStats, QueryCoalescer
from .snapshot import load_snapshot, save_snapshot
from .types import (
    CollectionConfig,
    CollectionInfo,
    CollectionStatus,
    Distance,
    HnswConfig,
    IvfConfig,
    OptimizerConfig,
    PointStruct,
    QuantizationConfig,
    Record,
    ScoredPoint,
    SearchParams,
    SearchRequest,
    SearchResult,
    UpdateResult,
    UpdateStatus,
    VectorParams,
    WalConfig,
)

__all__ = [
    "Batch",
    "Collection",
    "CollectionConfig",
    "CollectionInfo",
    "CollectionStatus",
    "Distance",
    "HnswConfig",
    "IvfConfig",
    "OptimizerConfig",
    "PointStruct",
    "QuantizationConfig",
    "Record",
    "ScoredPoint",
    "SearchParams",
    "SearchRequest",
    "SearchResult",
    "UpdateResult",
    "UpdateStatus",
    "VectorParams",
    "WalConfig",
    "Filter",
    "FieldMatch",
    "FieldRange",
    "FieldIn",
    "HasId",
    "IsEmpty",
    "RecommendRequest",
    "MaintenanceDriver",
    "MaintenanceStats",
    "MaintenanceConflictError",
    "CoalescePolicy",
    "CoalesceStats",
    "QueryCoalescer",
    "CachePolicy",
    "CacheStats",
    "ResultCache",
    "ShardResultCache",
    "ReshardConfig",
    "ReshardCoordinator",
    "ReshardStats",
    "ShardMigration",
    "ShardWriteGate",
    "MoveResult",
    "save_snapshot",
    "load_snapshot",
    "VectorDBError",
    "BadRequestError",
    "DimensionMismatchError",
    "CollectionNotFoundError",
    "ShardRetiredError",
    "CollectionExistsError",
    "PointNotFoundError",
    "TransportError",
    "WorkerUnavailableError",
    "NoReplicaAvailableError",
    "RequestTimeoutError",
]
