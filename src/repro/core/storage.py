"""Dense vector storage.

:class:`VectorArena` is an append-only, grow-in-place matrix of ``float32``
vectors with a stable internal offset per vector.  It is the storage backing
of a segment: point ids are mapped to arena offsets by :class:`IdTracker`,
and deletions are tombstones (a bitmap) — space is reclaimed only when the
optimizer rewrites the segment (vacuum), exactly as in Qdrant's segment
model.

Design notes
------------
* Rows are kept C-contiguous so distance kernels hit BLAS fast paths
  (cache/contiguity idiom from the optimization guide).
* Growth is geometric (×1.5) to amortise reallocation; ``reserve`` lets bulk
  insert paths pre-size the arena once.
* ``on_disk=True`` backs the arena with a ``numpy.memmap`` so collections
  bigger than RAM can still be scanned; the interface is identical.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import DimensionMismatchError, PointNotFoundError
from .types import PointId

__all__ = ["VectorArena", "IdTracker"]

_INITIAL_CAPACITY = 64
_GROWTH = 1.5


class VectorArena:
    """Append-only dense ``(capacity, dim)`` float32 matrix."""

    def __init__(self, dim: int, *, on_disk: bool = False, directory: str | None = None):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self._dim = dim
        self._count = 0
        self._on_disk = on_disk
        self._directory = directory
        self._path: str | None = None
        self._data = self._allocate(_INITIAL_CAPACITY)

    # -- allocation -------------------------------------------------------

    def _allocate(self, capacity: int) -> np.ndarray:
        if not self._on_disk:
            return np.empty((capacity, self._dim), dtype=np.float32)
        fd, path = tempfile.mkstemp(suffix=".vecs", dir=self._directory)
        os.close(fd)
        old_path = self._path
        self._path = path
        mm = np.memmap(path, dtype=np.float32, mode="w+", shape=(capacity, self._dim))
        if old_path is not None and os.path.exists(old_path):
            # defer unlink until data copied by caller; caller copies first
            pass
        return mm

    def _grow_to(self, capacity: int) -> None:
        old = self._data
        old_path = self._path
        new = self._allocate(capacity)
        new[: self._count] = old[: self._count]
        self._data = new
        if self._on_disk and old_path and old_path != self._path:
            del old
            os.unlink(old_path)

    def reserve(self, total: int) -> None:
        """Ensure capacity for at least ``total`` vectors (one realloc)."""
        if total > self._data.shape[0]:
            self._grow_to(max(total, int(self._data.shape[0] * _GROWTH) + 1))

    # -- properties --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def capacity(self) -> int:
        return int(self._data.shape[0])

    @property
    def on_disk(self) -> bool:
        return self._on_disk

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes of live vector data (not capacity)."""
        return self._count * self._dim * 4

    # -- mutation ----------------------------------------------------------

    def append(self, vec: np.ndarray) -> int:
        """Append one vector; returns its arena offset."""
        vec = np.asarray(vec, dtype=np.float32)
        if vec.shape != (self._dim,):
            raise DimensionMismatchError(self._dim, int(vec.shape[-1]) if vec.ndim else 0)
        if self._count == self._data.shape[0]:
            self._grow_to(int(self._data.shape[0] * _GROWTH) + 1)
        self._data[self._count] = vec
        self._count += 1
        return self._count - 1

    def extend(self, mat: np.ndarray) -> np.ndarray:
        """Append a batch of vectors; returns their offsets."""
        mat = np.asarray(mat, dtype=np.float32)
        if mat.ndim != 2 or mat.shape[1] != self._dim:
            raise DimensionMismatchError(self._dim, mat.shape[-1] if mat.ndim else 0)
        n = mat.shape[0]
        self.reserve(self._count + n)
        self._data[self._count : self._count + n] = mat
        offsets = np.arange(self._count, self._count + n, dtype=np.int64)
        self._count += n
        return offsets

    def overwrite(self, offset: int, vec: np.ndarray) -> None:
        """Replace the vector at ``offset`` in place (used by upsert)."""
        if not 0 <= offset < self._count:
            raise IndexError(f"offset {offset} out of range [0, {self._count})")
        vec = np.asarray(vec, dtype=np.float32)
        if vec.shape != (self._dim,):
            raise DimensionMismatchError(self._dim, int(vec.shape[-1]) if vec.ndim else 0)
        self._data[offset] = vec

    # -- access ------------------------------------------------------------

    def get(self, offset: int) -> np.ndarray:
        if not 0 <= offset < self._count:
            raise IndexError(f"offset {offset} out of range [0, {self._count})")
        return self._data[offset]

    def view(self) -> np.ndarray:
        """A read-view of all live rows — no copy (view-not-copy idiom)."""
        return self._data[: self._count]

    def buffer(self) -> np.ndarray:
        """Every allocated row, spare capacity included — no copy.

        For readers that gather by offsets they already hold while a writer
        appends: a row, once written, keeps its offset in this buffer and in
        every later one.  Rows at or past ``len(self)`` are uninitialised.
        """
        return self._data

    def take(self, offsets: np.ndarray) -> np.ndarray:
        """Gather rows by offset (copy)."""
        return self._data[: self._count][offsets]

    def close(self) -> None:
        """Release the backing file of an on-disk arena."""
        if self._on_disk and self._path and os.path.exists(self._path):
            data = self._data
            self._data = np.empty((0, self._dim), dtype=np.float32)
            del data
            os.unlink(self._path)
            self._path = None


class IdTracker:
    """Bidirectional mapping between external point ids and arena offsets.

    Also owns the deletion bitmap.  A point id maps to exactly one live
    offset; re-upserting an existing id overwrites in place.
    """

    def __init__(self):
        self._id_to_offset: dict[PointId, int] = {}
        self._offset_to_id: list[PointId] = []
        self._deleted: list[bool] = []
        self._deleted_count = 0

    def __len__(self) -> int:
        """Number of live (non-deleted) points."""
        return len(self._id_to_offset)

    @property
    def total_offsets(self) -> int:
        """Number of allocated offsets including tombstones."""
        return len(self._offset_to_id)

    @property
    def deleted_count(self) -> int:
        return self._deleted_count

    def contains(self, point_id: PointId) -> bool:
        return point_id in self._id_to_offset

    def offset_of(self, point_id: PointId) -> int:
        try:
            return self._id_to_offset[point_id]
        except KeyError:
            raise PointNotFoundError(point_id) from None

    def id_at(self, offset: int) -> PointId:
        return self._offset_to_id[offset]

    def register(self, point_id: PointId, offset: int) -> None:
        """Bind a new offset to ``point_id`` (offset must be fresh)."""
        if offset != len(self._offset_to_id):
            raise ValueError("offsets must be registered in append order")
        self._id_to_offset[point_id] = offset
        self._offset_to_id.append(point_id)
        self._deleted.append(False)

    def register_batch(self, point_ids, offsets) -> None:
        for pid, off in zip(point_ids, offsets):
            self.register(pid, int(off))

    def mark_deleted(self, point_id: PointId) -> int:
        """Tombstone a point; returns the freed offset."""
        offset = self.offset_of(point_id)
        del self._id_to_offset[point_id]
        self._deleted[offset] = True
        self._deleted_count += 1
        return offset

    def is_deleted(self, offset: int) -> bool:
        return self._deleted[offset]

    def deleted_mask(self) -> np.ndarray:
        """Boolean mask over offsets, True where tombstoned."""
        return np.asarray(self._deleted, dtype=bool)

    def live_offsets(self) -> np.ndarray:
        """Offsets of live points, ascending."""
        if not self._offset_to_id:
            return np.empty(0, dtype=np.int64)
        mask = ~self.deleted_mask()
        return np.nonzero(mask)[0].astype(np.int64)

    def live_ids(self) -> list[PointId]:
        return [self._offset_to_id[o] for o in self.live_offsets()]

    def ids_at(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorised offset→id lookup."""
        lut = np.asarray(self._offset_to_id, dtype=np.int64)
        return lut[np.asarray(offsets, dtype=np.int64)]
