"""Collection mutation ops: one vocabulary for the WAL and both journals.

The write path builds one record per operation; the WAL appends it and every
open journal (a maintenance pass's, a live migration's) keeps it.  Reopening
from the WAL, reconciling a maintenance swap and catching up a migration
target all go through :func:`replay`, whose target has one method per op
(``upsert``, ``delete``, ``set_payload``, ``payload_index``) returning the
point mutations it applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, WALCorruptionError
from .types import PointId, PointStruct
from .wal import COLUMNAR_UPSERT_OP, WalRecord, WriteAheadLog


def own_payload(payload: Mapping | None) -> dict | None:
    return dict(payload) if payload is not None else None


@dataclass(eq=False, slots=True)
class Upsert:
    """Insert or overwrite a block of points; logged as one ``RWCL`` record."""

    ids: np.ndarray      # (n,) int64
    vectors: np.ndarray  # (n, dim)
    payloads: list       # n payloads, each a dict or None

    @classmethod
    def of_points(cls, points: Sequence[PointStruct], dim: int) -> "Upsert":
        """The rows as one block (payloads copied to dicts)."""
        vectors = [p.as_array() for p in points]
        for vec in vectors:
            if vec.shape != (dim,):
                raise DimensionMismatchError(dim, vec.shape[0])
        return cls(
            np.asarray([p.id for p in points], dtype=np.int64),
            np.stack(vectors) if points else np.empty((0, dim), dtype=np.float32),
            [own_payload(p.payload) for p in points],
        )

    @property
    def points(self) -> int:
        return len(self.ids)

    def log(self, wal: WriteAheadLog) -> None:
        wal.append_columnar(self.ids, self.vectors, self.payloads)

    def owned(self) -> "Upsert":
        """A copy sharing no array or payload with the caller's batch."""
        return Upsert(
            np.array(self.ids, dtype=np.int64),
            np.array(self.vectors, dtype=np.float32),
            [own_payload(p) for p in self.payloads],
        )


@dataclass(slots=True)
class Delete:
    ids: list

    @property
    def points(self) -> int:
        return len(self.ids)

    def log(self, wal: WriteAheadLog) -> None:
        wal.append("delete", self.ids)


@dataclass(slots=True)
class SetPayload:
    id: PointId
    payload: dict | None
    points: ClassVar[int] = 1

    def log(self, wal: WriteAheadLog) -> None:
        wal.append("set_payload", (self.id, self.payload))


@dataclass(slots=True)
class PayloadIndex:
    key: str
    kind: str  # "keyword" | "numeric"
    points: ClassVar[int] = 0

    def log(self, wal: WriteAheadLog) -> None:
        wal.append("payload_index", (self.key, self.kind))


Op = Union[Upsert, Delete, SetPayload, PayloadIndex]

_FROM_WAL = {
    COLUMNAR_UPSERT_OP: lambda d: Upsert(d[0], d[1], d[2] or [None] * len(d[0])),
    "delete": lambda ids: Delete(list(ids)),
    "set_payload": lambda d: SetPayload(*d),
    "payload_index": lambda d: PayloadIndex(*d),
}


def from_wal(records: Iterable[WalRecord]) -> Iterator[Op]:
    """Decode WAL records; an op outside this vocabulary is corruption."""
    for record in records:
        decode = _FROM_WAL.get(record.op)
        if decode is None:
            raise WALCorruptionError(f"record {record.seq}: unknown op {record.op!r}")
        yield decode(record.data)


def point_count(ops: Iterable[Op]) -> int:
    return sum(op.points for op in ops)


def replay(ops: Iterable[Op], target) -> int:
    """Apply ``ops`` to ``target`` in order; returns the point mutations applied."""
    applied = 0
    for op in ops:
        match op:
            case Upsert():
                applied += target.upsert(op)
            case Delete():
                applied += target.delete(op)
            case SetPayload():
                applied += target.set_payload(op)
            case PayloadIndex():
                applied += target.payload_index(op)
            case _:
                raise TypeError(f"not a mutation op: {op!r}")
    return applied
