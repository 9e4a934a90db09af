"""Write-ahead log.

A length-prefixed, checksummed record log used by collections for
durability of their mutation ops (:mod:`repro.core.ops`).  Records are
framed as::

    magic(4) | seq(8) | crc32(4) | length(4) | payload(length)

Two record kinds share the frame, distinguished by the magic:

* ``RWAL`` — ``payload`` is a pickled ``(op, data)`` tuple (every op but
  the upsert: deletes, payload updates, payload-index creation);
* ``RWCL`` — a **columnar upsert**: ``payload`` is a small pickled header
  (dtype, shape, payload flag) followed by the raw ``ids`` buffer and the
  raw vector matrix bytes.  Appending one never materializes Python lists
  — the ndarray buffers are written straight to the file, which is what
  makes the client→WAL path zero-copy for the vector block.

On replay, records are validated in order; a torn tail (partial final
record or partial final *group*, e.g. after a crash mid group-commit) is
tolerated and truncated, while corruption *within* the log raises
:class:`~repro.core.errors.WALCorruptionError`.  Replay streams the file in
bounded reads — memory use is proportional to the largest single record,
never to the log size.

Durability modes (weakest to strongest):

* **group commit** (``flush_every_n > 1`` and/or ``flush_interval_s``) —
  appends accumulate in the file buffer and are flushed to the OS every N
  records or T seconds, whichever comes first.  A crash loses at most the
  unflushed group; the on-disk prefix always replays cleanly.
* **per-record flush** (``flush_every_n = 1``, the default) — every append
  reaches the OS before returning (the pre-group-commit behaviour).
* **fsync** (``sync_every_write=True``) — every flush is followed by an
  ``fsync`` so records survive OS crashes too.

The WAL is deliberately synchronous and single-writer — each shard owns one
log, matching Qdrant's per-shard WAL.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from ..obs.clock import monotonic
from ..obs.trace import get_tracer
from .errors import WALCorruptionError

__all__ = ["WalRecord", "WriteAheadLog", "COLUMNAR_UPSERT_OP"]

_MAGIC = b"RWAL"
_MAGIC_COLUMNAR = b"RWCL"
_HEADER = struct.Struct("<4sQII")  # magic, seq, crc32, length
_COL_META_LEN = struct.Struct("<I")

#: ``WalRecord.op`` of a columnar upsert; ``data`` is then
#: ``(ids: np.ndarray[int64], vectors: np.ndarray, payloads: list | None)``.
COLUMNAR_UPSERT_OP = "upsert_columnar"


@dataclass(frozen=True)
class WalRecord:
    """One logged operation."""

    seq: int
    op: str           # "upsert_columnar" | "delete" | "set_payload" | "payload_index"
    data: Any         # op-specific payload


class WriteAheadLog:
    """Append-only operation log with CRC validation and crash-safe replay."""

    def __init__(
        self,
        path: str,
        *,
        sync_every_write: bool = False,
        flush_every_n: int = 1,
        flush_interval_s: float | None = None,
    ):
        if flush_every_n < 1:
            raise ValueError(f"flush_every_n must be >= 1, got {flush_every_n}")
        self._path = path
        self._sync = sync_every_write
        self._flush_every_n = flush_every_n
        self._flush_interval_s = flush_interval_s
        self._pending = 0
        self._last_flush = monotonic()
        self._next_seq = 0
        # -- telemetry counters (ingest metrics read these) --
        self.append_count = 0
        self.flush_count = 0
        self.bytes_appended = 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # Recover the sequence counter from any existing log.
        if os.path.exists(path):
            for record in self.replay():
                self._next_seq = record.seq + 1
        self._fh = open(path, "ab")

    @property
    def path(self) -> str:
        return self._path

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def pending_records(self) -> int:
        """Appends buffered since the last flush (lost if we crash now)."""
        return self._pending

    # -- append ----------------------------------------------------------------

    def _write_frame(self, magic: bytes, parts: Sequence[bytes | memoryview]) -> None:
        """Frame + write one record from payload ``parts`` without joining them."""
        crc = 0
        length = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
            length += len(memoryview(part).cast("B"))
        self._fh.write(_HEADER.pack(magic, self._next_seq, crc & 0xFFFFFFFF, length))
        for part in parts:
            self._fh.write(part)
        self.append_count += 1
        self.bytes_appended += _HEADER.size + length
        self._next_seq += 1
        self._pending += 1
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._pending >= self._flush_every_n:
            self.flush()
        elif (
            self._flush_interval_s is not None
            and monotonic() - self._last_flush >= self._flush_interval_s
        ):
            self.flush()

    def flush(self) -> None:
        """Push buffered appends to the OS (and disk, with fsync enabled)."""
        if self._fh.closed:
            return
        tracer = get_tracer()
        with tracer.span(
            "wal.flush",
            {"pending": self._pending} if tracer.enabled else None,
        ):
            self._fh.flush()
            if self._sync:
                os.fsync(self._fh.fileno())
        if self._pending:
            self.flush_count += 1
        self._pending = 0
        self._last_flush = monotonic()

    def append(self, op: str, data: Any) -> WalRecord:
        """Append one pickled operation; durability follows the flush policy."""
        tracer = get_tracer()
        with tracer.span(
            "wal.append", {"op": op} if tracer.enabled else None
        ):
            record = WalRecord(seq=self._next_seq, op=op, data=data)
            payload = pickle.dumps(
                (record.op, record.data), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._write_frame(_MAGIC, (payload,))
        return record

    def append_columnar(
        self,
        ids: np.ndarray,
        vectors: np.ndarray,
        payloads: Sequence[Any] | None = None,
    ) -> WalRecord:
        """Append a columnar upsert: raw ndarray buffers, no ``tolist()``.

        ``ids`` is coerced to contiguous int64 and ``vectors`` to a
        contiguous 2-D matrix; both buffers are written directly.  Payloads
        (when any are non-None) are pickled as one list.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        vectors = np.ascontiguousarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] != ids.shape[0]:
            raise ValueError(
                f"columnar record shape mismatch: {ids.shape[0]} ids, "
                f"vectors {vectors.shape}"
            )
        has_payloads = payloads is not None and any(p is not None for p in payloads)
        meta = pickle.dumps(
            (str(vectors.dtype), vectors.shape, has_payloads),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        parts: list[bytes | memoryview] = [
            _COL_META_LEN.pack(len(meta)),
            meta,
            ids.data,
            memoryview(vectors).cast("B"),
        ]
        if has_payloads:
            parts.append(pickle.dumps(list(payloads), protocol=pickle.HIGHEST_PROTOCOL))
        seq = self._next_seq
        tracer = get_tracer()
        with tracer.span(
            "wal.append",
            {"op": COLUMNAR_UPSERT_OP, "points": int(ids.shape[0])}
            if tracer.enabled else None,
        ):
            self._write_frame(_MAGIC_COLUMNAR, parts)
        return WalRecord(
            seq=seq,
            op=COLUMNAR_UPSERT_OP,
            data=(ids, vectors, list(payloads) if payloads is not None else None),
        )

    # -- replay ----------------------------------------------------------------

    @staticmethod
    def _decode_columnar(payload: bytes) -> tuple[np.ndarray, np.ndarray, list | None]:
        try:
            (meta_len,) = _COL_META_LEN.unpack_from(payload, 0)
            dtype_str, shape, has_payloads = pickle.loads(
                payload[_COL_META_LEN.size : _COL_META_LEN.size + meta_len]
            )
            n = int(shape[0])
            ids_off = _COL_META_LEN.size + meta_len
            ids = np.frombuffer(payload, dtype=np.int64, count=n, offset=ids_off).copy()
            vec_off = ids_off + ids.nbytes
            count = int(np.prod(shape)) if n else 0
            vectors = (
                np.frombuffer(payload, dtype=np.dtype(dtype_str), count=count, offset=vec_off)
                .reshape(shape)
                .copy()
            )
            payloads = None
            if has_payloads:
                payloads = pickle.loads(payload[vec_off + vectors.nbytes :])
            return ids, vectors, payloads
        except WALCorruptionError:
            raise
        except Exception as exc:
            raise WALCorruptionError(f"undecodable columnar record: {exc}") from exc

    def replay(self, *, max_record_bytes: int | None = None) -> Iterator[WalRecord]:
        """Yield all valid records, streaming the log in bounded reads.

        The file is never read whole: each iteration reads one header and
        one payload, so replay memory is bounded by the largest record.  A
        truncated final record or group (torn write after a crash) ends
        iteration silently after trimming the file; any other inconsistency
        raises :class:`WALCorruptionError`.
        """
        if not os.path.exists(self._path):
            return
        # A live log may hold a buffered, unflushed group: push it out so
        # replay observes everything appended so far (a *crashed* process
        # never gets here — its buffered tail is simply gone).
        fh_open = getattr(self, "_fh", None)
        if fh_open is not None and not fh_open.closed:
            fh_open.flush()
        file_size = os.path.getsize(self._path)
        pos = 0
        valid_end = 0
        expected_seq: int | None = None
        with open(self._path, "rb") as fh:
            while pos < file_size:
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break  # torn header
                magic, seq, crc, length = _HEADER.unpack(header)
                if magic not in (_MAGIC, _MAGIC_COLUMNAR):
                    raise WALCorruptionError(f"bad magic at offset {pos}")
                if max_record_bytes is not None and length > max_record_bytes:
                    raise WALCorruptionError(
                        f"record at offset {pos} claims {length} bytes "
                        f"(cap {max_record_bytes})"
                    )
                body_start = pos + _HEADER.size
                if file_size - body_start < length:
                    break  # torn body (possibly mid group-commit)
                payload = fh.read(length)
                if len(payload) < length:
                    break  # file shrank under us: treat as torn
                if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                    raise WALCorruptionError(
                        f"checksum mismatch at offset {pos} (seq {seq})"
                    )
                if expected_seq is not None and seq != expected_seq:
                    raise WALCorruptionError(
                        f"sequence gap: expected {expected_seq}, got {seq}"
                    )
                expected_seq = seq + 1
                if magic == _MAGIC_COLUMNAR:
                    yield WalRecord(
                        seq=seq,
                        op=COLUMNAR_UPSERT_OP,
                        data=self._decode_columnar(payload),
                    )
                else:
                    try:
                        op, op_data = pickle.loads(payload)
                    except Exception as exc:  # pragma: no cover - crc catches this
                        raise WALCorruptionError(
                            f"undecodable record at offset {pos}"
                        ) from exc
                    yield WalRecord(seq=seq, op=op, data=op_data)
                pos = body_start + length
                valid_end = pos
        if valid_end < file_size:
            # Trim the torn tail so subsequent appends produce a clean log.
            with open(self._path, "r+b") as fh:
                fh.truncate(valid_end)

    # -- lifecycle -------------------------------------------------------------

    def truncate(self) -> None:
        """Discard all records (after a successful snapshot/checkpoint)."""
        self._fh.close()
        with open(self._path, "wb"):
            pass
        self._fh = open(self._path, "ab")
        self._pending = 0

    def size_bytes(self) -> int:
        self._fh.flush()
        return os.path.getsize(self._path)

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
