"""Worker transports.

The cluster addresses workers through a :class:`Transport`, which hides
whether the worker is an in-process object (unit tests, examples), an
object behind injected latency/failures (integration tests, the perf
model's communication accounting), or a simulated remote process.

A transport call is ``call(worker_id, method, *args, **kwargs)``.  The
:class:`InstrumentedTransport` records per-call byte and call counts, which
the performance model converts into Slingshot network time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs.metrics import Counters
from ..obs.trace import get_tracer
from .errors import TransportError, WorkerUnavailableError
from .types import ScoredPoint

__all__ = [
    "Transport",
    "LocalTransport",
    "InstrumentedTransport",
    "FaultInjectingTransport",
    "estimate_payload_bytes",
    "TransportStats",
]


#: Elements inspected at each end of a long sequence before extrapolating.
_HOMOGENEOUS_SAMPLE = 8


#: Per-class ``__slots__`` layout (MRO-merged, dunders dropped) so the
#: exact sizing walk below does not re-derive it point by point.
_SLOT_LAYOUT_CACHE: dict[type, tuple[str, ...]] = {}

#: The pristine ``ScoredPoint.__init__`` attribute layout and its total
#: utf-8 key length, for the exact walk's fixed-layout fast path.
_SCORED_POINT_KEYS = frozenset(("id", "score", "payload", "vector", "shard_id"))
_SCORED_POINT_KEY_BYTES = sum(len(k) for k in _SCORED_POINT_KEYS)


def _slot_layout(klass: type) -> tuple[str, ...]:
    layout = _SLOT_LAYOUT_CACHE.get(klass)
    if layout is None:
        seen: list[str] = []
        for base in klass.__mro__:
            slots = getattr(base, "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                if slot not in seen and slot not in ("__dict__", "__weakref__"):
                    seen.append(slot)
        layout = _SLOT_LAYOUT_CACHE[klass] = tuple(seen)
    return layout


def _exact_scored_points_bytes(seq) -> int:
    """Exact byte total of a ``ScoredPoint`` sequence — never sampled.

    The result cache budgets entries with this number, and an extrapolated
    estimate would let a skewed payload distribution blow the byte budget
    (the sampled head/tail of a hit list rarely matches its middle once
    payloads vary).  Each point is walked through its ``__dict__`` plus
    every ``__slots__`` declaration in the MRO, so the accounting stays
    exact even if ``ScoredPoint`` (or a subclass) is slotted later.

    This runs on every cache fill (cluster tier plus one per shard), so the
    common field types are dispatched inline — exact-type checks matching
    :func:`estimate_payload_bytes`'s conventions value for value — and only
    unusual types fall back to the full recursion.
    """
    attr_bytes = _attr_bytes
    total = 0
    for point in seq:
        attrs = getattr(point, "__dict__", None)
        if (
            type(point) is ScoredPoint
            and attrs.keys() == _SCORED_POINT_KEYS
            and type(point.score) is float
        ):
            # The dominant case: an unsubclassed point with the pristine
            # ``__init__`` layout (id, score, payload, vector, shard_id).
            # Key bytes are the constant 28; each field dispatches inline.
            # Value-equal to the generic walk below, just without the dict
            # iteration.
            total += _SCORED_POINT_KEY_BYTES + 8  # five keys + float score
            total += attr_bytes(point.id)
            total += attr_bytes(point.payload)
            total += attr_bytes(point.vector)
            total += attr_bytes(point.shard_id)
            continue
        if attrs is not None:
            for key, value in attrs.items():
                total += (
                    len(key)
                    if key.isascii()
                    else len(key.encode("utf-8", errors="ignore"))
                )
                total += attr_bytes(value)
        for slot in _slot_layout(type(point)):
            try:
                total += attr_bytes(getattr(point, slot))
            except AttributeError:
                continue  # slot declared but never assigned
    return total


def _attr_bytes(value) -> int:
    """One field of the exact walk: inline exact-type dispatch, value-equal
    to :func:`estimate_payload_bytes` on every type it short-circuits."""
    if value is None:
        return 0
    t = type(value)
    if t is float or t is int:
        return 8
    if t is np.ndarray:
        return int(value.nbytes)
    if t is str:
        return (
            len(value)
            if value.isascii()
            else len(value.encode("utf-8", errors="ignore"))
        )
    if t is dict:
        return sum(_attr_bytes(k) + _attr_bytes(v) for k, v in value.items())
    if t is bool:
        return 1
    return estimate_payload_bytes(value)


def estimate_payload_bytes(obj: Any) -> int:
    """Rough wire size of a request/response object.

    numpy arrays count their buffer; containers recurse; scalars and strings
    use their natural sizes.  Long homogeneous lists (batched points or
    queries) are sampled and extrapolated instead of walked element by
    element, so instrumentation cost stays flat as batch width grows.  This
    is the quantity the performance model multiplies by link bandwidth, so
    only relative accuracy matters.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        # numpy scalars (np.float32(x), np.int64(x), ...) carry their exact
        # wire width; without this they fell through to the 16-byte default.
        return int(obj.dtype.itemsize)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="ignore"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, dict):
        return sum(estimate_payload_bytes(k) + estimate_payload_bytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        n = len(obj)
        # Sample-and-extrapolate for long homogeneous sequences: batched
        # requests carry hundreds of same-shaped points/queries, and walking
        # every element made the instrumented-transport overhead grow with
        # batch width.  Estimating ``n·mean(head ∪ tail)`` is exact for the
        # common columnar cases (every element the same size) and keeps the
        # estimate O(1) in the batch width; heterogeneous (mixed-type)
        # sequences still take the exact path, as do small ones.
        if n and isinstance(obj, (list, tuple)) and isinstance(obj[0], ScoredPoint):
            # Search-result lists take the exact path regardless of length:
            # the cache's byte-budgeted LRU depends on it (see helper).
            if all(isinstance(x, ScoredPoint) for x in obj):
                return _exact_scored_points_bytes(obj)
        if n > _HOMOGENEOUS_SAMPLE * 4 and isinstance(obj, (list, tuple)):
            head_type = type(obj[0])
            if all(type(x) is head_type for x in obj[: _HOMOGENEOUS_SAMPLE]) and all(
                type(x) is head_type for x in obj[-_HOMOGENEOUS_SAMPLE:]
            ):
                sampled = sum(
                    estimate_payload_bytes(x) for x in obj[: _HOMOGENEOUS_SAMPLE]
                ) + sum(
                    estimate_payload_bytes(x) for x in obj[-_HOMOGENEOUS_SAMPLE:]
                )
                return int(round(sampled * n / (2 * _HOMOGENEOUS_SAMPLE)))
        return sum(estimate_payload_bytes(x) for x in obj)
    total = 0
    counted = False
    if hasattr(obj, "__dict__"):
        total += estimate_payload_bytes(vars(obj))
        counted = True
    # ``__slots__`` classes (slotted dataclasses included) have no
    # ``__dict__``; walk the slots of the whole MRO so their fields are
    # counted instead of charging the opaque 16-byte default.
    seen: set[str] = set()
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots:
            if slot in seen or slot in ("__dict__", "__weakref__"):
                continue
            seen.add(slot)
            counted = True
            try:
                total += estimate_payload_bytes(getattr(obj, slot))
            except AttributeError:
                continue  # slot declared but never assigned
    return total if counted else 16


class Transport:
    """Abstract worker transport."""

    @property
    def waits(self) -> bool:
        """Whether a call may block on something other than this process's
        CPU (a socket, a sleep, another process).

        The cluster runs fan-out lanes on a thread pool only when this is
        true: overlapping lanes hides waiting, while lanes that only
        compute in-process gain nothing from threads but GIL handoffs.
        Unknown transports answer ``True`` and keep parallel lanes.
        """
        return True

    def call(self, worker_id: str, method: str, *args, **kwargs):
        raise NotImplementedError

    def is_reachable(self, worker_id: str) -> bool:
        raise NotImplementedError


class LocalTransport(Transport):
    """Direct in-process dispatch to registered worker objects."""

    def __init__(self):
        self._workers: dict[str, Any] = {}
        self._lock = threading.Lock()

    @property
    def waits(self) -> bool:
        return False  # a call is a direct method call on this thread

    def register(self, worker_id: str, worker: Any) -> None:
        with self._lock:
            self._workers[worker_id] = worker

    def deregister(self, worker_id: str) -> None:
        with self._lock:
            self._workers.pop(worker_id, None)

    def worker_ids(self) -> list[str]:
        with self._lock:
            return list(self._workers)

    def is_reachable(self, worker_id: str) -> bool:
        with self._lock:
            return worker_id in self._workers

    def call(self, worker_id: str, method: str, *args, **kwargs):
        with self._lock:
            worker = self._workers.get(worker_id)
        if worker is None:
            raise WorkerUnavailableError(worker_id)
        fn = getattr(worker, method, None)
        if fn is None or not callable(fn):
            raise TransportError(f"worker {worker_id!r} has no method {method!r}")
        return fn(*args, **kwargs)


@dataclass
class TransportStats(Counters):
    """Accumulated communication counters."""

    calls: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    calls_by_method: dict[str, int] = field(default_factory=dict)
    bytes_by_method: dict[str, int] = field(default_factory=dict)

    def record(self, method: str, sent: int, received: int) -> None:
        with self._lock:
            self.calls += 1
            self.bytes_sent += sent
            self.bytes_received += received
            self.calls_by_method[method] = self.calls_by_method.get(method, 0) + 1
            self.bytes_by_method[method] = self.bytes_by_method.get(method, 0) + sent + received


class InstrumentedTransport(Transport):
    """Wraps another transport, recording bytes/calls and optional latency.

    ``latency_s`` adds a real ``time.sleep`` per call — useful in tests that
    need to observe overlap between concurrent requests (the asyncio client
    experiments).  Set it to 0 (default) for pure accounting.
    """

    def __init__(self, inner: Transport, *, latency_s: float = 0.0):
        self.inner = inner
        self.latency_s = latency_s
        # Its lock keeps the accounting consistent under the cluster's
        # thread-pool fan-out; the latency sleep stays outside it so
        # concurrent calls still overlap.
        self.stats = TransportStats()

    @property
    def waits(self) -> bool:
        return self.latency_s > 0 or self.inner.waits

    def is_reachable(self, worker_id: str) -> bool:
        return self.inner.is_reachable(worker_id)

    def call(self, worker_id: str, method: str, *args, **kwargs):
        sent = estimate_payload_bytes(args) + estimate_payload_bytes(kwargs)
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "transport.call", {"worker": worker_id, "method": method}
            ) as sp:
                result = self.inner.call(worker_id, method, *args, **kwargs)
                received = estimate_payload_bytes(result)
                sp.set_attr("sent_bytes", sent)
                sp.set_attr("received_bytes", received)
        else:
            result = self.inner.call(worker_id, method, *args, **kwargs)
            received = estimate_payload_bytes(result)
        self.stats.record(method, sent, received)
        return result


class FaultInjectingTransport(Transport):
    """Deterministic fault injection for failure-handling tests.

    ``fail_workers`` makes specific workers fail their calls; ``fail_every``
    raises on every Nth call (N>=2), exercising retry paths; ``set_delay``
    adds per-worker latency, exercising per-call timeouts.

    ``advertise_failures`` controls whether :meth:`is_reachable` *reports*
    failed workers as down.  ``True`` (default) models a membership service
    with instant failure detection; ``False`` models the HPC reality the
    paper runs in — a preempted node simply stops answering, so the
    coordinator only discovers the death when a mid-flight call raises.
    The chaos harness uses ``False`` to force real failover paths.

    All mutators and readers take ``self._lock``: the cluster's thread-pool
    fan-out calls :meth:`call`/:meth:`is_reachable` concurrently with the
    chaos harness killing and healing workers.
    """

    def __init__(
        self,
        inner: Transport,
        *,
        fail_workers: set[str] | None = None,
        fail_every: int | None = None,
        advertise_failures: bool = True,
    ):
        if fail_every is not None and fail_every < 2:
            raise ValueError("fail_every must be >= 2 (1 would fail every call)")
        self.inner = inner
        self.fail_workers = set(fail_workers or ())
        self.fail_every = fail_every
        self.advertise_failures = advertise_failures
        self.delays: dict[str, float] = {}
        self._counter = 0
        self._lock = threading.Lock()

    def fail_worker(self, worker_id: str) -> None:
        with self._lock:
            self.fail_workers.add(worker_id)

    def heal_worker(self, worker_id: str) -> None:
        with self._lock:
            self.fail_workers.discard(worker_id)

    def set_delay(self, worker_id: str, seconds: float | None) -> None:
        """Inject ``seconds`` of latency into every call to the worker
        (``None`` removes the delay)."""
        with self._lock:
            if seconds is None:
                self.delays.pop(worker_id, None)
            else:
                self.delays[worker_id] = seconds

    @property
    def waits(self) -> bool:
        return bool(self.delays) or self.inner.waits

    def is_reachable(self, worker_id: str) -> bool:
        with self._lock:
            if self.advertise_failures and worker_id in self.fail_workers:
                return False
        return self.inner.is_reachable(worker_id)

    def call(self, worker_id: str, method: str, *args, **kwargs):
        with self._lock:
            failed = worker_id in self.fail_workers
            delay = self.delays.get(worker_id, 0.0)
            self._counter += 1
            count = self._counter
        if delay > 0:
            time.sleep(delay)  # outside the lock so calls still overlap
        if failed:
            raise WorkerUnavailableError(worker_id)
        if self.fail_every is not None and count % self.fail_every == 0:
            raise TransportError(f"injected fault on call #{count} ({method})")
        return self.inner.call(worker_id, method, *args, **kwargs)
