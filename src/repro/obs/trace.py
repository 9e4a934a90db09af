"""Span-based distributed tracer.

The paper's contribution is *attribution*: knowing, for one insert or one
query, how much time went to client batching, to the coordinator fan-out,
and to worker-side compute (§3.2–§3.5).  This tracer produces exactly that
decomposition as a span tree::

    client.upload                         (SyncClient / AsyncClient / pool)
      cluster.upsert                      (coordinator)
        cluster.fanout                    (broadcast wall)
          rpc.upsert   worker=worker-0    (one per transport call)
            worker.upsert                 (server-side service time)
              wal.append                  (durability)

Design constraints, in order:

1. **Always compiled, sampling gated.**  Instrumented call sites stay in
   the code permanently; whether spans are recorded is decided per *root*
   span by ``enabled`` and ``sample_every``.  The disabled path returns a
   module-level singleton no-op span — it allocates nothing and does two
   attribute loads plus one comparison per call, which is what keeps the
   hot query path within the ≤5 % overhead budget.
2. **Thread-local context.**  The current span stack lives in a
   ``threading.local``; nesting works without any plumbing inside one
   thread, which covers fan-out lanes the cluster runs inline over an
   in-process transport.  Crossing the cluster's fan-out pool (used where
   transport calls wait) is explicit: the submitting thread captures
   :meth:`Tracer.current_context` and the pool thread re-parents under it
   with :meth:`Tracer.activate`.
3. **Process boundaries degrade, never crash.**  A context serialized with
   :meth:`TraceContext.to_wire` can be handed to a worker process;
   :meth:`Tracer.continue_trace` starts a fresh process-local root span
   that keeps the parent's ``trace_id`` (and records the remote parent
   span id as a link attribute).  If the child process never configured a
   tracer, the whole thing is the same no-op as any disabled call site.

Spans are buffered in memory (bounded, oldest-dropped) and exported with
:mod:`repro.obs.export` (Chrome trace-event JSON for Perfetto, JSON lines,
or raw records).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from .clock import monotonic

__all__ = [
    "SpanRecord",
    "Span",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "configure",
    "span",
    "current_context",
]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span, immutable, ready for export."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    thread: str
    attrs: tuple[tuple[str, Any], ...] = ()
    status: str = "ok"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attrs:
            if k == key:
                return v
        return default


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagatable identity of an in-flight span."""

    trace_id: int
    span_id: int

    def to_wire(self) -> dict[str, int]:
        """Plain-dict form safe to pickle across a process boundary."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(wire: Mapping[str, int] | None) -> "TraceContext | None":
        if not wire:
            return None
        try:
            return TraceContext(int(wire["trace_id"]), int(wire["span_id"]))
        except (KeyError, TypeError, ValueError):
            return None  # malformed context degrades to "no context"


class _NoopSpan:
    """Shared do-nothing span: the entire disabled/unsampled path.

    A single module-level instance is returned from every gated call, so
    the disabled hot path allocates nothing.  ``set_attr`` and the context
    protocol are accepted and ignored.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass

    @property
    def recording(self) -> bool:
        return False

    context = None  # type: TraceContext | None


NOOP_SPAN = _NoopSpan()


class Span:
    """A live (recording) span; finished on ``__exit__``."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "start_s", "_attrs", "status")

    def __init__(self, tracer: "Tracer", trace_id: int, span_id: int,
                 parent_id: int | None, name: str,
                 attrs: Mapping[str, Any] | None):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self._attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self.start_s = monotonic()

    @property
    def recording(self) -> bool:
        return True

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set_attr(self, key: str, value: Any) -> None:
        self._attrs[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self._attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False


class _Stack(threading.local):
    def __init__(self):
        self.frames: list = []          # Span | TraceContext (remote parent)
        self.suppressed: int = 0        # depth of an unsampled subtree


class _Suppress:
    """Context manager marking an unsampled root: children become no-ops."""

    __slots__ = ("_stack",)

    def __init__(self, stack: _Stack):
        self._stack = stack
        stack.suppressed += 1

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.suppressed -= 1
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass

    @property
    def recording(self) -> bool:
        return False

    context = None


class _Activation:
    """Context manager installing a remote parent on this thread's stack."""

    __slots__ = ("_stack",)

    def __init__(self, stack: _Stack, ctx: TraceContext):
        self._stack = stack
        stack.frames.append(ctx)

    def __enter__(self) -> "_Activation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stack.frames.pop()
        return False


class Tracer:
    """Span factory + bounded in-memory recorder.

    ``enabled=False`` (the default for the global tracer) short-circuits
    every :meth:`span` call to the shared no-op span.  ``sample_every=n``
    records every n-th *trace* (decided at the root; a sampled root records
    its whole subtree, an unsampled root suppresses its whole subtree — a
    partial tree is worse than none).
    """

    def __init__(self, *, enabled: bool = True, sample_every: int = 1,
                 max_spans: int = 100_000):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.enabled = enabled
        self.sample_every = sample_every
        self.max_spans = max_spans
        self._spans: list[SpanRecord] = []
        self._dropped = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._roots = itertools.count()
        self._stack = _Stack()

    # -- span creation -------------------------------------------------------

    def span(self, name: str, attrs: Mapping[str, Any] | None = None):
        """Start a span (context manager).  The disabled path allocates
        nothing; attrs is a plain mapping parameter (not ``**kwargs``) for
        exactly that reason."""
        if not self.enabled:
            return NOOP_SPAN
        stack = self._stack
        if stack.suppressed:
            return NOOP_SPAN
        frames = stack.frames
        if frames:
            parent = frames[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            if self.sample_every > 1 and next(self._roots) % self.sample_every:
                return _Suppress(stack)
            trace_id = next(self._ids)
            parent_id = None
        sp = Span(self, trace_id, next(self._ids), parent_id, name, attrs)
        frames.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        frames = self._stack.frames
        # Tolerate exits out of order (a leaked span in a pool thread must
        # not corrupt unrelated frames): pop back to this span if present.
        if frames and frames[-1] is sp:
            frames.pop()
        elif sp in frames:
            del frames[frames.index(sp):]
        record = SpanRecord(
            trace_id=sp.trace_id,
            span_id=sp.span_id,
            parent_id=sp.parent_id,
            name=sp.name,
            start_s=sp.start_s,
            end_s=monotonic(),
            thread=threading.current_thread().name,
            attrs=tuple(sorted(sp._attrs.items(), key=lambda kv: kv[0])),
            status=sp.status,
        )
        with self._lock:
            if len(self._spans) >= self.max_spans:
                # Drop oldest: recent spans are the ones being debugged.
                del self._spans[: max(1, self.max_spans // 10)]
                self._dropped += 1
            self._spans.append(record)

    # -- context propagation -------------------------------------------------

    def current_context(self) -> TraceContext | None:
        """Identity of the innermost live span on *this* thread."""
        if not self.enabled:
            return None
        frames = self._stack.frames
        if not frames:
            return None
        top = frames[-1]
        return top if isinstance(top, TraceContext) else top.context

    def activate(self, ctx: TraceContext | None):
        """Re-parent this thread under ``ctx`` (fan-out pool threads).

        ``activate(None)`` is a no-op, so callers can pass whatever
        :meth:`current_context` returned without checking.
        """
        if ctx is None or not self.enabled:
            return NOOP_SPAN
        return _Activation(self._stack, ctx)

    def continue_trace(self, wire: Mapping[str, int] | None, name: str,
                       attrs: Mapping[str, Any] | None = None):
        """Cross-process continuation: a fresh root span in this process
        carrying the parent's ``trace_id`` (with the remote span id kept as
        a ``remote_parent`` attribute rather than a structural parent —
        the recorder on the far side of the boundary is a different
        object, so structural nesting cannot be reconstructed here).
        Malformed or missing wire context degrades to an ordinary span;
        a disabled tracer degrades to the no-op.  Never raises.
        """
        if not self.enabled:
            return NOOP_SPAN
        ctx = TraceContext.from_wire(wire) if not isinstance(wire, TraceContext) else wire
        if ctx is None:
            return self.span(name, attrs)
        merged = dict(attrs) if attrs else {}
        merged["remote_parent"] = ctx.span_id
        sp = Span(self, ctx.trace_id, next(self._ids), None, name, merged)
        self._stack.frames.append(sp)
        return sp

    # -- recorded spans --------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[SpanRecord]:
        """Return all buffered spans and clear the buffer."""
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    @property
    def span_count(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def dropped_batches(self) -> int:
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    # -- tree helpers ----------------------------------------------------------

    def traces(self) -> dict[int, list[SpanRecord]]:
        """Recorded spans grouped by trace id (each sorted by start time)."""
        out: dict[int, list[SpanRecord]] = {}
        for record in self.spans():
            out.setdefault(record.trace_id, []).append(record)
        for records in out.values():
            records.sort(key=lambda r: r.start_s)
        return out

    def children_of(self, span_id: int) -> list[SpanRecord]:
        return [r for r in self.spans() if r.parent_id == span_id]


#: Global tracer: disabled by default, so an un-configured program pays
#: only the ``enabled`` check at every instrumented call site.
_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the global tracer; returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


def configure(*, enabled: bool = True, sample_every: int = 1,
              max_spans: int = 100_000) -> Tracer:
    """Replace the global tracer with a fresh one and return it."""
    tracer = Tracer(enabled=enabled, sample_every=sample_every, max_spans=max_spans)
    set_tracer(tracer)
    return tracer


def span(name: str, attrs: Mapping[str, Any] | None = None):
    """Convenience: a span on the global tracer."""
    return _GLOBAL.span(name, attrs)


def current_context() -> TraceContext | None:
    """Convenience: the global tracer's current context."""
    return _GLOBAL.current_context()


def iter_roots(records: list[SpanRecord]) -> Iterator[SpanRecord]:
    """Yield the root spans (no parent) of a record list."""
    for record in records:
        if record.parent_id is None:
            yield record
