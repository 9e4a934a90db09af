"""Metrics registry: counters, gauges, and fixed-bucket latency histograms.

The companion study "When More Cores Hurts" makes the case that HPC
vector-database pathologies live in the *tails*, not the means — a mean
wall-time counter (what :mod:`repro.core.telemetry` had before this
module) cannot distinguish a uniformly slow run from a p99 blow-up.  The
histogram here is the fixed-bucket kind every production metrics system
uses (Prometheus classic histograms): log-spaced upper bounds, one integer
counter per bucket, so

* ``observe`` is O(log buckets) and lock-cheap (safe on the query hot path),
* percentiles are recoverable to within one bucket width (the same
  resolution contract :class:`repro.perfmodel.variability.TrialStats`
  gives via exact samples, checked against it in the tests), and
* per-worker histograms **merge associatively** — the reduce over workers
  is a vector add, so cluster-level p99 is computable without shipping
  samples.

Snapshots (:class:`HistogramSnapshot`) are immutable, diffable
(``minus``) and mergeable, which is what lets
:class:`repro.core.telemetry.TelemetrySnapshot` carry them through its
before/after ``diff`` protocol.

:class:`Counters` is the same protocol for the subsystems' named counter
sets (fan-out, ingest, failover, cache, …): one dataclass per set, one lock,
and ``snapshot`` / ``reset`` / ``minus`` derived from the field list, so a
counter's name is written once, where it is declared.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Iterable, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Counters",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "get_registry",
    "gauge",
    "set_registry",
]


def _log_buckets() -> tuple[float, ...]:
    """1–2.5–5 decade ladder from 1 µs to 100 s (31 finite bounds)."""
    out: list[float] = []
    for exp in range(-6, 3):
        for mantissa in (1.0, 2.5, 5.0):
            out.append(round(mantissa * 10.0**exp, 12))
    out.append(1000.0)
    return tuple(out)


#: Default upper bounds (seconds) for latency histograms.  Spanning 1 µs to
#: 100 s at 1–2.5–5 resolution keeps "within one bucket width" meaning
#: roughly "within 2.5x" anywhere on the ladder — tight enough to tell a
#: 2 ms p99 from a 20 ms one, which is the decision the paper's Figures 4–5
#: turn on.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = _log_buckets()


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Immutable histogram state: diffable, mergeable, percentile-capable.

    ``bounds`` are the finite bucket upper bounds; ``counts`` has one extra
    slot for the overflow (+inf) bucket.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    sum: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile, Prometheus-style: find the bucket
        holding the target rank and interpolate linearly inside it.  The
        true sample percentile lies in the same bucket, so the error is
        bounded by one bucket width."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lo_cum = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                # The observed extremes tighten the edge buckets.
                hi = min(hi, self.max)
                lo = max(min(lo, hi), min(self.min, hi))
                frac = (target - lo_cum) / bucket_count
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Associative, commutative combine (the per-worker reduce)."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def minus(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Samples recorded since ``earlier`` (bucket-count subtraction).

        min/max cannot be un-merged, so the later values are kept — they
        bound the interval's extremes from above/below.
        """
        if self.bounds != earlier.bounds:
            raise ValueError("cannot diff histograms with different buckets")
        counts = tuple(max(0, a - b) for a, b in zip(self.counts, earlier.counts))
        count = sum(counts)
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=counts,
            count=count,
            sum=max(0.0, self.sum - earlier.sum),
            min=self.min if count else 0.0,
            max=self.max if count else 0.0,
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    @staticmethod
    def empty(bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> "HistogramSnapshot":
        bounds = tuple(bounds)
        return HistogramSnapshot(
            bounds=bounds, counts=(0,) * (len(bounds) + 1),
            count=0, sum=0.0, min=0.0, max=0.0,
        )


def gauge(default: Any = 0) -> Any:
    """Declare a :class:`Counters` field that ``minus`` keeps at its later
    value: a current level, a high-water mark or an identity, which a
    before/after difference would misreport.  ``reset`` still restores it."""
    return field(default=default, metadata={"gauge": True})


class Counters:
    """A named set of counters behind one lock.

    Subclasses are dataclasses that declare their counters as fields and
    update them in ``record_*`` methods under ``self._lock``; ``snapshot``,
    ``reset`` and ``minus`` come from the field list.  A counter is an
    ``int``/``float`` (subtracted), a ``dict`` of them (subtracted key by
    key) or a ``list`` / ``tuple`` that only grows (``minus`` keeps the new
    suffix); a field declared with :func:`gauge` keeps its later value.

    ``snapshot`` and ``reset`` take the lock, so a concurrent ``record_*``
    lands wholly before or wholly after them, never half-applied.
    """

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        """Consistent copy of every counter (containers copied)."""
        with self._lock:
            return {f.name: _copied(getattr(self, f.name)) for f in fields(self)}

    def reset(self) -> None:
        """Restore every field's declared default."""
        with self._lock:
            for f in fields(self):
                setattr(self, f.name, f.default if f.default_factory is MISSING
                        else f.default_factory())

    def copy(self):
        """A detached instance holding this set's current values."""
        return type(self)(**self.snapshot())

    def minus(self, earlier: "Counters"):
        """What accumulated since ``earlier`` (gauges keep the later value)."""
        now, before = self.snapshot(), earlier.snapshot()
        return type(self)(**{
            f.name: now[f.name] if f.metadata.get("gauge")
            else _since(now[f.name], before[f.name])
            for f in fields(self)
        })


def _copied(value):
    if isinstance(value, (dict, list)):
        return type(value)(value)
    return value


def _since(later, earlier):
    if isinstance(later, dict):
        return {k: v - earlier.get(k, 0) for k, v in later.items()}
    if isinstance(later, (list, tuple)):
        return later[len(earlier):]
    return later - earlier


class Histogram:
    """Mutable fixed-bucket histogram; ``observe`` is the hot-path call."""

    __slots__ = ("name", "_bounds", "_counts", "_count", "_sum", "_min",
                 "_max", "_lock")

    def __init__(self, name: str, bounds: Iterable[float] | None = None):
        self.name = name
        bounds = tuple(sorted(bounds)) if bounds is not None else DEFAULT_LATENCY_BUCKETS_S
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to 0)."""
        if value < 0.0:
            value = 0.0
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                bounds=self._bounds,
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
                min=self._min if self._count else 0.0,
                max=self._max if self._count else 0.0,
            )

    def merge_from(self, other: "Histogram | HistogramSnapshot") -> None:
        """Fold another histogram's samples into this one."""
        snap = other.snapshot() if isinstance(other, Histogram) else other
        if snap.bounds != self._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        with self._lock:
            for i, c in enumerate(snap.counts):
                self._counts[i] += c
            self._count += snap.count
            self._sum += snap.sum
            if snap.count:
                self._min = min(self._min, snap.min)
                self._max = max(self._max, snap.max)

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._counts)):
                self._counts[i] = 0
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    # Convenience passthroughs (snapshot-backed).
    def percentile(self, q: float) -> float:
        return self.snapshot().percentile(q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)


class MetricsRegistry:
    """Name-keyed, get-or-create home for counters, gauges and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str, bounds: Iterable[float] | None = None) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, bounds)
            return h

    def counters(self) -> dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, Gauge]:
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def snapshot_histograms(self) -> dict[str, HistogramSnapshot]:
        return {name: h.snapshot() for name, h in self.histograms().items()}

    def as_dict(self) -> dict:
        """JSON-ready dump of every metric (histograms as summaries)."""
        return {
            "counters": {n: c.value for n, c in self.counters().items()},
            "gauges": {n: g.value for n, g in self.gauges().items()},
            "histograms": {
                n: h.snapshot().as_dict() for n, h in self.histograms().items()
            },
        }

    def reset(self) -> None:
        for c in self.counters().values():
            c.reset()
        for g in self.gauges().values():
            g.reset()
        for h in self.histograms().values():
            h.reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global registry; returns the previous."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
