"""Failure handling primitives: retry policy, circuit breaker, failover stats.

The paper runs Qdrant on a shared HPC batch system where workers live on
preemptible compute nodes and replication provides availability (§2.1).
This module supplies the pieces the cluster coordinator composes into a
failure-aware fan-out:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* seeded jitter (splitmix64 over the call key, not
  ``random``), plus an optional per-call timeout enforced by the caller;
* :class:`HealthTracker` — per-worker consecutive-failure accounting with
  a three-state circuit breaker (CLOSED → OPEN on the failure threshold,
  OPEN → HALF_OPEN after a cooldown, HALF_OPEN admits exactly one probe
  which either heals the breaker or re-opens it);
* :class:`FailoverStats` — thread-safe counters for retries, failovers,
  timeouts, degraded reads and breaker transitions, surfaced through
  :mod:`repro.core.telemetry`.

Everything here is deterministic given a seed and an injectable clock, so
the chaos harness can assert exact breaker trajectories.
"""

from __future__ import annotations

import enum
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable

from ..obs.metrics import Counters
from .router import splitmix64

__all__ = [
    "RetryPolicy",
    "BreakerState",
    "HealthTracker",
    "FailoverStats",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout contract for one transport call.

    ``max_attempts`` counts the first try: 3 means "try, then retry twice".
    Backoff for retry *r* (1-based) is ``base_backoff_s * multiplier**(r-1)``
    capped at ``max_backoff_s``, then spread by ``±jitter_fraction`` using a
    hash of ``(seed, call key, r)`` — the same call retries on the same
    schedule in every run, but distinct shards/workers do not stampede in
    phase.  ``timeout_s`` bounds each attempt's wall time (enforced by the
    cluster via its call pool); ``None`` disables the bound.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.005
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.25
    jitter_fraction: float = 0.25
    seed: int = 0xFA110
    timeout_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be >= 0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when set")

    def backoff_s(self, retry: int, key: str = "") -> float:
        """Deterministic sleep before retry ``retry`` (1-based) of ``key``."""
        if retry < 1:
            return 0.0
        base = min(
            self.base_backoff_s * self.backoff_multiplier ** (retry - 1),
            self.max_backoff_s,
        )
        if self.jitter_fraction == 0.0 or base == 0.0:
            return base
        mix = splitmix64(
            (self.seed << 32) ^ zlib.crc32(key.encode("utf-8")) ^ retry
        )
        unit = mix / float(1 << 64)  # [0, 1)
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


class BreakerState(str, enum.Enum):
    """Circuit-breaker state for one worker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class FailoverStats(Counters):
    """Thread-safe counters for the cluster's failure handling."""

    retries: int = 0
    failovers: int = 0
    timeouts: int = 0
    degraded_queries: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: Reads served by a migration *target* replica while its shard was
    #: mid-move (all regular holders unavailable, target caught up).
    migration_reads: int = 0

    def record_retry(self, n: int = 1) -> None:
        with self._lock:
            self.retries += n

    def record_failover(self, n: int = 1) -> None:
        with self._lock:
            self.failovers += n

    def record_timeout(self, n: int = 1) -> None:
        with self._lock:
            self.timeouts += n

    def record_degraded(self, n: int = 1) -> None:
        with self._lock:
            self.degraded_queries += n

    def record_migration_read(self, n: int = 1) -> None:
        with self._lock:
            self.migration_reads += n

    def record_transition(self, state: BreakerState) -> None:
        with self._lock:
            if state is BreakerState.OPEN:
                self.breaker_opens += 1
            elif state is BreakerState.HALF_OPEN:
                self.breaker_half_opens += 1
            elif state is BreakerState.CLOSED:
                self.breaker_closes += 1


@dataclass
class _WorkerHealth:
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0


class HealthTracker:
    """Per-worker consecutive-failure tracking with a circuit breaker.

    State machine per worker:

    * CLOSED — requests flow; ``failure_threshold`` *consecutive* failures
      open the breaker.
    * OPEN — :meth:`admit` refuses requests until ``reset_timeout_s`` has
      elapsed since opening, then transitions to HALF_OPEN and admits
      exactly one request (the probe).
    * HALF_OPEN — the probe's outcome decides: success closes the breaker
      (consecutive failures reset), failure re-opens it and restarts the
      cooldown.

    Transitions are reported to a :class:`FailoverStats` when provided, and
    the clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout_s: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
        stats: FailoverStats | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self.stats = stats
        self._lock = threading.Lock()
        self._workers: dict[str, _WorkerHealth] = {}

    def _get(self, worker_id: str) -> _WorkerHealth:
        health = self._workers.get(worker_id)
        if health is None:
            health = self._workers[worker_id] = _WorkerHealth()
        return health

    def _transition(self, health: _WorkerHealth, state: BreakerState) -> None:
        health.state = state
        if state is BreakerState.OPEN:
            health.opened_at = self._clock()
        if self.stats is not None:
            self.stats.record_transition(state)

    # -- queries -------------------------------------------------------------

    def state(self, worker_id: str) -> BreakerState:
        with self._lock:
            return self._workers.get(worker_id, _WorkerHealth()).state

    def states(self) -> dict[str, BreakerState]:
        with self._lock:
            return {w: h.state for w, h in self._workers.items()}

    def admit(self, worker_id: str) -> bool:
        """May a request be sent to this worker right now?

        OPEN breakers whose cooldown has elapsed flip to HALF_OPEN and admit
        this one request as the probe; while HALF_OPEN, further requests are
        refused until the probe's outcome is recorded.
        """
        with self._lock:
            health = self._get(worker_id)
            if health.state is BreakerState.CLOSED:
                return True
            if health.state is BreakerState.OPEN:
                if self._clock() - health.opened_at >= self.reset_timeout_s:
                    self._transition(health, BreakerState.HALF_OPEN)
                    return True
                return False
            return False  # HALF_OPEN: one probe already in flight

    # -- outcomes -------------------------------------------------------------

    def record_success(self, worker_id: str) -> None:
        with self._lock:
            health = self._get(worker_id)
            health.consecutive_failures = 0
            if health.state is not BreakerState.CLOSED:
                self._transition(health, BreakerState.CLOSED)

    def record_failure(self, worker_id: str) -> None:
        with self._lock:
            health = self._get(worker_id)
            health.consecutive_failures += 1
            if health.state is BreakerState.HALF_OPEN:
                self._transition(health, BreakerState.OPEN)
            elif (
                health.state is BreakerState.CLOSED
                and health.consecutive_failures >= self.failure_threshold
            ):
                self._transition(health, BreakerState.OPEN)

    def forget(self, worker_id: str) -> None:
        """Drop state for a deregistered worker."""
        with self._lock:
            self._workers.pop(worker_id, None)

    def reset(self) -> None:
        with self._lock:
            self._workers.clear()
