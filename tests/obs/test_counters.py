"""``Counters``: snapshot / reset / minus derived from the field list."""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field

from repro.obs.metrics import Counters, gauge


@dataclass
class Sample(Counters):
    calls: int = 0
    seconds: float = 0.0
    width: int = gauge()
    by_key: dict[str, int] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)

    def record(self, key: str, width: int) -> None:
        with self._lock:
            self.calls += 1
            self.seconds += 0.5
            self.width = max(self.width, width)
            self.by_key[key] = self.by_key.get(key, 0) + 1
            self.events.append(key)


def test_snapshot_copies_containers():
    s = Sample()
    s.record("a", 2)
    snap = s.snapshot()
    s.record("b", 1)
    assert snap == {"calls": 1, "seconds": 0.5, "width": 2,
                    "by_key": {"a": 1}, "events": ["a"]}


def test_minus_subtracts_counters_and_keeps_gauges():
    s = Sample()
    s.record("a", 3)
    before = s.copy()
    s.record("a", 1)
    s.record("b", 2)
    delta = s.minus(before)
    assert isinstance(delta, Sample)
    assert (delta.calls, delta.seconds, delta.width) == (2, 1.0, 3)
    assert delta.by_key == {"a": 1, "b": 1}
    assert delta.events == ["a", "b"]


def test_reset_restores_defaults_and_detaches_copies():
    s = Sample()
    s.record("a", 4)
    copy = s.copy()
    s.reset()
    assert s.snapshot() == Sample().snapshot()
    assert copy.calls == 1 and copy.by_key == {"a": 1}
    s.record("b", 1)
    assert s.by_key == {"b": 1} and copy.by_key == {"a": 1}


def test_snapshot_and_reset_never_see_half_an_update():
    s = Sample()
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            s.record("k", 1)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=writer) for _ in range(3)]
    try:
        for t in threads:
            t.start()
        for i in range(300):
            snap = s.snapshot()
            if not (snap["calls"] == snap["by_key"].get("k", 0) == len(snap["events"])
                    and snap["seconds"] == 0.5 * snap["calls"]):
                torn.append(snap)
            if i % 50 == 0:
                s.reset()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert not torn
