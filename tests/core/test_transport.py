"""Transport layer tests: dispatch, instrumentation, fault injection."""

import numpy as np
import pytest

from repro.core.errors import TransportError, WorkerUnavailableError
from repro.core.transport import (
    FaultInjectingTransport,
    InstrumentedTransport,
    LocalTransport,
    Transport,
    estimate_payload_bytes,
)


class Echo:
    def ping(self):
        return "pong"

    def add(self, a, b):
        return a + b

    not_callable = 42


class TestLocalTransport:
    def test_dispatch(self):
        t = LocalTransport()
        t.register("w0", Echo())
        assert t.call("w0", "ping") == "pong"
        assert t.call("w0", "add", 2, 3) == 5

    def test_unknown_worker(self):
        t = LocalTransport()
        with pytest.raises(WorkerUnavailableError):
            t.call("nope", "ping")

    def test_unknown_method(self):
        t = LocalTransport()
        t.register("w0", Echo())
        with pytest.raises(TransportError):
            t.call("w0", "missing_method")

    def test_non_callable_attribute(self):
        t = LocalTransport()
        t.register("w0", Echo())
        with pytest.raises(TransportError):
            t.call("w0", "not_callable")

    def test_deregister(self):
        t = LocalTransport()
        t.register("w0", Echo())
        t.deregister("w0")
        assert not t.is_reachable("w0")
        assert t.worker_ids() == []


class TestEstimatePayloadBytes:
    def test_numpy(self):
        assert estimate_payload_bytes(np.zeros(10, dtype=np.float32)) == 40

    def test_scalars_and_containers(self):
        assert estimate_payload_bytes(None) == 0
        assert estimate_payload_bytes(True) == 1
        assert estimate_payload_bytes(3) == 8
        assert estimate_payload_bytes("abcd") == 4
        assert estimate_payload_bytes([1, 2]) == 16
        assert estimate_payload_bytes({"a": 1}) == 9

    def test_object_with_dict(self):
        class Obj:
            def __init__(self):
                self.x = np.zeros(4, dtype=np.float32)

        assert estimate_payload_bytes(Obj()) >= 16

    def test_long_homogeneous_list_sampled_exactly(self):
        # The sample-and-extrapolate fast path must be *exact* when every
        # element has the same size (batched points / query vectors — the
        # instrumented hot path whose cost must stay flat in batch width).
        rows = [np.zeros(16, dtype=np.float32) for _ in range(500)]
        assert estimate_payload_bytes(rows) == 500 * 64
        from repro.core.types import PointStruct

        pts = [
            PointStruct(id=i, vector=np.zeros(16, dtype=np.float32))
            for i in range(300)
        ]
        assert estimate_payload_bytes(pts) == sum(
            estimate_payload_bytes(p) for p in pts
        )

    def test_heterogeneous_list_stays_exact(self):
        # Mixed element types must take the exact element-walk path — the
        # head/tail sample would extrapolate the wrong mean.
        mixed = [1] * 100 + ["abcd"] * 100
        assert estimate_payload_bytes(mixed) == 100 * 8 + 100 * 4

    def test_numpy_scalars_use_itemsize(self):
        # Regression: numpy scalars fell through to the 16-byte default.
        assert estimate_payload_bytes(np.float32(1.5)) == 4
        assert estimate_payload_bytes(np.float64(1.5)) == 8
        assert estimate_payload_bytes(np.int64(7)) == 8
        assert estimate_payload_bytes(np.int8(7)) == 1

    def test_slots_object_counts_fields(self):
        # Regression: __slots__ classes have no __dict__ and were charged
        # the opaque 16-byte default regardless of their contents.
        class Slotted:
            __slots__ = ("vec", "tag")

            def __init__(self):
                self.vec = np.zeros(8, dtype=np.float32)  # 32 bytes
                self.tag = "abcd"  # 4 bytes

        assert estimate_payload_bytes(Slotted()) == 36

    def test_slots_inheritance_and_unset_slots(self):
        class Base:
            __slots__ = ("a",)

        class Child(Base):
            __slots__ = ("b",)

            def __init__(self):
                self.a = 1  # 8 bytes
                # b declared but never assigned: skipped, not an error

        assert estimate_payload_bytes(Child()) == 8

    def test_frozenset_counted_as_container(self):
        assert estimate_payload_bytes(frozenset({1, 2})) == 16


class TestInstrumentedTransport:
    def test_records_bytes_and_calls(self):
        inner = LocalTransport()
        inner.register("w0", Echo())
        t = InstrumentedTransport(inner)
        t.call("w0", "add", 1, 2)
        t.call("w0", "ping")
        assert t.stats.calls == 2
        assert t.stats.calls_by_method == {"add": 1, "ping": 1}
        assert t.stats.bytes_sent > 0 and t.stats.bytes_received > 0

    def test_reset(self):
        inner = LocalTransport()
        inner.register("w0", Echo())
        t = InstrumentedTransport(inner)
        t.call("w0", "ping")
        t.stats.reset()
        assert t.stats.calls == 0 and t.stats.bytes_by_method == {}


class TestFaultInjection:
    def test_failed_worker_unreachable(self):
        inner = LocalTransport()
        inner.register("w0", Echo())
        t = FaultInjectingTransport(inner, fail_workers={"w0"})
        assert not t.is_reachable("w0")
        with pytest.raises(WorkerUnavailableError):
            t.call("w0", "ping")

    def test_heal(self):
        inner = LocalTransport()
        inner.register("w0", Echo())
        t = FaultInjectingTransport(inner)
        t.fail_worker("w0")
        t.heal_worker("w0")
        assert t.call("w0", "ping") == "pong"

    def test_fail_every_nth(self):
        inner = LocalTransport()
        inner.register("w0", Echo())
        t = FaultInjectingTransport(inner, fail_every=3)
        results = []
        for i in range(6):
            try:
                results.append(t.call("w0", "ping"))
            except TransportError:
                results.append("FAIL")
        assert results == ["pong", "pong", "FAIL", "pong", "pong", "FAIL"]

    def test_fail_every_must_be_ge_2(self):
        with pytest.raises(ValueError):
            FaultInjectingTransport(LocalTransport(), fail_every=1)


class TestWaits:
    def test_in_process_transport_does_not_wait(self):
        assert not LocalTransport().waits
        assert Transport().waits  # unknown transports keep parallel lanes

    def test_instrumented_waits_with_latency_or_a_waiting_inner(self):
        local = LocalTransport()
        assert not InstrumentedTransport(local).waits
        assert InstrumentedTransport(local, latency_s=0.01).waits
        assert InstrumentedTransport(Transport()).waits

    def test_fault_injection_delay_turns_waiting_on_and_off(self):
        faulty = FaultInjectingTransport(LocalTransport())
        wrapped = InstrumentedTransport(faulty)
        assert not faulty.waits and not wrapped.waits
        faulty.set_delay("w0", 0.01)
        assert faulty.waits and wrapped.waits
        faulty.set_delay("w0", None)
        assert not faulty.waits and not wrapped.waits
        slow = InstrumentedTransport(LocalTransport(), latency_s=0.01)
        assert FaultInjectingTransport(slow).waits
