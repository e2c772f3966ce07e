"""Edge cases of the kernel fast paths.

The pooled-delay free list, the deferred-call event, the synchronous
resource grant, and the fire-and-forget store puts all bypass the
general event machinery for speed; these tests pin down the corners
where the bypass must still behave exactly like the slow path:
interruption, failure propagation, already-processed events, capacity
back-pressure, and cross-environment misuse.
"""

import pytest

from repro.sim import (
    Environment,
    Interrupt,
    PriorityStore,
    Resource,
    SimulationError,
    Store,
)
from repro.sim.core import AllOf, AnyOf


class TestDelayPool:
    def test_delay_value_and_timing_match_timeout(self):
        env = Environment()
        log = []

        def proc():
            value = yield env.delay(3.0, "payload")
            log.append((env.now, value))
            value = yield env.timeout(2.0, "other")
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [(3.0, "payload"), (5.0, "other")]

    def test_pool_recycles_the_event_object(self):
        env = Environment()
        first = {}

        def proc():
            ev = env.delay(1.0)
            first["ev"] = ev
            yield ev
            # Recycling happens when the run loop regains control, so
            # park for one event before expecting the pooled object.
            yield env.timeout(0)
            again = env.delay(1.0)
            assert again is first["ev"]
            yield again

        env.process(proc())
        env.run()
        assert env.now == 2.0

    def test_interrupt_while_waiting_on_pooled_delay(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.delay(10.0)
                log.append("overslept")
            except Interrupt as interrupt:
                log.append(("interrupted", env.now, str(interrupt.cause)))
            # The orphaned pooled event must still recycle cleanly and
            # the process must be able to take a fresh delay afterwards.
            yield env.delay(1.0)
            log.append(("resumed", env.now))

        def interrupter(target):
            yield env.delay(2.0)
            target.interrupt("wake up")

        target = env.process(sleeper())
        env.process(interrupter(target))
        env.run()
        assert log == [("interrupted", 2.0, "wake up"), ("resumed", 3.0)]
        # t=10: the abandoned delay fired with no waiters and was pooled.
        assert env.now == 10.0

    def test_negative_delay_rejected(self):
        env = Environment()
        for delay in (-0.5, float("nan")):
            with pytest.raises(SimulationError):
                env.delay(delay)


class TestCallLater:
    def test_runs_function_with_args_at_time(self):
        env = Environment()
        log = []
        env.call_later(4.0, log.append, ("fired", "a"))
        env.call_later(1.0, log.append, ("fired", "b"))
        env.run()
        assert env.now == 4.0
        assert log == [("fired", "b"), ("fired", "a")]

    def test_fifo_against_delay_at_same_time(self):
        env = Environment()
        log = []

        def proc():
            yield env.delay(2.0)
            log.append("process")

        env.process(proc())
        env.call_later(2.0, log.append, "callback")
        env.run()
        # call_later schedules immediately; the process only schedules
        # its delay once it first runs (t=0), so the callback's seq is
        # earlier and wins the t=2 tie — scheduling order, as always.
        assert log == ["callback", "process"]

    def test_negative_delay_rejected(self):
        env = Environment()
        for delay in (-1.0, float("nan")):
            with pytest.raises(SimulationError):
                env.call_later(delay, lambda: None)

    def test_call_at_past_or_nan_time_rejected(self):
        env = Environment(initial_time=5.0)
        for when in (4.0, float("nan")):
            with pytest.raises(SimulationError):
                env.call_at(when, lambda: None)
        assert env.scheduled_events == 0

    def test_counts_one_scheduled_event(self):
        env = Environment()
        env.call_later(1.0, lambda: None)
        assert env.scheduled_events == 1


class TestCompositesWithProcessedEvents:
    def _processed_event(self, env, value="done"):
        """An event that has already fired AND been processed."""
        ev = env.event()
        ev.succeed(value)
        env.run()
        assert ev.callbacks is None
        return ev

    def test_any_of_with_already_processed_event(self):
        env = Environment()
        done = self._processed_event(env)
        pending = env.event()
        log = []

        def proc():
            fired = yield AnyOf(env, [done, pending])
            log.append(fired)

        env.process(proc())
        env.run()
        assert log == [{done: "done"}]

    def test_all_of_with_already_processed_events(self):
        env = Environment()
        done = self._processed_event(env, "a")
        log = []

        def proc():
            fired = yield AllOf(env, [done, env.timeout(1.0, "b")])
            log.append(sorted(fired.values()))

        env.process(proc())
        env.run()
        assert log == [["a", "b"]]

    def test_any_of_propagates_failure(self):
        env = Environment()
        log = []

        def failer():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def waiter(bad):
            try:
                yield AnyOf(env, [bad, env.timeout(5.0)])
            except ValueError as exc:
                log.append((env.now, str(exc)))

        bad = env.process(failer())
        env.process(waiter(bad))
        env.run()
        assert log == [(1.0, "boom")]

    def test_all_of_propagates_failure_of_processed_event(self):
        env = Environment()
        bad = env.event()
        bad.fail(ValueError("late"))
        bad._defused = True  # suppress the unhandled-failure guard
        env.run()
        log = []

        def waiter():
            try:
                yield AllOf(env, [bad, env.timeout(1.0)])
            except ValueError as exc:
                log.append(str(exc))

        env.process(waiter())
        env.run()
        assert log == ["late"]


class TestRunUntilFailingEvent:
    def test_run_until_event_that_fails_raises(self):
        env = Environment()
        stop = env.event()

        def failer():
            yield env.timeout(2.0)
            stop.fail(RuntimeError("target failed"))
            stop._defused = True

        env.process(failer())
        with pytest.raises(RuntimeError, match="target failed"):
            env.run(until=stop)

    def test_run_until_failing_process_raises(self):
        env = Environment()

        def failer():
            yield env.timeout(1.0)
            raise RuntimeError("dead on arrival")

        proc = env.process(failer())
        with pytest.raises(RuntimeError, match="dead on arrival"):
            env.run(until=proc)


class TestCrossEnvironmentYield:
    def test_yielding_foreign_event_fails_process(self):
        env_a = Environment()
        env_b = Environment()

        def proc():
            yield env_b.timeout(1.0)

        process = env_a.process(proc())
        with pytest.raises(SimulationError, match="different"):
            env_a.run()
        assert not process.ok


class TestResourceAcquire:
    def test_synchronous_grant_when_free(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        assert resource.acquire() is None
        assert resource.acquire() is None
        assert resource.in_use == 2

    def test_contended_acquire_returns_fifo_event(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def holder():
            grant = resource.acquire()
            assert grant is None
            yield env.delay(5.0)
            resource.release()
            log.append(("released", env.now))

        def waiter(name):
            grant = resource.acquire()
            if grant is not None:
                yield grant
            log.append((name, env.now))
            resource.release()

        env.process(holder())
        env.process(waiter("first"))
        env.process(waiter("second"))
        env.run()
        assert log == [("released", 5.0), ("first", 5.0), ("second", 5.0)]
        assert resource.in_use == 0

    def test_mixes_with_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        assert resource.acquire() is None
        queued = resource.request()
        assert not queued.triggered
        resource.release()
        assert queued.triggered


class TestPutNowait:
    def test_hands_to_waiting_getter(self):
        env = Environment()
        store = Store(env)
        log = []

        def getter():
            item = yield store.get()
            log.append(item)

        env.process(getter())
        env.run()
        store.put_nowait("x")
        env.run()
        assert log == ["x"]

    def test_queues_when_room(self):
        env = Environment()
        store = Store(env, capacity=2)
        store.put_nowait("a")
        store.put_nowait("b")
        assert store.items == ["a", "b"]

    def test_item_survives_capacity_backpressure(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put_nowait("a")
        store.put_nowait("b")  # over capacity: parked, not dropped
        assert store.items == ["a"]
        log = []

        def drain():
            for _ in range(2):
                item = yield store.get()
                log.append(item)

        env.process(drain())
        env.run()
        assert log == ["a", "b"]

    def test_priority_store_orders_nowait_items(self):
        env = Environment()
        store = PriorityStore(env)
        for item in (3, 1, 2):
            store.put_nowait(item)
        log = []

        def drain():
            for _ in range(3):
                item = yield store.get()
                log.append(item)

        env.process(drain())
        env.run()
        assert log == [1, 2, 3]


class TestNICTrySend:
    def _pair(self, env, tx_overhead_s=0.0):
        from repro.net.addressing import IPv4Address, MACAddress
        from repro.net.link import Link
        from repro.net.nic import NIC

        nic_a = NIC(env, "a", MACAddress("02:00:00:00:00:01"),
                    IPv4Address("10.0.0.1"), tx_ring_size=1,
                    tx_overhead_s=tx_overhead_s)
        nic_b = NIC(env, "b", MACAddress("02:00:00:00:00:02"),
                    IPv4Address("10.0.0.2"))
        Link(env, nic_a.port, nic_b.port)
        received = []
        nic_b.set_rx_callback(received.append)
        return nic_a, nic_b, received

    def _frame(self, nic_src, nic_dst, payload):
        from repro.net.packet import Packet

        return Packet.udp(
            src_mac=nic_src.mac, dst_mac=nic_dst.mac,
            src_ip=nic_src.ip, dst_ip=nic_dst.ip,
            src_port=7, dst_port=7, payload=payload,
        )

    def test_sync_accept_and_delivery(self):
        env = Environment()
        nic_a, nic_b, received = self._pair(env)
        packet = self._frame(nic_a, nic_b, b"hello")
        assert nic_a.try_send(packet) is None
        env.run()
        assert [bytes(p.data) for p in received] == [bytes(packet.data)]

    def test_full_ring_returns_blocking_event(self):
        env = Environment()
        # A slow TX loop keeps the 1-slot ring occupied.
        nic_a, nic_b, received = self._pair(env, tx_overhead_s=1.0)
        log = []

        def sender():
            for tag in (b"p0", b"p1", b"p2"):
                pending = nic_a.try_send(self._frame(nic_a, nic_b, tag))
                if pending is not None:
                    log.append((tag, env.now))
                    yield pending

        env.process(sender())
        env.run()
        # p0 went straight to the TX loop, p1 filled the ring's one
        # slot, p2 had to wait for back-pressure.
        assert log == [(b"p2", 0.0)]
        assert len(received) == 3

    def test_host_try_send_udp(self):
        from repro.net.addressing import IPv4Address, MACAddress
        from repro.net.host import Host
        from repro.net.link import Link

        env = Environment()
        alice = Host(env, "alice", MACAddress("02:00:00:00:00:0a"),
                     IPv4Address("10.0.0.10"))
        bob = Host(env, "bob", MACAddress("02:00:00:00:00:0b"),
                   IPv4Address("10.0.0.11"))
        Link(env, alice.nic.port, bob.nic.port)
        pending = alice.try_send_udp(
            dst_mac=bob.mac, dst_ip=bob.ip,
            src_port=9, dst_port=9, payload=b"ping",
        )
        assert pending is None
        log = []

        def reader():
            payload = yield from bob.recv_udp_payload()
            log.append(payload)

        env.process(reader())
        env.run()
        assert log == [b"ping"]
