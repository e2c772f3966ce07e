"""Edge cases of the kernel fast paths.

The pooled-delay free list, the deferred-call event, the synchronous
resource grant, the store's non-blocking put and the NIC's closed-form
TX ring all bypass a process or an event for speed; these tests pin
down the corners where the bypass must still behave exactly like the
slow path: failure propagation, already-processed events, ring
back-pressure, cross-environment misuse, and the events a NIC frame
costs.
"""

import hashlib
import random

import pytest

from repro.sim import (
    Environment,
    Resource,
    SimulationError,
    Store,
)
from repro.sim.core import AllOf


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

    def test_negative_delay_rejected(self):
        env = Environment()
        for delay in (-0.5, float("nan")):
            with pytest.raises(SimulationError):
                env.delay(delay)


class TestDelayUntil:
    def test_fires_at_the_given_instant_exactly(self):
        """``now + (when - now)`` is not ``when`` in floating point
        (0.2 + (0.9 - 0.2) reads 0.9000000000000001); the event is
        pushed at ``when`` itself."""
        env = Environment()
        log = []

        def proc():
            yield env.delay(0.2)
            value = yield env.delay_until(0.9, "payload")
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert 0.2 + (0.9 - 0.2) != 0.9
        assert log == [(0.9, "payload")]

    def test_shares_the_delay_pool(self):
        env = Environment()
        first = {}

        def proc():
            first["ev"] = env.delay(1.0)
            yield first["ev"]
            # Recycled once the run loop regains control (see above).
            yield env.timeout(0)
            again = env.delay_until(3.0)
            assert again is first["ev"]
            yield again

        env.process(proc())
        env.run()
        assert env.now == 3.0

    def test_past_or_nan_instant_rejected(self):
        env = Environment(initial_time=5.0)
        for when in (4.0, 5.0 - 1e-12, float("nan")):
            with pytest.raises(SimulationError, match="in the past"):
                env.delay_until(when)
        assert env.scheduled_events == 0
        env.delay_until(5.0)
        assert env.scheduled_events == 1


class TestUnwaitedProcessFinishesInPlace:
    """A process nobody waits on is processed when its generator returns,
    with no queue trip; every way to wait on it later still works."""

    @staticmethod
    def _finished():
        env = Environment()

        def worker():
            yield env.delay(1.0)
            return 7

        proc = env.process(worker())
        env.run()
        return env, proc

    def test_no_completion_event(self):
        env, proc = self._finished()
        # The start bounce and the delay; no event for the completion.
        assert env.scheduled_events == 2
        assert proc.processed and proc.ok and proc.value == 7
        assert not proc.is_alive

    def test_later_yield_receives_the_value(self):
        env, proc = self._finished()
        got = []

        def waiter():
            got.append((yield proc))

        env.process(waiter())
        env.run()
        assert got == [7]

    def test_all_of_sees_the_value(self):
        env, proc = self._finished()
        both = env.all_of([proc, env.timeout(1.0, "t")])
        env.run()
        assert list(both.value.values()) == [7, "t"]

    def test_run_until_finished_process_returns_its_value(self):
        env, proc = self._finished()
        assert env.run(until=proc) == 7

    def test_run_until_live_process_returns_its_value(self):
        env = Environment()

        def worker():
            yield env.delay(2.0)
            return "done"

        proc = env.process(worker())
        assert env.run(until=proc) == "done"
        assert env.now == 2.0

    def test_unwaited_failure_still_surfaces(self):
        env = Environment()

        def worker():
            yield env.delay(1.0)
            raise RuntimeError("nobody listening")

        env.process(worker())
        with pytest.raises(RuntimeError, match="nobody listening"):
            env.run()


class TestStartInPlace:
    """``env.start`` runs a process to its first yield inside the caller,
    with no start event; from there it is an ordinary process."""

    def test_first_step_runs_before_start_returns(self):
        env = Environment()
        log = []

        def worker():
            log.append(("first", env.now))
            yield env.delay(1.0)
            log.append(("second", env.now))
            return "done"

        proc = env.start(worker())
        assert log == [("first", 0.0)]
        # Only the delay: no start event was scheduled.
        assert env.scheduled_events == 1
        assert env.run(until=proc) == "done"
        assert log == [("first", 0.0), ("second", 1.0)]

    def test_runs_ahead_of_events_due_this_instant(self):
        env = Environment()
        log = []
        env.call_later(0.0, log.append, "queued")

        def worker():
            log.append("started")
            yield env.delay(0.0)

        env.start(worker())
        env.process(worker())
        env.run()
        assert log == ["started", "queued", "started"]

    def test_process_without_yield_comes_back_processed(self):
        env = Environment()

        def instant():
            return 5
            yield  # pragma: no cover - makes this a generator

        proc = env.start(instant())
        assert proc.processed and proc.value == 5
        assert env.scheduled_events == 0

    def test_failure_in_first_step_surfaces(self):
        env = Environment()

        def broken():
            raise RuntimeError("at start")
            yield  # pragma: no cover - makes this a generator

        proc = env.start(broken())
        with pytest.raises(RuntimeError, match="at start"):
            env.run()
        assert not proc.ok


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


class TestPutNowait:
    """``Store.put`` never waits: it hands the item over or queues it."""

    def test_hands_to_waiting_getter(self):
        env = Environment()
        store = Store(env)
        log = []

        def getter():
            item = yield store.get()
            log.append(item)

        env.process(getter())
        env.run()
        assert store.put("x") is None
        env.run()
        assert log == ["x"]

    def test_queues_when_room(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        assert len(store) == 2
        assert [store.try_get(), store.try_get()] == ["a", "b"]


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
        # A slow TX side keeps the 1-slot ring occupied.
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
        # p0 started at once, p1 filled the ring's one slot, p2 had to
        # wait for back-pressure.
        assert log == [(b"p2", 0.0)]
        assert len(received) == 3

    def _nic_to_sink(self, env, ring=4096, overhead=0.0):
        """A NIC linked to a bare port; returns it and the arrival log
        of (instant, frame) pairs."""
        from repro.net.addressing import IPv4Address, MACAddress
        from repro.net.link import Link, Port
        from repro.net.nic import NIC

        nic = NIC(env, "a", MACAddress(1), IPv4Address("10.0.0.1"),
                  tx_ring_size=ring, tx_overhead_s=overhead)
        arrivals = []
        sink = Port(env, "sink", rx_handler=lambda packet, port:
                    arrivals.append((env.now, packet)))
        Link(env, nic.port, sink, propagation_delay_s=0.0)
        return nic, arrivals

    def test_idle_nic_costs_one_event_per_frame(self):
        from repro.net.packet import Packet

        env = Environment()
        nic, arrivals = self._nic_to_sink(env)
        for __ in range(5):
            assert nic.try_send(Packet(bytes(100))) is None
        env.run()
        # Only the five deliveries: no TX process, no ring hand-offs.
        assert env.scheduled_events == 5
        assert len(arrivals) == 5

    def test_frames_leave_in_call_order(self):
        """Two senders on a 1-frame ring: with no overhead nobody waits,
        and the frames leave in the order they were sent."""
        from repro.net.packet import Packet

        env = Environment()
        nic, arrivals = self._nic_to_sink(env, ring=1)

        def sender_a():
            for index in range(4):
                pending = nic.try_send(Packet(b"A%d" % index))
                if pending is not None:
                    yield pending

        def sender_b():
            yield nic.send(Packet(b"B0"))

        env.process(sender_a())
        env.process(sender_b())
        env.run()
        assert [bytes(packet.data) for __, packet in arrivals] == [
            b"A0", b"A1", b"A2", b"A3", b"B0"]

    def test_full_ring_holds_sender_until_a_frame_starts(self):
        """Ring 2, 1 us per frame: the fourth frame waits for the second
        to start, and each frame arrives one serialisation after it
        leaves (125 bytes at 100 Gb/s: 10 ns)."""
        from repro.net.packet import Packet

        env = Environment()
        nic, arrivals = self._nic_to_sink(env, ring=2, overhead=1e-6)
        resumed = []

        def sender():
            for __ in range(6):
                yield nic.send(Packet(bytes(125)))
                resumed.append(env.now)

        env.process(sender())
        env.run()
        us = 1e-6
        assert resumed == pytest.approx([0, 0, 0, us, 2 * us, 3 * us],
                                        rel=1e-12, abs=0)
        assert [when for when, __ in arrivals] == pytest.approx(
            [k * us + 10e-9 for k in range(1, 7)], rel=1e-12)

    @staticmethod
    def _single_sender_case(seed):
        """Delivery and resume instants of one seeded sender: ring 1-8,
        overhead 0 / 0.1 / 2 us, mixed ``send``/``try_send``, gaps and
        frame sizes drawn per frame."""
        from repro.net.addressing import IPv4Address, MACAddress
        from repro.net.link import Link, Port
        from repro.net.nic import NIC
        from repro.net.packet import Packet

        rng = random.Random(seed)
        env = Environment()
        nic = NIC(env, "a", MACAddress(1), IPv4Address("10.0.0.1"),
                  tx_ring_size=rng.randint(1, 8),
                  tx_overhead_s=rng.choice((0.0, 0.1e-6, 2e-6)))
        delivered, resumed = [], []
        sink = Port(env, "sink", rx_handler=lambda packet, port:
                    delivered.append((env.now, len(packet))))
        Link(env, nic.port, sink, bandwidth_bps=rng.choice((10e9, 100e9)),
             propagation_delay_s=rng.choice((0.0, 0.5e-6)))
        plan = [(rng.randint(64, 1500), rng.choice((0.0, 0.0, 0.05e-6, 1e-6)),
                 rng.random() < 0.5) for __ in range(rng.randint(1, 24))]

        def sender():
            for size, gap, blocking in plan:
                if gap:
                    yield env.delay(gap)
                if blocking:
                    yield nic.send(Packet(bytes(size)))
                else:
                    pending = nic.try_send(Packet(bytes(size)))
                    if pending is not None:
                        yield pending
                resumed.append(env.now)

        env.process(sender())
        env.run()
        return delivered, resumed

    def test_single_sender_instants_are_pinned(self):
        """200 seeded single-sender cases (83 of them fill the ring),
        every delivery and resume instant to the last bit.  The digest
        was taken from the NIC model that drained a bounded ``Store``
        with a serialiser process; the closed form keeps it."""
        digest = hashlib.sha256()
        for seed in range(200):
            digest.update(repr(self._single_sender_case(seed)).encode())
        assert digest.hexdigest()[:16] == "d034326106863ea9"
