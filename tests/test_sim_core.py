"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Environment, SimulationError, Timeout


class TestEnvironment:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10.0)
        for until in (5.0, float("nan")):
            with pytest.raises(SimulationError):
                env.run(until=until)
        assert env.now == 10.0

    def test_peek_empty_queue_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_events_fire_in_timestamp_order(self):
        env = Environment()
        order = []

        def waiter(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(waiter(3, "c"))
        env.process(waiter(1, "a"))
        env.process(waiter(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        env = Environment()
        order = []

        def waiter(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(waiter(tag))
        env.run()
        assert order == ["first", "second", "third"]


class TestDeferredCallCancel:
    """``call_later``/``call_at`` handles: cancel without heap surgery."""

    def test_cancelled_call_never_fires(self):
        env = Environment()
        fired = []
        handle = env.call_later(1.0, fired.append, "a")
        env.call_later(2.0, fired.append, "b")
        handle.cancel()
        env.run()
        assert fired == ["b"]
        assert handle.cancelled

    def test_cancel_is_idempotent_and_counted(self):
        env = Environment()
        handle = env.call_later(1.0, lambda: None)
        assert env.cancelled_events == 0
        handle.cancel()
        handle.cancel()
        assert env.cancelled_events == 1
        env.run()
        assert env.cancelled_events == 1

    def test_cancel_keeps_scheduled_events_fingerprint(self):
        """The queue entry stays: cancelling must not perturb the
        ``scheduled_events`` determinism fingerprint, and the empty
        event still pops at its timestamp (time advances)."""
        env = Environment()
        handle = env.call_later(5.0, lambda: None)
        before = env.scheduled_events
        handle.cancel()
        assert env.scheduled_events == before
        env.run()
        assert env.now == 5.0


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        for delay in (-1.0, float("nan")):
            with pytest.raises(SimulationError):
                Timeout(env, delay)

    def test_timeout_value_delivered(self):
        env = Environment()

        def proc():
            value = yield env.timeout(1.0, value="payload")
            return value

        p = env.process(proc())
        assert env.run(until=p) == "payload"

    def test_zero_delay_timeout(self):
        env = Environment()

        def proc():
            yield env.timeout(0)
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0.0


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()

        def waiter():
            value = yield event
            return value

        def trigger():
            yield env.timeout(1.0)
            event.succeed(42)

        p = env.process(waiter())
        env.process(trigger())
        assert env.run(until=p) == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_raises_in_waiter(self):
        env = Environment()
        event = env.event()

        def waiter():
            try:
                yield event
            except ValueError as exc:
                return str(exc)

        def trigger():
            yield env.timeout(1.0)
            event.fail(ValueError("boom"))

        p = env.process(waiter())
        env.process(trigger())
        assert env.run(until=p) == "boom"

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            __ = env.event().value

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        event = env.event()
        event.succeed("early")
        env.run(until=0.5)
        assert event.processed

        def late_waiter():
            value = yield event
            return value

        p = env.process(late_waiter())
        assert env.run(until=p) == "early"


class TestProcess:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return "done"

        p = env.process(proc())
        assert env.run(until=p) == "done"

    def test_process_waits_on_process(self):
        env = Environment()

        def child():
            yield env.timeout(2)
            return 7

        def parent():
            value = yield env.process(child())
            return value * 3

        p = env.process(parent())
        assert env.run(until=p) == 21
        assert env.now == 2

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def bad():
            yield 42

        p = env.process(bad())
        with pytest.raises(SimulationError):
            env.run(until=p)

    def test_unhandled_process_exception_surfaces(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("exploded")

        env.process(bad())
        with pytest.raises(RuntimeError, match="exploded"):
            env.run()

    def test_is_alive_transitions(self):
        env = Environment()

        def proc():
            yield env.timeout(1)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestCombinators:
    def test_all_of_waits_for_all(self):
        env = Environment()

        def proc():
            result = yield env.all_of([env.timeout(5, "slow"),
                                       env.timeout(1, "fast")])
            return sorted(result.values())

        p = env.process(proc())
        assert env.run(until=p) == ["fast", "slow"]
        assert env.now == 5

    def test_empty_all_of_fires_immediately(self):
        env = Environment()

        def proc():
            yield env.all_of([])
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0.0

    def test_all_of_with_pretriggered_events(self):
        env = Environment()
        done = env.event()
        done.succeed("x")

        def proc():
            result = yield env.all_of([done, env.timeout(1, "y")])
            return sorted(result.values())

        p = env.process(proc())
        assert env.run(until=p) == ["x", "y"]

    def test_run_until_event_exhausted_queue_raises(self):
        env = Environment()
        never = env.event()
        with pytest.raises(SimulationError):
            env.run(until=never)
