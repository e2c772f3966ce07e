"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity_immediately(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        assert resource.acquire() is None
        assert resource.acquire() is None
        third = resource.acquire()
        assert not third.triggered
        assert resource.in_use == 2
        resource.release()  # the one queued request takes the freed slot
        assert third.triggered
        assert resource.in_use == 2

    def test_release_grants_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(tag, hold):
            pending = resource.acquire()
            if pending is not None:
                yield pending
            order.append((tag, env.now))
            yield env.timeout(hold)
            resource.release()

        env.process(user("a", 3))
        env.process(user("b", 1))
        env.process(user("c", 1))
        env.run()
        assert order == [("a", 0.0), ("b", 3.0), ("c", 4.0)]

    def test_release_without_request_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env).release()

    def test_contention_serialises_work(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def worker():
            pending = resource.acquire()
            if pending is not None:
                yield pending
            yield env.timeout(1.0)
            resource.release()

        procs = [env.process(worker()) for __ in range(5)]
        env.run(until=env.all_of(procs))
        assert env.now == 5.0


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc():
            store.put("item")
            value = yield store.get()
            return value

        p = env.process(proc())
        assert env.run(until=p) == "item"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def getter():
            value = yield store.get()
            return (value, env.now)

        def putter():
            yield env.timeout(2)
            store.put("late")

        p = env.process(getter())
        env.process(putter())
        assert env.run(until=p) == ("late", 2.0)

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def getter():
            for __ in range(3):
                got.append((yield store.get()))

        env.run(until=env.process(getter()))
        assert got == [1, 2, 3]

    def test_try_get_nonblocking(self):
        env = Environment()
        store = Store(env)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_len_and_items(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")
        assert len(store) == 2
        assert [store.try_get(), store.try_get()] == ["a", "b"]
        assert len(store) == 0
