"""Unit tests for Resource and Store (repro.sim.resources)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def test_resource_grants_immediately_when_free():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env):
        req = res.request()
        yield req
        log.append(env.now)
        req.release()

    env.process(proc(env))
    env.run()
    assert log == [0]


def test_resource_serializes_two_holders():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env, tag):
        req = res.request()
        yield req
        log.append((tag, "start", env.now))
        yield env.timeout(100)
        req.release()
        log.append((tag, "end", env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert log == [
        ("a", "start", 0),
        ("a", "end", 100),
        ("b", "start", 100),
        ("b", "end", 200),
    ]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def proc(env):
        req = res.request()
        yield req
        starts.append(env.now)
        yield env.timeout(50)
        req.release()

    for _ in range(3):
        env.process(proc(env))
    env.run()
    assert starts == [0, 0, 50]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(env, tag, arrive):
        yield env.timeout(arrive)
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(10)
        req.release()

    env.process(proc(env, "late", 2))
    env.process(proc(env, "early", 1))
    env.process(proc(env, "first", 0))
    env.run()
    assert order == ["first", "early", "late"]


def test_release_idle_resource_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    req.release()
    with pytest.raises(SimulationError):
        res.release(req)


def test_acquire_helper_holds_for_duration():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env, tag):
        yield from res.acquire(30)
        log.append((tag, env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert log == [("a", 30), ("b", 60)]


def test_resource_utilization_tracks_busy_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        yield from res.acquire(40)
        yield env.timeout(60)  # idle gap
        yield from res.acquire(20)

    env.process(proc(env))
    env.run()
    assert env.now == 120
    assert res.busy_time == 60
    assert res.utilization() == pytest.approx(0.5)


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = {}

    def consumer(env):
        got["v"] = yield store.get()

    store.put("item")
    env.process(consumer(env))
    env.run()
    assert got["v"] == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = {}

    def consumer(env):
        got["v"] = yield store.get()
        got["t"] = env.now

    def producer(env):
        yield env.timeout(33)
        store.put("late-item")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == {"v": "late-item", "t": 33}


def test_store_fifo_item_order():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    for item in (1, 2, 3):
        store.put(item)
    env.process(consumer(env))
    env.run()
    assert received == [1, 2, 3]


def test_store_fifo_getter_order():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env, tag, arrive):
        yield env.timeout(arrive)
        item = yield store.get()
        received.append((tag, item))

    env.process(consumer(env, "a", 0))
    env.process(consumer(env, "b", 1))

    def producer(env):
        yield env.timeout(10)
        store.put("x")
        store.put("y")

    env.process(producer(env))
    env.run()
    assert received == [("a", "x"), ("b", "y")]


def test_store_len_and_peek():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.peek_all() == (1, 2)


def test_contended_resource_keeps_fifo_through_drain_and_refill():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(env, tag, arrive):
        yield env.timeout(arrive)
        yield from res.acquire(10)
        order.append((tag, env.now))

    # First burst queues two waiters, drains by t=30; the second burst
    # (t=100) queues again on the kept queue.
    for tag, arrive in (("a", 0), ("b", 1), ("c", 2),
                        ("d", 100), ("e", 101), ("f", 102)):
        env.process(proc(env, tag, arrive))
    env.run()
    assert order == [("a", 10), ("b", 20), ("c", 30),
                     ("d", 110), ("e", 120), ("f", 130)]
    assert res.queue_length == 0


def test_store_keeps_fifo_through_drain_and_refill():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env, tag, arrive):
        yield env.timeout(arrive)
        item = yield store.get()
        received.append((tag, item))

    def producer(env):
        for at, burst in ((1, "xy"), (10, "zw")):
            yield env.timeout(at - env.now)
            for item in burst:
                store.put(item)

    # Getters queue, drain at t=1, and queue again from t=5.
    for tag, arrive in (("a", 0), ("b", 0), ("c", 5), ("d", 6)):
        env.process(consumer(env, tag, arrive))
    env.process(producer(env))
    env.run()
    assert received == [("a", "x"), ("b", "y"), ("c", "z"), ("d", "w")]
    # Buffered items drain and refill the same way.
    for burst in ((1, 2), (3, 4)):
        for item in burst:
            store.put(item)
        assert store.peek_all() == burst
        gets = [store.get(), store.get()]
        env.run()
        assert [g.value for g in gets] == list(burst)
        assert len(store) == 0


def test_fresh_store_and_resource_have_empty_queues():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    assert store.peek_all() == ()
    assert store.cancel(env.event()) is False
    assert Resource(env).queue_length == 0


def test_acquire_accounting_matches_request_release_under_contention():
    # The same six holds, at capacity 2, through acquire() and through
    # request()/release(): grant times, busy time and utilization agree.
    holds = [(0, 40), (0, 25), (5, 30), (10, 10), (70, 20), (75, 5)]

    def run(use_acquire):
        env = Environment()
        res = Resource(env, capacity=2)
        finished = []

        def proc(env, tag, start, hold):
            yield env.timeout(start)
            if use_acquire:
                yield from res.acquire(hold)
            else:
                req = res.request()
                yield req
                yield env.timeout(hold)
                req.release()
            finished.append((tag, env.now))

        for tag, (start, hold) in enumerate(holds):
            env.process(proc(env, tag, start, hold))
        env.run(until=200)
        return finished, res.busy_time, res.utilization()

    via_acquire = run(True)
    assert via_acquire == run(False)
    assert via_acquire[1] == 75  # busy over [0, 55) and [70, 90)
    assert via_acquire[2] == pytest.approx(75 / 200)


def test_release_on_idle_resource_raises():
    env = Environment()
    res = Resource(env)
    req = res.request()
    req.release()
    with pytest.raises(SimulationError, match="idle resource"):
        req.release()
