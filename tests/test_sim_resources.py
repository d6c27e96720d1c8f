"""Unit tests for Store / PriorityStore / Resource."""

import pytest

from repro.sim import PriorityStore, Resource, Simulator, Store


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            got.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        got.append(((yield store.get()), sim.now))

    def producer():
        yield sim.timeout(7.0)
        yield store.put("item")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("item", 7.0)]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    done_times = []

    def producer():
        for i in range(3):
            yield store.put(i)
            done_times.append(sim.now)

    def consumer():
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert done_times == [0.0, 0.0, 10.0]


def test_store_len_tracks_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    sim.run()
    assert len(store) == 2


def test_store_try_put_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a")
    sim.run()
    assert not store.try_put("b")


def test_store_invalid_capacity():
    with pytest.raises(ValueError):
        Store(Simulator(), capacity=0)


def test_store_multiple_consumers_fifo_service():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    sim.process(consumer("c1"))
    sim.process(consumer("c2"))

    def producer():
        yield sim.timeout(1.0)
        yield store.put("x")
        yield store.put("y")

    sim.process(producer())
    sim.run()
    assert got == [("c1", "x"), ("c2", "y")]


# ---------------------------------------------------------------------------
# Store.put_nowait
# ---------------------------------------------------------------------------

def test_put_nowait_hands_items_to_waiting_getters_in_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name):
        got.append((name, (yield store.get()), sim.now))

    for name in ("first", "second"):
        sim.process(consumer(name))
    sim.run()  # both getters now wait on the empty store
    sim.call_at(4.0, store.put_nowait, "a")
    sim.call_at(4.0, store.put_nowait, "b")
    sim.call_at(5.0, store.put_nowait, "c")
    sim.run()
    assert got == [("first", "a", 4.0), ("second", "b", 4.0)]
    assert list(store.items) == ["c"]


def test_put_nowait_schedules_no_event_for_the_putter():
    sim = Simulator()
    store = Store(sim)
    store.put_nowait("buffered")
    assert sim._queue == [] and list(store.items) == ["buffered"]
    store.get()  # served from the buffer: one getter event
    assert len(sim._queue) == 1
    sim.run()
    waiter = store.get()
    store.put_nowait("handed")
    # Only the woken getter's event is on the heap, and nothing is
    # left buffered.
    assert [entry[3] for entry in sim._queue] == [waiter]
    assert len(store) == 0
    sim.run()
    assert waiter.value == "handed"
    # put() would also have scheduled its own StorePut.
    store.put("via-put")
    assert len(sim._queue) == 1


def test_put_nowait_on_a_full_bounded_store_falls_back_to_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put_nowait("a")
    store.put_nowait("b")  # full: queued as a pending putter
    assert list(store.items) == ["a"] and len(store._put_waiters) == 1
    got = []

    def consumer():
        for _ in range(2):
            got.append((yield store.get()))

    sim.process(consumer())
    sim.run()
    assert got == ["a", "b"] and len(store) == 0


# ---------------------------------------------------------------------------
# PriorityStore
# ---------------------------------------------------------------------------

def test_priority_store_orders_items():
    sim = Simulator()
    store = PriorityStore(sim)
    got = []

    def producer():
        for i in (5, 1, 3):
            yield store.put(i)

    def consumer():
        yield sim.timeout(1.0)
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [1, 3, 5]


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_mutual_exclusion():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    timeline = []

    def worker(name):
        with res.request() as req:
            yield req
            timeline.append((name, "in", sim.now))
            yield sim.timeout(5.0)
            timeline.append((name, "out", sim.now))

    sim.process(worker("w1"))
    sim.process(worker("w2"))
    sim.run()
    assert timeline == [("w1", "in", 0.0), ("w1", "out", 5.0),
                        ("w2", "in", 5.0), ("w2", "out", 10.0)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finish = []

    def worker():
        with res.request() as req:
            yield req
            yield sim.timeout(5.0)
            finish.append(sim.now)

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert finish == [5.0, 5.0, 10.0, 10.0]


def test_resource_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # no-op

    sim.process(worker())
    sim.run()
    assert res.count == 0


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()
    sim.run()
    queued = res.request()
    res.release(queued)  # cancel while still waiting
    res.release(holder)
    sim.run()
    assert res.count == 0 and res.queue_length == 0


def test_resource_queue_length():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    res.request()
    res.request()
    sim.run()
    assert res.count == 1
    assert res.queue_length == 2


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)
