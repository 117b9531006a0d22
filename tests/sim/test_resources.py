"""Unit tests for Resource, Store and PriorityStore."""

import pytest

from repro.sim import PriorityStore, Resource, SimulationError, Simulator, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    a, b, c = res.acquire(), res.acquire(), res.acquire()
    assert a.triggered and b.triggered and not c.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_grants_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    waiter = res.acquire()
    assert not waiter.triggered
    res.release()
    assert waiter.triggered
    assert res.in_use == 1  # the waiter now holds it


def test_resource_release_without_acquire_is_error():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_serializes_processes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(name, hold):
        yield res.acquire()
        log.append((name, "in", sim.now))
        yield sim.timeout(hold)
        log.append((name, "out", sim.now))
        res.release()

    sim.process(worker("a", 2.0))
    sim.process(worker("b", 3.0))
    sim.run()
    assert log == [("a", "in", 0.0), ("a", "out", 2.0),
                   ("b", "in", 2.0), ("b", "out", 5.0)]


def test_resource_cancel_pending_acquire():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    waiter = res.acquire()
    assert res.cancel(waiter)
    res.release()
    assert not waiter.triggered
    assert res.in_use == 0


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = store.get()
    assert got.triggered and got.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = store.get()
    assert not got.triggered
    store.put("late")
    assert got.triggered and got.value == "late"


def test_store_is_fifo():
    sim = Simulator()
    store = Store(sim)
    for item in ("a", "b", "c"):
        store.put(item)
    assert [store.get().value for _ in range(3)] == ["a", "b", "c"]


def test_store_bounded_put_blocks():
    sim = Simulator()
    store = Store(sim, capacity=1)
    p1 = store.put("first")
    p2 = store.put("second")
    assert p1.triggered and not p2.triggered
    got = store.get()
    assert got.value == "first"
    assert p2.triggered
    assert store.get().value == "second"


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_cancel_pending_get():
    sim = Simulator()
    store = Store(sim)
    pending = store.get()
    assert store.cancel(pending)
    store.put("item")
    assert len(store) == 1  # not delivered to the cancelled getter
    assert not pending.triggered


def test_store_parked_gets_are_served_fifo_across_cancels():
    """One parked get and a queue of them behave alike: gets are served
    in arrival order, and cancelled or already triggered ones are
    skipped."""
    sim = Simulator()
    store = Store(sim)
    lone = store.get()
    assert store.cancel(lone) and not store.cancel(lone)
    taken = store.get()
    taken.succeed("elsewhere")
    store.put("kept")
    assert store.items == ("kept",) and store.get().value == "kept"
    g1, g2, g3 = store.get(), store.get(), store.get()
    assert store.cancel(g2) and not store.cancel(g2)
    for item in "abc":
        store.put(item)
    assert (g1.value, g3.value) == ("a", "b") and not g2.triggered
    assert store.items == ("c",)
    g4, g5 = store.get(), store.get()
    store.put("d")
    assert (g4.value, g5.value) == ("c", "d") and len(store) == 0


def test_store_producer_consumer_processes():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for i in range(5):
            yield sim.timeout(1.0)
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            received.append((item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert [i for i, _ in received] == [0, 1, 2, 3, 4]
    assert received[-1][1] == 5.0


def test_store_items_snapshot():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.items == (1, 2)
    assert len(store) == 2


def test_priority_store_orders_items():
    sim = Simulator()
    ps = PriorityStore(sim)
    for item in (5, 1, 3):
        ps.put(item)
    assert [ps.get().value for _ in range(3)] == [1, 3, 5]


def test_priority_store_fifo_on_ties():
    sim = Simulator()
    ps = PriorityStore(sim)
    a = (1, "a")
    b = (1, "a")  # equal priority tuples
    ps.put(a)
    ps.put(b)
    assert ps.get().value is a
    assert ps.get().value is b


def test_priority_store_blocking_get():
    sim = Simulator()
    ps = PriorityStore(sim)
    got = ps.get()
    assert not got.triggered
    ps.put(7)
    assert got.triggered and got.value == 7
    assert len(ps) == 0


def test_try_acquire_takes_a_free_unit_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.idle and res.try_acquire()
    assert res.in_use == 1 and not res.idle
    assert not res.try_acquire() and res.in_use == 1
    res.release()
    assert res.idle and res.in_use == 0


def test_try_acquire_refuses_while_anyone_waits():
    """A free unit with a waiter still queued is not idle: the waiter
    is owed it first.  A queue of only cancelled waiters counts too."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    cancelled = res.acquire()
    cancelled.succeed()  # triggered elsewhere while still queued
    res.capacity = 2  # a free unit beside a queue of one cancelled waiter
    assert res.queue_length == 1
    assert not res.idle and not res.try_acquire()
    assert res.in_use == 1
    res.release()  # discards the cancelled waiter, returns the unit
    assert res.queue_length == 0 and res.in_use == 0 and res.idle
