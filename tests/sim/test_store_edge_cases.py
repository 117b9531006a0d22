"""Additional edge cases for kernel primitives discovered during use."""

import pytest

from repro.sim import (AllOf, AnyOf, Interrupt, PriorityStore, Resource,
                       Simulator, Store)


def test_bounded_store_putter_admitted_after_cancel():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("a")
    blocked = store.put("b")
    assert not blocked.triggered
    got = store.get()
    assert got.value == "a"
    assert blocked.triggered          # "b" admitted when space opened
    assert store.items == ("b",)


def test_store_take_pops_without_parking():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.take() is None       # empty: nothing parked either
    store.put("a")
    blocked = store.put("b")
    get, item = store.take()
    assert item == "a" and get.triggered and get.value == "a"
    assert blocked.triggered          # "b" admitted when space opened
    assert store.items == ("b",)
    later = store.put("c")
    assert not later.triggered        # the empty take parked no get
    ps = PriorityStore(sim)
    assert ps.take() is None
    ps.put(5)
    ps.put(2)
    assert ps.take()[1] == 2


def test_store_put_wakes_getter_directly_bypassing_queue():
    sim = Simulator()
    store = Store(sim, capacity=1)
    getter = store.get()
    store.put("x")
    assert getter.value == "x"
    assert len(store) == 0  # handed over, never queued


def test_priority_store_put_with_waiting_getter_respects_order():
    sim = Simulator()
    ps = PriorityStore(sim)
    ps.put(5)
    getter = ps.get()  # takes 5 immediately
    assert getter.value == 5
    g2 = ps.get()
    ps.put(9)
    assert g2.value == 9


def test_resource_fifo_across_cancel():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    w1 = res.acquire()
    w2 = res.acquire()
    res.cancel(w1)
    res.release()
    assert not w1.triggered
    assert w2.triggered  # next live waiter wins


def test_anyof_child_failure_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("anyof child")

    def waiter():
        try:
            yield AnyOf(sim, [sim.process(bad()), sim.timeout(10.0)])
        except ValueError:
            return "caught"

    assert sim.run(until=sim.process(waiter())) == "caught"
    assert sim.now == 1.0


def test_allof_duplicate_event_counts_once_each():
    sim = Simulator()
    t = sim.timeout(1.0, value="v")

    def waiter():
        vals = yield AllOf(sim, [t, t])
        return vals

    assert sim.run(until=sim.process(waiter())) == ["v", "v"]


def test_interrupt_cause_is_accessible():
    sim = Simulator()
    seen = {}

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            seen["cause"] = intr.cause

    p = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        p.interrupt({"reason": "owner-return", "grace": 0})

    sim.process(killer())
    sim.run()
    assert seen["cause"] == {"reason": "owner-return", "grace": 0}


def test_double_interrupt_same_timestep_safe():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            return "interrupted"

    p = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        p.interrupt("first")
        p.interrupt("second")  # delivered after termination: ignored

    sim.process(killer())
    assert sim.run(until=p) == "interrupted"


def test_process_return_none_by_default():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    assert sim.run(until=sim.process(proc())) is None


class _Payload:
    """Deliberately non-comparable (no __lt__, default object identity)."""

    def __init__(self, tag):
        self.tag = tag


def test_priority_store_key_non_comparable_items_stay_fifo():
    """Regression: heap entries are (key, seq, item), so equal-priority
    non-comparable items must never be compared — ties stay FIFO."""
    sim = Simulator()
    ps = PriorityStore(sim, key=lambda m: m[0])
    a, b, c = _Payload("a"), _Payload("b"), _Payload("c")
    ps.put((2, a))
    ps.put((1, b))
    ps.put((2, c))          # same priority as a: would raise pre-fix
    assert [ps.get().value[1] for _ in range(3)] == [b, a, c]


def test_priority_store_key_items_snapshot_and_putter_admission():
    sim = Simulator()
    ps = PriorityStore(sim, capacity=2, key=lambda m: m[0])
    a, b, c = _Payload("a"), _Payload("b"), _Payload("c")
    ps.put((1, a))
    ps.put((1, b))
    blocked = ps.put((0, c))           # over capacity: queued as putter
    assert not blocked.triggered
    assert ps.items == ((1, a), (1, b))
    got = ps.get()
    assert got.value == (1, a)
    assert blocked.triggered           # admitted through the keyed push
    assert ps.items == ((0, c), (1, b))


def test_priority_store_key_with_waiting_getter():
    sim = Simulator()
    ps = PriorityStore(sim, key=lambda m: m[0])
    a, b = _Payload("a"), _Payload("b")
    ps.put((3, a))
    assert ps.get().value == (3, a)
    waiting = ps.get()
    ps.put((3, b))                     # direct hand-off, empty heap
    assert waiting.value == (3, b)
