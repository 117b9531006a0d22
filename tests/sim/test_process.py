"""Unit tests for processes, interrupts and condition events."""

import gc
import weakref

import pytest

from repro.sim import (AllOf, AnyOf, Interrupt, SimulationError, Simulator,
                       Store)
from repro.testing import collector_off


def test_process_runs_and_returns():
    sim = Simulator()
    log = []

    def worker():
        log.append(("start", sim.now))
        yield sim.timeout(3.0)
        log.append(("end", sim.now))
        return "result"

    p = sim.process(worker())
    out = sim.run(until=p)
    assert out == "result"
    assert log == [("start", 0.0), ("end", 3.0)]


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_receives_event_value():
    sim = Simulator()

    def worker():
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run(until=sim.process(worker())) == "payload"


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 99

    def parent():
        val = yield sim.process(child())
        return val + 1

    assert sim.run(until=sim.process(parent())) == 100


def test_waiting_on_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "early"

    c = sim.process(child())

    def parent():
        yield sim.timeout(5.0)
        val = yield c  # already processed by now
        return val

    assert sim.run(until=sim.process(parent())) == "early"
    assert sim.now == 5.0


def test_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def parent():
        try:
            yield sim.process(child())
        except KeyError:
            return "caught"
        return "missed"

    assert sim.run(until=sim.process(parent())) == "caught"


def test_unwaited_crashed_process_raises_at_run():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved crash")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="unobserved crash"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run(until=p)


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    p = sim.process(sleeper())

    def killer():
        yield sim.timeout(5.0)
        p.interrupt("wake up")

    sim.process(killer())
    sim.run()
    assert log == [("interrupted", 5.0, "wake up")]


def test_interrupted_process_not_resumed_by_stale_event():
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
            yield sim.timeout(50.0)
            resumes.append("second sleep done")

    p = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        p.interrupt()

    sim.process(killer())
    sim.run()
    # The original timeout at t=10 must NOT resume the process again.
    assert resumes == ["interrupt", "second sleep done"]
    assert sim.now == 51.0


def test_interrupt_terminated_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_before_first_resume():
    sim = Simulator()
    log = []

    def proc():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            log.append("early interrupt")

    p = sim.process(proc())
    p.interrupt()  # before the process has even started
    sim.run()
    assert log == ["early interrupt"] or log == []
    assert not p.is_alive


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_allof_collects_values_in_order():
    sim = Simulator()

    def make(delay, val):
        def proc():
            yield sim.timeout(delay)
            return val
        return sim.process(proc())

    # Deliberately finish out of order.
    procs = [make(3.0, "a"), make(1.0, "b"), make(2.0, "c")]

    def waiter():
        vals = yield AllOf(sim, procs)
        return vals

    assert sim.run(until=sim.process(waiter())) == ["a", "b", "c"]
    assert sim.now == 3.0


def test_allof_empty_fires_immediately():
    sim = Simulator()

    def waiter():
        vals = yield AllOf(sim, [])
        return vals

    assert sim.run(until=sim.process(waiter())) == []


def test_allof_fails_if_any_child_fails():
    sim = Simulator()

    def good():
        yield sim.timeout(5.0)

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def waiter():
        try:
            yield AllOf(sim, [sim.process(good()), sim.process(bad())])
        except ValueError:
            return "failed fast"
        return "no failure"

    assert sim.run(until=sim.process(waiter())) == "failed fast"
    assert sim.now == 1.0


def test_anyof_returns_first_index_and_value():
    sim = Simulator()

    def make(delay, val):
        def proc():
            yield sim.timeout(delay)
            return val
        return sim.process(proc())

    def waiter():
        idx, val = yield AnyOf(sim, [make(9.0, "slow"), make(2.0, "fast")])
        return idx, val

    assert sim.run(until=sim.process(waiter())) == (1, "fast")
    assert sim.now == 2.0


def test_anyof_with_already_done_child():
    sim = Simulator()
    done = sim.event()
    done.succeed("instant")
    sim.run()  # process it

    def waiter():
        idx, val = yield AnyOf(sim, [done, sim.timeout(10.0)])
        return idx, val

    assert sim.run(until=sim.process(waiter())) == (0, "instant")


def live(cls) -> int:
    """Instances of ``cls`` that nothing has freed yet."""
    return sum(1 for obj in gc.get_objects() if obj.__class__ is cls)


class Reply:
    """A payload a weak reference can watch."""


def test_fired_anyof_withdraws_from_its_losing_timeout():
    """The timed-receive race: once the get wins, the timeout carries no
    callback, so the condition and the reply in its value die when the
    waiter drops them, not when the timeout fires a second later."""
    with collector_off():
        sim = Simulator()
        store = Store(sim)
        timeout = sim.timeout(1.0)
        got = []

        def waiter():
            idx, reply = yield AnyOf(sim, [store.get(), timeout])
            got.append((idx, weakref.ref(reply)))

        sim.process(waiter())
        store.put(Reply())
        sim.run(until=0.5)
        assert got[0][0] == 0
        assert timeout.callbacks == []
        assert live(AnyOf) == 0
        assert got[0][1]() is None  # the reply died with the condition
        sim.run()


def test_failed_allof_withdraws_from_pending_siblings():
    sim = Simulator()
    slow = sim.timeout(5.0)
    bad = sim.event()

    def waiter():
        try:
            yield AllOf(sim, [slow, bad])
        except ValueError:
            return "failed fast"

    proc = sim.process(waiter())
    bad.fail(ValueError("child failed"))
    assert sim.run(until=proc) == "failed fast"
    assert slow.callbacks == []


def test_loser_failing_after_its_condition_fired_still_raises():
    """Withdrawing leaves a loser with no waiter, so its later failure is
    unhandled and surfaces from run(), as it did while the fired
    condition's callback ignored it."""
    sim = Simulator()
    loser = sim.event()
    cond = AnyOf(sim, [sim.timeout(1.0), loser])
    assert sim.run(until=cond) == (0, None)
    assert loser.callbacks == []
    loser.fail(ValueError("late"))
    with pytest.raises(ValueError, match="late"):
        sim.run()


def test_condition_on_a_processed_child_registers_on_no_later_child():
    sim = Simulator()
    done = sim.event()
    done.succeed("instant")
    sim.run()  # process it
    later = sim.timeout(10.0)
    cond = AnyOf(sim, [later, done, later])
    assert later.callbacks == []
    assert sim.run(until=cond) == (1, "instant")
    failed = sim.event()
    failed.fail(ValueError("processed failure"))
    failed.defused = True
    sim.run()
    pending = sim.event()
    allof = AllOf(sim, [failed, pending])
    assert pending.callbacks == []
    assert not allof.ok


def test_child_listed_twice():
    sim = Simulator()
    twice = sim.timeout(1.0, value="v")
    anyof = AnyOf(sim, [twice, twice])
    allof = AllOf(sim, [twice, twice])
    sim.run(until=allof)
    assert anyof.value == (0, "v")
    assert allof.value == ["v", "v"]
    # a pending child listed twice is withdrawn from twice
    pending = sim.event()
    cond = AnyOf(sim, [sim.timeout(1.0), pending, pending])
    assert sim.run(until=cond) == (0, None)
    assert pending.callbacks == []


def test_nested_processes_deep_chain():
    sim = Simulator()

    def level(n):
        if n == 0:
            yield sim.timeout(1.0)
            return 0
        val = yield sim.process(level(n - 1))
        return val + 1

    assert sim.run(until=sim.process(level(20))) == 20


def test_finished_processes_and_conditions_leave_no_cyclic_garbage():
    """Hot-path objects die by reference counting: once the work below
    is done, the cyclic collector finds nothing to free.  (A generator
    that catches an exception while a local still refers to the failed
    process does make a cycle, through the traceback; that one is the
    caller's, so the waiters here hold no such reference.)"""
    n = 50
    with collector_off():
        sim = Simulator()
        store = Store(sim)

        def returns(i):
            yield sim.timeout(1.0)
            return i

        def raises():
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        def catches_child_failure():
            try:
                yield sim.process(raises())
            except ValueError:
                return "caught"

        def sleeps():
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                return "woken"

        def interrupts(victim):
            yield sim.timeout(1.0)
            victim.interrupt("wake")

        def recv_times_out():
            # USocket._recv_proc's timeout path: the losing get stays
            # pending until it is cancelled
            get = store.get()
            idx, _ = yield AnyOf(sim, [get, sim.timeout(1.0)])
            assert idx == 1
            store.cancel(get)

        def allof_child_fails():
            try:
                yield AllOf(sim, [sim.timeout(5.0), sim.process(raises())])
            except ValueError:
                return "failed fast"

        for i in range(n):
            sim.process(returns(i))
            sim.process(catches_child_failure())
            sim.process(interrupts(sim.process(sleeps())))
            sim.process(sleeps()).interrupt("before its first resume")
            sim.process(recv_times_out())
            sim.process(allof_child_fails())
        sim.run()
        assert sim.events_processed > 0
        assert gc.collect() == 0
