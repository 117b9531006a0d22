"""Unit tests for the DES kernel: events, timeouts, scheduler ordering."""

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=3.0)
    assert sim.now == 3.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_time_is_error():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []

    def track(tag):
        return lambda evt: fired.append((sim.now, tag))

    sim.timeout(2.0).callbacks.append(track("b"))
    sim.timeout(1.0).callbacks.append(track("a"))
    sim.timeout(3.0).callbacks.append(track("c"))
    sim.run()
    assert fired == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_simultaneous_events_fifo_by_insertion():
    sim = Simulator()
    fired = []
    for tag in ("first", "second", "third"):
        sim.timeout(1.0).callbacks.append(
            lambda evt, t=tag: fired.append(t))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_manual_event_succeed_value():
    sim = Simulator()
    evt = sim.event()
    assert not evt.triggered
    evt.succeed(42)
    assert evt.triggered and evt.ok and evt.value == 42
    sim.run()
    assert evt.processed


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("nope"))


def test_fail_requires_exception_instance():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_unhandled_failed_event_raises_from_run():
    sim = Simulator()
    sim.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failed_event_is_silent():
    sim = Simulator()
    evt = sim.event()
    evt.fail(RuntimeError("boom"))
    evt.defused = True
    sim.run()  # no raise


def test_value_before_trigger_is_error():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value
    with pytest.raises(SimulationError):
        _ = evt.ok


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 2.0


def test_run_until_event_already_processed():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("early")
    sim.run()
    assert sim.run(until=evt) == "early"


def test_run_until_event_never_fires_is_error():
    sim = Simulator()
    evt = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="never fired"):
        sim.run(until=evt)


def _fire_then_wait(sim, evt):
    """A process that fires ``evt`` at t=2 and then waits until t=3."""
    def proc():
        yield sim.timeout(2.0 - sim.now)
        evt.succeed()
        yield sim.timeout(1.0)
    sim.process(proc())


def test_drained_run_until_event_does_not_stop_a_later_run():
    """A run(until=evt) that drains before evt fires leaves no stop on it:
    a later plain run() goes on past evt to the last queued event."""
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError, match="never fired"):
        sim.run(until=evt)
    _fire_then_wait(sim, evt)
    sim.run()
    assert sim.now == 3.0
    assert sim.peek() == float("inf")


def test_failed_run_until_event_does_not_stop_a_later_run():
    """Likewise when an unhandled failure ends run(until=evt) early."""
    sim = Simulator()
    evt = sim.event()

    def crash():
        yield sim.timeout(1.0)
        raise ValueError("crash")

    sim.process(crash())
    with pytest.raises(ValueError, match="crash"):
        sim.run(until=evt)
    _fire_then_wait(sim, evt)
    sim.run()
    assert sim.now == 3.0
    assert sim.peek() == float("inf")


def test_run_until_failed_event_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("process died")

    p = sim.process(proc())
    with pytest.raises(ValueError, match="process died"):
        sim.run(until=p)


def test_run_until_event_runs_callbacks_added_during_the_run():
    """A process that waits on the stop event after run() began still
    resumes, and every callback runs in the order it was added, before
    run() returns."""
    sim = Simulator()
    order = []

    def proc():
        yield sim.timeout(1.0)
        return 5

    def waiter():
        order.append(("waiter got", (yield p)))
        return "waited"

    def late():
        yield sim.timeout(0.5)
        p.callbacks.append(lambda evt: order.append("late"))

    p = sim.process(proc())
    p.callbacks.append(lambda evt: order.append("early"))
    w = sim.process(waiter())
    sim.process(late())
    assert sim.run(until=p) == 5
    assert order == ["early", ("waiter got", 5), "late"]
    sim.run()
    assert not w.is_alive and w.value == "waited"


def test_run_until_failed_event_fails_processes_waiting_on_it():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("process died")

    def waiter():
        try:
            yield p
        except ValueError as exc:
            return f"saw {exc}"

    p = sim.process(proc())
    w = sim.process(waiter())
    with pytest.raises(ValueError, match="process died"):
        sim.run(until=p)
    sim.run()
    assert w.value == "saw process died"


def test_step_on_empty_queue_is_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.5)
    assert sim.peek() == 7.5


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.timeout(1.0)
    sim.run()
    assert sim.events_processed == 5


def test_callbacks_after_processing_is_none():
    sim = Simulator()
    evt = sim.timeout(1.0)
    sim.run()
    assert evt.callbacks is None
