"""Differential tests for the ladder event queue.

The kernel's contract is a *total order*: events dispatch by
``(time, insertion counter)``, exactly what the old global binary heap
produced.  These tests drive the ladder through its structural paths —
front-only, calendar placement, fence refill, grow/shrink re-fit, the
full-rotation far-future jump, and the Timeout free pool — and the lane
of events due at the current instant, and assert the dispatch sequence
is byte-identical to the sorted reference.
"""

import random

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.kernel import _MIN_BUCKETS, _POOL_MAX, Timeout


def _record(log, tag):
    """A callback that appends (virtual time, tag) to log at dispatch."""
    def cb(evt):
        log.append((evt.sim.now, tag))
    return cb


def _run_and_check(sim, scheduled, log):
    """Run the sim and assert dispatch order == sorted (when, seq) order."""
    sim.run()
    expected = [(when, seq) for when, seq in
                sorted(scheduled, key=lambda e: (e[0], e[1]))]
    assert log == expected


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_dispatch_order_multi_scale(seed):
    """Random delays spanning nine orders of magnitude, with deliberate
    timestamp collisions, dispatch in exact (time, insertion) order."""
    rng = random.Random(seed)
    sim = Simulator()
    scales = [0.0, 1e-9, 1e-6, 1e-3, 1.0, 60.0, 3600.0, 1e6]
    log, scheduled = [], []
    for i in range(800):
        delay = rng.choice(scales) * rng.choice([1, 1, 1, rng.random()])
        evt = sim.timeout(delay)
        evt.callbacks.append(_record(log, i))
        scheduled.append((delay, i))
    _run_and_check(sim, scheduled, log)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_nested_scheduling(seed):
    """Callbacks scheduling further events mid-dispatch keep exact order:
    every event fires at the time it was scheduled for, and events due
    at one instant fire in the order they were scheduled."""
    rng = random.Random(seed)
    sim = Simulator()
    log, scheduled = [], []

    def schedule(delay, depth):
        serial = len(scheduled)
        scheduled.append((sim.now + delay, serial))
        sim.timeout(delay).callbacks.append(spawn(serial, depth))

    def spawn(serial, depth):
        def cb(evt):
            log.append((evt.sim.now, serial))
            if depth > 0:
                for _ in range(rng.randrange(3)):
                    schedule(rng.choice([0.0, 1e-4, 2.5]), depth - 1)
        return cb

    for _ in range(50):
        schedule(rng.uniform(0, 10), 3)
    sim.run()
    assert len(log) == len(scheduled) > 50
    assert log == sorted(scheduled)


def test_grow_refit_keeps_order():
    """Tens of thousands of pending timers cross the grow trigger."""
    sim = Simulator()
    log, scheduled = [], []
    rng = random.Random(99)
    for i in range(20000):
        delay = rng.uniform(0, 500.0)
        evt = sim.timeout(delay)
        evt.callbacks.append(_record(log, i))
        scheduled.append((delay, i))
    _run_and_check(sim, scheduled, log)


def test_shrink_refit_keeps_order():
    """Drain a large queue down so the fence refill triggers a shrink."""
    sim = Simulator()
    log, scheduled = [], []
    rng = random.Random(7)
    # dense burst then a sparse tail: the tail forces shrink re-fits
    for i in range(8000):
        delay = rng.uniform(0, 1.0)
        evt = sim.timeout(delay)
        evt.callbacks.append(_record(log, i))
        scheduled.append((delay, i))
    for j in range(40):
        delay = 10.0 + j * 1000.0
        evt = sim.timeout(delay)
        evt.callbacks.append(_record(log, 8000 + j))
        scheduled.append((delay, 8000 + j))
    _run_and_check(sim, scheduled, log)


def test_far_future_rotation_jump():
    """Events farther apart than a full calendar rotation exercise the
    global-minimum jump in the refill path."""
    sim = Simulator()
    log, scheduled = [], []
    # cluster at t~0 to pin a small width, then lone events years apart
    rng = random.Random(3)
    for i in range(200):
        delay = rng.uniform(0, 0.01)
        evt = sim.timeout(delay)
        evt.callbacks.append(_record(log, i))
        scheduled.append((delay, i))
    for j, delay in enumerate([50.0, 5000.0, 5.0e5, 5.0e7]):
        evt = sim.timeout(delay)
        evt.callbacks.append(_record(log, 200 + j))
        scheduled.append((delay, 200 + j))
    _run_and_check(sim, scheduled, log)


def test_ties_preserve_insertion_order_across_structures():
    """Identical timestamps inserted before and after a re-fit dispatch
    strictly in insertion order."""
    sim = Simulator()
    log = []
    n = 5000  # enough to cross the front-growth trigger mid-insertion
    for i in range(n):
        evt = sim.timeout(1.0)
        evt.callbacks.append(_record(log, i))
    sim.run()
    assert log == [(1.0, i) for i in range(n)]


def test_horizon_pushback_resumes_exactly():
    """run(until=t) stops mid-window; the deferred event is not lost and
    dispatches at its exact time on the next run."""
    sim = Simulator()
    log = []
    for i, d in enumerate([0.5, 1.5, 2.5]):
        evt = sim.timeout(d)
        evt.callbacks.append(_record(log, i))
    sim.run(until=1.0)
    assert sim.now == 1.0
    assert log == [(0.5, 0)]
    sim.run(until=2.0)
    assert log == [(0.5, 0), (1.5, 1)]
    sim.run()
    assert log == [(0.5, 0), (1.5, 1), (2.5, 2)]


def test_peek_and_step_against_run():
    """peek()/step() single-stepping matches run()'s order and clock."""
    def build():
        sim = Simulator()
        log = []
        rng = random.Random(11)
        for i in range(300):
            evt = sim.timeout(rng.choice([0.0, 0.25, 0.25, 7.0, 900.0]))
            evt.callbacks.append(_record(log, i))
        return sim, log

    sim_a, log_a = build()
    sim_a.run()

    sim_b, log_b = build()
    while True:
        nxt = sim_b.peek()
        if nxt == float("inf"):
            break
        sim_b.step()
        assert sim_b.now == nxt
    assert log_b == log_a


#: instants many heap entries share, so heap entries and same-instant
#: events meet at each of them
_HOT = (0.5, 1.0, 1.0 + 2.0 ** -40, 2.0, 3.0)


class _SameInstantMix:
    """Random nested same-instant scheduling with a trigger-order oracle.

    Each tracked item takes the next serial at the call that makes it due
    (``succeed``/``fail``, ``sim.process``, ``interrupt``, yielding an
    event, ``timeout``, ``at``) and records the time it is due at; its
    dispatch appends ``(now, serial)`` to ``log`` and may schedule more.
    The kernel's contract is that ``log`` comes out sorted.
    """

    def __init__(self, sim, rng, budget):
        self.sim, self.rng, self.budget = sim, rng, budget
        self.due = {}        # serial -> the time it was scheduled for
        self.log = []        # (now, serial) in dispatch order
        self.pending = []    # untriggered events, some waited on
        self.processed = []  # processed events for workers to yield
        self.victims = []    # started processes that absorb interrupts

    def track(self, when):
        serial = len(self.due)
        self.due[serial] = when
        return serial

    def seen(self, serial, depth):
        def cb(evt):
            self.log.append((evt.sim.now, serial))
            evt.defused = True  # a failed event may have no waiter
            if len(self.processed) < 64:
                self.processed.append(evt)
            self.act(depth - 1)
        return cb

    def later(self):
        """A future instant shared with other heap entries."""
        now = self.sim.now
        ahead = [t for t in _HOT if t > now]
        return self.rng.choice(ahead) if ahead else now + 0.5

    def act(self, depth):
        if depth <= 0 or self.budget <= 0:
            return
        sim, rng = self.sim, self.rng
        for _ in range(rng.randrange(1, 4)):
            self.budget -= 1
            now = sim.now
            kind = rng.randrange(9)
            if kind in (0, 1):  # succeed / fail, maybe of a waited-on event
                evt = (self.pending.pop(rng.randrange(len(self.pending)))
                       if self.pending and rng.random() < 0.5
                       else sim.event())
                serial = self.track(now)
                evt.callbacks.append(self.seen(serial, depth))
                if kind == 0:
                    evt.succeed(serial)
                else:
                    evt.fail(RuntimeError(serial))
            elif kind == 2:  # a process bootstrap
                serial = self.track(now)
                sim.process(self.worker(serial, depth))
            elif kind == 3:  # an interrupt
                if self.victims:
                    victim = rng.choice(self.victims)
                    victim.interrupt(self.track(now))
            elif kind == 4:  # timeout(0)
                serial = self.track(now)
                sim.timeout(0).callbacks.append(self.seen(serial, depth))
            elif kind == 5:  # a delay the float addition absorbs
                delay = now * 2.0 ** -60
                assert now + delay == now
                serial = self.track(now + delay)
                sim.timeout(delay).callbacks.append(self.seen(serial, depth))
            elif kind == 6:  # at(now)
                serial = self.track(now)
                sim.at(now).callbacks.append(self.seen(serial, depth))
            elif kind == 7:  # a heap entry due at a shared instant
                when = self.later()
                if rng.random() < 0.5:
                    evt = sim.at(when)
                else:
                    delay = when - now
                    evt = sim.timeout(delay)
                    when = now + delay
                evt.callbacks.append(self.seen(self.track(when), depth))
            elif rng.random() < 0.5:
                self.pending.append(sim.event())
            else:  # a process that catches every interrupt
                serial = self.track(now)
                sim.process(self.victim(serial, depth))

    def worker(self, serial, depth):
        sim, rng = self.sim, self.rng
        self.log.append((sim.now, serial))  # the bootstrap's dispatch
        self.act(depth - 1)
        for _ in range(rng.randrange(4)):
            choice = rng.randrange(4)
            if choice == 0 and self.processed:  # resumes via a proxy
                evt = rng.choice(self.processed)
                serial = self.track(sim.now)
            elif choice == 1:
                evt = sim.timeout(0)
                serial = self.track(sim.now)
            elif choice == 2:
                when = self.later()
                evt = sim.at(when)
                serial = self.track(when)
            elif self.pending:  # may never fire: no serial
                evt = rng.choice(self.pending)
                serial = None
            else:
                continue
            try:
                yield evt
            except RuntimeError:
                pass
            if serial is not None:
                self.log.append((sim.now, serial))
            self.act(depth - 1)

    def victim(self, serial, depth):
        sim = self.sim
        self.log.append((sim.now, serial))
        self.victims.append(sim.active_process)
        while True:
            try:
                yield sim.event()  # never triggered
            except Interrupt as intr:
                self.log.append((sim.now, intr.cause))
                self.act(depth - 1)


def _drive(sim, mix, rng):
    """Dispatch everything through a random mix of ``run(until=t)``
    stops (often at ``now`` or a shared instant), ``run(until=event)``
    and ``peek``-checked ``step`` calls, then drain with ``run()``."""
    while True:
        nxt = sim.peek()
        if nxt == float("inf"):
            break
        mode = rng.randrange(3)
        if mode == 0:
            for _ in range(rng.randrange(1, 30)):
                nxt = sim.peek()
                if nxt == float("inf"):
                    break
                sim.step()
                assert sim.now == nxt
        elif mode == 1:
            until = rng.choice([sim.now, nxt]
                               + [t for t in _HOT if t >= sim.now])
            sim.run(until=until)
            assert sim.now == until
        else:
            delay = rng.choice([0.0, 0.0, 1e-3])
            stop = sim.timeout(delay)
            stop.callbacks.append(mix.seen(mix.track(sim.now + delay), 1))
            sim.run(until=stop)
    sim.run()


@pytest.mark.parametrize("seed", range(8))
def test_same_instant_mix_dispatches_in_trigger_order(seed):
    """Events due at one instant -- triggered events, process
    bootstraps, interrupts, yields of processed events, ``timeout(0)``,
    delays lost to float rounding, ``at(now)`` -- interleave with heap
    entries due at that same instant in exact (time, trigger) order,
    whether the run is single-stepped, stopped at a time or at an event,
    or drained."""
    rng = random.Random(seed)
    sim = Simulator()
    mix = _SameInstantMix(sim, rng, budget=1500)
    for _ in range(6):
        sim.process(mix.victim(mix.track(0.0), 4))
        sim.process(mix.worker(mix.track(0.0), 4))
        when = mix.later()
        sim.at(when).callbacks.append(mix.seen(mix.track(when), 4))
    _drive(sim, mix, rng)
    assert len(mix.log) == len(mix.due) > 300
    assert all(now == mix.due[serial] for now, serial in mix.log)
    assert mix.log == sorted(mix.log)


def test_timeout_pool_never_recycles_observed_events():
    """A Timeout someone still references keeps its value; the pool only
    recycles provably unobservable events."""
    sim = Simulator()
    held = sim.timeout(1.0, value="keep")
    for _ in range(10):
        sim.timeout(0.5, value="churn")
    sim.run()
    assert held.value == "keep"
    assert held.processed
    # pooled objects are reused: drive enough churn to prove reuse works
    sim2 = Simulator()
    seen = []

    def churn():
        for i in range(500):
            t = sim2.timeout(0.001, value=i)
            got = yield t
            seen.append(got)

    sim2.process(churn())
    sim2.run()
    assert seen == list(range(500))
    assert len(sim2._tpool) <= _POOL_MAX


def test_pool_not_fed_by_subclasses_or_condition_children():
    """AnyOf/AllOf keep child references, so their values survive."""
    sim = Simulator()
    results = {}

    def waiter():
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        got = yield sim.all_of([t1, t2])
        results["all"] = got
        # both children remain readable after being processed
        results["vals"] = (t1.value, t2.value)

    sim.process(waiter())
    sim.run()
    assert results["all"] == ["a", "b"]
    assert results["vals"] == ("a", "b")


def test_structure_invariants_after_fuzz():
    """Internal bookkeeping stays consistent after heavy churn."""
    sim = Simulator()
    rng = random.Random(42)
    for _ in range(3000):
        sim.timeout(rng.uniform(0, 1e4))
    sim.run()
    assert sim._qcount == 0
    assert not sim._front
    assert all(not b for b in sim._buckets)
    assert sim._nbuckets >= _MIN_BUCKETS
    # a fresh event still schedules fine after everything drained
    log = []
    evt = sim.timeout(5.0)
    evt.callbacks.append(_record(log, "tail"))
    sim.run()
    assert log and log[0][1] == "tail"


def test_cold_timeout_constructor_still_works():
    """Direct Timeout(...) construction (bypassing the pool) matches
    Simulator.timeout semantics."""
    sim = Simulator()
    t = Timeout(sim, 3.0, value=7)
    assert t.triggered and t.ok
    got = []

    def waiter():
        got.append((yield t))

    sim.process(waiter())
    sim.run()
    assert got == [7] and sim.now == 3.0
    with pytest.raises(ValueError):
        Timeout(sim, -1.0)
