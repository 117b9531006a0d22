"""The discrete-event simulation core: events, timeouts and the scheduler.

Time is a ``float`` number of **seconds** of virtual time.  Determinism is a
hard requirement for reproducible experiments, so ties in the event queue are
broken by a monotonically increasing insertion counter, never by object
identity.

The pending-event set lives in a **ladder queue** (a calendar queue with a
sorted front; Brown 1988, Tang et al. 2005): a small binary heap — the
*front* — holds every pending event earlier than a moving time fence
``_ftop``, and an array of coarse time buckets (the *calendar*) holds
everything later, indexed by ``floor(when / width)`` modulo the bucket
count.  Dispatch pops the front exactly like the old global heap did —
one C ``heappop`` — but the heap only ever contains the events of the
current fence window, not every pending event (far-future events cost a
single list append each), so its depth is O(log w) in the window size
w, not O(log n) in the pending count.  When the front drains, the fence
advances bucket by bucket, sweeping each bucket's now-due entries into
the front.  The bucket width is re-fit to the observed timestamp
distribution (pending-event span / count) whenever the population
outgrows the structure, so both a microsecond-spaced network burst and
multi-second keep-alive timers keep O(1) amortized access.  Entries are
the same ``(when, counter, event)`` triples the old binary heap used,
compared the same way, and the front always holds *every* pending entry
below the fence — the dispatch order is *identical* to the heap's, which
the golden-file and differential determinism tests assert byte-for-byte
(see docs/PERFORMANCE.md for the ordering argument).

Most events are due at the very instant they are scheduled: a triggered
event, a process bootstrap, an interrupt, ``timeout(0)``.  Those skip the
ladder and go on the *lane*, one FIFO ``deque`` of the events due at
``now``.  Anything scheduled for ``now`` once the clock is at ``now``
goes on the lane, so a ladder entry due at ``now`` was scheduled before
every lane entry: dispatch takes the front's top while it is due at
``now`` and the lane's head otherwise, which is the heap's exact
``(time, insertion)`` order at the cost of one deque append and pop.

Two further hot-path optimizations live here: ``Simulator.timeout``
recycles processed :class:`Timeout` objects from a free pool (the dispatch
loop returns an event to the pool only when its refcount proves nobody can
still observe it), and the dispatch loop inlines the pop/advance so the
common case costs one C deque or heap operation and no Python function
calls.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Iterable, Optional

from repro.obs.session import engines
from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.rng import RngRegistry

_PENDING = object()

#: calendar sizing bounds (powers of two; see _resize)
_MIN_BUCKETS = 16
_MAX_BUCKETS = 1 << 16
#: target entries per bucket: one fence advance sweeps ~this many events
#: into the front, amortizing the Python-level refill across the batch
#: (the per-event front ops are C heap calls on a ~16-entry heap)
_OCCUPANCY = 16
#: the front heap may grow to this many entries before a re-fit is tried
_FGROW_MIN = 1024
#: cap on the recycled-Timeout free pool
_POOL_MAX = 256


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, becomes *triggered* when given a value (via
    :meth:`succeed` or :meth:`fail`) and *processed* once the scheduler has
    run its callbacks.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: callables invoked with this event once it is processed;
        #: ``None`` after processing (further appends are a bug).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: a failed event whose exception was consumed (e.g. by a waiting
        #: process) sets this so the scheduler does not re-raise it.
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._lane.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into any process waiting on this event; if
        nobody consumes it, :meth:`Simulator.run` re-raises it to surface
        silent failures.
        """
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._lane.append(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(sim._now + delay, self)


class Simulator:
    """The event loop: a ladder queue of triggered events.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.rng.RngRegistry`.  Every
        component derives an independent, named stream from it so that
        adding a component never perturbs another's random sequence.
    fastpath:
        Let the flow-level fast paths (bulk transfers, single datagrams,
        disk batches; docs/PERFORMANCE.md) engage.  Simulated behaviour
        is identical either way; False carries every transfer, datagram
        and disk request event by event.
    """

    # Slots turn the many instance-attribute reads per dispatched event
    # into array indexing instead of dict lookups.  ``_bulk_xfer_ids`` is
    # declared for net/bulk.py, which lazily attaches a per-sim counter.
    __slots__ = ("_now", "_lane", "_counter", "_front", "_ftop", "_fgrow",
                 "_nbuckets", "_mask", "_buckets", "_width", "_inv_width",
                 "_qcount", "_day", "_tpool", "rng", "events_processed",
                 "tracer", "telemetry", "eventlog", "_trace_kernel",
                 "fastpath", "active_process", "_pid_counter",
                 "_bulk_xfer_ids", "__weakref__")

    def __init__(self, seed: int = 0, fastpath: bool = True):
        self._now: float = 0.0
        #: the events due at _now, in the order they were scheduled
        self._lane: deque[Event] = deque()
        #: insertion serial of ladder entries (lane entries take none)
        self._counter: int = 0
        # -- ladder queue --------------------------------------------------
        # Entries are (when, counter, event) triples.  The front heap holds
        # every pending entry with when < _ftop; the calendar buckets hold
        # the rest, each in bucket floor(when/width) & mask.  _day is the
        # absolute bucket index of the fence: _ftop == (_day + 1) * _width,
        # and every calendar entry's bucket index is > _day.  The front
        # list's *identity* is permanent (refill/resize mutate it in
        # place) so the dispatch loop may cache it in a local.
        self._front: list = []
        self._ftop: float = 1.0
        self._fgrow: int = _FGROW_MIN
        self._nbuckets: int = _MIN_BUCKETS
        self._mask: int = _MIN_BUCKETS - 1
        self._buckets: list[list] = [[] for _ in range(_MIN_BUCKETS)]
        self._width: float = 1.0
        self._inv_width: float = 1.0
        #: number of entries in the calendar (the front is sized by len())
        self._qcount: int = 0
        self._day: int = 0
        #: free pool of processed Timeout objects (see run())
        self._tpool: list[Timeout] = []
        self.rng = RngRegistry(seed)
        #: number of events processed so far (exposed for perf reporting)
        self.events_processed: int = 0
        #: the observability engines installed when this sim was built
        #: (repro.obs.ObsSession); the shared NULL_* ones otherwise.
        #: Instrumentation guards every use with ``.enabled``.
        self.tracer, self.telemetry, self.eventlog = engines()
        #: the one switch of the bulk, datagram and disk fast paths
        self.fastpath: bool = fastpath
        #: cached ``tracer.enabled and tracer.kernel_events`` (refreshed at
        #: every run() entry) so the per-resume check is one attribute read
        self._trace_kernel: bool = (
            self.tracer.enabled and self.tracer.kernel_events)
        #: the process currently being resumed (tracks span ownership)
        self.active_process = None
        self._pid_counter: int = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now.

        The hottest constructor in the simulator: it reuses a pooled
        (processed, unobservable) Timeout when one is available and inlines
        both the field setup and the queue insert (the lane when the delay
        is zero or lost to float rounding), so the common case runs one C
        deque append or heappush and no nested Python calls.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._tpool
        if pool:
            evt = pool.pop()
            evt.delay = delay
            evt._value = value
        else:
            evt = Timeout.__new__(Timeout)
            evt.sim = self
            evt.callbacks = []
            evt._ok = True
            evt.defused = False
            evt._value = value
            evt.delay = delay
        now = self._now
        when = now + delay
        if when == now:
            self._lane.append(evt)
            return evt
        self._counter = count = self._counter + 1
        if when < self._ftop:
            front = self._front
            heappush(front, (when, count, evt))
            if len(front) > self._fgrow:
                self._resize()
        else:
            self._place(when, (when, count, evt))
        return evt

    def at(self, when: float, value: Any = None) -> Event:
        """An event firing at the *absolute* virtual time ``when``.

        The absolute counterpart of :meth:`timeout`.  The flow-level fast
        paths use it to complete transfers at analytically computed
        instants that are bit-identical to the packet path's event times —
        ``timeout(when - now)`` cannot guarantee that under float rounding
        (``now + (when - now) != when`` in general).  Called about twice
        as often as :meth:`timeout` since the datagram fast path, so it
        inlines the queue insert the same way.
        """
        now = self._now
        if when < now:
            raise SimulationError(f"at({when}) is in the past (now={now})")
        evt = Event.__new__(Event)
        evt.sim = self
        evt.callbacks = []
        evt._ok = True
        evt._value = value
        evt.defused = False
        if when == now:
            self._lane.append(evt)
            return evt
        self._counter = count = self._counter + 1
        if when < self._ftop:
            front = self._front
            heappush(front, (when, count, evt))
            if len(front) > self._fgrow:
                self._resize()
        else:
            self._place(when, (when, count, evt))
        return evt

    def call_at(self, when: float, func: Callable[[], None],
                value: Any = None) -> Event:
        """Schedule ``func()`` to run at absolute time ``when``.

        Sugar for ``at(when)`` plus a callback that ignores the event;
        the flow-level fast paths use it for their closed-form completion
        actions (engine releases, deliveries).  Returns the event so the
        caller may also wait on it.
        """
        evt = self.at(when, value)
        evt.callbacks.append(lambda _e: func())
        return evt

    def process(self, generator) -> "Process":
        """Start a new process from a generator; see :class:`Process`."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> "Event":
        return AllOf(self, list(events))

    # -- scheduling --------------------------------------------------------
    def _schedule(self, when: float, event: Event) -> None:
        """Queue a triggered ``event`` for time ``when >= now``: on the
        lane when it is due now, else in the ladder."""
        if when == self._now:
            self._lane.append(event)
            return
        self._counter = count = self._counter + 1
        if when < self._ftop:
            front = self._front
            heappush(front, (when, count, event))
            if len(front) > self._fgrow:
                self._resize()
        else:
            self._place(when, (when, count, event))

    def _bucket_index(self, when: float) -> int:
        """Absolute bucket index ``k`` with ``k*width <= when < (k+1)*width``.

        ``int(when * inv_width)`` can land one bucket off under float
        rounding; the two guards repair it so placement and the fence
        windows (which use the same ``k * width`` arithmetic) always
        agree — the property the ordering proof in docs/PERFORMANCE.md
        relies on.
        """
        width = self._width
        k = int(when * self._inv_width)
        if when < k * width:
            k -= 1
        elif when >= (k + 1) * width:
            k += 1
        return k

    def _place(self, when: float, entry: tuple) -> None:
        """Insert a beyond-the-fence ``entry`` into its calendar bucket."""
        self._buckets[self._bucket_index(when) & self._mask].append(entry)
        self._qcount += 1
        # Grow once mean occupancy doubles past target (re-fit leaves it
        # at ~_OCCUPANCY/2, so the trigger stays amortized O(1)).
        if self._qcount > (self._nbuckets * (_OCCUPANCY << 1)) \
                and self._nbuckets < _MAX_BUCKETS:
            self._resize()

    def _resize(self) -> None:
        """Re-fit the ladder to the pending-event distribution.

        Deterministic by construction: triggered purely by the queue
        population crossing a fixed threshold (calendar count > 2x the
        bucket count, or the front heap outgrowing ``_fgrow``), and the
        new width is a pure function of the pending entries — their time
        span divided by their count, i.e. the mean inter-event gap, so
        average bucket occupancy stays O(1).  No clock, no RNG — two
        identical runs resize identically.
        """
        entries = list(self._front)
        for b in self._buckets:
            entries.extend(b)
        n = len(entries)
        nbuckets = _MIN_BUCKETS
        while nbuckets < (n // (_OCCUPANCY >> 1)) and nbuckets < _MAX_BUCKETS:
            nbuckets <<= 1
        if n:
            lo = min(e[0] for e in entries)
            hi = max(e[0] for e in entries)
            span = hi - lo
            width = span * _OCCUPANCY / n if span > 0.0 else self._width
        else:
            lo = self._now
            width = self._width
        if width <= 0.0 or width != width:  # zero/NaN guard
            width = 1.0
        self._nbuckets = nbuckets
        self._mask = mask = nbuckets - 1
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets = buckets = [[] for _ in range(nbuckets)]
        day = self._bucket_index(lo)
        self._day = day
        self._ftop = ftop = (day + 1) * width
        front = self._front
        front[:] = [e for e in entries if e[0] < ftop]
        heapify(front)
        qcount = 0
        index = self._bucket_index
        for e in entries:
            if e[0] >= ftop:
                buckets[index(e[0]) & mask].append(e)
                qcount += 1
        self._qcount = qcount
        # Degenerate distributions (span 0) cannot be split across the
        # fence; doubling the trigger keeps the re-fit amortized O(1).
        self._fgrow = max(_FGROW_MIN, len(front) << 1)

    def _refill(self) -> None:
        """Advance the fence until due entries fill the (empty) front.

        Walks the calendar day by day, sweeping each bucket's entries that
        fall inside the new fence window into the front heap.  If a whole
        rotation finds nothing due (the next event is more than
        nbuckets*width away), jumps straight to the bucket of the globally
        earliest entry.  Called only with ``_qcount > 0`` and an empty
        front.
        """
        if self._qcount < (self._nbuckets >> 3) \
                and self._nbuckets > _MIN_BUCKETS:
            self._resize()
            if self._front:
                return
        buckets, mask, width = self._buckets, self._mask, self._width
        front = self._front
        nbuckets = self._nbuckets
        day = self._day
        scanned = 0
        while True:
            day += 1
            bucket = buckets[day & mask]
            if bucket:
                top = (day + 1) * width
                due = [e for e in bucket if e[0] < top]
                if due:
                    if len(due) == len(bucket):
                        del bucket[:]
                    else:
                        bucket[:] = [e for e in bucket if e[0] >= top]
                    front.extend(due)
                    heapify(front)
                    self._qcount -= len(due)
                    self._day = day
                    self._ftop = top
                    return
            scanned += 1
            if scanned > nbuckets:
                # A full rotation without a due entry: jump to the bucket
                # holding the globally earliest one.
                earliest = min(m for m in (min(b) for b in buckets if b))
                day = self._bucket_index(earliest[0])
                top = (day + 1) * width
                bucket = buckets[day & mask]
                due = [e for e in bucket if e[0] < top]
                bucket[:] = [e for e in bucket if e[0] >= top]
                front.extend(due)
                heapify(front)
                self._qcount -= len(due)
                self._day = day
                self._ftop = top
                return

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none are queued."""
        if self._lane:
            return self._now
        front = self._front
        if front:
            return front[0][0]
        if self._qcount:
            return min(m for m in (min(b) for b in self._buckets if b))[0]
        return float("inf")

    def queued(self) -> list[Event]:
        """Every event still queued, in no particular order: a view for
        inspection tools, never read by the dispatch loop."""
        events = list(self._lane)
        events.extend(entry[2] for entry in self._front)
        for bucket in self._buckets:
            events.extend(entry[2] for entry in bucket)
        return events

    def step(self) -> None:
        """Process exactly one event."""
        front, lane = self._front, self._lane
        if lane and not (front and front[0][0] <= self._now):
            event = lane.popleft()
        else:
            if not front:
                if not self._qcount:
                    raise SimulationError("step() on an empty event queue")
                self._refill()
            when, _, event = heappop(front)
            self._now = when
        tracer = self.tracer
        if tracer.enabled and tracer.kernel_events:
            tracer.instant(self, "dispatch", "kernel",
                           {"event": type(event).__name__})
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        self.events_processed += 1
        if not event._ok and not event.defused:
            # An unhandled failure: surface it rather than losing it.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain), a float time, or an
        :class:`Event` — in the last case ``run`` returns that event's
        value (re-raising if it failed).
        """
        stop_evt: Optional[Event] = None
        if isinstance(until, Event):
            stop_evt = until
            if stop_evt.processed:
                if stop_evt.ok:
                    return stop_evt.value
                raise stop_evt.value
            stop_evt.callbacks.append(_stop_run)
            horizon = float("inf")
        elif until is None:
            horizon = float("inf")
        else:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})")

        # The dispatch loop is the simulator's hottest code: it inlines the
        # lane and ladder pops (the common case is one C deque popleft or
        # heappop), the tracer flag and the Timeout free pool, so one
        # iteration costs one queue operation, one callback sweep and two
        # flag checks.  The front and lane locals stay valid because
        # nothing rebinds them (refill/resize mutate the front in place).
        # step()/peek() remain for external single-stepping.
        tracer = self.tracer
        kernel_trace = tracer.enabled and tracer.kernel_events
        self._trace_kernel = kernel_trace
        pool = self._tpool
        pool_append = pool.append
        front = self._front
        lane = self._lane
        lane_pop = lane.popleft
        pop = heappop
        now = self._now
        processed = 0
        try:
            while True:
                if lane:
                    # A front entry due now was scheduled before the clock
                    # got here, so before every lane entry.
                    if front and front[0][0] <= now:
                        event = pop(front)[2]
                    else:
                        event = lane_pop()
                else:
                    if front:
                        entry = pop(front)
                    elif self._qcount:
                        self._refill()
                        entry = pop(front)
                    else:
                        break
                    when = entry[0]
                    if when > horizon:
                        # Not due within this run: put it back and stop.
                        heappush(front, entry)
                        break
                    event = entry[2]
                    entry = None
                    self._now = now = when
                if kernel_trace:
                    tracer.instant(self, "dispatch", "kernel",
                                   {"event": type(event).__name__})
                callbacks, event.callbacks = event.callbacks, None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
                processed += 1
                if event.__class__ is Timeout:
                    # Timeouts are born succeeded, so the failure check is
                    # skipped.  Recycle when nobody can still observe this
                    # event (the two refs are our local and getrefcount's
                    # argument) — the pool reuses object and callback list.
                    if getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                        del callbacks[:]
                        event.callbacks = callbacks
                        pool_append(event)
                elif not event._ok and not event.defused:
                    # An unhandled failure: surface it rather than losing it.
                    raise event._value
        except StopSimulation:
            # The stop event's callbacks added after this run began (a
            # process that yielded it meanwhile) come after _stop_run:
            # run them now, in order, as the rest of its dispatch.  The
            # dispatch stays uncounted, as it always was.
            for cb in callbacks[callbacks.index(_stop_run) + 1:]:
                cb(event)
        finally:
            self.events_processed += processed
            if stop_evt is not None and stop_evt.callbacks is not None:
                # Leaving before the stop event fired (the queue drained
                # or a failure escaped): a later run must not stop there.
                stop_evt.callbacks.remove(_stop_run)
        if horizon != float("inf") and self._now < horizon:
            self._now = horizon
        if stop_evt is not None:
            if not stop_evt.triggered:
                raise SimulationError(
                    "run(until=event): queue drained but event never fired")
            if stop_evt.ok:
                return stop_evt.value
            stop_evt.defused = True
            raise stop_evt.value
        return None


def _stop_run(evt: Event) -> None:
    """The callback :meth:`Simulator.run` appends to its stop event."""
    raise StopSimulation


# process.py subclasses Event and imports this module, so its classes are
# bound here, once, after everything they need is defined (not per spawn)
from repro.sim.process import AllOf, Process  # noqa: E402
