"""Queueing primitives: counting resources and FIFO / priority stores.

These model contended hardware (a disk arm, a NIC TX engine) and message
queues between daemons.  All wait lists are strictly FIFO so simulations are
deterministic.

Every host owns several of these and most never queue anything, so a
wait list is ``None`` until its first entry and a ``deque`` from then on
(an empty ``deque`` is 760 B on 64-bit CPython).  A store's parked gets
go further: a daemon's socket spends its life with one get parked, so a
lone parked get sits in the slot itself and the deque is built for a
second.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Optional

from repro.sim.errors import SimulationError
from repro.sim.kernel import _PENDING, Event, Simulator


class Resource:
    """A counting semaphore with FIFO granting.

    Usage from a process::

        yield disk.acquire()
        try:
            ...  # hold the resource
        finally:
            disk.release()
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Optional[deque[Event]] = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters or ())

    @property
    def idle(self) -> bool:
        """True when :meth:`try_acquire` would take a unit now: one is
        free and the wait queue is empty (a queue holding only cancelled
        waiters still counts as busy)."""
        return self._in_use < self.capacity and not self._waiters

    def try_acquire(self) -> bool:
        """Take a unit now if :attr:`idle`, without an event; returns
        whether it was taken.  Give it back with :meth:`release`.  The
        fast paths reserve an engine or the disk arm this way."""
        if self._in_use < self.capacity and not self._waiters:  # idle
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Event:
        """Event that fires once a unit of the resource is granted."""
        # Built without Event.__init__, like Store's events: these are
        # per-message events on the network and disk paths.
        sim = self.sim
        evt = Event.__new__(Event)
        evt.sim = sim
        evt.callbacks = []
        evt.defused = False
        if self._in_use < self.capacity:
            self._in_use += 1
            evt._ok = True
            evt._value = None
            sim._lane.append(evt)
        else:
            evt._ok = None
            evt._value = _PENDING
            if self._waiters is None:
                self._waiters = deque()
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        """Return one unit; grants the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if waiter.triggered:  # cancelled
                continue
            waiter.succeed()
            return
        self._in_use -= 1

    def cancel(self, evt: Event) -> bool:
        """Withdraw a pending acquire; returns True if it was still queued."""
        waiters = self._waiters
        if waiters and evt in waiters:
            waiters.remove(evt)
            return True
        return False


class Store:
    """An unbounded-or-bounded FIFO queue of arbitrary items.

    ``put`` returns an event that fires when the item is accepted (always
    immediately for unbounded stores); ``get`` returns an event whose value
    is the item.  Daemons receive their network messages and control
    messages ("poison pills") through stores.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        # Queued items, parked gets (one parked get is held bare) and
        # blocked puts (only a bounded store ever blocks one); see the
        # module docstring.
        self._items: Optional[deque[Any]] = None
        self._getters: Optional[Event | deque[Event]] = None
        self._putters: Optional[deque[tuple[Event, Any]]] = None

    def __len__(self) -> int:
        return len(self._items or ())

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (read-only view for tests/metrics)."""
        return tuple(self._items or ())

    def put(self, item: Any) -> Event:
        sim = self.sim
        evt = Event.__new__(Event)
        evt.sim = sim
        evt.callbacks = []
        evt.defused = False
        getter = self._next_getter()
        if getter is not None:
            getter.succeed(item)
        else:
            items = self._items
            if items is None:
                items = self._items = deque()
            if len(items) < self.capacity:
                items.append(item)
            else:
                evt._ok = None
                evt._value = _PENDING
                self._putter_queue().append((evt, item))
                return evt
        evt._ok = True
        evt._value = None
        sim._lane.append(evt)
        return evt

    def get(self) -> Event:
        sim = self.sim
        evt = Event.__new__(Event)
        evt.sim = sim
        evt.callbacks = []
        evt.defused = False
        items = self._items
        if items:
            evt._ok = True
            evt._value = items.popleft()
            sim._lane.append(evt)
            if self._putters:
                self._admit_putter()
        else:
            evt._ok = None
            evt._value = _PENDING
            self._park(evt)
        return evt

    def take(self) -> Optional[tuple[Event, Any]]:
        """Take the oldest queued item now, without parking a get:
        ``(get, item)`` with ``get`` already triggered with ``item`` (it
        fires on the next dispatch, like any :meth:`get`), or ``None``
        when the store is empty."""
        if not self._items:
            return None
        evt = self.get()
        return evt, evt._value

    def cancel(self, evt: Event) -> bool:
        """Withdraw a pending get; returns True if it was still queued."""
        getters = self._getters
        if getters is evt:
            self._getters = None
            return True
        if getters.__class__ is deque and evt in getters:
            getters.remove(evt)
            return True
        return False

    # -- internals ----------------------------------------------------------
    def _park(self, evt: Event) -> None:
        getters = self._getters
        if getters is None:
            self._getters = evt
        elif getters.__class__ is deque:
            getters.append(evt)
        else:
            self._getters = deque((getters, evt))

    def _putter_queue(self) -> deque[tuple[Event, Any]]:
        if self._putters is None:
            self._putters = deque()
        return self._putters

    def _next_getter(self) -> Optional[Event]:
        getters = self._getters
        if getters is None:
            return None
        if getters.__class__ is not deque:
            self._getters = None
            return None if getters.triggered else getters
        while getters:
            getter = getters.popleft()
            if not getter.triggered:
                return getter
        return None

    def _admit_putter(self) -> None:
        if self._putters and len(self._items) < self.capacity:
            evt, item = self._putters.popleft()
            self._items.append(item)
            evt.succeed()


class PriorityStore(Store):
    """A store that hands out the smallest item first.

    Heap entries are ``(key, seq, item)`` triples: ``key`` is the sort key
    (``key(item)``, or the item itself by default), ``seq`` a unique
    insertion serial.  Because ``seq`` never ties, comparison is always
    decided by ``(key, seq)`` and the item itself is **never** compared —
    so equal-priority items need not be orderable, and ties remain strictly
    FIFO.  Pass ``key=`` to store non-comparable payloads (e.g. messages
    prioritized by an integer field); the default identity key requires
    the items themselves to be orderable.
    """

    __slots__ = ("_heap", "_seq", "_key")

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 key: Optional[Any] = None):
        super().__init__(sim, capacity)
        self._heap: list[tuple[Any, int, Any]] = []
        self._seq = itertools.count()
        self._key = key if key is not None else lambda item: item

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> tuple:
        # sorted() compares (key, seq) only — seq is unique, so the
        # comparison never recurses into the items.
        return tuple(item for _, _, item in sorted(self._heap))

    def put(self, item: Any) -> Event:
        evt = Event(self.sim)
        getter = self._next_getter()
        if getter is not None and not self._heap:
            getter.succeed(item)
            evt.succeed()
            return evt
        if getter is not None:
            # Keep ordering: push then pop the minimum for the getter.
            heapq.heappush(self._heap,
                           (self._key(item), next(self._seq), item))
            _, _, smallest = heapq.heappop(self._heap)
            getter.succeed(smallest)
            evt.succeed()
            return evt
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap,
                           (self._key(item), next(self._seq), item))
            evt.succeed()
        else:
            self._putter_queue().append((evt, item))
        return evt

    def get(self) -> Event:
        evt = Event(self.sim)
        if self._heap:
            _, _, item = heapq.heappop(self._heap)
            evt.succeed(item)
            if self._putters and len(self._heap) < self.capacity:
                pevt, pitem = self._putters.popleft()
                heapq.heappush(self._heap,
                               (self._key(pitem), next(self._seq), pitem))
                pevt.succeed()
        else:
            self._park(evt)
        return evt

    def take(self) -> Optional[tuple[Event, Any]]:
        if not self._heap:
            return None
        evt = self.get()
        return evt, evt._value
