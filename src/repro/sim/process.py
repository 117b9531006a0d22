"""Generator-based processes and condition events for the DES kernel.

A *process* is a Python generator that yields :class:`~repro.sim.kernel.Event`
objects; the kernel resumes it with the event's value (or throws the event's
exception into it).  A process is itself an event that fires when the
generator returns, so processes can wait on each other.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.kernel import _PENDING, Event, Simulator


class Process(Event):
    """Wraps a generator and drives it through the event loop.

    The process event succeeds with the generator's return value, or fails
    with the exception that escaped the generator.  Failures propagate: if
    no other process is waiting on a failed process, the simulator's run
    loop raises the exception, so component crashes are never silent.
    """

    __slots__ = ("_generator", "_target", "pid", "trace_parent", "_rcb")

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any]):
        if generator.__class__ is not GeneratorType \
                and not hasattr(generator, "send"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        # A process is spawned per request and per message, so this
        # process and its bootstrap are built field by field, without
        # Event.__init__.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self._generator: Optional[Generator] = generator
        sim._pid_counter = pid = sim._pid_counter + 1
        #: deterministic serial number; doubles as the trace track (tid)
        self.pid: int = pid
        #: span open in the spawning process at creation time — the
        #: causal parent for this process's own root spans
        tracer = sim.tracer
        self.trace_parent: int = (
            tracer.current_parent(sim) if tracer.enabled else 0)
        #: cached bound method — appended once per resume on the hot path,
        #: so we pay the bound-method allocation a single time.  It refers
        #: back to this process, so every path that ends the generator
        #: clears it: a finished process then dies by reference counting
        #: instead of waiting as cyclic garbage for the collector.
        self._rcb = rcb = self._resume
        # Bootstrap: resume the generator at time now (after the caller's
        # current callback finishes), mirroring SimPy's Initialize event.
        init = Event.__new__(Event)
        init.sim = sim
        init.callbacks = [rcb]
        init._ok = True
        init._value = None
        init.defused = False
        sim._lane.append(init)
        self._target: Optional[Event] = init

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._generator is not None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process is detached from whatever event it was waiting on; that
        event firing later will not resume it.  Interrupting a terminated
        process is an error (matching SimPy semantics).
        """
        if self._generator is None:
            raise SimulationError("cannot interrupt a terminated process")
        inter = Event(self.sim)
        inter._ok = False
        inter._value = Interrupt(cause)
        inter.callbacks.append(self._deliver_interrupt)
        self.sim._lane.append(inter)

    def _deliver_interrupt(self, event: Event) -> None:
        """Detach from the current wait target and throw the interrupt.

        Detaching happens at *delivery* time, not at :meth:`interrupt` call
        time — the process may have been bootstrapped or re-targeted by
        same-timestamp events in between.
        """
        event.defused = True
        if self._generator is None:
            return  # terminated before delivery
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._rcb)
            except ValueError:
                pass
        self._resume(event)

    # -- kernel callback ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        if not event._ok:
            event.defused = True  # this process consumes the exception
        generator = self._generator
        if generator is None:
            return  # raced with termination (e.g. double interrupt)
        self._target = None
        sim = self.sim
        prev_active = sim.active_process
        sim.active_process = self
        if sim._trace_kernel:
            sim.tracer.instant(sim, "wakeup", "kernel", {"pid": self.pid})
        try:
            if event._ok:
                nxt = generator.send(event._value)
            else:
                nxt = generator.throw(event._value)
        except StopIteration as stop:
            self._generator = self._rcb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._generator = self._rcb = None
            # The traceback's first entry is this frame, whose locals hold
            # this process, which will hold the exception: drop the entry
            # (the generator's own frames stay) so no cycle forms.
            exc.__traceback__ = exc.__traceback__.tb_next
            self.fail(exc)
            return
        finally:
            sim.active_process = prev_active

        # Duck-typed on the hot path: a yielded Event always has a
        # ``callbacks`` attribute, so the common case pays no isinstance.
        try:
            cbs = nxt.callbacks
        except AttributeError:
            cbs = None
            nxt_is_event = isinstance(nxt, Event)
        else:
            nxt_is_event = True
        if not nxt_is_event:
            self._generator = self._rcb = None
            self.fail(SimulationError(
                f"process yielded a non-event: {nxt!r}"))
            return
        if cbs is None:
            # Already processed: redeliver its outcome on a fresh event so
            # the process resumes on the next scheduler step.
            proxy = Event(sim)
            proxy._ok = nxt._ok
            proxy._value = nxt._value
            sim._lane.append(proxy)
            nxt = proxy
            cbs = proxy.callbacks
        cbs.append(self._rcb)
        self._target = nxt


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`.

    Every pending child carries one callback, this condition's bound
    :meth:`_child_done`, which finds the child's index by identity in
    ``_events``.  Once the condition triggers it takes that callback back
    from every child still pending, so a losing child (the timeout of a
    timed receive) holds nothing of it: the condition, its value and the
    reply that value carries die when the waiter resumes, not when the
    loser fires.  A loser that fails later has no callback, so the run
    loop raises its failure, as for any event nobody waits on.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, sim: Simulator, events: list[Event]):
        # One is built per timed receive, so field by field, like Process.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self._events = events
        self._done = 0
        if not events:
            self.succeed(self._finish_value())
            return
        child_done = self._child_done
        for evt in events:
            cbs = evt.callbacks
            if cbs is not None:
                cbs.append(child_done)
            else:
                child_done(evt)
                if self._events is None:
                    return  # triggered: wait on no later child

    def _child_done(self, evt: Event) -> None:
        if self._value is not _PENDING:
            return  # a child listed twice, firing after its first entry
        if not evt._ok:
            evt.defused = True
            self.fail(evt._value)
        else:
            self._done += 1
            self._on_child(evt)
            if self._value is _PENDING:
                return
        done = self._child_done
        for child in self._events:
            cbs = child.callbacks
            if cbs is not None:
                try:
                    cbs.remove(done)
                except ValueError:
                    pass  # listed after the child it triggered on when built
        self._events = None

    def _on_child(self, evt: Event) -> None:  # pragma: no cover
        raise NotImplementedError

    def _finish_value(self) -> Any:  # pragma: no cover
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, this condition fails with that child's exception.
    """

    __slots__ = ()

    def _on_child(self, evt: Event) -> None:
        if self._done == len(self._events):
            self.succeed(self._finish_value())

    def _finish_value(self) -> list[Any]:
        return [e._value for e in self._events]


class AnyOf(_Condition):
    """Fires when the first child fires; value is ``(index, value)``."""

    __slots__ = ()

    def _on_child(self, evt: Event) -> None:
        # Events compare by identity, so index() finds this very child.
        self.succeed((self._events.index(evt), evt._value))

    def _finish_value(self) -> Any:
        return None
