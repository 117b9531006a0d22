"""Span-based tracing in virtual time.

Every layer of the simulated Dodo stack (runtime library, RPC, bulk
protocol, central manager, idle memory daemons, disk, page cache) can
record *spans*: named intervals of virtual time with a component label,
free-form tags, and causal links.  Causality comes from two sources:

* spans opened on the same *track* (one track per simulated process)
  nest — a span begun while another is open becomes its child;
* a process spawned while a span is open inherits that span as the
  parent for its own root spans, so a request that fans out into helper
  processes (an ``mread``'s receiver and RPC racers, an RPC server's
  per-request handler) keeps its causal chain.

Tracing must cost ~nothing when off: components hold a reference to the
simulator's tracer and guard every call with ``tracer.enabled`` (a plain
attribute read).  The default tracer is the shared :data:`NULL_TRACER`
whose ``enabled`` is False; an :class:`~repro.obs.session.ObsSession`
installs a live tracer for simulators created inside it (the CLI's
``--trace-out`` does this).

The tracer is deliberately ignorant of wall-clock time and of any other
nondeterministic input, so a traced run of a seeded experiment produces
a byte-identical export every time — that property is enforced by a
regression test.
"""

from __future__ import annotations

import sys
from typing import Any, Optional


class Span:
    """One named interval of virtual time on one track."""

    __slots__ = ("span_id", "parent_id", "name", "component", "track",
                 "start", "end", "tags")

    def __init__(self, span_id: int, parent_id: int, name: str,
                 component: str, track: int, start: float,
                 tags: Optional[dict] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.track = track
        self.start = start
        #: None while the span is open; set by :meth:`Tracer.end`
        self.end: Optional[float] = None
        self.tags: Optional[dict] = tags

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def tag(self, key: str, value: Any) -> None:
        if self.tags is None:
            self.tags = {}
        self.tags[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span #{self.span_id} {self.component}/{self.name} "
                f"[{self.start}, {self.end}]>")


class Tracer:
    """Collects spans and instant events from one or more simulators.

    The tracer never reads wall-clock time or random state; all times
    come from the simulator's virtual clock, so traces are deterministic.
    ``kernel_events=True`` additionally records one instant event per
    scheduler dispatch and process wakeup — very detailed and very
    large, off by default even when tracing.
    """

    def __init__(self, enabled: bool = True, kernel_events: bool = False):
        self.enabled = enabled
        self.kernel_events = kernel_events
        #: all spans in begin order (instants have ``end == start``)
        self.spans: list[Span] = []
        #: optional span-end observer (``on_span_end(sim, span)``) — the
        #: SLI collector (:mod:`repro.obs.slo.sli`) attaches here; None
        #: costs one attribute read per span end
        self.sink = None
        self._next_id = 0
        #: open-span stacks keyed by track (simulated-process id)
        self._stacks: dict[int, list[Span]] = {}

    # -- context --------------------------------------------------------------
    @staticmethod
    def _track_of(sim) -> int:
        proc = getattr(sim, "active_process", None)
        return proc.pid if proc is not None else 0

    def current_parent(self, sim) -> int:
        """The span id new work started *now* should be parented to:
        the innermost open span of the running process, falling back to
        the span that was open when the process itself was spawned."""
        proc = getattr(sim, "active_process", None)
        track = proc.pid if proc is not None else 0
        stack = self._stacks.get(track)
        if stack:
            return stack[-1].span_id
        return proc.trace_parent if proc is not None else 0

    # -- recording ------------------------------------------------------------
    def begin(self, sim, name: str, component: str,
              tags: Optional[dict] = None) -> Span:
        """Open a span at the current virtual time on the current track."""
        proc = getattr(sim, "active_process", None)
        track = proc.pid if proc is not None else 0
        stack = self._stacks.setdefault(track, [])
        if stack:
            parent = stack[-1].span_id
        else:
            parent = proc.trace_parent if proc is not None else 0
        self._next_id += 1
        span = Span(self._next_id, parent, name, component, track,
                    sim.now, tags)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, sim, span: Optional[Span],
            tags: Optional[dict] = None) -> None:
        """Close a span (idempotent; tolerates ``span=None`` so callers
        can hold None when tracing was off at begin time)."""
        if span is None or span.end is not None:
            return
        if isinstance(sys.exception(), GeneratorExit):
            # The instrumented generator is being torn down (the run
            # ended with this operation still in flight, and garbage
            # collection is closing the abandoned process).  The
            # operation never completed in virtual time, so leave the
            # span open — it exports as "unfinished".  Ending it here
            # would make the trace depend on *when* the collector runs.
            return
        span.end = sim.now
        if tags:
            for k, v in tags.items():
                span.tag(k, v)
        stack = self._stacks.get(span.track)
        if stack and span in stack:
            stack.remove(span)
        sink = self.sink
        if sink is not None:
            sink.on_span_end(sim, span)

    def instant(self, sim, name: str, component: str,
                tags: Optional[dict] = None) -> Span:
        """A zero-duration marker (exported as a Chrome instant event)."""
        span = self.begin(sim, name, component, tags)
        self.end(sim, span)
        return span

    # -- inspection -----------------------------------------------------------
    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def components(self) -> set[str]:
        return {s.component for s in self.spans}

    def clear(self) -> None:
        self.spans.clear()
        self._stacks.clear()
        self._next_id = 0


class _NullTracer(Tracer):
    """The shared do-nothing tracer: ``enabled`` is False and all
    recording methods are inert, so un-guarded calls stay safe."""

    def __init__(self):
        super().__init__(enabled=False)

    def begin(self, sim, name, component, tags=None):  # noqa: ARG002
        return None

    def end(self, sim, span, tags=None):  # noqa: ARG002
        return None

    def instant(self, sim, name, component, tags=None):  # noqa: ARG002
        return None


#: the default, disabled tracer every Simulator starts with
NULL_TRACER = _NullTracer()
