"""One observability session: build a run's engines, install, restore.

Simulators take the tracer, telemetry engine and event log installed
when they are created, from the one slot :func:`engines` reads.
:class:`ObsSession` is the one place that builds those engines, wires
them together, installs them and puts the previous ones back: the CLI's
observability flags, ``repro record``/``serve``/``whatif`` and ``repro
chaos`` all run through it.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.recorder import collecting, start_collection, \
    stop_collection
from repro.obs.eventlog import NULL_EVENTLOG, EventLog
from repro.obs.timeseries import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer

_NULL_ENGINES = (NULL_TRACER, NULL_TELEMETRY, NULL_EVENTLOG)
#: the installed (tracer, telemetry, event log)
_engines = _NULL_ENGINES


def engines() -> tuple:
    """The installed (tracer, telemetry engine, event log) a simulator
    built now takes: the ``NULL_*`` ones outside every session."""
    return _engines


class ObsSession:
    """Build only the engines a run asks for and install them for the
    simulators created inside the ``with`` block::

        with ObsSession(trace=True, interval_s=0.5, events="debug") as obs:
            run_the_workload()
        obs.telemetry.write_csv("run.csv")

    ``trace`` builds a tracer (``kernel_events``: one instant per kernel
    event); ``interval_s`` a telemetry engine and ``events`` an event log
    at that level, sharing the telemetry's run numbering (or pass built
    ones as ``telemetry``/``eventlog``).  ``audit`` ``"warn"``/``"raise"``
    builds an auditor on the event log; with ``sample_audit`` it runs at
    every sample point, otherwise the caller hands it on (to the
    nemesis).  ``slo`` feeds the tracer's span ends to an SLI collector
    (sketch error ``alpha``) and an SLO engine the sampler evaluates.
    ``collect`` keeps the run's recorders alive in ``recorders``.

    A normal exit finalizes the telemetry (last sample, teardown audit:
    :class:`~repro.obs.audit.AuditError` in raise mode); every exit
    reinstalls the previous engines and ends the recorder collection.
    """

    def __init__(self, *, trace: bool = False, kernel_events: bool = False,
                 interval_s: Optional[float] = None, telemetry=None,
                 events: Optional[str] = None, eventlog=None,
                 audit: str = "off", sample_audit: bool = False,
                 slo: bool = False, alpha: float = 0.01,
                 collect: bool = False):
        if telemetry is None and interval_s is not None:
            telemetry = Telemetry(interval_s=interval_s)
        if telemetry is None and (slo or sample_audit and audit != "off"):
            raise ValueError("sample audits and slo need telemetry "
                             "(interval_s or telemetry)")
        if eventlog is None and events is not None:
            eventlog = EventLog(level=events, telemetry=telemetry)
        self.telemetry = telemetry
        self.eventlog = eventlog
        self.auditor = None
        if audit != "off":
            from repro.obs.audit import Auditor
            self.auditor = Auditor(mode=audit, eventlog=eventlog)
            if sample_audit:
                telemetry.auditor = self.auditor
        self.tracer = (Tracer(kernel_events=kernel_events)
                       if trace or slo else None)
        self.sli = self.slo = None
        if slo:
            from repro.obs.slo import SliCollector, SloEngine, attach_sli
            self.sli = SliCollector(alpha=alpha)
            attach_sli(self.tracer, self.sli)
            self.slo = SloEngine(sli=self.sli, eventlog=eventlog)
            self.sli.engine = self.slo
            telemetry.slo = self.slo
        self.collect = collect
        self.recorders: Optional[list] = None
        self._previous = None

    def __enter__(self) -> "ObsSession":
        global _engines
        self._previous = _engines
        _engines = tuple(
            old if new is None else new for old, new in
            zip(_engines, (self.tracer, self.telemetry, self.eventlog)))
        if self.collect:
            self.recorders = start_collection()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _engines
        try:
            if exc_type is None and self.telemetry is not None:
                self.telemetry.finalize()
        finally:
            _engines = self._previous
            if self.collect:
                stop_collection(self.recorders)


def observing() -> bool:
    """Whether a tracer, telemetry engine, event log or recorder
    collection is installed: what a worker process would fill in its
    own copy of the parent's memory, and lose."""
    return (any(engine is not null
                for engine, null in zip(_engines, _NULL_ENGINES))
            or collecting())
