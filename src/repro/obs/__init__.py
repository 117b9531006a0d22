"""Observability: tracing, telemetry, event log, invariant audit, dashboard.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and workflows.  The
usual entry points:

* :class:`ObsSession` — build, install and restore the engines one run
  asks for (the CLI's flags, ``repro record``/``whatif``/``chaos``);
  simulators built inside it take its :class:`Tracer`,
  :class:`Telemetry` and :class:`EventLog`.
* :func:`write_chrome_trace` — Perfetto-viewable trace-event JSON.
* :func:`fetch_breakdown` / :func:`format_fetch_breakdown` — per-layer
  latency decomposition of ``mread``/``mwrite`` (the paper's Tables 3/4).
* :func:`snapshot` / :func:`write_snapshot` — diffable per-run metrics.
* :class:`Telemetry` — virtual-time sampling of cluster state into typed
  time series (``--telemetry-out``, ``repro top``).
* :class:`EventLog` — structured lifecycle events with levels and
  filtering (``--events-out``).
* :class:`Auditor` — online cross-component invariant checking
  (``--audit warn|raise``).
* :func:`render_dashboard` — the ``repro top`` ASCII view.
* :func:`build_fleet_view` / :func:`build_run_view` — the shared render
  model behind ``repro top`` and the web fleet dashboard (``repro
  serve``); recording, insights and what-if replay live in
  :mod:`repro.obs.fleet` (kept out of this namespace: they import the
  experiment stack).
"""

from repro.obs.audit import AuditError, Auditor, Finding
from repro.obs.breakdown import (COMPONENT_LAYER, LAYER_ORDER,
                                 fetch_breakdown, format_fetch_breakdown,
                                 layer_of)
from repro.obs.dashboard import pick_run, render_dashboard, render_run
from repro.obs.eventlog import NULL_EVENTLOG, EventLog, LogEvent
from repro.obs.export import chrome_trace, dump_chrome_trace, \
    write_chrome_trace
from repro.obs.files import atomic_write
from repro.obs.fleet.model import (ActivityRow, HostView, RunView,
                                   SeriesView, build_fleet_view,
                                   build_run_view)
from repro.obs.session import ObsSession
from repro.obs.snapshot import dump_snapshot, merged_snapshot, \
    recorder_snapshot, snapshot, write_snapshot
from repro.obs.timeseries import NULL_TELEMETRY, GaugeSeries, RunTelemetry, \
    Telemetry
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "ActivityRow",
    "AuditError",
    "Auditor",
    "COMPONENT_LAYER",
    "EventLog",
    "Finding",
    "GaugeSeries",
    "HostView",
    "LAYER_ORDER",
    "LogEvent",
    "NULL_EVENTLOG",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "ObsSession",
    "RunTelemetry",
    "RunView",
    "SeriesView",
    "Span",
    "Telemetry",
    "Tracer",
    "atomic_write",
    "build_fleet_view",
    "build_run_view",
    "chrome_trace",
    "dump_chrome_trace",
    "dump_snapshot",
    "fetch_breakdown",
    "format_fetch_breakdown",
    "layer_of",
    "merged_snapshot",
    "pick_run",
    "recorder_snapshot",
    "render_dashboard",
    "render_run",
    "snapshot",
    "write_chrome_trace",
    "write_snapshot",
]
