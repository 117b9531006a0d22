"""Structured event log: discrete lifecycle events of the simulated cluster.

Where the tracer records *intervals* and the telemetry engine records
*state*, the event log records *transitions*: a node going idle or being
reclaimed, a region placed / freed / found stale, a NIC going down, the
bulk fast path engaging or falling back.  Events carry a level, a
component, an optional host, and free-form (JSON-serializable) fields;
per-component filtering and a level threshold keep the log focused.

Like the tracer and telemetry engine, it is installed by an
:class:`~repro.obs.session.ObsSession`, off by default
(:data:`NULL_EVENTLOG`), free when off (emit sites guard with
``sim.eventlog.enabled``), and strictly deterministic: an event's time
is the virtual clock, its ordering is the emission order, and the JSONL
export is byte-identical across seeded runs (enforced by
``tests/obs/test_telemetry_determinism.py``).
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.obs.files import atomic_write

#: severity order; emit() rejects anything else
LEVELS = {"debug": 10, "info": 20, "warn": 30, "error": 40}


class LogEvent:
    """One recorded transition."""

    __slots__ = ("run", "time", "seq", "level", "component", "host",
                 "event", "fields")

    def __init__(self, run: int, time: float, seq: int, level: str,
                 component: str, host: str, event: str, fields: dict):
        self.run = run
        self.time = time
        self.seq = seq
        self.level = level
        self.component = component
        self.host = host
        self.event = event
        self.fields = fields

    def to_dict(self) -> dict:
        d = {"run": self.run, "t": self.time, "seq": self.seq,
             "level": self.level, "component": self.component,
             "event": self.event}
        if self.host:
            d["host"] = self.host
        if self.fields:
            d["fields"] = self.fields
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LogEvent #{self.seq} t={self.time} {self.level} "
                f"{self.component}/{self.event}>")


class EventLog:
    """Collects :class:`LogEvent` records from one or more simulators.

    ``level`` is the minimum severity recorded; ``components`` (a set of
    component names, or None for all) restricts recording further.
    ``telemetry`` may be a :class:`~repro.obs.timeseries.Telemetry` so
    both subsystems agree on run numbering; without one the log assigns
    its own 1-based ids in first-emission order.
    """

    def __init__(self, level: str = "info",
                 components: Optional[set] = None,
                 telemetry=None):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}, "
                             f"expected one of {sorted(LEVELS)}")
        self.enabled = True
        self.level = level
        self.threshold = LEVELS[level]
        self.components = set(components) if components is not None else None
        self.telemetry = telemetry
        self.events: list[LogEvent] = []
        self._seq = 0
        self._run_ids: dict[object, int] = {}

    def _run_id(self, sim) -> int:
        if self.telemetry is not None and self.telemetry.enabled:
            return self.telemetry.run_id(sim)
        return self._run_ids.setdefault(sim, len(self._run_ids) + 1)

    # -- recording ---------------------------------------------------------
    def emit(self, sim, level: str, component: str, event: str,
             host: str = "", **fields) -> Optional[LogEvent]:
        """Record one event at the current virtual time.

        Returns the record, or None when filtered out.  Field values must
        be JSON-serializable and derived from simulated state only.
        """
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown level {level!r}")
        if severity < self.threshold:
            return None
        if self.components is not None and component not in self.components:
            return None
        self._seq += 1
        record = LogEvent(self._run_id(sim), sim.now, self._seq, level,
                          component, host, event, fields)
        self.events.append(record)
        return record

    def debug(self, sim, component, event, host="", **fields):
        return self.emit(sim, "debug", component, event, host, **fields)

    def info(self, sim, component, event, host="", **fields):
        return self.emit(sim, "info", component, event, host, **fields)

    def warn(self, sim, component, event, host="", **fields):
        return self.emit(sim, "warn", component, event, host, **fields)

    def error(self, sim, component, event, host="", **fields):
        return self.emit(sim, "error", component, event, host, **fields)

    # -- inspection --------------------------------------------------------
    def select(self, component: Optional[str] = None,
               event: Optional[str] = None,
               min_level: str = "debug") -> list[LogEvent]:
        threshold = LEVELS[min_level]
        return [e for e in self.events
                if LEVELS[e.level] >= threshold
                and (component is None or e.component == component)
                and (event is None or e.event == event)]

    def query(self, component: Optional[str] = None,
              level: str = "debug",
              since: Optional[float] = None,
              until: Optional[float] = None,
              event: Optional[str] = None,
              host: Optional[str] = None,
              run: Optional[int] = None,
              limit: Optional[int] = None) -> list[LogEvent]:
        """Read API over the recorded events (the dashboard endpoints
        are built on this).

        ``level`` is a minimum severity; ``since``/``until`` bound the
        virtual time (inclusive, half-open on ``until``); ``component``,
        ``event``, ``host`` and ``run`` filter exactly; ``limit`` keeps
        only the *last* N matches (the tail, as an operator would want).
        Events come back in emission order.
        """
        threshold = LEVELS.get(level)
        if threshold is None:
            raise ValueError(f"unknown level {level!r}, "
                             f"expected one of {sorted(LEVELS)}")
        out = [e for e in self.events
               if LEVELS[e.level] >= threshold
               and (component is None or e.component == component)
               and (event is None or e.event == event)
               and (host is None or e.host == host)
               and (run is None or e.run == run)
               and (since is None or e.time >= since)
               and (until is None or e.time < until)]
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def counts(self) -> dict[str, int]:
        """Event counts keyed by ``component/event``, sorted."""
        out: dict[str, int] = {}
        for e in self.events:
            key = f"{e.component}/{e.event}"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def clear(self) -> None:
        self.events.clear()
        self._seq = 0
        self._run_ids.clear()

    # -- export ------------------------------------------------------------
    def dump_jsonl(self, fp: IO[str]) -> int:
        for e in self.events:
            json.dump(e.to_dict(), fp, sort_keys=True,
                      separators=(",", ":"))
            fp.write("\n")
        return len(self.events)

    def write_jsonl(self, path: str) -> int:
        """Atomically write one JSON object per line; returns the count."""
        with atomic_write(path) as fp:
            return self.dump_jsonl(fp)

    def format_text(self, last: Optional[int] = None) -> str:
        """Human-readable tail of the log (all events when ``last`` is
        None), one ``[t] LEVEL component/event host k=v`` line each."""
        events = self.events if last is None else self.events[-last:]
        lines = []
        for e in events:
            extras = " ".join(f"{k}={v}" for k, v in e.fields.items())
            host = f" {e.host}" if e.host else ""
            lines.append(f"[{e.time:12.3f}] {e.level.upper():5s} "
                         f"{e.component}/{e.event}{host}"
                         + (f" {extras}" if extras else ""))
        return "\n".join(lines)


class _NullEventLog(EventLog):
    """The shared do-nothing log: ``enabled`` is False, ``emit`` is inert."""

    def __init__(self):
        super().__init__(level="error")
        self.enabled = False

    def emit(self, sim, level, component, event, host="", **fields):  # noqa: ARG002
        return None


#: the default, disabled log every Simulator starts with
NULL_EVENTLOG = _NullEventLog()
