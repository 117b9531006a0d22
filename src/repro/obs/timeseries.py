"""Cluster-wide time-series telemetry sampled in virtual time.

The tracer (:mod:`repro.obs.tracer`) answers "what did one operation
do?"; this module answers "what did the *cluster* look like over the
run?" — the state-over-time view behind the paper's availability and
churn claims.  A :class:`Telemetry` engine, installed globally like the
tracer, periodically polls every registered component of every simulator
for *gauges* (donated bytes, hosted regions, free frames, cache hit
ratio, link counters, idleness state, outstanding RPCs) and records them
as typed time series with CSV/JSON export and optional downsampling.

Design rules, shared with the tracer:

* **Zero overhead when disabled.**  Every simulator starts with the
  shared :data:`NULL_TELEMETRY` (``enabled`` is False); components guard
  their registration call with ``sim.telemetry.enabled`` — a plain
  attribute read at construction time, nothing on any hot path.
* **Deterministic.**  Samples are taken at fixed virtual times, probes
  only *read* simulated state (never the wall clock, never an RNG), and
  exports iterate in registration order — two seeded runs of the same
  experiment produce byte-identical CSV/JSON files.
* **Non-perturbing.**  The sampling process adds events to the heap but
  touches no simulated state, so virtual-time results are bit-identical
  with telemetry on or off (enforced by
  ``tests/obs/test_telemetry_determinism.py``).

Components do not write probe code: they call
``sim.telemetry.register(sim, kind, name, self)`` and this module's
probe table extracts the right gauges for each ``kind`` (duck-typed, so
the simulation layers never import the observability layer).  An
optional :class:`~repro.obs.audit.Auditor` attached to the engine runs
its invariant checks at every sample point.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import IO, Callable, Iterable, Optional

from repro.obs.files import atomic_write

#: CSV header written by :meth:`Telemetry.write_csv`
CSV_HEADER = "run,time,kind,name,gauge,unit,value"


class GaugeSeries:
    """One typed time series: (virtual time, value) pairs for one gauge
    of one component instance."""

    __slots__ = ("kind", "name", "gauge", "unit", "times", "values")

    def __init__(self, kind: str, name: str, gauge: str, unit: str):
        self.kind = kind
        self.name = name
        self.gauge = gauge
        self.unit = unit
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"telemetry series {self.key} sampled backwards in time")
        self.times.append(time)
        self.values.append(float(value))

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.name, self.gauge)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> float:
        if not self.values:
            raise ValueError(f"empty telemetry series {self.key}")
        return self.values[-1]

    def minimum(self) -> float:
        return min(self.values)

    def maximum(self) -> float:
        return max(self.values)

    def window(self, since: Optional[float] = None,
               until: Optional[float] = None
               ) -> tuple[list[float], list[float]]:
        """The samples with ``since <= time < until`` (either bound may
        be None for unbounded).  Times are monotone (enforced by
        :meth:`record`), so this is a binary-search slice."""
        lo = 0 if since is None else bisect_left(self.times, since)
        hi = len(self.times) if until is None \
            else bisect_left(self.times, until)
        return self.times[lo:hi], self.values[lo:hi]

    def downsampled(self, max_points: Optional[int]
                    ) -> tuple[list[float], list[float]]:
        """Bucket-averaged copy with at most ``max_points`` samples
        (``None`` or a larger budget returns the series unchanged)."""
        n = len(self.times)
        if max_points is None or n <= max_points:
            return list(self.times), list(self.values)
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        times, values = [], []
        for i in range(max_points):
            a = i * n // max_points
            b = max(a + 1, (i + 1) * n // max_points)
            times.append(sum(self.times[a:b]) / (b - a))
            values.append(sum(self.values[a:b]) / (b - a))
        return times, values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GaugeSeries {'/'.join(self.key)} n={len(self)}>"


# ---------------------------------------------------------------------------
# Probe table: component kind -> [(gauge, unit, value), ...].
#
# Probes are pure reads of simulated state (duck-typed so the simulated
# layers never import this module) and return their gauges in a fixed
# order — both properties the determinism guarantee relies on.
# ---------------------------------------------------------------------------

def _probe_workstation(ws) -> list[tuple[str, str, float]]:
    return [
        ("mem.available_bytes", "bytes", ws.available_memory()),
        ("mem.recruitable_bytes", "bytes", ws.recruitable_memory()),
        ("mem.guest_bytes", "bytes", ws.guest_memory),
        ("mem.filecache_bytes", "bytes", ws.filecache_bytes),
        ("mem.process_bytes", "bytes", ws.mem.process),
        ("load.owner", "load", ws.load_excluding_daemons()),
        ("load.total", "load", ws.load),
        ("up", "bool", 0.0 if ws.crashed else 1.0),
    ]


def _probe_nic(nic) -> list[tuple[str, str, float]]:
    stats = nic.stats
    return [
        ("rx.bytes", "bytes", stats.count("rx.bytes")),
        ("rx.datagrams", "count", stats.count("rx.datagrams")),
        ("rx.dropped", "count",
         stats.count("rx.dropped.down")
         + stats.count("rx.dropped.no_endpoint")
         + stats.count("rx.dropped.no_port")),
        ("up", "bool", 0.0 if nic.down else 1.0),
    ]


def _probe_network(net) -> list[tuple[str, str, float]]:
    stats = net.stats
    return [
        ("tx.bytes", "bytes", stats.count("tx.bytes")),
        ("tx.datagrams", "count", stats.count("tx.datagrams")),
        ("tx.frames", "count", stats.count("tx.frames")),
        ("fastpath.transfers", "count", stats.count("fastpath.transfers")),
        ("fastpath.bytes", "bytes", stats.count("fastpath.bytes")),
        ("bulk.active", "count", len(net._bulk_tokens)),
    ]


def _probe_disk(disk) -> list[tuple[str, str, float]]:
    stats = disk.stats
    return [
        ("read.bytes", "bytes", stats.count("read.bytes")),
        ("write.bytes", "bytes", stats.count("write.bytes")),
        ("read.ops", "count", stats.count("read.ops")),
        ("write.ops", "count", stats.count("write.ops")),
        ("busy", "bool", disk.arm.in_use),
        ("queue", "count", disk.arm.queue_length),
    ]


def _probe_pagecache(cache) -> list[tuple[str, str, float]]:
    return [
        ("resident_bytes", "bytes", cache.resident_bytes),
        ("free_frames", "count",
         max(0, cache.capacity_pages - len(cache))),
        ("hits", "count", cache.stats.count("hits")),
        ("misses", "count", cache.stats.count("misses")),
        ("evictions", "count", cache.stats.count("evictions")),
        ("hit_ratio", "ratio", cache.hit_ratio()),
    ]


def _probe_manager(cmd) -> list[tuple[str, str, float]]:
    return [
        ("iwd.hosts", "count", len(cmd.iwd)),
        ("rd.regions", "count", len(cmd.rd)),
        ("rd.bytes", "bytes",
         sum(e.struct.length for e in cmd.rd.values())),
        ("clients", "count", len(cmd.clients)),
    ]


def _probe_imd(imd) -> list[tuple[str, str, float]]:
    if imd.exited:
        return [
            ("up", "bool", 0.0),
            ("pool.bytes", "bytes", 0.0),
            ("pool.used_bytes", "bytes", 0.0),
            ("pool.largest_free", "bytes", 0.0),
            ("pool.fragmentation", "ratio", 0.0),
            ("regions.hosted", "count", 0.0),
            ("transfers.active", "count", 0.0),
        ]
    alloc = imd.allocator
    return [
        ("up", "bool", 1.0),
        ("pool.bytes", "bytes", imd.pool_bytes),
        ("pool.used_bytes", "bytes", alloc.used_bytes),
        ("pool.largest_free", "bytes", alloc.largest_free()),
        ("pool.fragmentation", "ratio", alloc.fragmentation()),
        ("regions.hosted", "count", len(imd._regions)),
        ("transfers.active", "count", imd.active_transfers),
    ]


def _probe_rmd(rmd) -> list[tuple[str, str, float]]:
    return [
        ("idle_state", "state", rmd.idle_state()),
        ("recruited", "bool", 1.0 if rmd.recruited else 0.0),
        ("quiet_s", "seconds", rmd._quiet_s),
    ]


def _probe_regioncache(cache) -> list[tuple[str, str, float]]:
    states = {"local": 0, "remote": 0, "both": 0, "disk": 0}
    for region in cache.directory.values():
        states[region.state] += 1
    return [
        ("local.used_bytes", "bytes", cache._local_used),
        ("regions.open", "count", len(cache.directory)),
        ("regions.local", "count", states["local"] + states["both"]),
        ("regions.remote", "count", states["remote"] + states["both"]),
        ("regions.disk_only", "count", states["disk"]),
    ]


#: dispatch by the ``kind`` string components register under
PROBES: dict[str, Callable] = {
    "workstation": _probe_workstation,
    "nic": _probe_nic,
    "network": _probe_network,
    "disk": _probe_disk,
    "pagecache": _probe_pagecache,
    "manager": _probe_manager,
    "manager_backup": _probe_manager,
    "imd": _probe_imd,
    "rmd": _probe_rmd,
    "regionlib": _probe_regioncache,
}


class RunTelemetry:
    """All telemetry of one simulator: its components and their series."""

    def __init__(self, run_id: int, interval_s: float):
        self.run_id = run_id
        self.interval_s = interval_s
        #: (kind, name, obj) in registration order
        self.components: list[tuple[str, str, object]] = []
        self.series: dict[tuple[str, str, str], GaugeSeries] = {}
        self.samples = 0
        #: RPC calls currently in flight (client side), gauge-sampled
        self.rpc_outstanding = 0
        self.sampler = None

    def live_components(self) -> list[tuple[str, str, object]]:
        """The components to sample and audit now.  A manager registers
        once and is filed under its current ``component_kind`` (a
        promoted backup samples as ``manager``); a stopped one drops
        out."""
        out = []
        for kind, name, obj in self.components:
            if kind == "manager":
                kind = obj.component_kind
                if kind is None:
                    continue
            out.append((kind, name, obj))
        return out

    def objects(self, kind: str) -> list[tuple[str, object]]:
        """Registered (name, obj) pairs of one kind, registration order."""
        return [(n, o) for k, n, o in self.components if k == kind]

    def names(self, kind: str) -> list[str]:
        """Component names of one kind, registration order.

        Falls back to the recorded series keys when no component objects
        are attached — the case for runs rehydrated from a run directory
        (:mod:`repro.obs.fleet.store`), whose JSON export carries series
        but not the live objects behind them.
        """
        if self.components:
            return [n for k, n, _o in self.components if k == kind]
        out: list[str] = []
        for k, n, _g in self.series:  # dict: first-recorded order
            if k == kind and n not in out:
                out.append(n)
        return out

    def kinds(self) -> list[str]:
        """Every component kind with at least one series, first-seen."""
        out: list[str] = []
        for k, _n, _g in self.series:
            if k not in out:
                out.append(k)
        return out

    def select(self, kind: Optional[str] = None,
               name: Optional[str] = None,
               gauge: Optional[str] = None) -> list["GaugeSeries"]:
        """Read API: every series matching the given filters (None
        matches anything), in recording order."""
        return [s for s in self.series.values()
                if (kind is None or s.kind == kind)
                and (name is None or s.name == name)
                and (gauge is None or s.gauge == gauge)]

    def record(self, kind: str, name: str, gauge: str, unit: str,
               time: float, value: float) -> None:
        key = (kind, name, gauge)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = GaugeSeries(kind, name, gauge, unit)
        series.record(time, value)

    def get(self, kind: str, name: str, gauge: str
            ) -> Optional[GaugeSeries]:
        return self.series.get((kind, name, gauge))

    def duration_s(self) -> float:
        spans = [(s.times[0], s.times[-1])
                 for s in self.series.values() if s.times]
        if not spans:
            return 0.0
        return max(b for _, b in spans) - min(a for a, _ in spans)


class Telemetry:
    """The sampling engine: one per traced *process run*, many simulators.

    Install it like a tracer (:class:`~repro.obs.session.ObsSession`);
    every simulator created inside the session carries it as
    ``sim.telemetry``, components register themselves at construction,
    and a per-simulator sampling process polls all registered probes
    every ``interval_s`` of virtual time.  ``auditor`` (an
    :class:`~repro.obs.audit.Auditor`) is invoked at every
    ``audit_every``-th sample point and at :meth:`finalize`.
    """

    def __init__(self, interval_s: float = 1.0,
                 max_samples: int = 200_000,
                 auditor=None, audit_every: int = 1):
        if interval_s <= 0:
            raise ValueError(f"sample interval must be > 0, got {interval_s}")
        if audit_every < 1:
            raise ValueError(f"audit_every must be >= 1, got {audit_every}")
        self.enabled = True
        self.interval_s = interval_s
        #: hard cap per run so a drain-forever simulation cannot grow the
        #: series without bound; the sampler stops (and notes it) there
        self.max_samples = max_samples
        self.auditor = auditor
        self.audit_every = audit_every
        #: optional :class:`~repro.obs.slo.engine.SloEngine` evaluated at
        #: every sample point and at finalize (same hook shape as the
        #: auditor; None costs one attribute read per sample)
        self.slo = None
        self._runs: dict[object, RunTelemetry] = {}
        self._finalized = False

    # -- registration ------------------------------------------------------
    def run_for(self, sim, create: bool = True) -> Optional[RunTelemetry]:
        run = self._runs.get(sim)
        if run is None and create:
            run = self._runs[sim] = RunTelemetry(
                run_id=len(self._runs) + 1, interval_s=self.interval_s)
        return run

    def run_id(self, sim) -> int:
        """Stable 1-based id of a simulator, in first-seen order (shared
        with the event log so both outputs agree on run numbering)."""
        return self.run_for(sim).run_id

    def register(self, sim, kind: str, name: str, obj) -> None:
        """Add one component to ``sim``'s sampled set.

        Called by component constructors, guarded with
        ``sim.telemetry.enabled``.  The first registration for a
        simulator starts its sampling process.
        """
        run = self.run_for(sim)
        run.components.append((kind, str(name), obj))
        if run.sampler is None:
            run.sampler = sim.process(self._sample_loop(sim, run))

    def runs(self) -> list[RunTelemetry]:
        return list(self._runs.values())

    def sims(self) -> list:
        return list(self._runs)

    # -- RPC in-flight gauge ----------------------------------------------
    def rpc_begin(self, sim) -> None:
        self.run_for(sim).rpc_outstanding += 1

    def rpc_end(self, sim) -> None:
        self.run_for(sim).rpc_outstanding -= 1

    # -- sampling ----------------------------------------------------------
    def _sample_loop(self, sim, run: RunTelemetry):
        while run.samples < self.max_samples:
            self.sample_now(sim)
            yield sim.timeout(self.interval_s)

    def sample_now(self, sim) -> None:
        """Take one sample of every registered component right now."""
        run = self._runs.get(sim)
        if run is None:
            return
        t = sim.now
        run.samples += 1
        donated = hosted = hosted_regions = live_imds = 0.0
        recruited = n_rmds = 0.0
        for kind, name, obj in run.live_components():
            probe = PROBES.get(kind)
            if probe is None:
                continue
            for gauge, unit, value in probe(obj):
                run.record(kind, name, gauge, unit, t, value)
            if kind == "imd" and not obj.exited:
                donated += obj.pool_bytes
                hosted += obj.allocator.used_bytes
                hosted_regions += len(obj._regions)
                live_imds += 1
            elif kind == "rmd":
                n_rmds += 1
                if obj.recruited:
                    recruited += 1
        # cluster-level aggregates, the paper-figure-shaped series
        run.record("cluster", "cluster", "donated_bytes", "bytes", t,
                   donated)
        run.record("cluster", "cluster", "hosted_bytes", "bytes", t, hosted)
        run.record("cluster", "cluster", "hosted_regions", "count", t,
                   hosted_regions)
        run.record("cluster", "cluster", "idle_hosts", "count", t,
                   recruited if n_rmds else live_imds)
        run.record("rpc", "rpc", "outstanding", "count", t,
                   run.rpc_outstanding)
        auditor = self.auditor
        if auditor is not None and auditor.enabled \
                and run.samples % self.audit_every == 0:
            auditor.audit_run(run, sim, teardown=False)
        slo = self.slo
        if slo is not None and slo.enabled:
            slo.sample(run, sim, t)

    def finalize(self) -> None:
        """End-of-run pass: one last sample plus the teardown audit
        (cross-checks that need a quiesced system).  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        for sim, run in self._runs.items():
            self.sample_now(sim)
            if self.auditor is not None and self.auditor.enabled:
                self.auditor.audit_run(run, sim, teardown=True)
            if self.slo is not None and self.slo.enabled:
                self.slo.finalize(run, sim)

    # -- export ------------------------------------------------------------
    def iter_series(self) -> Iterable[tuple[RunTelemetry, GaugeSeries]]:
        for run in self._runs.values():
            for series in run.series.values():
                yield run, series

    def dump_csv(self, fp: IO[str], max_points: Optional[int] = None) -> int:
        """Write the long-format CSV; returns the number of data rows."""
        fp.write(CSV_HEADER + "\n")
        rows = 0
        for run, series in self.iter_series():
            times, values = series.downsampled(max_points)
            prefix = (f"{run.run_id},%r,{series.kind},{series.name},"
                      f"{series.gauge},{series.unit},%r")
            for t, v in zip(times, values):
                fp.write(prefix % (t, v) + "\n")
                rows += 1
        return rows

    def write_csv(self, path: str, max_points: Optional[int] = None) -> int:
        with atomic_write(path) as fp:
            return self.dump_csv(fp, max_points)

    def to_json(self, meta: Optional[dict] = None,
                max_points: Optional[int] = None) -> dict:
        runs = []
        for run in self._runs.values():
            series = []
            for s in run.series.values():
                times, values = s.downsampled(max_points)
                series.append({"kind": s.kind, "name": s.name,
                               "gauge": s.gauge, "unit": s.unit,
                               "times": times, "values": values})
            runs.append({"run": run.run_id, "interval_s": run.interval_s,
                         "samples": run.samples, "series": series})
        return {"meta": meta or {}, "runs": runs}

    def write_json(self, path: str, meta: Optional[dict] = None,
                   max_points: Optional[int] = None) -> int:
        obj = self.to_json(meta, max_points)
        with atomic_write(path) as fp:
            json.dump(obj, fp, sort_keys=True, separators=(",", ":"))
            fp.write("\n")
        return sum(len(r["series"]) for r in obj["runs"])


class _NullTelemetry(Telemetry):
    """The shared do-nothing engine: ``enabled`` is False and
    registration is inert, so un-guarded calls stay safe."""

    def __init__(self):
        super().__init__()
        self.enabled = False

    def register(self, sim, kind, name, obj):  # noqa: ARG002
        return None

    def rpc_begin(self, sim):  # noqa: ARG002
        return None

    def rpc_end(self, sim):  # noqa: ARG002
        return None

    def sample_now(self, sim):  # noqa: ARG002
        return None


#: the default, disabled engine every Simulator starts with
NULL_TELEMETRY = _NullTelemetry()
