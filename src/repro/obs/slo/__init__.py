"""Request-level SLIs, streaming tail-latency sketches, SLO alerting.

The measurement substrate for the ROADMAP's serving workload, built on
the existing observability stack:

* :mod:`repro.obs.slo.sketch` — deterministic log-bucket percentile
  sketches with a proven relative-error bound (no sample retention);
* :mod:`repro.obs.slo.sli` — per-request records with outcome classes
  and critical-path stage extraction, fed from tracer span ends;
* :mod:`repro.obs.slo.engine` — declarative :class:`SLOSpec` objectives
  evaluated at telemetry sample points with multi-window burn-rate
  alerts emitted as ``slo/*`` event-log records;
* :mod:`repro.obs.slo.report` — the ``repro slo`` report document and
  its tables.

Wire-up: an observability session builds a tracer whose span ends
feed the collector, whose records feed the engine, which the telemetry
sampler evaluates (``repro slo`` and ``repro record`` run one)::

    with ObsSession(interval_s=1.0, events="info", slo=True) as obs:
        ...                          # run the workload
    report = build_slo_report(obs.sli, obs.slo)

Everything is byte-identical deterministic, reads simulated state only
(zero perturbation even when enabled), and costs nothing when disabled.
See docs/OBSERVABILITY.md.
"""

from repro.obs.slo.engine import (DEFAULT_SPECS, SERVING_SPECS, SloEngine,
                                  SLOSpec)
from repro.obs.slo.report import build_slo_report, format_slo_report
from repro.obs.slo.sketch import LatencySketch
from repro.obs.slo.sli import (OUTCOMES, STAGE_ORDER, KindStats,
                               RequestRecord, SliCollector, attach_sli,
                               request_kind, stage_of)

__all__ = [
    "DEFAULT_SPECS", "KindStats", "LatencySketch", "OUTCOMES",
    "RequestRecord", "SERVING_SPECS", "STAGE_ORDER", "SLOSpec",
    "SliCollector", "SloEngine", "attach_sli", "build_slo_report",
    "format_slo_report", "request_kind", "stage_of",
]
