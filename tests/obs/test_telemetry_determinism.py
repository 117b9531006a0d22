"""Telemetry / event-log regressions on a small Dodo platform run.

Mirrors ``test_trace_determinism.py`` for the sampling side of the
observability stack:

* two seeded runs export byte-identical time-series CSV and event-log
  JSONL (probes read only virtual time and simulated state);
* turning telemetry on does not perturb the simulated results — virtual
  clocks and workload numbers stay bit-identical (the sampler adds heap
  events, so ``events_processed`` legitimately differs).
"""

import io

import pytest

from repro.exp.platform import MB, Platform, PlatformParams
from repro.obs.eventlog import NULL_EVENTLOG
from repro.obs.session import ObsSession
from repro.obs.timeseries import NULL_TELEMETRY
from repro.sim import Simulator
from repro.workloads import SyntheticParams, SyntheticRunner


def run_workload(seed, telemetered, interval_s=0.25):
    session = ObsSession(interval_s=interval_s, events="debug") \
        if telemetered else ObsSession()
    with session:
        sim = Simulator(seed=seed)
        params = PlatformParams().scaled(1 / 256)
        platform = Platform(sim, params, dodo=True)
        sp = SyntheticParams(pattern="random", dataset_bytes=2 * MB,
                             req_size=8192, num_iter=2, compute_s=0.002)
        runner = SyntheticRunner(platform, sp, use_dodo=True)
        res = sim.run(until=runner.run())
    fingerprint = (res.elapsed_s, tuple(res.iteration_s), sim.now)
    if not telemetered:
        return fingerprint, NULL_TELEMETRY, NULL_EVENTLOG
    return fingerprint, session.telemetry, session.eventlog


def csv_bytes(telemetry):
    buf = io.StringIO()
    telemetry.dump_csv(buf)
    return buf.getvalue()


def jsonl_bytes(eventlog):
    buf = io.StringIO()
    eventlog.dump_jsonl(buf)
    return buf.getvalue()


def assert_identical(a, b, what):
    if a != b:  # report the first mismatch; a full MB-sized diff is useless
        n = min(len(a), len(b))
        i = next((k for k in range(n) if a[k] != b[k]), n)
        pytest.fail(f"{what} differ (lens {len(a)} vs {len(b)}) at byte {i}: "
                    f"{a[i:i + 80]!r} vs {b[i:i + 80]!r}")


def test_same_seed_telemetry_is_byte_identical():
    _, tel_a, log_a = run_workload(seed=11, telemetered=True)
    _, tel_b, log_b = run_workload(seed=11, telemetered=True)
    assert_identical(csv_bytes(tel_a), csv_bytes(tel_b), "time-series CSVs")
    assert_identical(jsonl_bytes(log_a), jsonl_bytes(log_b), "event logs")


def test_telemetry_does_not_perturb_the_simulation():
    plain, _, _ = run_workload(seed=11, telemetered=False)
    sampled, telemetry, eventlog = run_workload(seed=11, telemetered=True)
    assert sampled == plain  # elapsed, iteration times, virtual clock
    assert telemetry.runs() and eventlog.events


def test_telemetry_covers_the_cluster():
    _, telemetry, eventlog = run_workload(seed=11, telemetered=True)
    run = max(telemetry.runs(), key=lambda r: len(r.components))
    kinds = {k for k, _n, _o in run.components}
    # (no "rmd": a dedicated platform spawns its imds directly; rmd
    # registration is covered by the nondedicated experiment)
    for expected in ("workstation", "nic", "network", "disk", "pagecache",
                     "manager", "imd", "regionlib"):
        assert expected in kinds, f"no {expected} registered"
    assert run.get("cluster", "cluster", "donated_bytes") is not None
    assert run.get("rpc", "rpc", "outstanding") is not None
    assert run.samples > 1
    events = {f"{e.component}/{e.event}" for e in eventlog.events}
    assert {"imd/imd.start", "manager/region.placed"} <= events


def test_fleet_layer_is_read_only_and_inert_when_disabled():
    """Deriving fleet views/insights is post-processing: it must not
    mutate the recorded data, and emission into disabled engines is a
    no-op — the fleet layer adds zero overhead when observability is
    off."""
    from repro.obs.fleet import build_fleet_view
    from repro.obs.fleet.insights import build_insights, emit_insights
    plain, _, _ = run_workload(seed=11, telemetered=False)
    sampled, telemetry, eventlog = run_workload(seed=11, telemetered=True)
    assert sampled == plain
    before_csv = csv_bytes(telemetry)
    before_jsonl = jsonl_bytes(eventlog)
    fleet = build_fleet_view(telemetry, eventlog)
    insights = build_insights(telemetry, eventlog)
    assert fleet["main"] is not None and insights["donors"]
    assert_identical(csv_bytes(telemetry), before_csv,
                     "CSVs before/after view building")
    assert_identical(jsonl_bytes(eventlog), before_jsonl,
                     "event logs before/after view building")
    assert emit_insights(NULL_EVENTLOG, None, insights) == 0
    assert not NULL_EVENTLOG.events


def test_csv_shape_and_downsampling():
    _, telemetry, _ = run_workload(seed=11, telemetered=True)
    lines = csv_bytes(telemetry).splitlines()
    assert lines[0] == "run,time,kind,name,gauge,unit,value"
    assert all(line.count(",") == 6 for line in lines[1:])
    run = max(telemetry.runs(), key=lambda r: r.samples)
    series = run.get("cluster", "cluster", "donated_bytes")
    times, values = series.downsampled(5)
    assert len(times) == len(values) == 5
    assert times == sorted(times)
    full_t, full_v = series.downsampled(None)
    assert (full_t, full_v) == (series.times, series.values)
