"""End-to-end tracing regressions on a small Dodo platform run.

Two properties the observability layer must never lose:

* a traced run of a seeded experiment exports a byte-identical trace
  every time (the tracer reads only virtual time);
* turning tracing on does not change the simulated world — virtual
  clocks, iteration times and results stay bit-identical to an untraced
  run.  (The raw kernel *event count* may rise under tracing: fast
  paths whose closed forms would skip per-request spans disengage so
  the trace stays complete — same virtual times, more events.)
"""

import io
import json

import pytest

from repro.exp.platform import MB, Platform, PlatformParams
from repro.obs.breakdown import fetch_breakdown
from repro.obs.export import chrome_trace, dump_chrome_trace
from repro.obs.session import ObsSession
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator
from repro.workloads import SyntheticParams, SyntheticRunner


def run_workload(seed, traced):
    with ObsSession(trace=traced) as obs:
        sim = Simulator(seed=seed)
        params = PlatformParams().scaled(1 / 256)
        platform = Platform(sim, params, dodo=True)
        sp = SyntheticParams(pattern="random", dataset_bytes=2 * MB,
                             req_size=8192, num_iter=2, compute_s=0.002)
        runner = SyntheticRunner(platform, sp, use_dodo=True)
        res = sim.run(until=runner.run())
    tracer = obs.tracer if traced else NULL_TRACER
    fingerprint = (res.elapsed_s, tuple(res.iteration_s),
                   sim.events_processed, sim.now)
    return fingerprint, tracer


def export_bytes(tracer):
    buf = io.StringIO()
    dump_chrome_trace(tracer, buf)
    return buf.getvalue()


def test_same_seed_traces_are_byte_identical():
    _, tracer_a = run_workload(seed=7, traced=True)
    _, tracer_b = run_workload(seed=7, traced=True)
    a, b = export_bytes(tracer_a), export_bytes(tracer_b)
    if a != b:  # report the first mismatch; a full MB-sized diff is useless
        n = min(len(a), len(b))
        i = next((k for k in range(n) if a[k] != b[k]), n)
        pytest.fail(f"traces differ (lens {len(a)} vs {len(b)}) at byte {i}: "
                    f"{a[i:i + 80]!r} vs {b[i:i + 80]!r}")


def test_tracing_does_not_perturb_the_simulation():
    untraced, _ = run_workload(seed=7, traced=False)
    traced, tracer = run_workload(seed=7, traced=True)
    t_elapsed, t_iters, t_events, t_now = traced
    u_elapsed, u_iters, u_events, u_now = untraced
    # Observables are bit-identical; the event count is not an observable —
    # the disk fast path disengages under tracing (per-request spans must
    # keep flowing), replaying the same virtual times with more events.
    assert (t_elapsed, t_iters, t_now) == (u_elapsed, u_iters, u_now)
    assert t_events >= u_events
    assert len(tracer.spans) > 0


def test_trace_covers_the_dodo_stack():
    _, tracer = run_workload(seed=7, traced=True)
    components = tracer.components()
    for expected in ("lib", "regionlib", "rpc", "net", "manager", "imd",
                     "fs", "disk", "pagecache"):
        assert expected in components, f"missing {expected} spans"
    names = {s.name for s in tracer.spans}
    assert {"mread", "rpc.read", "serve.read", "bulk.send",
            "bulk.recv"} <= names


def test_breakdown_of_real_trace_sums_within_tolerance():
    _, tracer = run_workload(seed=7, traced=True)
    b = fetch_breakdown(tracer.spans)
    assert b["count"] > 0
    total = sum(b["layers"].values())
    assert abs(total - b["mean_s"]) <= 0.01 * b["mean_s"]


def test_export_of_real_trace_is_valid_json():
    _, tracer = run_workload(seed=7, traced=True)
    parsed = json.loads(export_bytes(tracer))
    assert parsed["traceEvents"]
    obj = chrome_trace(tracer)
    phases = {e["ph"] for e in obj["traceEvents"]}
    assert phases <= {"M", "X", "i"}
