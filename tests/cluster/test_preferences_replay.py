"""Tests for owner preference rules and trace-driven replay."""

import numpy as np
import pytest

from repro.cluster import (MB, PreferenceRules, TABLE1, TraceParams,
                           TraceReplayer, Workstation, console_idle_at_least,
                           custom, generate_host_trace, max_load,
                           min_available_memory, never, time_window)
from repro.cluster.idleness import IdlePolicy
from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.core import CentralManager, DodoConfig, ResourceMonitor
from repro.core.shard import ShardMap
from repro.net import Network
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=131)


@pytest.fixture
def ws(sim):
    return Workstation(sim, "w0", Network(sim), total_mem_bytes=64 * MB)


# -- rule constructors ---------------------------------------------------------

def test_never_blocks(ws):
    rules = PreferenceRules([never()])
    assert not rules.allows(ws, 0.0)
    assert rules.blocking_rule(ws, 0.0).name == "never"


def test_empty_rules_allow(ws):
    assert PreferenceRules().allows(ws, 123.0)


def test_time_window_plain(ws):
    rule = time_window(9, 17)
    assert rule(ws, 10 * 3600.0)
    assert not rule(ws, 18 * 3600.0)
    assert not rule(ws, 8.99 * 3600.0)


def test_time_window_wraps_midnight(ws):
    rule = time_window(19, 7)  # overnight harvesting
    assert rule(ws, 23 * 3600.0)
    assert rule(ws, 3 * 3600.0)
    assert not rule(ws, 12 * 3600.0)
    # second day too
    assert rule(ws, 86400.0 + 23 * 3600.0)


def test_time_window_validation():
    with pytest.raises(ValueError):
        time_window(25, 3)


def test_min_available_memory(ws):
    rule = min_available_memory(16 * MB)
    assert rule(ws, 0.0)
    ws.mem.process = 60 * MB
    assert not rule(ws, 0.0)


def test_console_idle_at_least(sim, ws):
    rule = console_idle_at_least(600.0)
    assert rule(ws, 0.0)  # never touched: idle since -inf
    ws.touch_console()
    assert not rule(ws, 0.0)


def test_max_load_excludes_daemons(ws):
    rule = max_load(0.1)
    ws.daemon_load = 5.0
    ws.owner_load = 0.05
    assert rule(ws, 0.0)
    ws.owner_load = 0.2
    assert not rule(ws, 0.0)


def test_custom_rule(ws):
    rule = custom("only-even-seconds", lambda w, now: int(now) % 2 == 0)
    assert rule(ws, 4.0) and not rule(ws, 5.0)


def test_conjunction_semantics(ws):
    rules = PreferenceRules([max_load(1.0), min_available_memory(1)])
    assert rules.allows(ws, 0.0)
    rules.add(never())
    assert not rules.allows(ws, 0.0)


# -- rmd integration ------------------------------------------------------------

def build_monitored(sim, preferences, window_s=5.0):
    hosts = [HostSpec("mgr"), HostSpec("w0", total_mem_bytes=64 * MB)]
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cfg = DodoConfig(store_payload=False, max_pool_bytes=4 * MB,
                     idle_policy=IdlePolicy(window_s=window_s))
    CentralManager(sim, cluster["mgr"], cfg)
    rmd = ResourceMonitor(sim, cluster["w0"], cfg,
                          shard_map=ShardMap.single("mgr"),
                          preferences=preferences)
    return cluster, rmd


def test_rmd_respects_veto(sim):
    cluster, rmd = build_monitored(sim, PreferenceRules([never()]))
    sim.run(until=30.0)
    assert not rmd.recruited
    assert rmd.stats.count("preference_vetoes") > 0


def test_rmd_reclaims_when_window_closes(sim):
    # allowed only for the first simulated "hour-equivalent": use a
    # custom rule keyed on sim time for determinism
    rules = PreferenceRules([custom("before-t30", lambda w, t: t < 30.0)])
    cluster, rmd = build_monitored(sim, rules)
    sim.run(until=20.0)
    assert rmd.recruited
    sim.run(until=40.0)
    assert not rmd.recruited  # window closed: imd reclaimed
    assert rmd.stats.count("reclaims") == 1


# -- trace replay ------------------------------------------------------------------

@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(55)
    return generate_host_trace(
        rng, "h", TABLE1[64], TraceParams(duration_s=4 * 3600.0))


def test_replayer_drives_signals(sim, ws, trace):
    replayer = TraceReplayer(sim, ws, trace, speedup=60.0)
    sim.run(until=60.0)  # one simulated minute = one trace hour
    assert replayer.samples_applied > 10
    assert ws.mem.kernel == int(trace.kernel[
        replayer.samples_applied - 1]) * 1024


def test_replayer_console_matches_trace(sim, ws, trace):
    TraceReplayer(sim, ws, trace, speedup=1.0)
    # run until just past the first active sample (if any in first 50)
    active_idx = next((i for i in range(50) if trace.console_active[i]),
                      None)
    if active_idx is None:
        pytest.skip("no console activity in trace head")
    sim.run(until=(active_idx + 0.5) * trace.dt_s)
    assert ws.console_last_activity >= active_idx * trace.dt_s


def test_replayer_stop(sim, ws, trace):
    replayer = TraceReplayer(sim, ws, trace, speedup=60.0)
    sim.run(until=5.0)
    replayer.stop()
    sim.run(until=6.0)
    applied = replayer.samples_applied
    sim.run(until=30.0)
    assert replayer.samples_applied == applied


def test_replayer_loop_wraps(sim, ws):
    rng = np.random.default_rng(56)
    short = generate_host_trace(rng, "h", TABLE1[32],
                                TraceParams(duration_s=600.0))
    replayer = TraceReplayer(sim, ws, short, speedup=1.0, loop=True)
    sim.run(until=1500.0)  # 2.5x the trace length
    assert replayer.samples_applied > len(short.load) * 2


def test_replayer_validation(sim, ws, trace):
    with pytest.raises(ValueError):
        TraceReplayer(sim, ws, trace, speedup=0.0)


def test_trace_driven_recruitment_end_to_end(sim):
    """The full Section 5.3.1 setup: a Section-2 trace drives a desktop
    whose rmd recruits and reclaims accordingly."""
    hosts = [HostSpec("mgr"), HostSpec("w0", total_mem_bytes=128 * MB)]
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cfg = DodoConfig(store_payload=False, max_pool_bytes=8 * MB,
                     idle_policy=IdlePolicy(window_s=10.0))
    CentralManager(sim, cluster["mgr"], cfg)
    rmd = ResourceMonitor(sim, cluster["w0"], cfg,
                          shard_map=ShardMap.single("mgr"))
    rng = np.random.default_rng(57)
    trace = generate_host_trace(
        rng, "h", TABLE1[128],
        TraceParams(duration_s=8 * 3600.0, busy_frac_day=0.5,
                    busy_frac_night=0.5, session_mean_s=1200.0))
    TraceReplayer(sim, cluster["w0"], trace, speedup=60.0)
    sim.run(until=8 * 60.0)  # whole trace at 60x
    assert rmd.stats.count("recruits") >= 1
    assert rmd.stats.count("reclaims") >= 1
