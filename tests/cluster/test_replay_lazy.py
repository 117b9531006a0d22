"""Differential tests: batched owner sessions and lazy trace replay.

Both batched background-load paths must be observationally identical to
their one-event-per-step counterparts: the same signal values at every
probe instant, the same RNG stream positions, the same stats — with far
fewer simulator events.  These tests run the same seeded scenario in
both modes and compare everything a resource monitor could see.
"""

import random

import numpy as np
import pytest

from repro.cluster import (MB, Owner, OwnerParams, TABLE1, TraceParams,
                           TraceReplayer, Workstation, generate_host_trace)
from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.cluster.idleness import IdlePolicy
from repro.core import CentralManager, DodoConfig, ResourceMonitor
from repro.core.shard import ShardMap
from repro.net import Network
from repro.sim import Simulator


def probe_series(sim, ws, horizon, out, probe_seed=99):
    """Sample every observable owner signal at reproducible instants."""
    rng = random.Random(probe_seed)
    t = 0.0
    while t < horizon:
        dt = rng.uniform(0.5, 37.0)
        t += dt
        yield sim.timeout(dt)
        out.append((sim.now, ws.console_idle_seconds(), ws.owner_load,
                    ws.load, ws.mem.process, ws.mem.kernel,
                    ws.console_last_activity))


# -- owner sessions -----------------------------------------------------------

def run_owner(batched, seed=3, horizon=4 * 3600.0, stop_at=None,
              params=None):
    sim = Simulator(seed=seed)
    ws = Workstation(sim, "w0", Network(sim))
    owner = Owner(sim, ws, params=params, start_active=True,
                  batched=batched)
    series = []
    sim.process(probe_series(sim, ws, horizon, series))
    if stop_at is not None:
        def stopper():
            yield sim.timeout(stop_at)
            owner.stop()
        sim.process(stopper())
    sim.run(until=horizon)
    return {
        "series": series,
        "sessions": ws.stats.count("owner.sessions"),
        "background": ws.stats.count("owner.background_jobs"),
        "active": owner.active,
        "events": sim.events_processed,
        # the RNG stream must be at the same position in both modes
        "rng_next": float(owner.rng.random()),
    }


@pytest.mark.parametrize("seed", range(6))
def test_owner_batched_identical(seed):
    fast = run_owner(True, seed=seed)
    slow = run_owner(False, seed=seed)
    assert fast["series"] == slow["series"]
    assert fast["sessions"] == slow["sessions"]
    assert fast["background"] == slow["background"]
    assert fast["active"] == slow["active"]
    assert fast["rng_next"] == slow["rng_next"]


def test_owner_batched_event_count_shrinks():
    def bare(batched):
        sim = Simulator(seed=1)
        ws = Workstation(sim, "w0", Network(sim))
        Owner(sim, ws, start_active=True, batched=batched)
        sim.run(until=4 * 3600.0)
        return ws.stats.count("owner.sessions"), sim.events_processed

    sessions, fast_events = bare(True)
    _, slow_events = bare(False)
    assert sessions >= 1
    # a 20-minute-mean session at 5 s keystroke bursts is ~240 events on
    # the stepping path and exactly one on the batched path
    assert fast_events < slow_events / 20


def test_owner_stop_mid_session_identical():
    """An interrupt mid-session must leave identical state at the same
    instant in both modes (console script materialized up to the stop)."""
    for stop_at in (60.0, 601.5, 47.3):
        fast = run_owner(True, seed=2, horizon=1200.0, stop_at=stop_at)
        slow = run_owner(False, seed=2, horizon=1200.0, stop_at=stop_at)
        assert fast["series"] == slow["series"]
        assert fast["active"] == slow["active"] is False


def test_owner_short_sessions_identical():
    """Sessions shorter than one keystroke interval exercise the partial
    final step of the accumulation."""
    params = OwnerParams(active_mean_s=3.0, away_mean_s=10.0,
                         console_interval_s=5.0)
    fast = run_owner(True, seed=5, horizon=600.0, params=params)
    slow = run_owner(False, seed=5, horizon=600.0, params=params)
    assert fast["series"] == slow["series"]
    assert fast["rng_next"] == slow["rng_next"]


# -- trace replay --------------------------------------------------------------

@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(55)
    return generate_host_trace(
        rng, "h", TABLE1[64], TraceParams(duration_s=2 * 3600.0))


def run_replay(lazy, trace, loop=False, stop_at=None, speedup=60.0,
               horizon=150.0, hog_at=None):
    sim = Simulator(seed=7)
    ws = Workstation(sim, "w0", Network(sim), total_mem_bytes=64 * MB)
    rep = TraceReplayer(sim, ws, trace, speedup=speedup, loop=loop,
                        lazy=lazy)
    series = []

    def probe():
        rng = random.Random(17)
        t = 0.0
        while t < horizon:
            dt = rng.uniform(0.3, 9.7)
            t += dt
            yield sim.timeout(dt)
            series.append((sim.now, ws.mem.kernel, ws.mem.process,
                           ws.mem.filecache, ws.owner_load,
                           ws.console_last_activity,
                           rep.samples_applied))
    sim.process(probe())
    if stop_at is not None:
        def stopper():
            yield sim.timeout(stop_at)
            rep.stop()
        sim.process(stopper())
    if hog_at is not None:
        def hog():
            # a nemesis-style direct mutation on top of the replay feed
            yield sim.timeout(hog_at)
            ws.touch_console()
            ws.owner_load += 1.0
            yield sim.timeout(2.5)
            ws.owner_load = max(0.0, ws.owner_load - 1.0)
        sim.process(hog())
    sim.run(until=horizon)
    return {"series": series, "applied": rep.samples_applied,
            "final": (ws.mem.kernel, ws.mem.process, ws.owner_load,
                      ws.console_last_activity),
            "events": sim.events_processed}


def test_replay_lazy_identical(trace):
    lazy = run_replay(True, trace)
    eager = run_replay(False, trace)
    assert lazy["series"] == eager["series"]
    assert lazy["applied"] == eager["applied"]
    assert lazy["final"] == eager["final"]


def test_replay_lazy_full_pass_settles_tail(trace):
    """After the trace ends, unobserved tail samples must still have been
    applied (the per-pass wake-up), leaving identical final state."""
    lazy = run_replay(True, trace, speedup=60.0, horizon=130.0)
    eager = run_replay(False, trace, speedup=60.0, horizon=130.0)
    assert lazy["applied"] == eager["applied"] == len(trace.load)
    assert lazy["final"] == eager["final"]


def test_replay_lazy_loop_identical(trace):
    lazy = run_replay(True, trace, loop=True, horizon=300.0)
    eager = run_replay(False, trace, loop=True, horizon=300.0)
    assert lazy["series"] == eager["series"]
    assert lazy["applied"] == eager["applied"]
    assert lazy["applied"] > len(trace.load) * 2


def test_replay_lazy_stop_identical(trace):
    lazy = run_replay(True, trace, stop_at=61.7)
    eager = run_replay(False, trace, stop_at=61.7)
    assert lazy["series"] == eager["series"]
    assert lazy["applied"] == eager["applied"]


def test_replay_lazy_with_direct_mutations(trace):
    """Nemesis-style direct writes (console touch, load bump) interleave
    with the feed identically in both modes."""
    lazy = run_replay(True, trace, hog_at=33.33)
    eager = run_replay(False, trace, hog_at=33.33)
    assert lazy["series"] == eager["series"]


def test_replay_lazy_event_count_shrinks(trace):
    lazy = run_replay(True, trace, speedup=60.0, horizon=130.0)
    eager = run_replay(False, trace, speedup=60.0, horizon=130.0)
    # eager: one event per sample (120 samples); lazy: one per pass
    assert lazy["events"] < eager["events"] - len(trace.load) // 2


def test_recruitment_identical_under_lazy_replay(trace):
    """End to end: an rmd watching a replayed desktop recruits and
    reclaims at the same instants in both modes."""
    def run(lazy):
        sim = Simulator(seed=131)
        hosts = [HostSpec("mgr"), HostSpec("w0", total_mem_bytes=128 * MB)]
        cluster = Cluster(sim, ClusterConfig(hosts=hosts))
        cfg = DodoConfig(store_payload=False, max_pool_bytes=8 * MB,
                         idle_policy=IdlePolicy(window_s=10.0))
        CentralManager(sim, cluster["mgr"], cfg)
        rmd = ResourceMonitor(sim, cluster["w0"], cfg,
                              shard_map=ShardMap.single("mgr"))
        TraceReplayer(sim, cluster["w0"], trace, speedup=60.0, lazy=lazy)
        sim.run(until=130.0)
        return dict(rmd.stats.counters)

    assert run(True) == run(False)
