"""Tests for the resource monitor + central manager recruitment dance."""

import pytest

from repro.cluster import MB, Owner, OwnerParams
from repro.cluster.idleness import IdlePolicy
from repro.core import CentralManager, DodoConfig, ResourceMonitor
from repro.core.shard import ShardMap
from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.sim import Simulator

FAST_IDLE = IdlePolicy(window_s=10.0, load_threshold=0.3,
                       sample_interval_s=1.0)


def build(sim, n_hosts=2, dedicated=False, store_payload=False):
    cfg = DodoConfig(transport="udp", store_payload=store_payload,
                     idle_policy=FAST_IDLE, dedicated=dedicated,
                     max_pool_bytes=8 * MB)
    hosts = [HostSpec("mgr")] + [HostSpec(f"w{i}") for i in range(n_hosts)]
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cmd = CentralManager(sim, cluster["mgr"], cfg)
    rmds = [ResourceMonitor(sim, cluster[f"w{i}"], cfg,
                            shard_map=ShardMap.single("mgr"))
            for i in range(n_hosts)]
    return cluster, cfg, cmd, rmds


def test_idle_host_recruited_after_window():
    sim = Simulator(seed=41)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=1)
    sim.run(until=FAST_IDLE.window_s + 5.0)
    assert rmds[0].recruited
    assert rmds[0].imd is not None
    assert "w0" in cmd.iwd
    assert cluster["w0"].guest_memory > 0


def test_busy_host_not_recruited():
    sim = Simulator(seed=42)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=1)
    cluster["w0"].owner_load = 1.0  # a compute job keeps the host busy
    sim.run(until=60.0)
    assert not rmds[0].recruited
    assert "w0" not in cmd.iwd


def test_console_activity_resets_idle_clock():
    sim = Simulator(seed=43)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=1)
    ws = cluster["w0"]

    def typer():
        # touch the console every 5 s: idleness (10 s window) never reached
        for _ in range(10):
            ws.touch_console()
            yield sim.timeout(5.0)

    sim.process(typer())
    sim.run(until=49.0)
    assert not rmds[0].recruited


def test_owner_return_triggers_reclaim():
    sim = Simulator(seed=44)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=1)
    ws = cluster["w0"]
    sim.run(until=20.0)
    assert rmds[0].recruited
    imd = rmds[0].imd

    def owner_returns():
        yield sim.timeout(1.0)
        ws.touch_console()
        ws.owner_load = 0.9

    sim.process(owner_returns())
    sim.run(until=30.0)
    assert not rmds[0].recruited
    assert imd.exited
    assert ws.guest_memory == 0
    assert "w0" not in cmd.iwd
    assert rmds[0].stats.count("reclaims") == 1
    # reclaim delay was sampled and is small (no transfers in flight)
    assert rmds[0].stats.samples("reclaim_delay_s")[0] < 1.0


def test_epoch_increments_across_incarnations():
    sim = Simulator(seed=45)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=1)
    ws = cluster["w0"]
    sim.run(until=15.0)
    first_epoch = rmds[0].imd.epoch

    ws.touch_console()  # reclaim
    sim.run(until=18.0)
    assert not rmds[0].recruited
    sim.run(until=40.0)  # re-recruited after the window passes again
    assert rmds[0].recruited
    assert rmds[0].imd.epoch == first_epoch + 1
    assert cmd.iwd["w0"].epoch == first_epoch + 1


def test_stale_region_detected_by_epoch(tmp_path):
    """A region allocated in incarnation N is invalidated by checkAlloc
    once incarnation N+1 has registered (Section 4.3)."""
    sim = Simulator(seed=46)
    cfg = DodoConfig(transport="udp", store_payload=False,
                     idle_policy=FAST_IDLE, max_pool_bytes=8 * MB)
    hosts = [HostSpec("mgr"),
             HostSpec("app", has_disk=True, fs_cache_bytes=1 * MB),
             HostSpec("w0")]
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cmd = CentralManager(sim, cluster["mgr"], cfg)
    rmd = ResourceMonitor(sim, cluster["w0"], cfg,
                          shard_map=ShardMap.single("mgr"))
    sim.run(until=15.0)
    assert rmd.recruited

    from repro.core import DodoRuntime, ENOMEM
    lib = DodoRuntime(sim, cluster["app"], cfg,
                      shard_map=ShardMap.single("mgr"))
    fs = cluster["app"].fs
    fs.create("data", size=1 * MB)
    fd = fs.open("data", "r+").fd

    def proc():
        desc, err = yield from lib.mopen(256 * 1024, fd, 0)
        assert err == 0
        # owner comes back, then leaves again -> new imd incarnation
        cluster["w0"].touch_console()
        yield sim.timeout(3.0)
        assert not rmd.recruited
        yield sim.timeout(20.0)
        assert rmd.recruited and rmd.imd.epoch == 2
        # old descriptor's remote data is gone: access fails over
        n, err, _ = yield from lib.mread(desc, 0, 1024)
        assert (n, err) == (-1, ENOMEM)
        # the RD entry is stale; a fresh mopen gets a NEW region in the
        # new incarnation rather than the stale one
        desc2, err = yield from lib.mopen(256 * 1024, fd, 0)
        assert err == 0
        assert lib._regions[desc2].remote.epoch == 2
        return True

    p = sim.process(proc())
    assert sim.run(until=p) is True
    assert cmd.stats.count("check.stale") >= 1


def test_dedicated_mode_recruits_quickly():
    sim = Simulator(seed=47)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=2, dedicated=True)
    sim.run(until=3.0)
    assert all(r.recruited for r in rmds)


def test_rmd_stop_shuts_down_imd():
    sim = Simulator(seed=48)
    cluster, cfg, cmd, rmds = build(sim, n_hosts=1)
    sim.run(until=15.0)
    imd = rmds[0].imd
    rmds[0].stop()
    sim.run(until=16.0)
    assert imd.exited
