"""Section 5.3.1: Dodo on a non-dedicated cluster.

The paper evaluates this scenario by trace-driven simulation and reports
two claims: (1) Dodo still yields significant speedups when memory hosts
are desktop machines that come and go with their owners, and (2) the
recruitment policy (idle hosts only, never more than the idle memory,
imd killed on owner return) means **owners experience virtually no delay
when reclaiming their workstations**.

This driver builds a desktop cluster with resource monitors and
stochastic owners, runs the hotcold benchmark against it, and measures
both the speedup and the distribution of reclaim delays (time from owner
activity to the imd being gone).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.cluster.idleness import IdlePolicy
from repro.cluster.owner import Owner, OwnerParams
from repro.cluster.workstation import MB
from repro.core.config import DodoConfig
from repro.core.manager import CentralManager
from repro.core.regionlib import RegionCache
from repro.core.rmd import ResourceMonitor
from repro.core.runtime import DodoRuntime
from repro.core.shard import ShardMap
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.storage.disk import DiskParams
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams


@dataclass(frozen=True)
class NonDedicatedParams:
    """A scaled desktop cluster (idle window shrunk so recruitment churn
    happens within a short simulation)."""

    n_desktops: int = 8
    desktop_mem: int = 64 * MB
    #: pool per recruited desktop; ~5 idle desktops cover the dataset
    max_pool: int = 2 * MB
    dataset_bytes: int = 8 * MB
    req_size: int = 8192
    num_iter: int = 4
    #: memory sizes follow the 1/128-scaled Section 5.1 proportions
    local_cache: int = 640 * 1024
    fs_cache: int = 128 * 1024
    disk_capacity: int = 25 * MB
    idle_window_s: float = 20.0
    owner_active_mean_s: float = 60.0
    owner_away_mean_s: float = 600.0
    transport: str = "udp"
    seed: int = 9


def build_cluster(sim: Simulator, p: NonDedicatedParams, dodo: bool,
                  config: DodoConfig | None = None):
    """Build the desktop cluster; ``config`` overrides the derived
    :class:`DodoConfig` (the chaos harness uses this to switch on RPC
    backoff and imd heartbeat re-registration)."""
    hosts = [
        HostSpec("app", total_mem_bytes=128 * MB, has_disk=True,
                 fs_cache_bytes=p.fs_cache if dodo
                 else p.fs_cache + p.local_cache,
                 disk_params=DiskParams(capacity_bytes=p.disk_capacity)),
        HostSpec("mgr"),
    ]
    for i in range(p.n_desktops):
        hosts.append(HostSpec(f"w{i}", total_mem_bytes=p.desktop_mem))
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cfg = config or DodoConfig(
        transport=p.transport, store_payload=False, dedicated=False,
        max_pool_bytes=p.max_pool,
        idle_policy=IdlePolicy(window_s=p.idle_window_s))
    rmds, owners = [], []
    cmd = None
    if dodo:
        shard_map = ShardMap.single("mgr")
        cmd = CentralManager(sim, cluster["mgr"], cfg, shard_map=shard_map)
        for i in range(p.n_desktops):
            ws = cluster[f"w{i}"]
            rmds.append(ResourceMonitor(sim, ws, cfg, shard_map=shard_map))
            owners.append(Owner(sim, ws, OwnerParams(
                active_mean_s=p.owner_active_mean_s,
                away_mean_s=p.owner_away_mean_s,
                background_job_prob=0.1), start_active=(i % 4 == 0)))
    return cluster, cfg, cmd, rmds, owners


def run_nondedicated(p: NonDedicatedParams | None = None) -> dict:
    """Run baseline and Dodo on the desktop cluster; gather speedup and
    reclaim-delay statistics."""
    p = p or NonDedicatedParams()
    results = {}
    for dodo in (False, True):
        sim = Simulator(seed=p.seed)
        cluster, cfg, cmd, rmds, owners = build_cluster(sim, p, dodo)
        sp = SyntheticParams(pattern="hotcold",
                             dataset_bytes=p.dataset_bytes,
                             req_size=p.req_size, num_iter=p.num_iter)

        class _Plat:  # adapter matching what SyntheticRunner expects
            def __init__(self):
                self.sim = sim
                self.app = cluster["app"]
                self.params = type("P", (), {
                    "local_cache_bytes": p.local_cache})()
                self.config = cfg

            def region_cache(self, policy="lru", local_bytes=None,
                             runtime=None):
                rt = runtime or DodoRuntime(sim, self.app, cfg,
                                            shard_map=cmd.shard_map)
                return RegionCache(rt, local_bytes or p.local_cache,
                                   policy=policy)

        platform = _Plat()
        # give the monitors time to recruit the initially idle desktops
        if dodo:
            sim.run(until=p.idle_window_s + 5.0)
        runner = SyntheticRunner(platform, sp, use_dodo=dodo)
        res = sim.run(until=runner.run())
        entry = {"elapsed_s": res.elapsed_s, "result": res}
        if dodo:
            delays = [d for r in rmds
                      for d in r.stats.samples("reclaim_delay_s")]
            entry["reclaims"] = sum(
                r.stats.count("reclaims") for r in rmds)
            entry["recruits"] = sum(
                r.stats.count("recruits") for r in rmds)
            entry["reclaim_delays_s"] = delays
            entry["max_reclaim_delay_s"] = max(delays, default=0.0)
            entry["mean_reclaim_delay_s"] = (
                sum(delays) / len(delays) if delays else 0.0)
        results["dodo" if dodo else "baseline"] = entry
    results["speedup"] = (results["baseline"]["elapsed_s"]
                          / results["dodo"]["elapsed_s"])
    return results


def format_nondedicated(results: dict) -> str:
    """Render the non-dedicated (Table 4) results as a text table."""
    d = results["dodo"]
    rows = [
        ["baseline elapsed", f"{results['baseline']['elapsed_s']:.1f} s"],
        ["dodo elapsed", f"{d['elapsed_s']:.1f} s"],
        ["speedup", f"{results['speedup']:.2f}"],
        ["recruit events", int(d.get("recruits", 0))],
        ["reclaim events", int(d.get("reclaims", 0))],
        ["mean reclaim delay", f"{d.get('mean_reclaim_delay_s', 0) * 1000:.1f} ms"],
        ["max reclaim delay", f"{d.get('max_reclaim_delay_s', 0) * 1000:.1f} ms"],
    ]
    return format_table(["metric", "value"], rows,
                        title="Section 5.3.1: non-dedicated cluster")
