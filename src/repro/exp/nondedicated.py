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

from dataclasses import dataclass, replace

from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.cluster.idleness import IdlePolicy
from repro.cluster.owner import Owner, OwnerParams
from repro.cluster.workstation import MB
from repro.core.config import DodoConfig
from repro.core.imd import IdleMemoryDaemon
from repro.core.manager import CentralManager
from repro.core.rmd import ResourceMonitor
from repro.core.shard import ShardMap
from repro.exp.platform import ClusterTargets
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

    def dodo_config(self, **changes) -> DodoConfig:
        """The cluster's :class:`DodoConfig` — sizes-only regions over
        ``transport``, pools capped at ``max_pool``, recruitment after
        ``idle_window_s`` of quiet — with ``changes`` applied."""
        return replace(DodoConfig(
            transport=self.transport, store_payload=False,
            max_pool_bytes=self.max_pool,
            idle_policy=IdlePolicy(window_s=self.idle_window_s)),
            **changes)


class DesktopCluster(ClusterTargets):
    """The Section 5.3.1 desktop cluster, built.

    An app node with the dataset on its disk, the central manager on
    ``mgr`` and desktops ``w0..``, each watched by a resource monitor
    (``rmds``) and used by a stochastic owner (``owners``).  ``imds``
    lists every daemon the monitors have forked.  The no-Dodo
    baseline (``dodo=False``) starts no daemons and no owners; its app
    node caches files in the memory the region cache would take.
    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`) starts a
    nemesis once everything else is built.
    """

    def __init__(self, sim: Simulator, p: NonDedicatedParams,
                 dodo: bool = True, config: DodoConfig | None = None,
                 faults=None, nemesis_auditor=None):
        if faults is not None and not dodo:
            raise ValueError("fault injection needs a Dodo cluster "
                             "(dodo=True)")
        self.sim = sim
        self.params = p
        self.dodo_enabled = dodo
        self.config = config or p.dodo_config()
        self.local_cache_bytes = p.local_cache
        hosts = [
            HostSpec("app", total_mem_bytes=128 * MB, has_disk=True,
                     fs_cache_bytes=p.fs_cache if dodo
                     else p.fs_cache + p.local_cache,
                     disk_params=DiskParams(capacity_bytes=p.disk_capacity)),
            HostSpec("mgr"),
        ]
        for i in range(p.n_desktops):
            hosts.append(HostSpec(f"w{i}", total_mem_bytes=p.desktop_mem))
        self.cluster = Cluster(sim, ClusterConfig(
            hosts=hosts, store_data=self.config.store_payload))
        self.app = self.cluster["app"]
        self.shard_map = ShardMap.single("mgr")
        self.shard_managers = {}
        self.rmds: list[ResourceMonitor] = []
        self.owners: list[Owner] = []
        self.nemesis = None
        if not dodo:
            return
        self.shard_managers[0] = [CentralManager(
            sim, self.cluster["mgr"], self.config, shard_map=self.shard_map)]
        for i in range(p.n_desktops):
            ws = self.cluster[f"w{i}"]
            self.rmds.append(ResourceMonitor(
                sim, ws, self.config, shard_map=self.shard_map))
            self.owners.append(Owner(sim, ws, OwnerParams(
                active_mean_s=p.owner_active_mean_s,
                away_mean_s=p.owner_away_mean_s,
                background_job_prob=0.1), start_active=(i % 4 == 0)))
        if faults is not None:
            from repro.faults.nemesis import Nemesis
            self.nemesis = Nemesis(self, faults, auditor=nemesis_auditor)
            self.nemesis.start()

    @property
    def imds(self) -> list[IdleMemoryDaemon]:
        """Every imd the monitors have forked, dead incarnations too."""
        return [imd for rmd in self.rmds for imd in rmd.imds]


def run_nondedicated(p: NonDedicatedParams | None = None) -> dict:
    """Run baseline and Dodo on the desktop cluster; gather speedup and
    reclaim-delay statistics."""
    p = p or NonDedicatedParams()
    results = {}
    for dodo in (False, True):
        sim = Simulator(seed=p.seed)
        cluster = DesktopCluster(sim, p, dodo)
        sp = SyntheticParams(pattern="hotcold",
                             dataset_bytes=p.dataset_bytes,
                             req_size=p.req_size, num_iter=p.num_iter)
        # give the monitors time to recruit the initially idle desktops
        if dodo:
            sim.run(until=p.idle_window_s + 5.0)
        runner = SyntheticRunner(cluster, sp, use_dodo=dodo)
        res = sim.run(until=runner.run())
        entry = {"elapsed_s": res.elapsed_s, "result": res}
        if dodo:
            rmds = cluster.rmds
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
