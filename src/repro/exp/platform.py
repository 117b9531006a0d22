"""The canonical evaluation platform of Section 5.1, scalable.

The paper's testbed: a 16-node Beowulf cluster (200 MHz Pentium Pro,
128 MB/node, Quantum Fireball disks, 100 Mb/s switched Ethernet).  One
node runs the data-intensive application (its local disk holds the
dataset), one runs the central manager, and twelve run idle memory daemons
with 100 MB pools — 1200 MB of remote memory.  The application's
region-management library gets an 80 MB local cache.

Every size can be scaled down by a single ``scale`` factor that preserves
all the ratios the results depend on (dataset : local cache : remote pool :
file cache : disk span), so benchmarks finish in seconds while keeping the
paper's crossovers.  Disk *timing* is never scaled — only spans — because
seek and rotation costs are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.cluster.workstation import Workstation
from repro.core.config import DodoConfig
from repro.core.imd import IdleMemoryDaemon
from repro.core.manager import CentralManager
from repro.core.regionlib import RegionCache
from repro.core.rmd import ResourceMonitor
from repro.core.runtime import DodoRuntime
from repro.core.shard import ShardMap, default_shard_map
from repro.sim import Simulator
from repro.storage.disk import DiskParams
from repro.storage.filesystem import FsParams

MB = 1024 * 1024


@dataclass(frozen=True)
class PlatformParams:
    """Shape and sizes of one platform instance.  Every Dodo setting
    (transport, payload mode, directory shards, ...) lives in the
    :class:`DodoConfig` the platform is built with."""

    n_memory_hosts: int = 12
    #: per-imd pool (paper: 100 MB each => 1200 MB total)
    imd_pool_bytes: int = 100 * MB
    #: region-management library's local cache (paper: 80 MB)
    local_cache_bytes: int = 80 * MB
    #: app node's OS file cache when Dodo is running (the region cache
    #: displaces most of it)
    app_fs_cache_dodo: int = 16 * MB
    #: app node's OS file cache in the no-Dodo baseline (all otherwise
    #: free memory caches files)
    app_fs_cache_baseline: int = 96 * MB
    #: disk capacity (span matters for seek distances)
    disk_capacity_bytes: int = 3_200_000_000
    frame_loss_prob: float = 0.0
    fs_params: Optional[FsParams] = None
    allocator_kind: str = "first-fit"

    def scaled(self, scale: float) -> "PlatformParams":
        """Shrink every size by ``scale``, preserving ratios."""
        if scale == 1.0:
            return self
        return replace(
            self,
            imd_pool_bytes=int(self.imd_pool_bytes * scale),
            local_cache_bytes=int(self.local_cache_bytes * scale),
            app_fs_cache_dodo=int(self.app_fs_cache_dodo * scale),
            app_fs_cache_baseline=int(self.app_fs_cache_baseline * scale),
            disk_capacity_bytes=int(self.disk_capacity_bytes * scale),
        )


class ClusterTargets:
    """A built Dodo testbed: what the workload runners, the nemesis and
    the auditor need of it."""

    sim: Simulator
    cluster: Cluster
    #: the application node; its disk holds the dataset
    app: Workstation
    #: every Dodo setting; each daemon of the testbed holds this object
    config: DodoConfig
    dodo_enabled: bool
    #: the region-management library's local cache
    local_cache_bytes: int
    #: the initial routing table
    shard_map: ShardMap
    #: shard id -> every manager ever started for it, append-only
    shard_managers: dict[int, list[CentralManager]]
    #: every imd ever started, dead ones too
    imds: list[IdleMemoryDaemon]
    #: resource monitors; none on a dedicated platform
    rmds: Sequence[ResourceMonitor] = ()

    def runtime(self) -> DodoRuntime:
        """A fresh libdodo instance on the app node."""
        if not self.dodo_enabled:
            raise RuntimeError("testbed built without Dodo")
        return DodoRuntime(self.sim, self.app, self.config,
                           shard_map=self.shard_map)

    def region_cache(self, policy: str = "lru",
                     local_bytes: Optional[int] = None,
                     runtime: Optional[DodoRuntime] = None) -> RegionCache:
        """A fresh libmanage instance over a (new) runtime."""
        rt = runtime or self.runtime()
        return RegionCache(rt, local_bytes or self.local_cache_bytes,
                           policy=policy)

    def live_primary(self, shard: int) -> Optional[CentralManager]:
        """The shard's currently-serving primary, newest first (None
        while failover or a restart is still in progress)."""
        for mgr in reversed(self.shard_managers.get(shard, ())):
            if not mgr.stopped and mgr.role == "primary":
                return mgr
        return None

    @property
    def cmd(self) -> Optional[CentralManager]:
        """Shard 0's newest primary — the paper's central manager on a
        one-shard ring — even while it is crashed and not yet healed."""
        for mgr in reversed(self.shard_managers.get(0, ())):
            if mgr.role == "primary":
                return mgr
        return None

    def audit(self, auditor=None, teardown: bool = True):
        """Run the invariant auditor over this cluster's components.

        Works with or without an installed telemetry engine — the
        component list is built from the platform's own objects — so
        tests can cross-check a cluster without any global state.
        Every running manager is audited, its role decided at audit
        time (a promoted backup counts as a primary).  Returns the
        findings of this pass.
        """
        from repro.obs.audit import Auditor
        auditor = auditor or Auditor(mode="warn")
        components = [("workstation", ws.name, ws)
                      for ws in self.cluster.workstations.values()]
        components += [("nic", ws.name, ws.nic)
                       for ws in self.cluster.workstations.values()]
        components.append(("network", "network", self.cluster.network))
        components += [
            (mgr.component_kind, mgr.name, mgr)
            for sid in sorted(self.shard_managers)
            for mgr in self.shard_managers[sid] if not mgr.stopped]
        components += [("imd", imd.ws.name, imd) for imd in self.imds]
        return auditor.audit_components(self.sim, components,
                                        teardown=teardown)


class Platform(ClusterTargets):
    """A built evaluation platform: cluster + Dodo daemons + app node.

    ``config`` holds every Dodo setting; without one the platform runs
    ``DodoConfig(store_payload=False)``, the experiments' sizes-only
    mode over UDP.
    """

    def __init__(self, sim: Simulator, params: PlatformParams | None = None,
                 dodo: bool = True, config: DodoConfig | None = None,
                 faults=None, nemesis_auditor=None):
        self.sim = sim
        self.params = params or PlatformParams()
        p = self.params
        self.dodo_enabled = dodo
        self.config = config or DodoConfig(store_payload=False)
        cfg = self.config
        self.local_cache_bytes = p.local_cache_bytes
        self.shard_map = default_shard_map(cfg.shards, cfg.replication)
        shards = [self.shard_map.shards[sid]
                  for sid in sorted(self.shard_map.shards)]

        app_cache = p.app_fs_cache_dodo if dodo else p.app_fs_cache_baseline
        hosts = [
            HostSpec("app", total_mem_bytes=128 * MB, has_disk=True,
                     fs_cache_bytes=app_cache, fs_params=p.fs_params,
                     disk_params=DiskParams(
                         capacity_bytes=p.disk_capacity_bytes)),
        ]
        for info in shards:
            for host in (info.primary, info.backup):
                if host is not None:
                    hosts.append(HostSpec(host, total_mem_bytes=128 * MB))
        for i in range(p.n_memory_hosts):
            hosts.append(HostSpec(f"mem{i:02d}", total_mem_bytes=128 * MB))
        self.cluster = Cluster(sim, ClusterConfig(
            hosts=hosts, frame_loss_prob=p.frame_loss_prob,
            store_data=cfg.store_payload))

        self.app = self.cluster["app"]
        self.mgr = self.cluster[self.shard_map.primary(0)]
        self.shard_managers = {}
        self.imds = []
        self.nemesis = None
        if dodo:
            for info in shards:
                primary = CentralManager(
                    sim, self.cluster[info.primary], cfg,
                    shard_id=info.shard_id, shard_map=self.shard_map,
                    peer=info.backup)
                self.shard_managers[info.shard_id] = [primary]
                if info.backup is not None:
                    backup = CentralManager(
                        sim, self.cluster[info.backup], cfg,
                        shard_id=info.shard_id, shard_map=self.shard_map,
                        role="backup")
                    self.shard_managers[info.shard_id].append(backup)
            for i in range(p.n_memory_hosts):
                imd = self.start_imd(self.cluster[f"mem{i:02d}"], epoch=1)
                imd.register()
            if faults is not None:
                from repro.faults.nemesis import Nemesis
                self.nemesis = Nemesis(self, faults,
                                       auditor=nemesis_auditor)
                self.nemesis.start()
            sim.run(until=0.5)  # let registrations land
        elif faults is not None:
            raise ValueError("fault injection needs a Dodo platform "
                             "(dodo=True)")

    def start_imd(self, ws: Workstation, epoch: int) -> IdleMemoryDaemon:
        """Start (and record in ``imds``) one memory host's idle memory
        daemon; the caller registers it.  The nemesis restarts a
        rebooted or reclaimed host's daemon through here."""
        imd = IdleMemoryDaemon(
            self.sim, ws, self.config, epoch=epoch,
            pool_bytes=self.params.imd_pool_bytes,
            allocator_kind=self.params.allocator_kind,
            shard_map=self.shard_map)
        self.imds.append(imd)
        return imd

    @property
    def remote_pool_total(self) -> int:
        return self.params.imd_pool_bytes * self.params.n_memory_hosts


def build_platform(sim: Simulator, scale: float = 1.0, dodo: bool = True,
                   faults=None, nemesis_auditor=None, **kwargs) -> Platform:
    """Convenience: a (possibly scaled) Section 5.1 platform."""
    params = PlatformParams(**kwargs).scaled(scale)
    return Platform(sim, params, dodo=dodo, faults=faults,
                    nemesis_auditor=nemesis_auditor)
