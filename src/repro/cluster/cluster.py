"""Cluster assembly: wire N workstations to one switch.

This is the generic builder; the paper's concrete 16-node Beowulf
evaluation platform (one application node with a disk, one central-manager
node, twelve memory hosts) is configured on top of it in
:mod:`repro.exp.platform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.workstation import MB, Workstation
from repro.net.network import Network
from repro.net.params import LinkParams
from repro.sim import Simulator
from repro.storage.disk import DiskParams
from repro.storage.filesystem import FsParams


@dataclass(slots=True)
class HostSpec:
    """Per-host configuration inside a :class:`ClusterConfig`."""

    name: str
    total_mem_bytes: int = 128 * MB
    has_disk: bool = False
    fs_cache_bytes: Optional[int] = None
    fs_params: Optional[FsParams] = None
    disk_params: Optional[DiskParams] = None
    process_mem_bytes: int = 8 * MB


@dataclass
class ClusterConfig:
    """What to build: hosts plus shared fabric parameters."""

    hosts: list[HostSpec] = field(default_factory=list)
    link: LinkParams = field(default_factory=LinkParams)
    frame_loss_prob: float = 0.0
    #: carry real payload bytes through disks and memory regions
    store_data: bool = False

    @classmethod
    def uniform(cls, n: int, prefix: str = "ws", **host_kwargs) -> "ClusterConfig":
        """N identical hosts named ``ws00..``."""
        width = max(2, len(str(n - 1)))
        return cls(hosts=[HostSpec(name=f"{prefix}{i:0{width}d}",
                                   **host_kwargs) for i in range(n)])


class Cluster:
    """A built cluster: one network plus its workstations."""

    def __init__(self, sim: Simulator, config: ClusterConfig):
        self.sim = sim
        self.config = config
        self.network = Network(sim, config.link)
        self.workstations: dict[str, Workstation] = {}
        for spec in config.hosts:
            if spec.name in self.workstations:
                raise ValueError(f"duplicate host name {spec.name!r}")
            ws = Workstation(
                sim, spec.name, self.network,
                total_mem_bytes=spec.total_mem_bytes,
                process_mem_bytes=spec.process_mem_bytes,
                disk_params=(spec.disk_params or DiskParams())
                if spec.has_disk else None,
                fs_cache_bytes=spec.fs_cache_bytes if spec.has_disk else None,
                fs_params=spec.fs_params,
                store_data=config.store_data,
                frame_loss_prob=config.frame_loss_prob)
            self.workstations[spec.name] = ws

    def __getitem__(self, name: str) -> Workstation:
        return self.workstations[name]

    def __iter__(self):
        return iter(self.workstations.values())

    def __len__(self) -> int:
        return len(self.workstations)

    @property
    def names(self) -> list[str]:
        return list(self.workstations)
