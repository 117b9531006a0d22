"""Dodo proper: the user-level idle-memory harvesting system.

Components (paper Section 4):

* :mod:`repro.core.manager` — central manager daemon (cmd): IWD + RD
* :mod:`repro.core.rmd` — resource monitor daemon: recruit/reclaim
* :mod:`repro.core.imd` — idle memory daemon: the guest-memory server
* :mod:`repro.core.runtime` — libdodo: mopen/mread/mwrite/mclose/msync
* :mod:`repro.core.regionlib` — libmanage: the region-management layer
  (copen/cread/cwrite/cclose/csync/csetPolicy) and the grimReaper space
  reclaimer
* :mod:`repro.core.policy` — the replacement policies shared by the
  local region cache and the donor pools (LRU/MRU/first-in/LFU/CLOCK/
  cost-aware)
* :mod:`repro.core.allocator` — imd pool allocators (first-fit + buddy)
"""

from repro.core.allocator import (BuddyAllocator, FirstFitAllocator,
                                  PoolAllocator, make_allocator)
from repro.core.config import CMD_PORT, IMD_PORT, DodoConfig
from repro.core.descriptors import RegionKey, RegionStruct, RegionTableEntry
from repro.core.errno import EINVAL, EIO, ENOMEM, DodoError, errno_name
from repro.core.imd import IdleMemoryDaemon
from repro.core.manager import CentralManager
from repro.core.policy import POLICIES, make_policy
from repro.core.regionlib import RegionCache
from repro.core.rmd import ResourceMonitor
from repro.core.runtime import DodoRuntime

__all__ = [
    "BuddyAllocator",
    "CMD_PORT",
    "CentralManager",
    "DodoConfig",
    "DodoError",
    "DodoRuntime",
    "EINVAL",
    "EIO",
    "ENOMEM",
    "FirstFitAllocator",
    "IMD_PORT",
    "IdleMemoryDaemon",
    "POLICIES",
    "PoolAllocator",
    "RegionCache",
    "RegionKey",
    "RegionStruct",
    "RegionTableEntry",
    "ResourceMonitor",
    "errno_name",
    "make_allocator",
]
