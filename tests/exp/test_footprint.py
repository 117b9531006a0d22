"""Per-host footprint: an object built once per host allocates a queue
or a samples dict only when it uses one, and takes slots instead of an
attribute dict (docs/PERFORMANCE.md, section 6).

The tests count live objects, not bytes, so they hold on any 64-bit
CPython whatever its object sizes.
"""

import gc
from collections import defaultdict, deque

from repro.cluster.cluster import HostSpec
from repro.cluster.owner import Owner, OwnerParams
from repro.cluster.workstation import MemoryState, Workstation
from repro.core.allocator import BuddyAllocator, FirstFitAllocator
from repro.core.config import DodoConfig
from repro.core.imd import IdleMemoryDaemon
from repro.core.manager import IwdEntry
from repro.exp.platform import MB, Platform, PlatformParams
from repro.metrics.recorder import Recorder
from repro.net.nic import NIC
from repro.net.rpc import RpcServer
from repro.net.usocket import TransportEndpoint, USocket
from repro.sim import PriorityStore, Resource, Simulator, Store

#: the classes built once per host (or per socket) that take slots
SLOTTED = (NIC, TransportEndpoint, USocket, RpcServer, Resource, Store,
           PriorityStore, Workstation, MemoryState, HostSpec, Owner,
           OwnerParams, FirstFitAllocator, BuddyAllocator, IdleMemoryDaemon,
           IwdEntry, Recorder)


def live(kind: type) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def build(hosts: int) -> Platform:
    """A scale-out style platform: app, manager and ``hosts - 2``
    memory hosts with registered daemons."""
    return Platform(Simulator(seed=1), PlatformParams(
        n_memory_hosts=hosts - 2, imd_pool_bytes=64 * 1024,
        local_cache_bytes=2 * MB, app_fs_cache_dodo=2 * MB,
        disk_capacity_bytes=64 * MB),
        config=DodoConfig(transport="unet", store_payload=False))


def test_platform_build_holds_at_most_one_deque_per_host():
    # Each host has a NIC (two engines) and a daemon socket with a
    # parked get: five deques a host when every wait list was built
    # up front.
    gc.collect()
    before = live(deque)
    platform = build(100)
    assert len(platform.cluster.workstations) == 100
    assert live(deque) - before <= 100


def test_recorders_that_never_sample_hold_no_samples_dict():
    gc.collect()
    before = live(defaultdict)
    recs = [Recorder(f"r{i}") for i in range(100)]
    for rec in recs:
        rec.add("ops")
    assert live(defaultdict) - before == 100  # the counters
    recs[0].sample("lat_s", 0.5)
    assert live(defaultdict) - before == 101
    assert recs[0].samples("lat_s") == [0.5] and recs[0].names() == [
        "ops", "lat_s"]
    assert recs[1].samples("lat_s") == [] and recs[1].mean("lat_s") == 0.0
    recs[0].clear()
    assert recs[0].sample_names() == [] and recs[0].count("ops") == 0.0


def test_slotted_classes_have_no_instance_dict():
    platform = build(4)
    objects = [Owner(platform.sim, platform.cluster["mem00"]),
               PriorityStore(platform.sim), BuddyAllocator(1 << 20)]
    objects += gc.get_objects()
    slotted = [obj for obj in objects if type(obj) in SLOTTED]
    assert {type(obj) for obj in slotted} == set(SLOTTED)
    assert [type(obj).__name__ for obj in slotted
            if hasattr(obj, "__dict__")] == []
