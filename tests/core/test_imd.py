"""Direct unit tests for the idle memory daemon's handlers and lifecycle."""

import pytest

from repro.core import DodoConfig, IdleMemoryDaemon
from repro.core.config import COALESCE_INTERVAL_S
from repro.cluster.workstation import MB, Workstation
from repro.net import Network
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=101)


def make_imd(sim, pool_mb=4, store_payload=True, **kw):
    net = Network(sim)
    ws = Workstation(sim, "host", net, total_mem_bytes=128 * MB)
    cfg = DodoConfig(store_payload=store_payload)
    imd = IdleMemoryDaemon(sim, ws, cfg, epoch=1, pool_bytes=pool_mb * MB,
                           **kw)
    return ws, imd


def test_pool_pinned_on_start(sim):
    ws, imd = make_imd(sim)
    assert ws.guest_memory == 4 * MB
    assert imd.pool is not None and len(imd.pool) == imd.allocator.pool_size


def test_pool_sized_from_recruitable_memory(sim):
    net = Network(sim)
    ws = Workstation(sim, "h", net, total_mem_bytes=64 * MB)
    cfg = DodoConfig(max_pool_bytes=1024 * MB)  # cap far above recruitable
    before = ws.recruitable_memory()
    imd = IdleMemoryDaemon(sim, ws, cfg, epoch=1)
    assert imd.pool_bytes == before  # pinned exactly the idle memory
    # after pinning, nothing further is recruitable (headroom preserved)
    assert ws.recruitable_memory() == 0
    assert ws.available_memory() >= 0


def test_no_recruitable_memory_rejected(sim):
    net = Network(sim)
    ws = Workstation(sim, "h", net, total_mem_bytes=32 * MB,
                     process_mem_bytes=30 * MB)
    with pytest.raises(ValueError):
        IdleMemoryDaemon(sim, ws, DodoConfig(), epoch=1)


def test_alloc_handler_tracks_regions(sim):
    ws, imd = make_imd(sim)
    r = imd._h_alloc({"size": 1024}, ("client", 1))
    assert r["ok"] and r["epoch"] == 1
    assert "largest_free" in r
    assert imd._regions[r["region_id"]] == 1024


def test_alloc_handler_no_space(sim):
    ws, imd = make_imd(sim, pool_mb=1)
    r = imd._h_alloc({"size": 2 * MB}, ("c", 1))
    assert not r["ok"]
    assert imd.stats.count("alloc_rejects") == 1


def test_free_handler(sim):
    ws, imd = make_imd(sim)
    r = imd._h_alloc({"size": 4096}, ("c", 1))
    f = imd._h_free({"region_id": r["region_id"]}, ("c", 1))
    assert f["ok"] and f["freed"] == 4096
    again = imd._h_free({"region_id": r["region_id"]}, ("c", 1))
    assert not again["ok"]


def test_region_span_validation(sim):
    ws, imd = make_imd(sim)
    r = imd._h_alloc({"size": 1000}, ("c", 1))
    rid = r["region_id"]
    # clamp at region end
    assert imd._region_span({"region_id": rid, "offset": 900,
                             "length": 500}) == (rid, 900, 100)
    with pytest.raises(KeyError):
        imd._region_span({"region_id": 999999, "offset": 0, "length": 1})
    with pytest.raises(ValueError):
        imd._region_span({"region_id": rid, "offset": -1, "length": 1})
    with pytest.raises(ValueError):
        imd._region_span({"region_id": rid, "offset": 2000, "length": 1})


def test_ping_reflects_state(sim):
    ws, imd = make_imd(sim)
    assert imd._h_ping({}, ("c", 1))["ok"]
    imd.stopping = True
    assert not imd._h_ping({}, ("c", 1))["ok"]


def test_alloc_rejected_while_stopping(sim):
    ws, imd = make_imd(sim)
    imd.stopping = True
    assert not imd._h_alloc({"size": 10}, ("c", 1))["ok"]


def test_shutdown_releases_memory_and_is_idempotent(sim):
    ws, imd = make_imd(sim)

    def proc():
        yield imd.shutdown()
        yield imd.shutdown()  # second call is a no-op

    p = sim.process(proc())
    sim.run(until=p)
    assert imd.exited
    assert ws.guest_memory == 0
    assert imd.pool is None
    assert imd.stats.count("shutdowns") == 1


def test_coalescer_runs_periodically(sim):
    ws, imd = make_imd(sim)
    # fragment the pool, then let the sweep interval pass
    offs = [imd.allocator.alloc(1024) for _ in range(4)]
    for off in offs:
        imd.allocator.free(off)
    assert imd.allocator.largest_free() < imd.allocator.pool_size
    sim.run(until=COALESCE_INTERVAL_S + 1.0)
    assert imd.allocator.largest_free() == imd.allocator.pool_size


def test_metadata_mode_has_no_pool_bytes(sim):
    ws, imd = make_imd(sim, store_payload=False)
    assert imd.pool is None
    r = imd._h_alloc({"size": 4096}, ("c", 1))
    assert r["ok"]  # allocation bookkeeping still works


def test_standalone_imd_never_registers(sim):
    """Without a shard map the daemon has no directory: register() is
    refused up front and the re-registration heartbeat never starts."""
    net = Network(sim)
    ws = Workstation(sim, "h", net, total_mem_bytes=128 * MB)
    cfg = DodoConfig(imd_reregister_s=0.5)
    imd = IdleMemoryDaemon(sim, ws, cfg, epoch=1, pool_bytes=4 * MB)
    assert imd._reregister is None
    with pytest.raises(ValueError, match="standalone"):
        imd.register()
    sim.run(until=2.0)  # heartbeat-free: nothing fails in the sim
