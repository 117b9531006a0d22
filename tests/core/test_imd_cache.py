"""Direct imd tests for elastic caching: eviction and generation tokens.

The aliasing regression this file pins down: with eviction on, a pool
offset can be freed and re-allocated *within one imd epoch*, so a
client descriptor minted for the old tenant would silently read the
new tenant's bytes.  Generation tokens close the hole — every
cache-enabled allocation stamps a fresh ``gen``, and a request carrying
a stale one fails like a lost region (docs/CACHING.md).
"""

import pytest

from repro.cluster.workstation import MB, Workstation
from repro.core import DodoConfig, IdleMemoryDaemon
from repro.core.config import CacheConfig
from repro.net import Network
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=202)


def make_imd(sim, pool_mb=1, policy="lru"):
    net = Network(sim)
    ws = Workstation(sim, "host", net, total_mem_bytes=128 * MB)
    cfg = DodoConfig(store_payload=True,
                     cache=CacheConfig(policy=policy))
    imd = IdleMemoryDaemon(sim, ws, cfg, epoch=1,
                           pool_bytes=pool_mb * MB)
    return ws, imd


def alloc(imd, size):
    reply = imd._h_alloc({"size": size}, ("client", 1))
    assert reply["ok"], reply
    return reply


def test_alloc_stamps_monotone_generations(sim):
    _, imd = make_imd(sim)
    gens = [alloc(imd, 64 * 1024)["gen"] for _ in range(3)]
    assert gens == sorted(set(gens))  # strictly increasing


def test_default_config_alloc_has_no_gen_field(sim):
    """Wire compatibility: with caching off the reply is byte-identical
    to the original protocol — no ``gen`` key at all."""
    net = Network(sim)
    ws = Workstation(sim, "host", net, total_mem_bytes=128 * MB)
    imd = IdleMemoryDaemon(sim, ws, DodoConfig(store_payload=True),
                           epoch=1, pool_bytes=MB)
    reply = imd._h_alloc({"size": 64 * 1024}, ("client", 1))
    assert reply["ok"]
    assert "gen" not in reply


def test_full_pool_evicts_instead_of_rejecting(sim):
    _, imd = make_imd(sim, pool_mb=1)
    half = 512 * 1024
    a = alloc(imd, half)
    b = alloc(imd, half)
    c = alloc(imd, half)  # pool full: must evict the LRU region (a)
    assert imd.stats.count("cache.evictions") == 1
    # region ids are pool offsets: c re-minted a's slot under a new gen
    assert c["region_id"] == a["region_id"]
    assert imd._region_gen[a["region_id"]] == c["gen"] != a["gen"]
    assert {b["region_id"], c["region_id"]} == set(imd._regions)


def test_stale_generation_rejected_not_aliased(sim):
    """The regression: a re-used offset must not serve the old
    descriptor's reads/writes."""
    _, imd = make_imd(sim, pool_mb=1)
    half = 512 * 1024
    a = alloc(imd, half)
    alloc(imd, half)
    c = alloc(imd, half)  # evicts a; first-fit re-uses a's offset
    assert c["region_id"] == a["region_id"]  # the aliasing setup
    assert c["gen"] != a["gen"]
    stale = {"region_id": a["region_id"], "offset": 0,
             "length": 1024, "gen": a["gen"]}
    with pytest.raises(KeyError, match="stale generation"):
        imd._region_span(stale)
    # the new tenant's token is honoured
    fresh = dict(stale, gen=c["gen"])
    assert imd._region_span(fresh) == (c["region_id"], 0, 1024)
    # legacy requests without a token keep working (old clients)
    no_gen = {"region_id": c["region_id"], "offset": 0, "length": 1024}
    assert imd._region_span(no_gen) == (c["region_id"], 0, 1024)


def test_read_handler_rejects_stale_generation(sim):
    """End to end through the handler: the reply is a definitive
    ``ok=False`` (counted as a reject), not a stranger's bytes."""
    _, imd = make_imd(sim, pool_mb=1)
    half = 512 * 1024
    a = alloc(imd, half)
    alloc(imd, half)
    alloc(imd, half)  # evicts a, re-mints its offset
    handler = imd._h_read({"region_id": a["region_id"], "offset": 0,
                           "length": 1024, "gen": a["gen"],
                           "reply_port": 9}, ("client", 1))
    # generator handler: the rejection happens before any yield
    with pytest.raises(StopIteration) as stop:
        next(handler)
    reply = stop.value.value
    assert reply["ok"] is False
    assert "stale generation" in reply["reason"]
    assert imd.stats.count("read_rejects") == 1


def test_pinned_region_never_evicted(sim):
    _, imd = make_imd(sim, pool_mb=1)
    half = 512 * 1024
    a = alloc(imd, half)
    alloc(imd, half)
    imd._pin(a["region_id"])  # in-flight transfer on the LRU victim
    c = alloc(imd, half)
    assert c["ok"]
    assert a["region_id"] in imd._regions  # survived: the other went


def test_migration_without_a_policy_is_refused_at_construction():
    """Migration moves regions hottest first, by the policy's heat: with
    no policy the config refuses it, rather than building a manager
    that never migrates beside imds that all serve ``migrate``."""
    with pytest.raises(ValueError,
                       match="migration needs an eviction policy"):
        CacheConfig(migration=True)
    assert CacheConfig(policy="lru", migration=True).enabled
