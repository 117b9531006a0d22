"""Tests for the testbed builders: the Section 5.1 platform (and its
scaling rule) and the Section 5.3.1 desktop cluster."""

import pytest

from repro.core.config import DodoConfig
from repro.exp.nondedicated import DesktopCluster, NonDedicatedParams
from repro.exp.platform import MB, Platform, PlatformParams, build_platform
from repro.sim import Simulator


def test_default_platform_matches_paper():
    p = PlatformParams()
    assert p.n_memory_hosts == 12
    assert p.imd_pool_bytes == 100 * MB          # "100 MB on startup"
    assert p.local_cache_bytes == 80 * MB        # "local cache of 80 MB"
    assert p.n_memory_hosts * p.imd_pool_bytes == 1200 * MB  # "1200 MB"


def test_scaling_preserves_ratios():
    base = PlatformParams()
    scaled = base.scaled(1 / 16)
    assert scaled.imd_pool_bytes == base.imd_pool_bytes // 16
    assert scaled.local_cache_bytes == base.local_cache_bytes // 16
    # the ratios the results depend on are unchanged
    assert scaled.imd_pool_bytes / scaled.local_cache_bytes == \
        pytest.approx(base.imd_pool_bytes / base.local_cache_bytes)
    assert scaled.disk_capacity_bytes / scaled.imd_pool_bytes == \
        pytest.approx(base.disk_capacity_bytes / base.imd_pool_bytes)


def test_scale_one_is_identity():
    p = PlatformParams()
    assert p.scaled(1.0) is p


def test_build_with_dodo_registers_imds():
    sim = Simulator(seed=121)
    platform = build_platform(sim, scale=1 / 128)
    assert platform.cmd is not None
    assert len(platform.imds) == 12
    assert len(platform.cmd.iwd) == 12
    assert platform.remote_pool_total == 12 * platform.params.imd_pool_bytes
    # every memory host pinned its pool
    for imd in platform.imds:
        assert imd.ws.guest_memory == platform.params.imd_pool_bytes


def test_build_without_dodo_has_no_daemons():
    sim = Simulator(seed=122)
    platform = build_platform(sim, scale=1 / 128, dodo=False)
    assert platform.cmd is None
    assert platform.imds == []
    with pytest.raises(RuntimeError):
        platform.runtime()


def test_baseline_gets_bigger_file_cache():
    sim1 = Simulator(seed=123)
    with_dodo = build_platform(sim1, scale=1 / 64, dodo=True)
    sim2 = Simulator(seed=124)
    baseline = build_platform(sim2, scale=1 / 64, dodo=False)
    # the region cache's memory belongs to the OS file cache instead
    assert baseline.app.fs.cache.capacity_pages \
        > with_dodo.app.fs.cache.capacity_pages


def test_region_cache_uses_platform_defaults():
    sim = Simulator(seed=125)
    platform = build_platform(sim, scale=1 / 128)
    cache = platform.region_cache(policy="first-in")
    assert cache.local_bytes == platform.params.local_cache_bytes
    assert cache.policy.name == "first-in"


def test_app_node_has_disk_and_fs():
    sim = Simulator(seed=126)
    platform = build_platform(sim, scale=1 / 128)
    assert platform.app.disk is not None
    assert platform.app.fs is not None
    assert platform.mgr.disk is None  # the manager node needs none


def test_config_alone_sets_payload_mode():
    """Every Dodo setting comes from the config: a payload-carrying
    config gives a data-carrying cluster as well as daemons."""
    params = PlatformParams().scaled(1 / 128)
    functional = Platform(Simulator(seed=127), params,
                          config=DodoConfig(store_payload=True))
    assert functional.cluster.config.store_data
    assert all(imd.pool is not None for imd in functional.imds)
    sizes_only = Platform(Simulator(seed=127), params)
    assert not sizes_only.config.store_payload
    assert not sizes_only.cluster.config.store_data
    assert all(imd.pool is None for imd in sizes_only.imds)


def test_desktop_cluster_records_every_forked_imd():
    """Owners come and go, so monitors fork fresh imds; the cluster's
    record keeps the dead incarnations too."""
    sim = Simulator(seed=128)
    p = NonDedicatedParams(idle_window_s=5.0, owner_active_mean_s=20.0,
                           owner_away_mean_s=40.0)
    cluster = DesktopCluster(sim, p)
    sim.run(until=200.0)
    recruits = sum(r.stats.count("recruits") for r in cluster.rmds)
    assert len(cluster.imds) == recruits > len(cluster.rmds)
    assert any(imd.exited for imd in cluster.imds)
    assert cluster.region_cache().local_bytes == p.local_cache


def test_desktop_baseline_has_no_daemons():
    cluster = DesktopCluster(Simulator(seed=129), NonDedicatedParams(),
                             dodo=False)
    assert cluster.cmd is None and cluster.rmds == [] and cluster.imds == []
    with pytest.raises(RuntimeError):
        cluster.runtime()
