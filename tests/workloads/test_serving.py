"""Tests for the request-serving tier and its serve-bench driver."""

import json

import pytest

from repro.exp.serving import run_serve_bench, run_serving

QUICK = dict(duration_s=2.0, arrival_rate=300.0, n_keys=64,
             n_memory_hosts=4)


def test_serving_point_is_deterministic():
    a = run_serving(n_shards=2, **QUICK)
    b = run_serving(n_shards=2, **QUICK)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["completed"] > 0
    assert a["audit_findings"] == 0


def test_serving_seeds_differ():
    a = run_serving(n_shards=1, seed=1, **QUICK)
    b = run_serving(n_shards=1, seed=2, **QUICK)
    assert a["offered"] != b["offered"] or a["p50_ms"] != b["p50_ms"]


def test_offered_requests_are_conserved():
    r = run_serving(n_shards=2, **QUICK)
    assert r["completed"] + r["rejected"] == r["offered"]
    assert r["failed"] == r["rejected"]  # admission is the only failure
    assert r["writes"] <= r["completed"]


def test_admission_control_rejects_under_pressure():
    r = run_serving(n_shards=1, max_inflight=2, n_workers=2,
                    mgr_service_s=0.01, desc_cache=2, **QUICK)
    assert r["rejected"] > 0
    assert r["completed"] + r["rejected"] == r["offered"]
    # rejections are instant failures, not latency outliers
    assert r["good_fraction"] <= 1.0


def test_unreplicated_single_shard_works():
    r = run_serving(n_shards=1, replication=False, **QUICK)
    assert r["completed"] > 0
    assert r["replication"] is False
    assert r["audit_findings"] == 0


def test_serve_bench_series_jobs_invariant():
    a = run_serve_bench((1, 2), jobs=1, **QUICK)
    b = run_serve_bench((1, 2), jobs=2, **QUICK)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert [r["shards"] for r in a] == [1, 2]


def test_slo_engine_sees_every_request():
    from repro.obs.slo import SERVING_SPECS, SloEngine
    engine = SloEngine(specs=SERVING_SPECS)
    r = run_serving(n_shards=2, engine=engine, **QUICK)
    summaries = {s["name"]: s for s in engine.spec_summaries()}
    assert summaries["serve-availability"]["total"] == r["offered"]
    assert summaries["serve-latency"]["total"] == r["offered"]
    good = summaries["serve-availability"]["good"]
    assert good == r["completed"]


def test_undersized_pools_fail_loudly():
    # run_serving sizes pools to fit the keyspace; build a platform
    # whose pools cannot hold it and the loader must raise, not limp
    from repro.core.config import DodoConfig
    from repro.exp.platform import MB, Platform, PlatformParams
    from repro.sim import Simulator
    from repro.workloads.serving import ServingParams, ServingTier

    sim = Simulator(seed=3)
    platform = Platform(sim, PlatformParams(
        n_memory_hosts=1, imd_pool_bytes=256 * 1024,
        local_cache_bytes=128 * 1024, app_fs_cache_dodo=1 * MB,
        disk_capacity_bytes=64 * MB), dodo=True, config=DodoConfig(
            store_payload=False, shards=1, replication=True))
    tier = ServingTier(platform, ServingParams(
        n_keys=64, value_bytes=16 * 1024, duration_s=0.5,
        arrival_rate=10.0))
    with pytest.raises(RuntimeError, match="serving load failed"):
        sim.run(until=sim.process(tier.run()))


def test_sweep_adapter_registered():
    from repro.sweep.runner import EXPERIMENTS, run_sweep_point
    from repro.sweep.spec import SweepPoint
    assert "serving" in EXPERIMENTS
    result = run_sweep_point(SweepPoint(
        "serving", seed=21,
        overrides=dict(n_shards=1, duration_s=1.0, arrival_rate=200.0,
                       n_keys=32)))
    assert result["completed"] > 0
    assert result["seed"] == 21


def test_finished_waits_keep_no_condition_alive():
    """A timed receive's condition dies when its waiter resumes: with the
    collector off, so that only reference counting frees anything, no
    fired ``AnyOf`` outlives the run (its losing timeout, still queued,
    holds no callback)."""
    import gc

    from repro.sim import AnyOf
    from repro.testing import collector_off

    with collector_off():
        r = run_serving(n_shards=2, duration_s=0.3, n_keys=64,
                        arrival_rate=200.0)
        assert r["completed"] > 0
        resumed = [obj for obj in gc.get_objects()
                   if obj.__class__ is AnyOf and obj.processed]
        assert resumed == []


def test_descriptor_cache_evictions_leave_the_runtime_table():
    """Each miss past capacity evicts one descriptor from the cache and
    from the runtime's table; the region stays in remote memory, so the
    evicted key's next miss finds it again with a lookup."""
    from repro.core.regionlib import DescriptorCache
    from repro.sim import Simulator
    from repro.testing import make_backing_file, make_platform, run

    sim = Simulator(seed=11)
    platform = make_platform(sim)
    runtime = platform.runtime()
    fd = make_backing_file(platform)
    capacity, misses, region = 3, 8, 64 * 1024
    cache = DescriptorCache(runtime, capacity)

    def open_all():
        for i in range(misses):
            _, err = yield from cache.open(region, fd, i * region)
            assert err == 0

    run(sim, open_all())
    assert cache.stats.count("misses") == misses
    assert len(cache) == capacity
    assert runtime.open_regions == capacity
    assert runtime.stats.count("mopen.ok") == misses

    def reopen_first():
        _, err = yield from cache.open(region, fd, 0)
        assert err == 0

    run(sim, reopen_first())
    assert runtime.stats.count("mlookup.hit") == 1
    assert runtime.stats.count("mopen.ok") == misses
    assert runtime.open_regions == capacity
