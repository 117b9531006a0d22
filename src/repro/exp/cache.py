"""Elastic-caching ablation: eviction policies × workloads × migration.

The elastic-caching subsystem (docs/CACHING.md) turns the imd pools
from plain allocators into managed caches: a pluggable eviction policy
(:mod:`repro.core.policy`) and hotspot-aware migration that moves a busy
donor's hot regions to another donor instead of letting reclaim destroy
them.  This driver measures what each piece buys, on two deliberately
different workloads:

* ``nondedicated`` — the Section 5.3.1 desktop cluster with owners that
  come and go faster than the stock experiment, so reclaims land in the
  middle of the run.  This is the workload where migration matters: a
  reclaimed donor's hot regions either migrate (and become remote hits
  on another donor) or vanish (and become disk refetches).
* ``fig7`` — the dedicated Section 5.1 platform shrunk until the
  dataset does **not** fit in remote + local memory, so every new clone
  needs an eviction.  No owners, no reclaims — this isolates the
  eviction policies themselves.

``run_cache`` executes one cell of the ablation and returns plain
JSON-safe counters; ``run_cache_ablation`` sweeps the policy axis on
both workloads, adds the cost-aware migration variant, and computes
the headline claim — cost-aware migration reduces disk refetches
relative to evict-only reclaim on the non-dedicated workload — which
``benchmarks/BENCH_cache.json`` records and CI gates on.  Grid runs go
through the sweep engine instead: ``repro sweep cache-ablation``.
"""

from __future__ import annotations

from repro.core.config import CacheConfig, DodoConfig
from repro.exp.nondedicated import DesktopCluster, NonDedicatedParams
from repro.exp.platform import MB, Platform, PlatformParams
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams

#: workloads ``run_cache`` understands
CACHE_WORKLOADS = ("nondedicated", "fig7")

#: ablation policy axis ("none" = the stock allocator, no eviction)
ABLATION_POLICIES = ("none", "lru", "lfu", "clock", "cost-aware")

#: region size used by both workloads — large enough that migrating a
#: donor's hot set is a handful of bulk transfers, small enough that a
#: scaled pool holds a meaningful number of regions
REGION_BYTES = 64 * 1024


def run_cache(policy: str = "none", migration: bool = False,
              workload: str = "nondedicated", seed: int = 9,
              num_iter: int = 6) -> dict:
    """Run one ablation cell; returns a flat dict of counters.

    The interesting outputs: ``disk_reads`` (refetches — lower is
    better), ``remote_hits``/``migrated_hits`` (reads served from donor
    memory; ``migrated_hits`` counts the ones a migration saved),
    ``evictions`` (donor-side policy activity) and the ``migrations``
    sub-dict (manager-side protocol counters).
    """
    if workload not in CACHE_WORKLOADS:
        raise ValueError(f"unknown cache workload {workload!r}, "
                         f"expected one of {CACHE_WORKLOADS}")
    # CacheConfig refuses migration without a policy to order it by heat
    cache_cfg = CacheConfig(policy=policy, migration=migration,
                            migrate_max_bytes=2 * MB)
    if workload == "nondedicated":
        return _run_nondedicated_cell(cache_cfg, seed, num_iter)
    return _run_fig7_cell(cache_cfg, seed, num_iter)


def _run_nondedicated_cell(cache_cfg: CacheConfig, seed: int,
                           num_iter: int) -> dict:
    """Desktop cluster with fast owner churn: reclaims mid-run."""
    p = NonDedicatedParams(idle_window_s=10.0, owner_active_mean_s=20.0,
                           owner_away_mean_s=80.0, seed=seed)
    sim = Simulator(seed=seed)
    cluster = DesktopCluster(sim, p, config=p.dodo_config(cache=cache_cfg))
    sim.run(until=p.idle_window_s + 5.0)  # initial recruitment
    sp = SyntheticParams(pattern="hotcold", dataset_bytes=p.dataset_bytes,
                         req_size=p.req_size, num_iter=num_iter,
                         compute_s=0.002)
    runner = SyntheticRunner(cluster, sp, use_dodo=True,
                             region_bytes=REGION_BYTES)
    res = sim.run(until=runner.run())
    out = _collect(cache_cfg, "nondedicated", seed, res, runner, cluster)
    out["reclaims"] = int(sum(r.stats.count("reclaims")
                              for r in cluster.rmds))
    out["recruits"] = int(sum(r.stats.count("recruits")
                              for r in cluster.rmds))
    return out


def _run_fig7_cell(cache_cfg: CacheConfig, seed: int,
                   num_iter: int) -> dict:
    """Dedicated platform under memory pressure: the 4 MB dataset beats
    3 MB of remote pool + 0.5 MB of local cache, so clones evict."""
    sim = Simulator(seed=seed)
    params = PlatformParams(
        n_memory_hosts=3, imd_pool_bytes=1 * MB,
        local_cache_bytes=512 * 1024, app_fs_cache_dodo=256 * 1024,
        app_fs_cache_baseline=2 * MB, disk_capacity_bytes=64 * MB)
    platform = Platform(sim, params, dodo=True, config=DodoConfig(
        store_payload=False, cache=cache_cfg))
    sp = SyntheticParams(pattern="hotcold", dataset_bytes=4 * MB,
                         req_size=8192, num_iter=num_iter,
                         compute_s=0.002)
    runner = SyntheticRunner(platform, sp, use_dodo=True,
                             region_bytes=REGION_BYTES)
    res = sim.run(until=runner.run())
    out = _collect(cache_cfg, "fig7", seed, res, runner, platform)
    out["reclaims"] = 0
    out["recruits"] = 0
    return out


def _collect(cache_cfg: CacheConfig, workload: str, seed: int, res,
             runner, testbed) -> dict:
    """Reduce one cell's component stats to a flat JSON-safe dict
    (imd counters summed over every daemon the testbed started)."""
    cs = runner.cache.stats
    ms = testbed.cmd.stats
    imds = testbed.imds
    return {
        "workload": workload,
        "policy": cache_cfg.policy,
        "migration": cache_cfg.migration,
        "seed": seed,
        "elapsed_s": res.elapsed_s,
        "requests": res.requests,
        "local_hits": int(cs.count("cread.local_hits")),
        "remote_hits": int(cs.count("cread.remote_hits")),
        "disk_reads": int(cs.count("cread.disk_reads")),
        "remote_lost": int(cs.count("cread.remote_lost")),
        "migrated_hits": int(cs.count("cread.migrated_hits")),
        "evictions": int(sum(i.stats.count("cache.evictions")
                             for i in imds)),
        "evicted_bytes": int(sum(i.stats.count("cache.evicted_bytes")
                                 for i in imds)),
        "entries_evicted": int(ms.count("cache.entries_evicted")),
        "migrations": {
            "attempted": int(ms.count("migrate.attempted")),
            "ok": int(ms.count("migrate.ok")),
            "failed": int(ms.count("migrate.failed")),
            "bytes": int(ms.count("migrate.bytes")),
        },
    }


def run_cache_ablation(seed: int = 9, num_iter: int = 6,
                       policies=ABLATION_POLICIES,
                       workloads=CACHE_WORKLOADS) -> dict:
    """The full ablation: policies × workloads, plus the migration
    variant on the non-dedicated workload.

    Returns ``{"rows": [...], "claim": {...}}`` where ``claim`` compares
    cost-aware reclaim with and without migration — the pair the
    ``BENCH_cache.json`` gate pins.
    """
    rows = []
    evict_only = None
    for workload in workloads:
        for policy in policies:
            row = run_cache(policy=policy, workload=workload, seed=seed,
                            num_iter=num_iter)
            rows.append(row)
            if workload == "nondedicated" and policy == "cost-aware":
                evict_only = row
    if evict_only is None:
        evict_only = run_cache(policy="cost-aware",
                               workload="nondedicated", seed=seed,
                               num_iter=num_iter)
        rows.append(evict_only)
    migrate = run_cache(policy="cost-aware", migration=True,
                        workload="nondedicated", seed=seed,
                        num_iter=num_iter)
    rows.append(migrate)
    claim = {
        "workload": "nondedicated",
        "policy": "cost-aware",
        "seed": seed,
        "disk_reads_evict_only": evict_only["disk_reads"],
        "disk_reads_migration": migrate["disk_reads"],
        "refetches_saved": (evict_only["disk_reads"]
                            - migrate["disk_reads"]),
        "migrated_hits": migrate["migrated_hits"],
        "migrations_ok": migrate["migrations"]["ok"],
        "migration_reduces_refetches": (migrate["disk_reads"]
                                        < evict_only["disk_reads"]),
    }
    return {"rows": rows, "claim": claim}


def format_cache(results: dict) -> str:
    """Render an ablation (``run_cache_ablation`` output) as a table."""
    rows = []
    for r in results["rows"]:
        variant = r["policy"]
        if r["migration"]:
            variant += "+migrate"
        rows.append([
            r["workload"], variant, r["requests"], r["local_hits"],
            r["remote_hits"], r["migrated_hits"], r["disk_reads"],
            r["evictions"], r["migrations"]["ok"],
            f"{r['elapsed_s']:.1f} s",
        ])
    table = format_table(
        ["workload", "policy", "reqs", "local", "remote", "migr.hit",
         "disk", "evict", "migr.ok", "elapsed"],
        rows, title="Elastic-caching ablation")
    claim = results.get("claim")
    if claim is None:
        return table
    verdict = "holds" if claim["migration_reduces_refetches"] else "FAILS"
    return (f"{table}\n"
            f"claim (migration saves refetches, non-dedicated, "
            f"cost-aware): {claim['disk_reads_migration']} vs "
            f"{claim['disk_reads_evict_only']} disk reads "
            f"({claim['refetches_saved']} saved) -- {verdict}")
