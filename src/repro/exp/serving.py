"""The serve-bench experiment: shard-count scaling of the serving tier.

``run_serving`` builds a Section 5.1-style platform whose region
directory is sharded across ``n_shards`` replicated managers — each
with a modeled per-operation CPU cost (``mgr_service_s``), so the
directory is an honest bottleneck — and drives the Zipfian open-loop
serving workload (:mod:`repro.workloads.serving`) against it.
``run_serve_bench`` sweeps the shard count (1/2/4/8 by default) at a
fixed offered load; with one shard the directory saturates — queueing
at the manager inflates p99/p999 and the admission controller starts
rejecting — while more shards divide the per-request lookup traffic by
the hash ring and the tail collapses back to the imd round-trip.  The
series is recorded in ``benchmarks/BENCH_serving.json`` and gated by
``benchmarks/gate.py serving``.

Everything reported is virtual-time-only and byte-identical for a given
seed; ``jobs > 1`` fans points across worker processes via the sweep
engine with identical results (asserted in CI's serving smoke).

Every point runs the same directory code; the 1-shard point is a
1-entry hash ring that, like the 8-shard one, carries a backup and the
modeled service time (so it queues verbs and ships its log exactly as
the larger rings do), and the comparison isolates the shard count
itself.
"""

from __future__ import annotations

from repro.core.config import DodoConfig
from repro.exp.platform import MB, Platform, PlatformParams
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.workloads.serving import ServingParams, ServingTier

#: default shard counts of the serve-bench series
SHARD_COUNTS = (1, 2, 4, 8)


def run_serving(n_shards: int = 1, replication: bool = True,
                seed: int = 21, n_memory_hosts: int = 8,
                mgr_service_s: float = 0.002,
                n_keys: int = 512, value_bytes: int = 16 * 1024,
                zipf_s: float = 1.1, arrival_rate: float = 800.0,
                duration_s: float = 10.0, n_workers: int = 8,
                max_inflight: int = 64, write_fraction: float = 0.1,
                desc_cache: int = 16, engine=None) -> dict:
    """One serving point: JSON-safe, deterministic, no wall-clock."""
    sim = Simulator(seed=seed)
    pool = 2 * ((n_keys * value_bytes) // max(n_memory_hosts, 1))
    params = PlatformParams(
        n_memory_hosts=n_memory_hosts, imd_pool_bytes=pool,
        local_cache_bytes=512 * 1024, app_fs_cache_dodo=1 * MB,
        disk_capacity_bytes=max(64 * MB, 2 * n_keys * value_bytes))
    platform = Platform(sim, params, dodo=True, config=DodoConfig(
        store_payload=False, shards=n_shards, replication=replication,
        mgr_service_s=mgr_service_s))
    tier = ServingTier(platform, ServingParams(
        n_keys=n_keys, value_bytes=value_bytes, zipf_s=zipf_s,
        arrival_rate=arrival_rate, duration_s=duration_s,
        n_workers=n_workers, max_inflight=max_inflight,
        write_fraction=write_fraction, desc_cache=desc_cache),
        engine=engine)
    sim.run(until=sim.process(tier.run()))
    out = {
        "shards": n_shards,
        "replication": replication,
        "seed": seed,
        "arrival_rate": arrival_rate,
        "duration_s": duration_s,
        "mgr_service_s": mgr_service_s,
        "n_keys": n_keys,
        "virtual_s": round(sim.now, 6),
    }
    out.update(tier.results())
    out["audit_findings"] = len(platform.audit(teardown=True))
    return out


def run_serve_bench(shard_counts: tuple = SHARD_COUNTS, jobs: int = 1,
                    **kwargs) -> list[dict]:
    """The shard-scaling series; each point an independent simulation."""
    from repro.sweep.engine import parallel_map
    return parallel_map(
        run_serving, [dict(n_shards=n, **kwargs) for n in shard_counts],
        jobs=jobs)


def format_serving(results: list[dict]) -> str:
    """Render the serve-bench series as an aligned text table."""
    rows = []
    for r in results:
        rows.append([
            str(r["shards"]),
            f"{r['throughput_rps']:,.0f}",
            f"{r['offered']:,}",
            f"{r['rejected']:,}",
            f"{r['disk_fallbacks']:,}",
            _fmt_ms(r["p50_ms"]), _fmt_ms(r["p99_ms"]),
            _fmt_ms(r["p999_ms"]),
            f"{100.0 * r['good_fraction']:.2f}%",
        ])
    return format_table(
        ["shards", "rps", "offered", "rejected", "disk", "p50_ms",
         "p99_ms", "p999_ms", "good"],
        rows,
        title="serve-bench: Zipfian open-loop serving vs. shard count")


def _fmt_ms(v) -> str:
    return "-" if v is None else f"{v:.2f}"
