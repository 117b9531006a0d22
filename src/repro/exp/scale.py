"""Thousand-host scale-out scenario: the kernel's stress benchmark.

The paper's evaluation tops out at 16 nodes; the interesting systems
question at today's cluster sizes is whether a *user-level* global
memory system still pays off at hundreds-to-thousands of hosts.  This
scenario builds a Section 5.1-style platform with ``n`` hosts — one
application node with the dataset on disk, one central manager, and
``n - 2`` memory hosts each running an idle memory daemon with a small
pool — animates every memory host with a batched
:class:`~repro.cluster.owner.Owner` for background signal churn, and
drives a hot/cold synthetic workload whose misses exercise all three
flow-level fast paths (datagram RPC, bulk transfer, disk batch).

The point of the scenario is *simulator throughput*, not a new paper
figure: it reports wall-clock, events processed, events per second and
peak RSS, which is what ``benchmarks/BENCH_scaling.json`` records and
the CI perf-smoke job gates.  On the calendar-queue kernel a 1000-host
run finishes in a few seconds; on the old binary-heap kernel with
per-packet and per-keystroke events it took minutes.
"""

from __future__ import annotations

import resource
import time

from repro.cluster.owner import Owner, OwnerParams
from repro.core.config import DodoConfig
from repro.exp.platform import MB, Platform, PlatformParams
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams

#: default host counts of the scaling series
HOST_COUNTS = (500, 1000, 2000)


def peak_rss_mb() -> float:
    """Process peak RSS in MB (Linux ``ru_maxrss`` is in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_scale(n_hosts: int = 1000, seed: int = 11, pattern: str = "hotcold",
              req_size: int = 8192, dataset_mb: int = 24,
              pool_kb_per_host: int = 64, local_cache_mb: int = 2,
              num_iter: int = 2, transport: str = "unet",
              owners: bool = True) -> dict:
    """One scaling point: an ``n_hosts``-cluster run, instrumented.

    Every memory host contributes ``pool_kb_per_host`` of remote memory
    (payloads are never stored, so host count costs control state, not
    data bytes) and, when ``owners`` is on, a stochastic owner process
    generating console/load/memory churn.  The dataset exceeds the local
    region cache, so steady-state misses stream over the network to the
    idle memory daemons.  Returns a JSON-safe dict of throughput and
    footprint measurements.
    """
    if n_hosts < 3:
        raise ValueError("need at least app + mgr + one memory host")
    t0 = time.perf_counter()
    sim = Simulator(seed=seed)
    params = PlatformParams(
        n_memory_hosts=n_hosts - 2,
        imd_pool_bytes=pool_kb_per_host * 1024,
        local_cache_bytes=local_cache_mb * MB,
        app_fs_cache_dodo=2 * MB,
        disk_capacity_bytes=64 * MB)
    platform = Platform(sim, params, dodo=True, config=DodoConfig(
        transport=transport, store_payload=False))
    if owners:
        owner_params = OwnerParams(active_mean_s=60.0, away_mean_s=120.0)
        for i in range(params.n_memory_hosts):
            Owner(sim, platform.cluster[f"mem{i:02d}"], params=owner_params,
                  start_active=bool(i % 2))
    dataset = dataset_mb * MB
    dataset -= dataset % req_size
    runner = SyntheticRunner(platform, SyntheticParams(
        pattern=pattern, dataset_bytes=dataset, req_size=req_size,
        num_iter=num_iter), use_dodo=True)
    t1 = time.perf_counter()
    res = sim.run(until=runner.run())
    t2 = time.perf_counter()

    net = platform.cluster.network.stats
    disk = platform.app.disk.stats
    run_wall = t2 - t1
    return {
        "hosts": n_hosts,
        "seed": seed,
        "virtual_s": sim.now,
        "elapsed_s": res.elapsed_s,
        "requests": res.requests,
        "events": sim.events_processed,
        "build_wall_s": t1 - t0,
        "wall_s": t2 - t0,
        "events_per_sec": sim.events_processed / run_wall if run_wall else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "fastpath": {
            "dgrams": net.count("fastpath.dgrams"),
            "bulk_transfers": net.count("fastpath.transfers"),
            "disk_batches": disk.count("fastpath.batches"),
        },
    }


def run_scaling(host_counts: tuple = HOST_COUNTS, jobs: int = 1,
                **kwargs) -> list[dict]:
    """The scaling series; each point is an independent simulation.

    ``jobs > 1`` fans the points across worker processes via the sweep
    engine — results are byte-identical at any value, and each worker's
    ``peak_rss_mb`` then reflects that point alone.
    """
    from repro.sweep.engine import parallel_map
    return parallel_map(
        run_scale, [dict(n_hosts=n, **kwargs) for n in host_counts],
        jobs=jobs)


def format_scale(results: list[dict]) -> str:
    """Render the scaling series as an aligned text table."""
    rows = [[str(r["hosts"]), f"{r['virtual_s']:.1f}",
             f"{r['events']:,}", f"{r['wall_s']:.2f}",
             f"{r['events_per_sec']:,.0f}", f"{r['peak_rss_mb']:.0f}",
             f"{r['fastpath']['dgrams']:,.0f}",
             f"{r['fastpath']['disk_batches']:,.0f}"]
            for r in results]
    return format_table(
        ["hosts", "virtual_s", "events", "wall_s", "events/s",
         "peak_rss_mb", "fast_dgrams", "fast_disk"],
        rows, title="Scale-out (calendar-queue kernel, all fast paths)")
