"""Ablations of design choices the paper calls out.

1. **Allocator** (Section 4.2): first-fit with periodic coalescing versus
   the buddy scheme the authors name as their fallback — fragmentation,
   failure rate, and internal waste under region churn.
2. **Refraction period** (Section 3.1): with remote memory exhausted, how
   many futile allocation RPCs reach the central manager with and without
   the refraction period, and what it costs/saves the application.
3. **Replacement policy** (Sections 3.3/4.5): first-in versus LRU/MRU for
   a cyclic multi-scan workload — the Uysal-et-al. motivation for
   implementing first-in at all.
4. **Window pre-grant**: latency of small transfers with the offer/window
   handshake versus the grant riding on the setup RPC.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocator import make_allocator
from repro.core.config import DodoConfig
from repro.exp.platform import MB, Platform, PlatformParams
from repro.metrics.report import format_table
from repro.net.bulk import recv_bulk, send_bulk
from repro.sim import Simulator
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams


# -- 1. allocator ----------------------------------------------------------------

def run_allocator_ablation(pool_mb: int = 64, n_ops: int = 4000,
                           seed: int = 3) -> dict:
    """Region churn against both allocators.

    Region sizes mimic Dodo usage: mostly large, page-multiple regions
    (8 KB - 4 MB, log-uniform), allocations outnumbering frees 60/40
    until the pool is pressured.
    """
    rng = np.random.default_rng(seed)
    sizes = (2 ** rng.uniform(13, 22, size=n_ops)).astype(int)
    frees = rng.random(n_ops)
    out = {}
    for kind in ("first-fit", "buddy"):
        alloc = make_allocator(kind, pool_mb * MB)
        live: list[tuple[int, int]] = []
        failures = 0
        requested_live = 0
        frag_samples = []
        for i in range(n_ops):
            if frees[i] < 0.4 and live:
                idx = int(rng.integers(0, len(live)))
                off, req = live.pop(idx)
                alloc.free(off)
                requested_live -= req
            else:
                off = alloc.alloc(int(sizes[i]))
                if off is None:
                    failures += 1
                else:
                    live.append((off, int(sizes[i])))
                    requested_live += int(sizes[i])
            if i % 50 == 0:
                alloc.coalesce()
                frag_samples.append(alloc.fragmentation())
        internal_waste = alloc.used_bytes - requested_live
        out[kind] = {
            "failures": failures,
            "mean_fragmentation": float(np.mean(frag_samples)),
            "internal_waste_bytes": internal_waste,
            "live_bytes": requested_live,
        }
    return out


def format_allocator_ablation(results: dict) -> str:
    """Render the allocator ablation as an aligned text table."""
    rows = []
    for kind, r in results.items():
        rows.append([kind, r["failures"],
                     f"{r['mean_fragmentation']:.3f}",
                     f"{r['internal_waste_bytes'] / MB:.1f} MB"])
    return format_table(
        ["allocator", "alloc failures", "mean ext. fragmentation",
         "internal waste"],
        rows, title="Ablation: imd pool allocator")


# -- 2. refraction period -----------------------------------------------------------

def run_refraction_ablation(scale: float = 1 / 128,
                            seed: int = 4) -> dict:
    """Random workload with a dataset ~2x remote memory, with and without
    the refraction period."""
    out = {}
    for refraction_s in (0.0, 2.0):
        sim = Simulator(seed=seed)
        params = PlatformParams().scaled(scale)
        platform = Platform(sim, params, dodo=True, config=DodoConfig(
            store_payload=False, refraction_period_s=refraction_s))
        dataset = 2 * platform.remote_pool_total
        dataset -= dataset % 8192
        sp = SyntheticParams(pattern="random", dataset_bytes=dataset,
                             req_size=8192, num_iter=2)
        runner = SyntheticRunner(platform, sp, use_dodo=True)
        res = sim.run(until=runner.run())
        out[refraction_s] = {
            "elapsed_s": res.elapsed_s,
            "cmd_enomem_rpcs": platform.cmd.stats.count("alloc.enomem"),
            "refraction_skips": runner.cache.runtime.stats.count(
                "mopen.refraction_skip"),
        }
    return out


def format_refraction_ablation(results: dict) -> str:
    """Render the refraction (reclaim) ablation as a text table."""
    rows = []
    for refraction_s, r in sorted(results.items()):
        rows.append([f"{refraction_s:.1f} s", f"{r['elapsed_s']:.1f}",
                     int(r["cmd_enomem_rpcs"]),
                     int(r["refraction_skips"])])
    return format_table(
        ["refraction", "elapsed s", "failed allocs at cmd",
         "attempts suppressed"],
        rows, title="Ablation: refraction period under memory pressure")


# -- 3. replacement policy ------------------------------------------------------------

def run_policy_ablation(scale: float = 1 / 128, seed: int = 5) -> dict:
    """Cyclic sequential multi-scan under each policy.

    The dataset is ~4x the local cache and remote memory is scarce (one
    small imd), so most of the dataset lives on disk: LRU touches a
    cyclic scan's regions in eviction order and gets no local hits at
    all, while first-in keeps a stable prefix resident — the paper's
    rationale (via Uysal et al.) for implementing first-in.
    """
    out = {}
    for policy in ("lru", "mru", "first-in"):
        sim = Simulator(seed=seed)
        params = PlatformParams().scaled(scale)
        dataset = 4 * params.local_cache_bytes
        dataset -= dataset % 8192
        from dataclasses import replace
        params = replace(params, n_memory_hosts=1,
                         imd_pool_bytes=dataset // 8)
        platform = Platform(sim, params, dodo=True)
        sp = SyntheticParams(pattern="sequential", dataset_bytes=dataset,
                             req_size=8192, num_iter=4, compute_s=0.002)
        runner = SyntheticRunner(platform, sp, use_dodo=True,
                                 policy=policy)
        res = sim.run(until=runner.run())
        out[policy] = {
            "elapsed_s": res.elapsed_s,
            "local_hits": runner.cache.stats.count("cread.local_hits"),
            "remote_hits": runner.cache.stats.count("cread.remote_hits"),
        }
    return out


def format_policy_ablation(results: dict) -> str:
    """Render the replacement-policy ablation as a text table."""
    rows = [[policy, f"{r['elapsed_s']:.1f}", int(r["local_hits"]),
             int(r["remote_hits"])]
            for policy, r in results.items()]
    return format_table(
        ["policy", "elapsed s", "local hits", "remote hits"],
        rows, title="Ablation: replacement policy on a cyclic multi-scan")


# -- 4. region prefetching (extension) ----------------------------------------------

def run_prefetch_ablation(scale: float = 1 / 128, seed: int = 7,
                          n_scans: int = 3) -> dict:
    """Steady-state cyclic scans with and without region prefetching.

    Prefetching is this reproduction's extension (cf. the paper's
    citation of cooperative prefetching): on sequential access the next
    regions are pulled from remote memory during the application's
    compute time.  The last scan (everything already in remote memory,
    promotions settled) isolates the overlap benefit.
    """
    from repro.core.regionlib import RegionCache
    out = {}
    for prefetch in (0, 2):
        sim = Simulator(seed=seed)
        params = PlatformParams().scaled(scale)
        platform = Platform(sim, params, dodo=True)
        cache = RegionCache(platform.runtime(), params.local_cache_bytes,
                            policy="lru", prefetch_regions=prefetch)
        dataset = 4 * params.local_cache_bytes
        dataset -= dataset % 8192
        sp = SyntheticParams(pattern="sequential", dataset_bytes=dataset,
                             req_size=8192, num_iter=n_scans)
        runner = SyntheticRunner(platform, sp, use_dodo=True)
        runner.cache = cache
        res = sim.run(until=runner.run())
        out[prefetch] = {
            "last_scan_s": res.iteration_s[-1],
            "elapsed_s": res.elapsed_s,
            "prefetches": cache.stats.count("prefetch.loaded"),
            "local_hits": cache.stats.count("cread.local_hits"),
        }
    return out


def format_prefetch_ablation(results: dict) -> str:
    """Render the prefetch-pipeline ablation as a text table."""
    rows = [[("prefetch=2" if k else "no prefetch"),
             f"{r['last_scan_s']:.2f}", int(r["prefetches"]),
             int(r["local_hits"])]
            for k, r in sorted(results.items())]
    return format_table(
        ["config", "steady scan s", "prefetch loads", "local hits"],
        rows, title="Ablation: region prefetching (extension)")


# -- 5. window pre-grant ----------------------------------------------------------------

def run_pregrant_ablation(size: int = 8192, n: int = 50,
                          transport: str = "udp", seed: int = 6) -> dict:
    """Mean small-transfer latency with and without the negotiation RTT."""
    out = {}
    for pregrant in (False, True):
        sim = Simulator(seed=seed)
        from repro.net import NIC, Network, TransportEndpoint, \
            transport_params
        network = Network(sim)
        eps = {}
        for host in ("a", "b"):
            nic = NIC(sim, host)
            network.attach(nic)
            eps[host] = TransportEndpoint(sim, nic, network,
                                          transport_params(transport))
        times = []

        def sender():
            for _ in range(n):
                tx = eps["a"].socket()
                rx = eps["b"].socket(recvbuf=256 * 1024)  # fresh port
                t0 = sim.now
                recv = sim.process(recv_bulk(rx, pregranted=pregrant,
                                             close_socket=True))
                window = rx.recvbuf if pregrant else None
                yield sim.process(send_bulk(tx, ("b", rx.port), size,
                                            window=window))
                yield recv
                times.append(sim.now - t0)
                tx.close()

        sim.run(until=sim.process(sender()))
        out[pregrant] = {"mean_latency_s": sum(times) / len(times)}
    return out


def format_pregrant_ablation(results: dict) -> str:
    """Render the pre-grant (write fast path) ablation table."""
    rows = [["pre-granted" if k else "offer/window handshake",
             f"{r['mean_latency_s'] * 1e3:.2f} ms"]
            for k, r in results.items()]
    return format_table(["negotiation", "mean 8 KB transfer latency"],
                        rows, title="Ablation: window pre-grant")
