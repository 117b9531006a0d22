"""Figure 7: speedups for the two real applications, lu and dmine.

Paper results: **lu** 1.2 (U-Net) / 1.15 (UDP) — modest, because lu is
compute-bound (~9% I/O under Dodo); **dmine** 3.2 / 2.6 on runs *after*
the first (the first run populates remote memory and shows ~no speedup;
dmine leaves its regions behind via persistent detach, so later runs
avoid all disk reads).

Both applications are replayed as I/O traces with their real access
patterns and compute models (see :mod:`repro.workloads.lu` /
:mod:`repro.workloads.dmine`), scaled by ``scale`` with all ratios
preserved.  The lu compute rate is calibrated in-driver so the baseline
spends roughly the paper's fraction of its time in I/O; the dmine dataset
sits on scattered extents (aged disk; DESIGN.md discusses why this is
needed to reproduce the measured dmine baseline).
"""

from __future__ import annotations

import math

from repro.core.config import DodoConfig
from repro.exp.platform import Platform, PlatformParams
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.storage.filesystem import FsParams
from repro.workloads.app import TraceRunner
from repro.workloads.dmine import BLOCK_SIZE, dmine_trace
from repro.workloads.lu import LuParams, lu_trace

GB = 1 << 30

#: paper's Figure 7 values for the comparison column
PAPER_FIG7 = {
    ("lu", "udp"): 1.15, ("lu", "unet"): 1.2,
    ("dmine", "udp"): 2.6, ("dmine", "unet"): 3.2,
}

#: target baseline compute:I/O split for lu — the paper reports ~9% I/O
#: time under Dodo, which back-solves to roughly 23% in the baseline
LU_COMPUTE_OVER_IO = 3.4


def lu_params_for_scale(scale: float) -> LuParams:
    """Shrink the 8192x8192 / 64-column-slab matrix keeping 128 slabs.

    Both dimensions scale by sqrt(scale) so the matrix byte count scales
    by ``scale`` and slab_bytes/local_cache keeps the paper's 20-slabs-
    cached ratio.
    """
    factor = math.sqrt(scale)
    slab_cols = max(2, int(round(64 * factor)))
    n = 128 * slab_cols
    return LuParams(n=n, slab_cols=slab_cols)


def run_lu(transport: str, scale: float = 1 / 64, seed: int = 7,
           fastpath: bool = True) -> dict:
    """One lu bar: calibrate compute, run baseline and Dodo.

    ``fastpath=False`` turns every fast path off (``Simulator``), so
    region transfers, datagrams and disk requests run event by event —
    simulated results are identical either way (the bench gate uses the
    pair to measure wall-clock gain).
    """
    params = lu_params_for_scale(scale)
    config = DodoConfig(transport=transport, store_payload=False)

    def build(dodo: bool) -> Platform:
        sim = Simulator(seed=seed, fastpath=fastpath)
        # The paper stores the matrix in 8 files; consecutive slabs live
        # in different files, so every slab read pays a seek.  We model
        # that striping as slab-granular extents scattered over the disk.
        p = PlatformParams(
            fs_params=FsParams(extent_bytes=params.slab_bytes,
                               scatter=True)).scaled(scale)
        return Platform(sim, p, dodo=dodo, config=config)

    # -- calibration: measure pure I/O time of the baseline trace ----------
    platform = build(False)
    io_trace = lu_trace(params, flops_per_s=float("inf"))
    runner = TraceRunner(platform, io_trace, params.matrix_bytes,
                         use_dodo=False, region_bytes=params.slab_bytes,
                         dataset_name="matrix")
    io_only = platform.sim.run(until=runner.run())
    total_flops = sum(
        t.compute_s for t in lu_trace(params, flops_per_s=1.0))
    flops_per_s = total_flops / (LU_COMPUTE_OVER_IO * io_only.elapsed_s)
    trace = lu_trace(params, flops_per_s=flops_per_s)

    results = {}
    for dodo in (False, True):
        platform = build(dodo)
        runner = TraceRunner(platform, trace, params.matrix_bytes,
                             use_dodo=dodo, policy="first-in",
                             region_bytes=params.slab_bytes,
                             dataset_name="matrix")
        results["dodo" if dodo else "baseline"] = \
            platform.sim.run(until=runner.run())
    base, dodo_res = results["baseline"], results["dodo"]
    return {
        "app": "lu", "transport": transport,
        "baseline_s": base.elapsed_s, "dodo_s": dodo_res.elapsed_s,
        "speedup": base.elapsed_s / dodo_res.elapsed_s,
        "baseline_io_fraction":
            1.0 - (total_flops / flops_per_s) / base.elapsed_s,
        "dodo_io_fraction":
            1.0 - (total_flops / flops_per_s) / dodo_res.elapsed_s,
        "paper": PAPER_FIG7[("lu", transport)],
    }


def run_dmine(transport: str, scale: float = 1 / 16, n_passes: int = 3,
              n_runs: int = 2, compute_per_block_s: float = 2.0e-3,
              seed: int = 8) -> dict:
    """The dmine bars: run 1 (populating) and run 2 (regions retained).

    The Dodo runs share one platform: run 1's library detaches with
    ``persist=True`` and run 2's fresh library re-finds the regions, just
    as consecutive dmine processes did on the real cluster.
    """
    dataset = int(1 * GB * scale)
    dataset -= dataset % BLOCK_SIZE
    #: dmine's dataset lives on an aged disk region: extents scattered
    #: across the platter, one per 128 KB block
    fsp = FsParams(extent_bytes=BLOCK_SIZE, scatter=True)

    def trace():
        return dmine_trace(dataset, n_passes,
                           compute_per_block_s=compute_per_block_s)

    # -- baseline: each run is a fresh process reading through the FS ------
    sim = Simulator(seed=seed)
    p = PlatformParams(fs_params=fsp).scaled(scale)
    config = DodoConfig(transport=transport, store_payload=False)
    platform = Platform(sim, p, dodo=False, config=config)
    baseline_runs = []
    for _ in range(n_runs):
        runner = TraceRunner(platform, trace(), dataset, use_dodo=False,
                             region_bytes=BLOCK_SIZE, dataset_name="retail")
        baseline_runs.append(sim.run(until=runner.run()).elapsed_s)

    # -- Dodo: one platform, persistent regions across runs ----------------
    sim = Simulator(seed=seed)
    platform = Platform(sim, p, dodo=True, config=config)
    dodo_runs = []
    for _ in range(n_runs):
        cache = platform.region_cache(policy="first-in")
        runner = TraceRunner(platform, trace(), dataset, use_dodo=True,
                             region_bytes=BLOCK_SIZE,
                             dataset_name="retail", cache=cache)
        dodo_runs.append(sim.run(until=runner.run()).elapsed_s)

        def detach():
            yield from cache.detach(persist=True)

        sim.run(until=sim.process(detach()))

    return {
        "app": "dmine", "transport": transport,
        "baseline_s": baseline_runs, "dodo_s": dodo_runs,
        "speedup_run1": baseline_runs[0] / dodo_runs[0],
        "speedup_run2": baseline_runs[-1] / dodo_runs[-1],
        "paper": PAPER_FIG7[("dmine", transport)],
    }


def run_fig7(scale_lu: float = 1 / 64, scale_dmine: float = 1 / 16) -> dict:
    """Run both Figure 7 applications (LU and dmine) at the given
    problem scales; returns their per-configuration run times."""
    out = {}
    for transport in ("udp", "unet"):
        out[("lu", transport)] = run_lu(transport, scale=scale_lu)
        out[("dmine", transport)] = run_dmine(transport, scale=scale_dmine)
    return out


def format_fig7(results: dict) -> str:
    """Render Figure 7 run times as a text table with speedups."""
    rows = []
    for (app, transport), res in results.items():
        if app == "lu":
            rows.append([app, transport, f"{res['speedup']:.2f}",
                         f"{res['paper']:.2f}",
                         f"io: {100 * res['dodo_io_fraction']:.0f}% (dodo)"])
        else:
            rows.append([app, transport, f"{res['speedup_run2']:.2f}",
                         f"{res['paper']:.2f}",
                         f"run1: {res['speedup_run1']:.2f}"])
    return format_table(
        ["app", "transport", "speedup", "paper", "notes"],
        rows, title="Figure 7: application speedups (dmine: run 2)")
