"""Figure 8: synthetic-benchmark speedups.

The paper's four panels: speedup of {sequential, hotcold, random} under
Dodo for (A) 8 KB requests / 1 GB dataset, (B) 32 KB / 1 GB, (C) 8 KB /
2 GB, (D) 32 KB / 2 GB, each for UDP and U-Net, with num_iter = 4,
10 ms compute per request, 1.2 GB of remote memory and an 80 MB local
region cache.

Everything runs scaled (default 1/64: 16 MB "1 GB" dataset, 18.75 MB
remote pool, 1.25 MB local cache — all ratios preserved; see
DESIGN.md).  The expected *shape*:

* sequential ≈ 1 everywhere;
* random and hotcold significantly above 1;
* 32 KB requests lower the random/hotcold speedups;
* the 2 GB dataset (exceeding remote memory) lowers random and
  sequential but *raises* hotcold;
* U-Net beats UDP throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DodoConfig
from repro.exp.platform import Platform, PlatformParams
from repro.metrics.report import format_table
from repro.sim import Simulator
from repro.workloads.app import SyntheticRunner
from repro.workloads.synthetic import SyntheticParams

#: paper dataset sizes, scaled by `scale` at run time
GB = 1 << 30


@dataclass(frozen=True)
class Fig8Point:
    """One Figure 8 measurement: access pattern x request size x
    dataset size x transport."""

    pattern: str
    req_size: int
    dataset_gb: int
    transport: str


def run_point(point: Fig8Point, scale: float = 1 / 64, num_iter: int = 4,
              seed: int = 5) -> dict:
    """One bar of Figure 8: baseline + Dodo run, returns the speedup."""
    dataset = int(point.dataset_gb * GB * scale)
    dataset -= dataset % point.req_size
    results = {}
    for use_dodo in (False, True):
        sim = Simulator(seed=seed)
        platform = Platform(sim, PlatformParams().scaled(scale),
                            dodo=use_dodo, config=DodoConfig(
                                transport=point.transport,
                                store_payload=False))
        sp = SyntheticParams(pattern=point.pattern,
                             dataset_bytes=dataset,
                             req_size=point.req_size, num_iter=num_iter)
        runner = SyntheticRunner(platform, sp, use_dodo=use_dodo)
        res = sim.run(until=runner.run())
        results["dodo" if use_dodo else "baseline"] = res
    base, dodo = results["baseline"], results["dodo"]
    return {
        "point": point,
        "baseline_s": base.elapsed_s,
        "dodo_s": dodo.elapsed_s,
        "speedup": base.elapsed_s / dodo.elapsed_s,
        "steady_speedup": base.steady_state_s / dodo.steady_state_s,
    }


def panel_points(req_size: int, dataset_gb: int,
                 transports: tuple = ("udp", "unet"),
                 patterns: tuple = ("sequential", "hotcold", "random"),
                 ) -> list[Fig8Point]:
    """The grid of one panel (A-D) of Figure 8, in deterministic order."""
    return [Fig8Point(pattern, req_size, dataset_gb, transport)
            for transport in transports for pattern in patterns]


def run_panel(req_size: int, dataset_gb: int, scale: float = 1 / 64,
              transports: tuple = ("udp", "unet"),
              patterns: tuple = ("sequential", "hotcold", "random"),
              num_iter: int = 4, jobs: int = 1) -> list[dict]:
    """One panel (A-D) of Figure 8.

    The grid executes through the sweep engine's
    :func:`~repro.sweep.engine.parallel_map` — each point is an
    independent simulation, so ``jobs>1`` fans them across worker
    processes with byte-identical results.
    """
    from repro.sweep.engine import parallel_map
    points = panel_points(req_size, dataset_gb, transports, patterns)
    return parallel_map(
        run_point,
        [dict(point=p, scale=scale, num_iter=num_iter) for p in points],
        jobs=jobs)


def run_fig8(scale: float = 1 / 64, num_iter: int = 4,
             jobs: int = 1) -> dict:
    """All four panels; ``jobs`` parallelizes the 24-point grid."""
    from repro.sweep.engine import parallel_map
    panels = [("A (8K, 1GB)", 8192, 1), ("B (32K, 1GB)", 32768, 1),
              ("C (8K, 2GB)", 8192, 2), ("D (32K, 2GB)", 32768, 2)]
    points = [(label, p) for label, req, gb in panels
              for p in panel_points(req, gb)]
    results = parallel_map(
        run_point,
        [dict(point=p, scale=scale, num_iter=num_iter)
         for _label, p in points],
        jobs=jobs)
    out: dict = {label: [] for label, _req, _gb in panels}
    for (label, _point), result in zip(points, results):
        out[label].append(result)
    return out


def format_fig8(results: dict) -> str:
    """Render the four Figure 8 panels as aligned text tables."""
    blocks = []
    for panel, rows in results.items():
        table_rows = [[r["point"].transport, r["point"].pattern,
                       f"{r['speedup']:.2f}", f"{r['steady_speedup']:.2f}"]
                      for r in rows]
        blocks.append(format_table(
            ["transport", "pattern", "speedup", "steady-state"],
            table_rows, title=f"Figure 8{panel}"))
    return "\n\n".join(blocks)
