"""Scaling checks: scale-factor invariance and host-count scale-out.

Two families:

* **Methodology** — the whole evaluation runs scaled down (DESIGN.md's
  scaling rule: all sizes shrink by one factor, timing never scales).
  If the methodology is sound, the measured speedups at different scales
  must agree — the first tests run the same Figure 8 point at two scales
  and check that the speedups track each other, which is what justifies
  quoting scaled results against the paper's full-size numbers.

* **Scale-out** — the thousand-host series of
  :mod:`repro.exp.scale`, which measures simulator throughput (events
  per second, wall-clock, peak RSS) as the cluster grows.  Run as a
  script this file emits/gates the ``BENCH_scaling.json`` artifact::

      PYTHONPATH=src python benchmarks/test_bench_scaling.py \
          --out benchmarks/BENCH_scaling.json       # refresh baseline
      PYTHONPATH=src python benchmarks/test_bench_scaling.py \
          --check benchmarks/BENCH_scaling.json     # CI gate

  Like ``perf_smoke.py``, the gate compares wall-clock numbers only
  after normalizing by the machine's measured kernel throughput; the
  simulation-outcome fields (events, requests) are compared directly.
  The 1000-host point additionally has an absolute wall-clock budget so
  a pathological slowdown fails even a self-consistent run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exp.fig8 import Fig8Point, run_point
from repro.exp.scale import HOST_COUNTS, format_scale, run_scaling


def test_bench_speedup_invariant_under_scaling(once):
    def run_both():
        out = {}
        for scale in (1 / 256, 1 / 64):
            out[scale] = run_point(
                Fig8Point("random", 8192, 1, "udp"), scale=scale,
                num_iter=3)
        return out

    results = once(run_both)
    s_small = results[1 / 256]["speedup"]
    s_big = results[1 / 64]["speedup"]
    print(f"\nrandom/8K/1GB/udp speedup: {s_small:.2f} @ 1/256, "
          f"{s_big:.2f} @ 1/64")
    assert abs(s_small - s_big) < 0.25


def test_bench_sequential_flat_at_both_scales(once):
    def run_both():
        return {scale: run_point(Fig8Point("sequential", 8192, 1, "unet"),
                                 scale=scale, num_iter=3)
                for scale in (1 / 256, 1 / 64)}

    results = once(run_both)
    for scale, r in results.items():
        print(f"\nsequential/unet @ {scale}: {r['speedup']:.2f}")
        assert 0.75 < r["speedup"] < 1.25


# -- host-count scale-out ------------------------------------------------------

#: absolute ceiling for the 1000-host point, far above a healthy run
#: (a few seconds) but low enough to catch an event-explosion regression
WALL_BUDGET_1000_S = 120.0


def collect_scaling(host_counts: tuple = HOST_COUNTS, num_iter: int = 2,
                    jobs: int = 1) -> dict:
    """The BENCH_scaling payload: the series plus kernel throughput.

    The kernel events/sec figure anchors cross-machine comparisons —
    every wall-clock gate divides by it so only work-per-event
    regressions fail, not slower CI hardware.
    """
    from perf_smoke import bench_events_per_sec
    kernel = bench_events_per_sec()
    points = run_scaling(host_counts, jobs=jobs, num_iter=num_iter)
    return {
        "kernel_events_per_sec": kernel["events_per_sec"],
        "points": points,
        "python": sys.version.split()[0],
    }


def check_scaling(metrics: dict, baseline: dict,
                  tolerance: float = 0.30) -> list[str]:
    """Gate a fresh series against a baseline; returns failure strings."""
    failures = []
    base_points = {p["hosts"]: p for p in baseline.get("points", ())}
    kernel_new = metrics["kernel_events_per_sec"]
    kernel_old = baseline.get("kernel_events_per_sec", kernel_new)
    for p in metrics["points"]:
        n = p["hosts"]
        if n == 1000 and p["wall_s"] > WALL_BUDGET_1000_S:
            failures.append(
                f"1000-host wall {p['wall_s']:.1f}s blows the "
                f"{WALL_BUDGET_1000_S:.0f}s budget")
        old = base_points.get(n)
        if old is None:
            continue
        # event count is deterministic: any drift means the simulated
        # behavior (or the batching that computes it) changed
        if p["events"] != old["events"]:
            failures.append(f"{n}-host events changed: "
                            f"{p['events']} vs {old['events']}")
        if p["requests"] != old["requests"]:
            failures.append(f"{n}-host requests changed: "
                            f"{p['requests']} vs {old['requests']}")
        # wall time in kernel-event-equivalents transfers across machines
        new_work = p["wall_s"] * kernel_new
        old_work = old["wall_s"] * kernel_old
        if new_work > old_work * (1 + tolerance):
            failures.append(
                f"{n}-host wall regressed (normalized): {new_work:.4g} "
                f"vs {old_work:.4g} kernel-event-equivalents")
    return failures


def test_bench_scale_out_series(once):
    """A scaled-down scale-out series: shape and footprint sanity."""
    results = once(collect_scaling, host_counts=(100, 300), num_iter=1)
    points = results["points"]
    assert [p["hosts"] for p in points] == [100, 300]
    for p in points:
        assert p["requests"] > 0
        assert p["events"] > p["requests"]
        assert p["fastpath"]["dgrams"] > 0
        assert p["fastpath"]["disk_batches"] > 0
    # host count buys control state, not payload bytes: tripling the
    # cluster must cost far less than 3x the memory
    rss_100, rss_300 = points[0]["peak_rss_mb"], points[1]["peak_rss_mb"]
    print(f"\nscale-out: {points[0]['events']:,} events @100 hosts, "
          f"{points[1]['events']:,} @300; RSS {rss_100:.0f} -> "
          f"{rss_300:.0f} MB")
    assert rss_300 < rss_100 * 2 + 64


def main(argv=None) -> int:
    """Emit and/or gate the BENCH_scaling artifact (see module docs)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None,
                    help="write the scaling metrics JSON here")
    ap.add_argument("--check", type=Path, default=None,
                    help="baseline JSON to gate against")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional regression (default 0.30)")
    ap.add_argument("--hosts", type=int, nargs="+",
                    default=list(HOST_COUNTS))
    ap.add_argument("--iters", type=int, default=2)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    metrics = collect_scaling(tuple(args.hosts), num_iter=args.iters,
                              jobs=args.jobs)
    print(format_scale(metrics["points"]))
    print(f"kernel: {metrics['kernel_events_per_sec']:,.0f} events/s")

    if args.out:
        args.out.write_text(json.dumps(metrics, indent=2, sort_keys=True)
                            + "\n")
        print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(args.check.read_text())
        failures = check_scaling(metrics, baseline, args.tolerance)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"scaling gate passed against {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
