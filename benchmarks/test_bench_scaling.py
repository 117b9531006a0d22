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
  per second, wall-clock, peak RSS) as the cluster grows.  The test
  here runs a scaled-down series; ``benchmarks/gate.py scaling``
  emits and gates the full ``BENCH_scaling.json`` artifact.
"""

from repro.exp.fig8 import Fig8Point, run_point
from repro.exp.scale import run_scaling


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

def test_bench_scale_out_series(once):
    """A scaled-down scale-out series: shape and footprint sanity."""
    points = once(run_scaling, (100, 300), num_iter=1)
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

