"""Serve-bench checks: shard-count scaling of the serving tier.

The serving benchmark (:mod:`repro.exp.serving`) drives the Zipfian
open-loop workload against a directory sharded across 1/2/4/8
replicated managers.  Unlike the wall-clock benches, every reported
number here is virtual-time-only and byte-identical per seed, so the
gate compares the baseline exactly — no machine normalization.

The tests here run a scaled-down series and check the shape that makes
the benchmark meaningful: a saturated single shard (inflated tail,
admission rejections) that more shards relieve.  ``benchmarks/gate.py
serving`` emits and gates the full ``BENCH_serving.json`` artifact,
including the scaling claim itself: the widest point must sustain at
least the single-shard throughput at equal-or-better p99.
"""

import json

from repro.exp.serving import format_serving, run_serve_bench

#: scaled-down series knobs shared by the pytest checks (fast, but still
#: saturating one shard: ~50% descriptor-cache misses at 600 rps against
#: a 250-lookups/sec manager)
_QUICK = dict(duration_s=3.0, arrival_rate=600.0, n_keys=128,
              mgr_service_s=0.004)


def test_bench_serving_shard_relief(once):
    """One saturated shard vs two: the tail and rejections must drop."""
    results = once(run_serve_bench, (1, 2), **_QUICK)
    one, two = results
    print(f"\n{format_serving(results)}")
    assert one["offered"] == two["offered"]  # same arrival process
    for r in results:
        assert r["completed"] + r["rejected"] == r["offered"]
        assert r["audit_findings"] == 0
    # the single shard is saturated; the second shard relieves it
    assert two["throughput_rps"] >= one["throughput_rps"]
    assert two["p99_ms"] <= one["p99_ms"]
    assert two["good_fraction"] > one["good_fraction"]


def test_bench_serving_deterministic(once):
    """Same seed, same series — byte-identical, jobs-independent."""
    def run_twice():
        a = run_serve_bench((1,), jobs=1, duration_s=2.0,
                            arrival_rate=300.0, n_keys=64)
        b = run_serve_bench((1,), jobs=2, duration_s=2.0,
                            arrival_rate=300.0, n_keys=64)
        return a, b

    a, b = once(run_twice)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

