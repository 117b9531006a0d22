"""Cache-bench checks: the elastic-caching ablation and its claim.

The caching ablation (:mod:`repro.exp.cache`) replays the Figure 7
and non-dedicated workloads under every eviction policy, then adds
the hotspot-migration variant on the non-dedicated workload.  Every
reported number is virtual-time-only and byte-identical per seed, so
the gate compares the baseline exactly — no machine normalization.  See docs/CACHING.md for the
policy semantics and the migration protocol behind these numbers.

The tests here run the claim pair (cost-aware reclaim with and without
migration) and check the property that makes the subsystem worth
having: migrating a busy donor's hot regions instead of dropping them
saves disk refetches.  ``benchmarks/gate.py cache`` emits and gates the
full ``BENCH_cache.json`` artifact, including the caching claim itself:
the migration run must finish with strictly fewer disk reads than the
evict-only run, with migrated hits and completed migrations behind it.
"""

import json

from repro.exp.cache import format_cache, run_cache


def test_bench_cache_migration_saves_refetches(once):
    """The claim pair: migration beats evict-only on disk refetches."""
    def run_pair():
        evict = run_cache(policy="cost-aware", workload="nondedicated")
        migrate = run_cache(policy="cost-aware", migration=True,
                            workload="nondedicated")
        return evict, migrate

    evict, migrate = once(run_pair)
    print(f"\n{format_cache({'rows': [evict, migrate]})}")
    assert evict["requests"] == migrate["requests"]
    assert migrate["disk_reads"] < evict["disk_reads"]
    assert migrate["migrated_hits"] > 0
    assert migrate["migrations"]["ok"] > 0
    # evict-only never migrates; the delta is all the migration's doing
    assert evict["migrated_hits"] == 0
    assert evict["migrations"]["ok"] == 0


def test_bench_cache_deterministic(once):
    """Same seed, same cell — byte-identical counters on replay."""
    def run_twice():
        kwargs = dict(policy="cost-aware", migration=True,
                      workload="nondedicated", seed=9, num_iter=4)
        return run_cache(**kwargs), run_cache(**kwargs)

    a, b = once(run_twice)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

