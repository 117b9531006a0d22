"""Cache-bench checks: the elastic-caching ablation and its claim.

The caching ablation (:mod:`repro.exp.cache`) replays the Figure 7
and non-dedicated workloads under every eviction policy, then adds
the hotspot-migration variant on the non-dedicated workload.  Every
reported number is virtual-time-only and byte-identical per seed, so
the gate compares the baseline exactly — no machine normalization.  See docs/CACHING.md for the
policy semantics and the migration protocol behind these numbers.

The pytest tests run the claim pair (cost-aware reclaim with and
without migration) and check the property that makes the subsystem
worth having: migrating a busy donor's hot regions instead of
dropping them saves disk refetches.  Run as a script this file
emits/gates the ``BENCH_cache.json`` artifact::

    PYTHONPATH=src python benchmarks/test_bench_cache.py \
        --out benchmarks/BENCH_cache.json         # refresh baseline
    PYTHONPATH=src python benchmarks/test_bench_cache.py \
        --check benchmarks/BENCH_cache.json       # CI gate

The gate also enforces the caching claim itself: the migration run
must finish with strictly fewer disk reads than the evict-only run,
and every migrated hit must be backed by a completed migration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exp.cache import format_cache, run_cache, run_cache_ablation


def collect_cache(seed: int = 9, num_iter: int = 6) -> dict:
    """The BENCH_cache payload: ablation rows plus the pinned claim.

    Everything in it is deterministic simulation outcome — the gate
    compares against the baseline exactly.
    """
    results = run_cache_ablation(seed=seed, num_iter=num_iter)
    return {
        "rows": results["rows"],
        "claim": results["claim"],
        "python": sys.version.split()[0],
    }


def _variant(row: dict) -> str:
    """Row identity within a workload: policy plus its variant flags."""
    name = row["policy"]
    if row.get("migration"):
        name += "+migrate"
    return f"{row['workload']}/{name}"


#: per-row fields that must match the baseline exactly (all are
#: virtual-time simulation outcomes, not wall-clock measurements)
_EXACT = ("seed", "requests", "local_hits", "remote_hits",
          "migrated_hits", "disk_reads", "remote_lost", "evictions",
          "evicted_bytes", "entries_evicted", "elapsed_s")


def check_cache(metrics: dict, baseline: dict) -> list[str]:
    """Gate a fresh ablation against a baseline; returns failures."""
    failures = []
    base_rows = {_variant(r): r for r in baseline.get("rows", ())}
    for row in metrics["rows"]:
        old = base_rows.get(_variant(row))
        if old is None:
            continue
        for key in _EXACT:
            if row.get(key) != old.get(key):
                failures.append(
                    f"{_variant(row)} {key} changed: "
                    f"{row.get(key)!r} vs baseline {old.get(key)!r}")
        if row.get("migrations") != old.get("migrations"):
            failures.append(
                f"{_variant(row)} migrations changed: "
                f"{row.get('migrations')!r} vs baseline "
                f"{old.get('migrations')!r}")
    failures.extend(check_cache_claim(metrics["claim"]))
    return failures


def check_cache_claim(claim: dict) -> list[str]:
    """The acceptance criterion: migration saves disk refetches."""
    failures = []
    if not claim.get("migration_reduces_refetches"):
        failures.append(
            f"migration did not reduce disk refetches: "
            f"{claim.get('disk_reads_migration')} with migration vs "
            f"{claim.get('disk_reads_evict_only')} evict-only")
    if claim.get("refetches_saved", 0) <= 0:
        failures.append(
            f"refetches_saved must be positive, got "
            f"{claim.get('refetches_saved')!r}")
    if claim.get("migrated_hits", 0) <= 0:
        failures.append("migration run recorded no migrated hits")
    if claim.get("migrations_ok", 0) <= 0:
        failures.append("migration run completed no migrations")
    return failures


# -- pytest checks (claim pair only, for speed) -------------------------------

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


def main(argv=None) -> int:
    """Emit and/or gate the BENCH_cache artifact (see module docs)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None,
                    help="write the cache ablation JSON here")
    ap.add_argument("--check", type=Path, default=None,
                    help="baseline JSON to gate against")
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--iters", type=int, default=6)
    args = ap.parse_args(argv)

    metrics = collect_cache(seed=args.seed, num_iter=args.iters)
    print(format_cache(metrics))

    if args.out:
        args.out.write_text(json.dumps(metrics, indent=2, sort_keys=True)
                            + "\n")
        print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(args.check.read_text())
        failures = check_cache(metrics, baseline)
        if failures:
            for f in failures:
                print(f"CACHE REGRESSION: {f}", file=sys.stderr)
            return 1
        print(f"cache gate passed against {args.check}")
    else:
        for f in check_cache_claim(metrics["claim"]):
            print(f"CACHE REGRESSION: {f}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
