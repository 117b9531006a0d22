#!/usr/bin/env python
"""Schema check for the checked-in benchmark baselines.

Validates ``benchmarks/BENCH_primitives.json``,
``benchmarks/BENCH_scaling.json``, ``benchmarks/BENCH_serving.json``
and ``benchmarks/BENCH_cache.json`` (or any files passed as arguments,
matched by name) with nothing but the standard library, so the CI step
needs no installed package — the gate scripts themselves read these
files, and a malformed refresh would otherwise surface as a confusing
gate failure instead of a schema diagnosis.

Checks per file:

* every required field is present with the right type;
* throughput, wall-clock and footprint numbers are finite and positive;
* the scaling/serving series are sorted by strictly increasing host
  count / shard count;
* the cache ablation's claim block is internally consistent (the
  refetch savings match the two disk-read counts it cites).

Exit 1 with one line per problem.  Run from the repo root::

    python tools/check_bench_schema.py            # both defaults
    python tools/check_bench_schema.py FILE...    # explicit files
"""

from __future__ import annotations

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULTS = [
    os.path.join(ROOT, "benchmarks", "BENCH_primitives.json"),
    os.path.join(ROOT, "benchmarks", "BENCH_scaling.json"),
    os.path.join(ROOT, "benchmarks", "BENCH_serving.json"),
    os.path.join(ROOT, "benchmarks", "BENCH_cache.json"),
]

#: required top-level numeric fields of BENCH_primitives.json
PRIMITIVES_NUMBERS = [
    "events_per_sec", "events_per_cpu_sec", "kernel_wall_s",
    "bulk_fast_wall_s", "bulk_packet_wall_s", "bulk_fast_speedup_x",
    "bulk_mb_per_wall_s", "bulk_virtual_s",
    "fig7_lu_runtime_s", "fig7_lu_packet_runtime_s",
    "fig7_fastpath_speedup_x", "fig7_lu_speedup",
]
PRIMITIVES_INTS = ["bulk_bytes", "bulk_fast_events", "bulk_packet_events",
                   "kernel_events"]

#: required per-point numeric fields of BENCH_scaling.json
SCALING_POINT_NUMBERS = ["virtual_s", "elapsed_s", "wall_s", "build_wall_s",
                         "events_per_sec", "peak_rss_mb"]
SCALING_POINT_INTS = ["hosts", "seed", "events", "requests"]
SCALING_FASTPATH = ["dgrams", "bulk_transfers", "disk_batches"]

#: required per-point fields of BENCH_serving.json (all virtual-time)
SERVING_POINT_NUMBERS = ["arrival_rate", "duration_s", "mgr_service_s",
                         "throughput_rps", "p50_ms", "p99_ms", "p999_ms",
                         "mean_ms", "latency_slo_ms", "virtual_s"]
SERVING_POINT_INTS = ["shards", "offered", "completed", "n_keys"]
#: present and integer-typed, but legitimately zero in a healthy run
SERVING_POINT_COUNTS = ["rejected", "failed", "writes", "disk_fallbacks",
                        "audit_findings", "seed"]

#: required per-row fields of BENCH_cache.json (all virtual-time)
CACHE_ROW_INTS = ["requests"]
#: present and integer-typed, but legitimately zero in a healthy run
CACHE_ROW_COUNTS = ["seed", "local_hits", "remote_hits", "disk_reads",
                    "remote_lost", "migrated_hits", "evictions",
                    "evicted_bytes", "entries_evicted", "reclaims",
                    "recruits"]
CACHE_MIGRATIONS = ["attempted", "ok", "failed", "bytes"]
CACHE_CLAIM_COUNTS = ["seed", "disk_reads_evict_only",
                      "disk_reads_migration", "migrated_hits",
                      "migrations_ok"]


def _positive_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _require(problems: list, where: str, obj: dict, key: str,
             kind: str) -> None:
    """Append a problem line unless ``obj[key]`` matches ``kind``."""
    if key not in obj:
        problems.append(f"{where}: missing {key!r}")
        return
    value = obj[key]
    if kind == "number" and not _positive_number(value):
        problems.append(f"{where}: {key!r} must be a finite positive "
                        f"number, got {value!r}")
    elif kind == "int" and (isinstance(value, bool)
                            or not isinstance(value, int) or value <= 0):
        problems.append(f"{where}: {key!r} must be a positive integer, "
                        f"got {value!r}")
    elif kind == "str" and not isinstance(value, str):
        problems.append(f"{where}: {key!r} must be a string, got {value!r}")


def check_primitives(doc: dict, where: str) -> list:
    """BENCH_primitives.json: flat metrics dict from perf_smoke.py."""
    problems: list = []
    if not isinstance(doc, dict):
        return [f"{where}: top level must be an object"]
    for key in PRIMITIVES_NUMBERS:
        _require(problems, where, doc, key, "number")
    for key in PRIMITIVES_INTS:
        _require(problems, where, doc, key, "int")
    _require(problems, where, doc, "python", "str")
    if not isinstance(doc.get("full"), bool):
        problems.append(f"{where}: 'full' must be a boolean")
    return problems


def check_scaling(doc: dict, where: str) -> list:
    """BENCH_scaling.json: kernel anchor + host-count series."""
    problems: list = []
    if not isinstance(doc, dict):
        return [f"{where}: top level must be an object"]
    _require(problems, where, doc, "kernel_events_per_sec", "number")
    _require(problems, where, doc, "python", "str")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        problems.append(f"{where}: 'points' must be a non-empty list")
        return problems
    hosts_seen = []
    for i, point in enumerate(points):
        at = f"{where}: points[{i}]"
        if not isinstance(point, dict):
            problems.append(f"{at}: must be an object")
            continue
        for key in SCALING_POINT_NUMBERS:
            _require(problems, at, point, key, "number")
        for key in SCALING_POINT_INTS:
            _require(problems, at, point, key, "int")
        fastpath = point.get("fastpath")
        if not isinstance(fastpath, dict):
            problems.append(f"{at}: missing 'fastpath' object")
        else:
            for key in SCALING_FASTPATH:
                if not _positive_number(fastpath.get(key)):
                    problems.append(
                        f"{at}: fastpath[{key!r}] must be a positive "
                        f"number, got {fastpath.get(key)!r}")
        if isinstance(point.get("hosts"), int):
            hosts_seen.append(point["hosts"])
    if hosts_seen != sorted(set(hosts_seen)):
        problems.append(f"{where}: host counts must be strictly "
                        f"increasing, got {hosts_seen}")
    return problems


def check_serving(doc: dict, where: str) -> list:
    """BENCH_serving.json: the shard-count serving series."""
    problems: list = []
    if not isinstance(doc, dict):
        return [f"{where}: top level must be an object"]
    _require(problems, where, doc, "python", "str")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        problems.append(f"{where}: 'points' must be a non-empty list")
        return problems
    shards_seen = []
    for i, point in enumerate(points):
        at = f"{where}: points[{i}]"
        if not isinstance(point, dict):
            problems.append(f"{at}: must be an object")
            continue
        for key in SERVING_POINT_NUMBERS:
            _require(problems, at, point, key, "number")
        for key in SERVING_POINT_INTS:
            _require(problems, at, point, key, "int")
        for key in SERVING_POINT_COUNTS:
            value = point.get(key)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                problems.append(f"{at}: {key!r} must be a non-negative "
                                f"integer, got {value!r}")
        good = point.get("good_fraction")
        if not isinstance(good, (int, float)) or isinstance(good, bool) \
                or not 0.0 <= good <= 1.0:
            problems.append(f"{at}: 'good_fraction' must be in [0, 1], "
                            f"got {good!r}")
        if not isinstance(point.get("replication"), bool):
            problems.append(f"{at}: 'replication' must be a boolean")
        if isinstance(point.get("shards"), int):
            shards_seen.append(point["shards"])
    if shards_seen != sorted(set(shards_seen)):
        problems.append(f"{where}: shard counts must be strictly "
                        f"increasing, got {shards_seen}")
    return problems


def _count(problems: list, where: str, obj: dict, key: str) -> None:
    """Require a non-negative integer (zero is legitimate)."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        problems.append(f"{where}: {key!r} must be a non-negative "
                        f"integer, got {value!r}")


def check_cache(doc: dict, where: str) -> list:
    """BENCH_cache.json: the elastic-caching ablation rows + claim."""
    problems: list = []
    if not isinstance(doc, dict):
        return [f"{where}: top level must be an object"]
    _require(problems, where, doc, "python", "str")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append(f"{where}: 'rows' must be a non-empty list")
        return problems
    for i, row in enumerate(rows):
        at = f"{where}: rows[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{at}: must be an object")
            continue
        for key in ("workload", "policy"):
            _require(problems, at, row, key, "str")
        if not isinstance(row.get("migration"), bool):
            problems.append(f"{at}: 'migration' must be a boolean, "
                            f"got {row.get('migration')!r}")
        _require(problems, at, row, "elapsed_s", "number")
        for key in CACHE_ROW_INTS:
            _require(problems, at, row, key, "int")
        for key in CACHE_ROW_COUNTS:
            _count(problems, at, row, key)
        migrations = row.get("migrations")
        if not isinstance(migrations, dict):
            problems.append(f"{at}: missing 'migrations' object")
        else:
            for key in CACHE_MIGRATIONS:
                _count(problems, f"{at}: migrations", migrations, key)
    claim = doc.get("claim")
    if not isinstance(claim, dict):
        problems.append(f"{where}: missing 'claim' object")
        return problems
    at = f"{where}: claim"
    for key in ("workload", "policy"):
        _require(problems, at, claim, key, "str")
    for key in CACHE_CLAIM_COUNTS:
        _count(problems, at, claim, key)
    if not isinstance(claim.get("migration_reduces_refetches"), bool):
        problems.append(f"{at}: 'migration_reduces_refetches' must be "
                        f"a boolean")
    saved = claim.get("refetches_saved")
    if isinstance(saved, bool) or not isinstance(saved, int):
        problems.append(f"{at}: 'refetches_saved' must be an integer, "
                        f"got {saved!r}")
    elif (isinstance(claim.get("disk_reads_evict_only"), int)
          and isinstance(claim.get("disk_reads_migration"), int)
          and saved != (claim["disk_reads_evict_only"]
                        - claim["disk_reads_migration"])):
        problems.append(
            f"{at}: 'refetches_saved' ({saved}) does not equal "
            f"disk_reads_evict_only - disk_reads_migration "
            f"({claim['disk_reads_evict_only']} - "
            f"{claim['disk_reads_migration']})")
    return problems


def check_file(path: str) -> list:
    """Dispatch on the file name; unknown names are a problem too."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        return [f"{name}: file not found at {path}"]
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as exc:
        return [f"{name}: invalid JSON ({exc})"]
    if "primitives" in name:
        return check_primitives(doc, name)
    if "scaling" in name:
        return check_scaling(doc, name)
    if "serving" in name:
        return check_serving(doc, name)
    if "cache" in name:
        return check_cache(doc, name)
    return [f"{name}: unrecognized benchmark file (expected a name "
            f"containing 'primitives', 'scaling', 'serving' or "
            f"'cache')"]


def main(argv=None) -> int:
    """Check the given files (default: both checked-in baselines)."""
    paths = (argv if argv is not None else sys.argv[1:]) or DEFAULTS
    problems = []
    for path in paths:
        problems.extend(check_file(path))
    for line in problems:
        print(f"BENCH SCHEMA: {line}", file=sys.stderr)
    if not problems:
        print(f"bench schema ok: {', '.join(os.path.basename(p) for p in paths)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
