#!/usr/bin/env python
"""The bench gate: emit, schema-check and compare the BENCH artifacts.

Four artifacts, one record each in :data:`ARTIFACTS`:

* ``primitives`` (``BENCH_primitives.json``) — raw DES-kernel dispatch
  throughput, one large lossless bulk transfer through the flow-level
  fast path and through the packet path, and an end-to-end fig7 driver
  (lu over UDP at 1/64 scale);
* ``scaling`` (``BENCH_scaling.json``) — the 500/1000/2000-host
  scale-out series of :mod:`repro.exp.scale`;
* ``serving`` (``BENCH_serving.json``) — the shard-count serving series
  of :mod:`repro.exp.serving`;
* ``cache`` (``BENCH_cache.json``) — the elastic-caching ablation of
  :mod:`repro.exp.cache` and its migration claim.

A record is data.  It names its rows, and lists every field under the
check it gets — compared exactly, within the tolerance in one direction,
as a wall time normalized by the run's kernel events/sec, or by the
schema only — each with its schema kind.  Limits and a claim hold
whatever the baseline says.  One engine reads the table::

    PYTHONPATH=src python benchmarks/gate.py NAME [--out F] [--check F]
    python benchmarks/gate.py --schema [FILE...]

where ``F`` is ``benchmarks/BENCH_NAME.json`` to refresh (``--out``) or
gate against (``--check``) the checked-in baseline.

A run prints the fresh document, writes it with ``--out``, and fails if
it breaks its schema, a limit or its claim; ``--check`` also checks the
baseline's schema and compares the two.  A wall time is compared as
``wall * kernel events/sec``, in kernel-event-equivalents of work, which
transfer across machines: a slower runner does not fail the gate, only
more work per event or more events do.  ``--schema`` checks files on
their own (by default the four checked-in baselines) and imports
nothing from ``repro``, so it runs before any package is installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MB = 1024 * 1024

#: default transfer size; --full raises it to a full GB
BULK_BYTES = 256 * MB
BULK_BYTES_FULL = 1024 * MB

#: allowed fractional regression of a tolerance or wall field; on top
#: of best-of-N sampling it absorbs ordinary runner variance
TOLERANCE = 0.30


# -- measurements -------------------------------------------------------------

def bench_events_per_sec(n_events: int = 300_000, repeats: int = 3) -> dict:
    """Kernel dispatch throughput: a chain of bare timeouts.

    Best of ``repeats`` runs — on shared/virtualized CPUs, steal time
    can halve a single run's wall clock, and the best run is the least
    contaminated estimate of what the kernel actually costs.  The
    per-run CPU-time figure is reported alongside as a noise-immune
    cross-check (``events_per_cpu_sec``).
    """
    from repro.sim import Simulator

    best = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed=0)

        def ticker():
            for _ in range(n_events):
                yield sim.timeout(1e-7)

        sim.process(ticker())
        t0 = time.perf_counter()
        c0 = time.process_time()
        sim.run()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        run = {"events_per_sec": sim.events_processed / wall,
               "events_per_cpu_sec": sim.events_processed / cpu,
               "kernel_events": sim.events_processed,
               "kernel_wall_s": wall}
        if best is None or run["events_per_sec"] > best["events_per_sec"]:
            best = run
    return best


def _bulk_once(size: int, fastpath: bool) -> dict:
    from repro.net import (NIC, Network, TransportEndpoint, recv_bulk,
                           send_bulk, transport_params)
    from repro.net.bulk import BulkParams
    from repro.sim import Simulator

    sim = Simulator(seed=1, fastpath=fastpath)
    network = Network(sim)
    eps = {}
    for host in ("a", "b"):
        nic = NIC(sim, host)
        network.attach(nic)
        eps[host] = TransportEndpoint(sim, nic, network,
                                      transport_params("udp"))
    tx = eps["a"].socket()
    rx = eps["b"].socket(port=7, recvbuf=256 * 1024)
    params = BulkParams()

    def sender():
        yield sim.process(send_bulk(tx, ("b", 7), size, params=params))
        return sim.now

    sim.process(recv_bulk(rx, params=params))
    t0 = time.perf_counter()
    t_virtual = sim.run(until=sim.process(sender()))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "virtual_s": t_virtual,
            "events": sim.events_processed,
            "engaged": network.stats.count("fastpath.transfers")}


def bench_bulk(size: int, repeats: int = 3) -> dict:
    """Bulk transfer walls, best of ``repeats`` runs per path.

    The fast-path wall is sub-millisecond — a single steal burst on a
    shared CPU can triple it — so, as with :func:`bench_events_per_sec`,
    the best run is the least contaminated estimate and the speedup is
    the ratio of the two bests.
    """
    runs = max(1, repeats)
    fast = min((_bulk_once(size, fastpath=True) for _ in range(runs)),
               key=lambda r: r["wall_s"])
    pkt = min((_bulk_once(size, fastpath=False) for _ in range(runs)),
              key=lambda r: r["wall_s"])
    assert fast["engaged"] == 1, "fast path failed to engage"
    assert fast["virtual_s"] == pkt["virtual_s"], \
        "fast path changed simulated time — this is a correctness bug"
    return {
        "bulk_bytes": size,
        "bulk_fast_wall_s": fast["wall_s"],
        "bulk_packet_wall_s": pkt["wall_s"],
        "bulk_fast_speedup_x": pkt["wall_s"] / fast["wall_s"],
        "bulk_fast_events": fast["events"],
        "bulk_packet_events": pkt["events"],
        "bulk_mb_per_wall_s": size / MB / fast["wall_s"],
        "bulk_virtual_s": fast["virtual_s"],
    }


def bench_fig7() -> dict:
    """Wall time of lu over UDP at 1/64 scale, fast paths on and off."""
    from repro.exp.fig7 import run_lu

    t0 = time.perf_counter()
    res = run_lu("udp", scale=1 / 64)
    wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_pkt = run_lu("udp", scale=1 / 64, fastpath=False)
    wall_pkt = time.perf_counter() - t0
    assert res == res_pkt, \
        "fast path changed fig7 results — this is a correctness bug"
    return {"fig7_lu_runtime_s": wall,
            "fig7_lu_packet_runtime_s": wall_pkt,
            "fig7_fastpath_speedup_x": wall_pkt / wall,
            "fig7_lu_speedup": res["speedup"]}


# -- collectors and printers --------------------------------------------------

def _python() -> str:
    return sys.version.split()[0]


def collect_primitives(full: bool = False) -> dict:
    """Kernel throughput, the bulk data path and an end-to-end fig7 run."""
    metrics = {}
    metrics.update(bench_events_per_sec())
    metrics.update(bench_bulk(BULK_BYTES_FULL if full else BULK_BYTES))
    metrics.update(bench_fig7())
    metrics["python"] = _python()
    metrics["full"] = full
    return metrics


def collect_scaling() -> dict:
    """The host-count scale-out series plus its kernel-throughput anchor."""
    from repro.exp.scale import run_scaling
    kernel = bench_events_per_sec()
    return {"kernel_events_per_sec": kernel["events_per_sec"],
            "points": run_scaling(),
            "python": _python()}


def collect_serving(shards: Optional[list] = None, jobs: int = 1) -> dict:
    """The shard-count serving series (virtual time only)."""
    from repro.exp.serving import SHARD_COUNTS, run_serve_bench
    return {"points": run_serve_bench(tuple(shards or SHARD_COUNTS),
                                      jobs=jobs),
            "python": _python()}


def collect_cache() -> dict:
    """The elastic-caching ablation rows and claim (virtual time only)."""
    from repro.exp.cache import run_cache_ablation
    results = run_cache_ablation()
    return {"rows": results["rows"], "claim": results["claim"],
            "python": _python()}


def show_primitives(doc: dict) -> str:
    lines = []
    for key in ("events_per_sec", "events_per_cpu_sec", "bulk_fast_wall_s",
                "bulk_packet_wall_s", "bulk_fast_speedup_x",
                "bulk_fast_events", "bulk_mb_per_wall_s",
                "fig7_lu_runtime_s", "fig7_fastpath_speedup_x"):
        value = doc[key]
        shown = f"{value:,.2f}" if isinstance(value, float) else str(value)
        lines.append(f"{key:>24}: {shown}")
    return "\n".join(lines)


def show_scaling(doc: dict) -> str:
    from repro.exp.scale import format_scale
    return (format_scale(doc["points"])
            + f"\nkernel: {doc['kernel_events_per_sec']:,.0f} events/s")


def show_serving(doc: dict) -> str:
    from repro.exp.serving import format_serving
    return format_serving(doc["points"])


def show_cache(doc: dict) -> str:
    from repro.exp.cache import format_cache
    return format_cache(doc)


# -- claims -------------------------------------------------------------------

def serving_claim(doc: dict) -> list[str]:
    """The widest point sustains at least the 1-shard throughput at
    equal-or-better p99, and no run ends with audit findings."""
    by_shards = {p["shards"]: p for p in doc["points"]}
    if 1 not in by_shards or len(by_shards) < 2:
        return ["series must include a 1-shard point and a wider one"]
    one = by_shards[1]
    wide = by_shards[max(by_shards)]
    failures = []
    if wide["throughput_rps"] < one["throughput_rps"]:
        failures.append(
            f"{wide['shards']}-shard throughput "
            f"{wide['throughput_rps']} rps below 1-shard "
            f"{one['throughput_rps']} rps")
    if wide["p99_ms"] > one["p99_ms"]:
        failures.append(
            f"{wide['shards']}-shard p99 {wide['p99_ms']} ms worse than "
            f"1-shard {one['p99_ms']} ms")
    for p in doc["points"]:
        if p["audit_findings"]:
            failures.append(f"{p['shards']}-shard run ended with "
                            f"{p['audit_findings']} audit findings")
    return failures


def cache_claim(doc: dict) -> list[str]:
    """Hotspot migration saves disk refetches over evict-only reclaim
    with completed migrations behind it, and the claim block's savings
    equal the difference of the two disk-read counts it cites."""
    claim = doc["claim"]
    evict, migrate = (claim["disk_reads_evict_only"],
                      claim["disk_reads_migration"])
    saved = claim["refetches_saved"]
    failures = []
    if saved != evict - migrate:
        failures.append(
            f"claim: 'refetches_saved' ({saved}) does not equal "
            f"disk_reads_evict_only - disk_reads_migration "
            f"({evict} - {migrate})")
    if not claim["migration_reduces_refetches"]:
        failures.append(
            f"migration did not reduce disk refetches: {migrate} with "
            f"migration vs {evict} evict-only")
    if saved <= 0:
        failures.append(f"refetches_saved must be positive, got {saved!r}")
    if claim["migrated_hits"] <= 0:
        failures.append("migration run recorded no migrated hits")
    if claim["migrations_ok"] <= 0:
        failures.append("migration run completed no migrations")
    return failures


# -- the table ----------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: schema kinds: the test a value must pass, and the phrase for a failure;
#: a dict in place of a kind is a nested object with those field kinds
KINDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "number": (lambda v: _is_number(v) and math.isfinite(v) and v > 0,
               "a finite positive number"),
    "int": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "count": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "integer": (_is_int, "an integer"),
    "fraction": (lambda v: _is_number(v) and 0.0 <= v <= 1.0,
                 "a number in [0, 1]"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


class Limit(NamedTuple):
    """An absolute bound on one row field, whatever the baseline says."""

    key: str
    floor: float = -math.inf
    budget: float = math.inf
    #: label of the one row it binds; "" binds every row
    row: str = ""


@dataclass(frozen=True)
class Artifact:
    """One benchmark artifact: how to produce it and what gates it.

    Each row field sits in the dict of the check it gets, mapped to its
    schema kind; ``fields`` holds those only the schema checks.  A flat
    document (``series=None``) is its own single row.
    """

    collect: Callable[..., dict]
    show: Callable[[dict], str]
    #: extra command-line flags, as ``add_argument`` keyword arguments;
    #: each reaches ``collect`` as the keyword argparse derives from it
    options: dict = field(default_factory=dict)
    #: document-level field kinds
    top: dict = field(default_factory=dict)
    #: the document's list of rows, and the field they strictly increase in
    series: Optional[str] = None
    increasing: Optional[str] = None
    #: a row's name: matches fresh rows to baseline rows, heads messages
    label: Callable[[dict], str] = lambda row: ""
    #: compared with the baseline: exactly, or within ``TOLERANCE`` in
    #: the bad direction
    exact: dict = field(default_factory=dict)
    lower_better: dict = field(default_factory=dict)
    higher_better: dict = field(default_factory=dict)
    #: wall times, compared as wall x the document-level ``anchor``
    #: (kernel events/sec); lower is better
    walls: dict = field(default_factory=dict)
    anchor: Optional[str] = None
    fields: dict = field(default_factory=dict)
    limits: tuple = ()
    claim: Callable[[dict], list] = lambda doc: []

    @property
    def kinds(self) -> dict:
        """Every row field the schema requires, with its kind."""
        return {**self.exact, **self.lower_better, **self.higher_better,
                **self.walls, **self.fields}

    def rows(self, doc: dict) -> list:
        return doc[self.series] if self.series else [doc]


def _cache_variant(row: dict) -> str:
    """Row identity: workload, policy and the migration flag."""
    return (f"{row['workload']}/{row['policy']}"
            + ("+migrate" if row["migration"] else ""))


ARTIFACTS: dict[str, Artifact] = {
    "primitives": Artifact(
        collect=collect_primitives, show=show_primitives,
        options={"--full": dict(
            action="store_true",
            help="GB-scale bulk transfer instead of 256 MB")},
        top={"python": "str", "full": "bool"},
        lower_better={"bulk_fast_events": "int"},  # deterministic
        # the speedup is a ratio of two walls on one machine; the
        # kernel's raw dispatch trajectory must not slide back
        higher_better={"bulk_fast_speedup_x": "number",
                       "events_per_sec": "number"},
        walls={"bulk_fast_wall_s": "number", "fig7_lu_runtime_s": "number"},
        anchor="events_per_sec",
        fields={"events_per_cpu_sec": "number", "kernel_events": "int",
                "kernel_wall_s": "number", "bulk_bytes": "int",
                "bulk_packet_wall_s": "number", "bulk_packet_events": "int",
                "bulk_mb_per_wall_s": "number", "bulk_virtual_s": "number",
                "fig7_lu_packet_runtime_s": "number",
                "fig7_fastpath_speedup_x": "number",
                "fig7_lu_speedup": "number"},
        # the fast path must beat the packet path by 5x on the large
        # lossless transfer; the throughput floor catches a dispatch
        # regression even when the baseline file is stale
        limits=(Limit("bulk_fast_speedup_x", floor=5.0),
                Limit("events_per_sec", floor=400_000.0))),
    "scaling": Artifact(
        collect=collect_scaling, show=show_scaling,
        top={"kernel_events_per_sec": "number", "python": "str"},
        series="points", increasing="hosts",
        label=lambda p: f"{p['hosts']}-host",
        # deterministic: drift means the simulated behavior (or the
        # batching that computes it) changed
        exact={"events": "int", "requests": "int"},
        walls={"wall_s": "number"}, anchor="kernel_events_per_sec",
        fields={"hosts": "int", "seed": "int", "virtual_s": "number",
                "elapsed_s": "number", "build_wall_s": "number",
                "events_per_sec": "number", "peak_rss_mb": "number",
                "fastpath": {"dgrams": "number", "bulk_transfers": "number",
                             "disk_batches": "number"}},
        # far above a healthy run (seconds), low enough to catch an
        # event explosion
        limits=(Limit("wall_s", budget=120.0, row="1000-host"),)),
    "serving": Artifact(
        collect=collect_serving, show=show_serving,
        options={"--shards": dict(type=int, nargs="+",
                                  help="shard counts (default 1 2 4 8)"),
                 "--jobs": dict(type=int, default=1,
                                help="worker processes")},
        top={"python": "str"},
        series="points", increasing="shards",
        label=lambda p: f"{p['shards']}-shard",
        exact={"shards": "int", "seed": "count", "offered": "int",
               "completed": "int", "rejected": "count", "failed": "count",
               "writes": "count", "disk_fallbacks": "count",
               "p50_ms": "number", "p99_ms": "number", "p999_ms": "number",
               "good_fraction": "fraction", "audit_findings": "count"},
        fields={"arrival_rate": "number", "duration_s": "number",
                "mgr_service_s": "number", "throughput_rps": "number",
                "mean_ms": "number", "latency_slo_ms": "number",
                "virtual_s": "number", "n_keys": "int",
                "replication": "bool"},
        claim=serving_claim),
    "cache": Artifact(
        collect=collect_cache, show=show_cache,
        top={"python": "str",
             "claim": {"workload": "str", "policy": "str", "seed": "count",
                       "disk_reads_evict_only": "count",
                       "disk_reads_migration": "count",
                       "migrated_hits": "count", "migrations_ok": "count",
                       "migration_reduces_refetches": "bool",
                       "refetches_saved": "integer"}},
        series="rows", label=_cache_variant,
        exact={"seed": "count", "requests": "int", "local_hits": "count",
               "remote_hits": "count", "migrated_hits": "count",
               "disk_reads": "count", "remote_lost": "count",
               "evictions": "count", "evicted_bytes": "count",
               "entries_evicted": "count", "elapsed_s": "number",
               "migrations": {"attempted": "count", "ok": "count",
                              "failed": "count", "bytes": "count"}},
        fields={"workload": "str", "policy": "str", "migration": "bool",
                "reclaims": "count", "recruits": "count"},
        claim=cache_claim),
}

#: the checked-in baselines, one per artifact
BASELINES = [os.path.join(HERE, f"BENCH_{name}.json") for name in ARTIFACTS]


# -- the engine ---------------------------------------------------------------

def _validate(obj, kinds: dict, where: str) -> list[str]:
    if not isinstance(obj, dict):
        return [f"{where}: must be an object"]
    problems = []
    for key, kind in kinds.items():
        if key not in obj:
            problems.append(f"{where}: missing {key!r}")
        elif isinstance(kind, dict):
            problems.extend(_validate(obj[key], kind, f"{where}: {key}"))
        elif not KINDS[kind][0](obj[key]):
            problems.append(f"{where}: {key!r} must be {KINDS[kind][1]}, "
                            f"got {obj[key]!r}")
    return problems


def schema(name: str, doc, where: str) -> list[str]:
    """Every field missing or of the wrong kind, and a series that is
    empty or out of order."""
    art = ARTIFACTS[name]
    if not isinstance(doc, dict):
        return [f"{where}: top level must be an object"]
    problems = _validate(doc, art.top, where)
    if art.series is None:
        return problems + _validate(doc, art.kinds, where)
    rows = doc.get(art.series)
    if not isinstance(rows, list) or not rows:
        return problems + [f"{where}: {art.series!r} must be a non-empty "
                           f"list"]
    for i, row in enumerate(rows):
        problems.extend(_validate(row, art.kinds,
                                  f"{where}: {art.series}[{i}]"))
    if art.increasing:
        seen = [row[art.increasing] for row in rows
                if isinstance(row, dict) and _is_int(row.get(art.increasing))]
        if seen != sorted(set(seen)):
            problems.append(f"{where}: {art.series} must be strictly "
                            f"increasing in {art.increasing!r}, got {seen}")
    return problems


def _named(label: str, key: str) -> str:
    return f"{label} {key}" if label else key


def _at(where: str, lines: list[str]) -> list[str]:
    return [f"{where}: {line}" for line in lines]


def absolute(name: str, doc: dict) -> list[str]:
    """The limits and the claim of a schema-valid document."""
    art = ARTIFACTS[name]
    failures = []
    for row in art.rows(doc):
        label = art.label(row)
        for limit in art.limits:
            if limit.row not in ("", label):
                continue
            value = row[limit.key]
            if value < limit.floor:
                failures.append(f"{_named(label, limit.key)} {value:,.4g} "
                                f"below the {limit.floor:,g} floor")
            if value > limit.budget:
                failures.append(f"{_named(label, limit.key)} {value:.4g} "
                                f"blows the {limit.budget:g} budget")
    return failures + art.claim(doc)


def regressions(name: str, doc: dict, baseline: dict) -> list[str]:
    """Every row field that moved past its baseline; rows are matched by
    label, and a row missing from either side is not compared."""
    art = ARTIFACTS[name]
    old_rows = {art.label(row): row for row in art.rows(baseline)}
    failures = []
    for row in art.rows(doc):
        label = art.label(row)
        old = old_rows.get(label)
        if old is None:
            continue
        for key in art.exact:
            if row[key] != old[key]:
                failures.append(f"{_named(label, key)} changed: "
                                f"{row[key]!r} vs baseline {old[key]!r}")
        for key in art.lower_better:
            if row[key] > old[key] * (1 + TOLERANCE):
                failures.append(f"{_named(label, key)} regressed: "
                                f"{row[key]:.4g} vs {old[key]:.4g}")
        for key in art.higher_better:
            if row[key] < old[key] * (1 - TOLERANCE):
                failures.append(f"{_named(label, key)} regressed: "
                                f"{row[key]:.4g} vs {old[key]:.4g}")
        for key in art.walls:
            new = row[key] * doc[art.anchor]
            was = old[key] * baseline[art.anchor]
            if new > was * (1 + TOLERANCE):
                failures.append(
                    f"{_named(label, key)} regressed (normalized): "
                    f"{new:.4g} vs {was:.4g} kernel-event-equivalents")
    return failures


def standalone(name: str, doc, where: str) -> list[str]:
    """Everything wrong with one document on its own: its schema, then
    (once the schema holds) its limits and its claim."""
    return schema(name, doc, where) or _at(where, absolute(name, doc))


def gate(name: str, doc: dict, baseline: Optional[dict] = None) -> list[str]:
    """Every failure of a fresh document, compared with ``baseline``
    when one is given."""
    if baseline is None:
        return standalone(name, doc, name)
    problems = schema(name, doc, name) + schema(name, baseline, "baseline")
    if problems:
        return problems  # the comparisons need every field in place
    return _at(name, absolute(name, doc) + regressions(name, doc, baseline))


def check_files(paths: list[str]) -> int:
    """``--schema``: each file on its own, its artifact named by its file
    name; one line per problem, exit 1 on any."""
    problems = []
    for path in paths:
        where = os.path.basename(path)
        name = next((n for n in ARTIFACTS if n in where), None)
        if name is None:
            problems.append(f"{where}: not a bench artifact (the file name "
                            f"must contain one of {', '.join(ARTIFACTS)})")
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            problems.append(f"{where}: unreadable ({exc})")
            continue
        problems.extend(standalone(name, doc, where))
    for line in problems:
        print(f"BENCH SCHEMA: {line}", file=sys.stderr)
    if not problems:
        print("bench schema ok: "
              + ", ".join(os.path.basename(p) for p in paths))
    return 1 if problems else 0


def main(argv=None) -> int:
    """Emit, schema-check and gate one artifact, or check files with
    ``--schema`` (see the module docs)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--schema", nargs="*", metavar="FILE",
                    help="check files on their own (default: the "
                         "checked-in baselines); standard library only")
    sub = ap.add_subparsers(dest="name", metavar="NAME")
    for name, art in ARTIFACTS.items():
        p = sub.add_parser(name, help=art.collect.__doc__.splitlines()[0])
        p.add_argument("--out", help="write the fresh document here")
        p.add_argument("--check", help="baseline document to gate against")
        for flag, kwargs in art.options.items():
            p.add_argument(flag, **kwargs)
    args = vars(ap.parse_args(argv))
    files, name = args.pop("schema"), args.pop("name")
    if files is not None:
        return check_files(files or BASELINES)
    if name is None:
        ap.error("name an artifact, or pass --schema")
    out, check = args.pop("out"), args.pop("check")

    art = ARTIFACTS[name]
    doc = art.collect(**args)
    print(art.show(doc))
    if out:
        with open(out, "w") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    baseline = None
    if check:
        with open(check) as f:
            baseline = json.load(f)
    failures = gate(name, doc, baseline)
    for line in failures:
        print(f"BENCH GATE: {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"{name} gate passed" + (f" against {check}" if check else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
