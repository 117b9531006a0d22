"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro list
    python -m repro fig1
    python -m repro fig7 --scale-lu 1/64 --scale-dmine 1/16
    python -m repro fig8 --scale 1/128 --iters 3
    python -m repro fig7 --trace-out fig7.json --metrics-out fig7-metrics.json
    python -m repro trace fig7 --out fig7.json
    python -m repro top fig7
    python -m repro slo fig7 --out fig7-slo.json
    python -m repro fig7 --telemetry-out fig7.csv --events-out fig7.jsonl \\
        --audit raise
    python -m repro serve-bench --shards 1 2 4 8 --out serving.json
    python -m repro chaos fig7 --seed 3 --plan-out plan.json
    python -m repro chaos fig7 --plan-in plan.json --events-out chaos.jsonl
    python -m repro sweep ci-grid --jobs 4 --cache-dir .sweep-cache
    python -m repro sweep myspec.json --jobs 8 --resume --out results.json
    python -m repro record fig7 --seed 3 --out runs/fig7
    python -m repro serve runs/fig7 --port 8000
    python -m repro serve nondedicated --chaos --seed 5
    python -m repro whatif runs/fig7 --replacement mru
    python -m repro all --quick

``--trace-out`` writes a Chrome trace-event JSON (load it in Perfetto or
``chrome://tracing``); ``--metrics-out`` dumps every Recorder's counters
and sample summaries.  ``repro trace <exp>`` is shorthand that also
prints the fetch-path latency breakdown.  ``--telemetry-out`` /
``--events-out`` sample cluster state over virtual time and record
lifecycle events; ``--audit`` cross-checks directory/allocator/network
invariants while the run executes; ``repro top <exp>`` renders the
sampled series as an ASCII dashboard.  ``repro slo <exp>`` collects
per-request SLIs (tail-latency sketches, outcome classes, critical-path
stage blame) and evaluates SLO burn-rate alerts over the run.  See
docs/OBSERVABILITY.md.

``repro chaos <exp>`` runs a scaled-down experiment under a
seed-deterministic nemesis fault schedule with the invariant auditor in
``raise`` mode; ``--plan-out`` saves the schedule as JSON, ``--plan-in``
replays a saved one bit-for-bit.  See docs/TESTING.md.

``repro sweep <spec.json|builtin>`` fans a grid of independent
simulation points (experiment x overrides x seed) across ``--jobs``
worker processes, memoizing each point in a content-addressed
``--cache-dir``; ``--resume`` skips already-cached points so an
interrupted sweep continues where it left off.  See docs/SWEEPS.md.

``repro record <scenario>`` runs one seeded scenario with full
observability and writes a *run directory* (telemetry + event log +
canonical metrics).  ``repro serve <run-dir|scenario>`` serves the fleet
dashboard over it — or live, against a scenario still executing.
``repro whatif <run-dir>`` replays a recorded run under a changed
recruitment/placement/replacement policy and prints the side-by-side
delta.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable


def _scale(text: str) -> float:
    """Parse '1/64', '0.015625' or '1' into a float scale."""
    return float(Fraction(text))


def _write_out(path: str, doc, what: str) -> None:
    """Write a subcommand's ``--out`` document: canonical JSON (sorted
    keys, no whitespace) and a newline, replaced atomically so a reader
    never sees half a file."""
    from repro.obs.files import atomic_write
    from repro.sweep.spec import canonical_text
    with atomic_write(path) as fp:
        fp.write(canonical_text(doc) + "\n")
    print(f"wrote {what} to {path}", file=sys.stderr)


class CliError(Exception):
    """A user-facing CLI failure: printed as one line, exit code 2.

    Raised for unreadable input files and invalid references (unknown
    experiments in a sweep spec, malformed fault plans) — anything that
    is the invoker's mistake rather than a bug, and therefore must not
    produce a traceback.
    """


def cmd_fig1(args) -> None:
    """Figure 1: cluster-wide available memory over simulated days."""
    from repro.exp import sec2
    print(sec2.format_fig1(sec2.run_fig1(days=args.days)))


def cmd_table1(args) -> None:
    """Table 1: memory by use (kernel/file-cache/process/available)."""
    from repro.exp import sec2
    print(sec2.format_table1(sec2.run_table1(days=args.days)))


def cmd_fig2(args) -> None:
    """Figure 2: per-workstation availability variation."""
    from repro.exp import sec2
    print(sec2.format_fig2(sec2.run_fig2(days=args.days)))


def cmd_disk(args) -> None:
    """Section 5.1: application-level disk bandwidth calibration."""
    from repro.exp import disk_cal
    print(disk_cal.format_disk_calibration(
        disk_cal.run_disk_calibration()))


def cmd_fig7(args) -> None:
    """Figure 7: lu and dmine application speedups."""
    from repro.exp import fig7
    print(fig7.format_fig7(fig7.run_fig7(
        scale_lu=args.scale_lu, scale_dmine=args.scale_dmine)))


def cmd_fig8(args) -> None:
    """Figure 8: the four synthetic-benchmark panels."""
    from repro.exp import fig8
    print(fig8.format_fig8(fig8.run_fig8(scale=args.scale,
                                         num_iter=args.iters,
                                         jobs=getattr(args, "jobs", 1))))


def cmd_scale(args) -> None:
    """Thousand-host scale-out series: simulator throughput table."""
    from repro.exp import scale as sc
    hosts = tuple(args.hosts)
    results = sc.run_scaling(hosts, jobs=getattr(args, "jobs", 1),
                             num_iter=args.iters, owners=not args.no_owners)
    print(sc.format_scale(results))
    if args.out:
        _write_out(args.out, results, "scaling series")


def cmd_nondedicated(args) -> None:
    """Section 5.3.1: Dodo on a desktop cluster with owner churn."""
    from repro.exp import nondedicated as nd
    print(nd.format_nondedicated(nd.run_nondedicated(
        nd.NonDedicatedParams(num_iter=args.iters))))


def cmd_cache(args) -> None:
    """Elastic-caching ablation: eviction policies × workloads, plus
    the migration variant (docs/CACHING.md)."""
    from repro.exp.cache import format_cache, run_cache_ablation
    try:
        results = run_cache_ablation(
            seed=args.seed, num_iter=args.iters,
            policies=tuple(args.policies),
            workloads=tuple(args.workloads))
    except ValueError as exc:
        # unknown policy / workload names land here from config
        # validation: one repro: line and exit 2, not a traceback
        raise CliError(str(exc)) from exc
    print(format_cache(results))
    if args.out:
        _write_out(args.out, results, "ablation results")


def cmd_ablations(args) -> None:
    """All design-choice ablations, one table each."""
    from repro.exp import ablations as ab
    print(ab.format_allocator_ablation(ab.run_allocator_ablation()))
    print()
    print(ab.format_refraction_ablation(
        ab.run_refraction_ablation(scale=args.scale)))
    print()
    print(ab.format_policy_ablation(ab.run_policy_ablation(
        scale=args.scale)))
    print()
    print(ab.format_pregrant_ablation(ab.run_pregrant_ablation()))


def cmd_chaos(args) -> None:
    """Nemesis fault-injection run; replays --plan-in bit-for-bit."""
    from repro.faults.chaos import format_chaos, run_chaos
    from repro.faults.plan import FaultPlan
    plan = None
    if args.plan_in:
        try:
            plan = FaultPlan.read(args.plan_in)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CliError(f"cannot read fault plan {args.plan_in!r}: "
                           f"{exc}") from exc
    run = run_chaos(args.experiment, seed=args.seed, plan=plan,
                    audit=args.chaos_audit, horizon_s=args.horizon)
    print(format_chaos(run))
    if args.plan_out:
        run["plan"].write(args.plan_out)
        print(f"wrote {len(run['plan'])}-event fault plan to "
              f"{args.plan_out}", file=sys.stderr)
    if args.events_out:
        n = run["eventlog"].write_jsonl(args.events_out)
        print(f"wrote {n} events to {args.events_out}", file=sys.stderr)


def cmd_serve_bench(args) -> None:
    """Serve-bench: shard-count scaling of the Zipfian serving tier."""
    from repro.exp import serving as sv
    results = sv.run_serve_bench(
        tuple(args.shards), jobs=getattr(args, "jobs", 1),
        seed=args.seed, replication=not args.no_replication,
        arrival_rate=args.rate, duration_s=args.duration,
        n_keys=args.keys)
    print(sv.format_serving(results))
    if args.out:
        _write_out(args.out, results, "serving series")


def cmd_all(args) -> None:
    """Everything: shell out to examples/reproduce_paper.py."""
    import subprocess
    cmd = [sys.executable, "examples/reproduce_paper.py"]
    if args.quick:
        cmd.append("--quick")
    raise SystemExit(subprocess.call(cmd))


def cmd_sweep(args) -> int:
    """Parallel cached sweep over a grid of experiment points."""
    from repro.sweep import (EXPERIMENTS, SpecError, load_spec,
                             run_sweep)
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise CliError(str(exc)) from exc
    unknown = sorted({p.experiment for p in spec.points}
                     - set(EXPERIMENTS))
    if unknown:
        raise CliError(
            f"spec {args.spec!r} references unknown experiment(s) "
            f"{', '.join(unknown)}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}")
    result = run_sweep(spec, jobs=args.jobs,
                       cache_dir=args.cache_dir or None,
                       resume=args.resume, out=args.out,
                       progress=None if args.quiet else sys.stderr)
    print(result.summary())
    for run in result.runs:
        if run.status == "failed":
            print(f"  failed: {run.point.label()}: {run.error}",
                  file=sys.stderr)
    if args.out:
        print(f"wrote sweep results to {args.out}", file=sys.stderr)
    return 0 if result.ok else 1


def _policy_from_args(args):
    """A WhatIfPolicy from --replacement/--placement/... (None = keep)."""
    from repro.obs.fleet.whatif import WhatIfPolicy
    return WhatIfPolicy(
        replacement=args.replacement or "lru",
        placement=args.placement or "random",
        idle_window_s=args.idle_window,
        load_threshold=args.load_threshold)


def cmd_record(args) -> None:
    """Record one scenario run as a run directory for serve/whatif."""
    from repro.obs.fleet.whatif import record_run
    try:
        meta = record_run(args.out, args.scenario, seed=args.seed,
                          policy=_policy_from_args(args),
                          chaos=args.chaos, horizon_s=args.horizon,
                          interval_s=args.interval,
                          audit=args.record_audit)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    m = meta["metrics"]
    print(f"recorded {meta['scenario']} seed={meta['seed']}"
          + (" chaos" if meta.get("chaos") else "") + f" -> {args.out}")
    print(f"  requests={m['requests']} fetches={m['fetches']} "
          f"refetches={m['refetches']} reclaims={m['reclaims']} "
          f"fetch_p95={m['fetch_p95_s']:g}s elapsed={m['elapsed_s']:g}s")


def cmd_whatif(args) -> None:
    """Replay a recorded run under a changed policy; print the delta."""
    from repro.obs.fleet.store import RunDirError
    from repro.obs.fleet.whatif import format_whatif, run_whatif
    try:
        doc = run_whatif(args.run_dir, replacement=args.replacement,
                         placement=args.placement,
                         idle_window_s=args.idle_window,
                         load_threshold=args.load_threshold)
    except (RunDirError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    print(format_whatif(doc))
    if args.out:
        _write_out(args.out, doc, "what-if document")


def cmd_serve(args) -> None:
    """Serve the fleet dashboard over a run directory or a live run."""
    import os
    import threading
    from repro.obs.fleet.server import serve_live, serve_run_dir
    from repro.obs.fleet.store import RunDirError
    if os.path.isdir(args.target):
        try:
            server = serve_run_dir(args.target, host=args.host,
                                   port=args.port)
        except RunDirError as exc:
            raise CliError(str(exc)) from exc
    else:
        from repro.obs.eventlog import EventLog
        from repro.obs.fleet.whatif import SCENARIOS, run_scenario
        from repro.obs.timeseries import Telemetry
        if args.target not in SCENARIOS:
            raise CliError(
                f"{args.target!r} is neither a run directory nor a "
                f"live scenario; scenarios: {', '.join(SCENARIOS)}")
        telemetry = Telemetry(interval_s=args.interval)
        eventlog = EventLog(level="debug", telemetry=telemetry)
        server = serve_live(
            telemetry, eventlog, host=args.host, port=args.port,
            meta={"scenario": args.target, "seed": args.seed,
                  "chaos": bool(args.chaos)})
        threading.Thread(
            target=run_scenario, name="fleet-sim", daemon=True,
            kwargs=dict(scenario=args.target, seed=args.seed,
                        chaos=args.chaos, horizon_s=args.horizon,
                        interval_s=args.interval, telemetry=telemetry,
                        eventlog=eventlog, slo=True)).start()
    print(f"serving fleet dashboard at {server.url} (Ctrl-C to stop)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def cmd_trace(args) -> None:
    """Run one experiment with tracing forced on; delegate to its cmd_*."""
    args.trace_out = args.out
    COMMANDS[args.experiment][1](args)


def cmd_top(args) -> None:
    """Run one experiment with telemetry forced on; delegate to its
    cmd_*.  The dashboard itself renders in :func:`main` afterwards."""
    COMMANDS[args.experiment][1](args)


def cmd_slo(args) -> None:
    """Run one experiment with SLI collection + SLO evaluation forced
    on; delegate to its cmd_*.  The report renders afterwards."""
    COMMANDS[args.experiment][1](args)


COMMANDS: dict[str, tuple[str, Callable]] = {
    "fig1": ("Figure 1: cluster memory availability", cmd_fig1),
    "table1": ("Table 1: memory by use per host class", cmd_table1),
    "fig2": ("Figure 2: per-workstation variation", cmd_fig2),
    "disk": ("Section 5.1 disk bandwidth table", cmd_disk),
    "fig7": ("Figure 7: lu and dmine speedups", cmd_fig7),
    "fig8": ("Figure 8: synthetic benchmark panels", cmd_fig8),
    "scale": ("thousand-host scale-out throughput series", cmd_scale),
    "serve-bench": ("sharded-directory serving tier: shard-count sweep",
                    cmd_serve_bench),
    "nondedicated": ("Section 5.3.1 desktop-cluster run", cmd_nondedicated),
    "ablations": ("design-choice ablations", cmd_ablations),
    "cache": ("elastic-caching ablation: policies and migration",
              cmd_cache),
    "chaos": ("nemesis fault-injection run with invariant auditing",
              cmd_chaos),
    "sweep": ("parallel cached sweep over a grid of experiment points",
              cmd_sweep),
    "record": ("record a scenario run directory for serve/whatif",
               cmd_record),
    "serve": ("serve the fleet dashboard over a recorded or live run",
              cmd_serve),
    "whatif": ("replay a recorded run under a changed policy",
               cmd_whatif),
    "all": ("everything (examples/reproduce_paper.py)", cmd_all),
}

#: subcommands that run simulations and accept the observability options
#: ("all" shells out to a script, so tracing cannot be injected there)
_TRACEABLE = ("fig1", "table1", "fig2", "disk", "fig7", "fig8",
              "nondedicated", "ablations")


def _add_experiment_args(p: argparse.ArgumentParser, name: str) -> None:
    if name in ("fig1", "table1", "fig2"):
        p.add_argument("--days", type=float, default=4.0,
                       help="simulated trace length in days")
    if name == "fig7":
        p.add_argument("--scale-lu", type=_scale, default=1 / 64)
        p.add_argument("--scale-dmine", type=_scale, default=1 / 16)
    if name == "fig8":
        p.add_argument("--scale", type=_scale, default=1 / 64)
        p.add_argument("--iters", type=int, default=4)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the panel grid "
                            "(default: 1; results are identical at "
                            "any value)")
    if name == "scale":
        p.add_argument("--hosts", type=int, nargs="+",
                       default=[500, 1000, 2000],
                       help="host counts of the series "
                            "(default: 500 1000 2000)")
        p.add_argument("--iters", type=int, default=2)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes, one scaling point each")
        p.add_argument("--no-owners", action="store_true",
                       help="skip the background owner processes")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="also write the series as JSON")
    if name == "serve-bench":
        p.add_argument("--shards", type=int, nargs="+",
                       default=[1, 2, 4, 8],
                       help="shard counts of the series "
                            "(default: 1 2 4 8)")
        p.add_argument("--seed", type=int, default=21)
        p.add_argument("--rate", type=float, default=800.0,
                       metavar="RPS",
                       help="open-loop Poisson arrival rate "
                            "(default: 800)")
        p.add_argument("--duration", type=float, default=10.0,
                       metavar="SECONDS",
                       help="measured serving window (default: 10)")
        p.add_argument("--keys", type=int, default=512,
                       help="distinct keys in remote memory "
                            "(default: 512)")
        p.add_argument("--no-replication", action="store_true",
                       help="run the shards without primary/backup "
                            "log shipping")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes, one shard-count point "
                            "each (results identical at any value)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="also write the series as JSON")
    if name == "nondedicated":
        p.add_argument("--iters", type=int, default=4)
    if name == "cache":
        # policy/workload names are validated by the config layer, not
        # argparse choices, so typos produce the one-line repro: error
        # that names every accepted value
        p.add_argument("--policies", nargs="+", metavar="POLICY",
                       default=["none", "lru", "lfu", "clock",
                                "cost-aware"],
                       help="eviction policies to ablate (default: "
                            "none lru lfu clock cost-aware)")
        p.add_argument("--workloads", nargs="+", metavar="WORKLOAD",
                       default=["nondedicated", "fig7"],
                       help="workloads to run each policy on "
                            "(default: nondedicated fig7)")
        p.add_argument("--seed", type=int, default=9)
        p.add_argument("--iters", type=int, default=6,
                       help="benchmark iterations per cell (default: 6)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="also write the ablation as canonical JSON")
    if name == "ablations":
        p.add_argument("--scale", type=_scale, default=1 / 128)
    if name == "all":
        p.add_argument("--quick", action="store_true")
    if name == "chaos":
        from repro.faults.chaos import EXPERIMENTS
        p.add_argument("experiment", choices=sorted(EXPERIMENTS),
                       help="which scenario the nemesis torments")
        p.add_argument("--seed", type=int, default=0,
                       help="drives both the fault schedule and the "
                            "simulator (default: 0)")
        p.add_argument("--plan-in", metavar="FILE", default=None,
                       help="replay a previously exported fault plan "
                            "(its embedded seed takes precedence)")
        p.add_argument("--plan-out", metavar="FILE", default=None,
                       help="export the executed fault plan as JSON")
        p.add_argument("--events-out", metavar="FILE", default=None,
                       help="write the run's structured event log as JSONL")
        p.add_argument("--horizon", type=float, default=20.0,
                       metavar="SECONDS",
                       help="virtual-time window faults are scheduled in "
                            "(default: 20)")
        p.add_argument("--audit", default="raise", dest="chaos_audit",
                       choices=("off", "warn", "raise"),
                       help="invariant-audit mode after every injection, "
                            "heal, and at teardown (default: raise)")
    if name in ("record", "whatif"):
        _add_policy_args(p)
    if name == "record":
        from repro.obs.fleet.whatif import SCENARIOS
        p.add_argument("scenario", choices=SCENARIOS,
                       help="which recordable scenario to run")
        p.add_argument("--out", metavar="DIR", required=True,
                       help="run directory to write (created if needed)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--chaos", action="store_true",
                       help="run under the seed-deterministic nemesis")
        p.add_argument("--horizon", type=float, default=20.0,
                       metavar="SECONDS",
                       help="virtual-time fault window (default: 20)")
        p.add_argument("--interval", type=float, default=0.25,
                       metavar="SECONDS",
                       help="telemetry sampling period (default: 0.25)")
        p.add_argument("--audit", default="off", dest="record_audit",
                       choices=("off", "warn", "raise"),
                       help="invariant auditing during the run "
                            "(default: off)")
    if name == "whatif":
        p.add_argument("run_dir", metavar="RUN_DIR",
                       help="a run directory written by 'repro record'")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="also write the structured what-if document "
                            "as canonical JSON")
    if name == "serve":
        p.add_argument("target", metavar="RUN_DIR|SCENARIO",
                       help="a recorded run directory, or a scenario "
                            "name to run live (fig7, nondedicated)")
        p.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
        p.add_argument("--port", type=int, default=8000,
                       help="bind port (default: 8000; 0 picks a free "
                            "one)")
        p.add_argument("--seed", type=int, default=0,
                       help="live mode: simulator seed (default: 0)")
        p.add_argument("--chaos", action="store_true",
                       help="live mode: run under the nemesis")
        p.add_argument("--horizon", type=float, default=20.0,
                       metavar="SECONDS")
        p.add_argument("--interval", type=float, default=0.25,
                       metavar="SECONDS",
                       help="live mode: telemetry sampling period "
                            "(default: 0.25)")
    if name == "sweep":
        from repro.sweep.spec import BUILTIN_SPECS
        p.add_argument("spec", metavar="SPEC",
                       help="path to a sweep spec JSON, or a builtin: "
                            + ", ".join(sorted(BUILTIN_SPECS)))
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1; per-point "
                            "results are byte-identical at any value)")
        p.add_argument("--cache-dir", metavar="DIR",
                       default=".sweep-cache",
                       help="content-addressed result cache directory "
                            "(default: .sweep-cache; '' disables "
                            "caching)")
        p.add_argument("--resume", action="store_true",
                       help="skip points already in the cache instead "
                            "of recomputing them")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the full sweep record (spec, keys, "
                            "per-point results) as canonical JSON")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser (one subcommand per
    experiment, plus trace/top/chaos/sweep)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    listp = sub.add_parser("list", help="list available experiments")
    listp.set_defaults(func=None)

    for name, (help_text, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        _add_experiment_args(p, name)
        if name in _TRACEABLE:
            p.add_argument("--trace-out", metavar="FILE", default=None,
                           help="write a Chrome trace-event JSON of the run")
            p.add_argument("--metrics-out", metavar="FILE", default=None,
                           help="write a JSON snapshot of all recorders")
            p.add_argument("--kernel-events", action="store_true",
                           help="include per-event kernel dispatch instants "
                                "in the trace (verbose)")
            _add_telemetry_args(p)

    tracep = sub.add_parser(
        "trace", help="run one experiment with tracing on and report "
                      "the fetch-path latency breakdown")
    tracep.add_argument("experiment", choices=_TRACEABLE)
    tracep.add_argument("--out", metavar="FILE", default="trace.json",
                        help="trace file to write (default: trace.json)")
    tracep.add_argument("--metrics-out", metavar="FILE", default=None)
    tracep.add_argument("--kernel-events", action="store_true")
    _add_telemetry_args(tracep)
    tracep.set_defaults(func=cmd_trace, _trace_shorthand=True)

    topp = sub.add_parser(
        "top", help="run one experiment with telemetry on and render an "
                    "ASCII dashboard of cluster memory/idleness over "
                    "virtual time")
    topp.add_argument("experiment", choices=_TRACEABLE)
    _add_telemetry_args(topp)
    topp.set_defaults(func=cmd_top, _top_shorthand=True)

    slop = sub.add_parser(
        "slo", help="run one experiment with per-request SLI collection "
                    "on and report tail latencies, the critical-path "
                    "blame table and SLO burn-rate verdicts")
    slop.add_argument("experiment", choices=_TRACEABLE)
    slop.add_argument("--out", metavar="FILE", default=None,
                      help="also write the report as canonical JSON")
    slop.add_argument("--alpha", type=float, default=0.01,
                      help="latency-sketch relative-error bound "
                           "(default: 0.01)")
    slop.add_argument("--trace-out", metavar="FILE", default=None,
                      help="also write the Chrome trace (with the "
                           "critical-path track) of the run")
    _add_telemetry_args(slop)
    slop.set_defaults(func=cmd_slo, _slo_shorthand=True)
    return parser


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    """The what-if policy knobs shared by ``record`` and ``whatif``.

    All default to None: ``record`` fills in the scenario defaults
    (lru/random), ``whatif`` treats None as "keep the recorded value".
    """
    from repro.core.manager import PLACEMENTS
    from repro.core.policy import POLICIES
    p.add_argument("--replacement", default=None,
                   choices=sorted(POLICIES),
                   help="region-cache replacement policy")
    p.add_argument("--placement", default=None, choices=PLACEMENTS,
                   help="manager host-placement policy")
    p.add_argument("--idle-window", type=float, default=None,
                   metavar="SECONDS",
                   help="recruitment idle-window (nondedicated only)")
    p.add_argument("--load-threshold", type=float, default=None,
                   metavar="FRACTION",
                   help="recruitment load threshold (nondedicated only)")


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--telemetry-out", metavar="FILE", default=None,
                   help="write sampled time series as long-format CSV")
    p.add_argument("--telemetry-json", metavar="FILE", default=None,
                   help="write sampled time series as JSON")
    p.add_argument("--telemetry-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="virtual-time sampling period (default: 1.0)")
    p.add_argument("--events-out", metavar="FILE", default=None,
                   help="write the structured event log as JSONL")
    p.add_argument("--events-level", default="info",
                   choices=("debug", "info", "warn", "error"),
                   help="minimum event severity recorded (default: info)")
    p.add_argument("--audit", default="off",
                   choices=("off", "warn", "raise"), dest="audit_mode",
                   help="cross-check cluster invariants at sample points "
                        "and teardown (warn: report; raise: fail the run)")


def _finish_observability(args, tracer, sli=None) -> None:
    from repro.obs.breakdown import fetch_breakdown, format_fetch_breakdown
    from repro.obs.export import write_chrome_trace
    from repro.obs.snapshot import write_snapshot

    if getattr(args, "trace_out", None):
        n = write_chrome_trace(tracer, args.trace_out, sli=sli)
        print(f"\nwrote {n} trace events to {args.trace_out}",
              file=sys.stderr)
        breakdown = fetch_breakdown(tracer.spans)
        if breakdown["count"]:
            print()
            print(format_fetch_breakdown(breakdown))
    if getattr(args, "metrics_out", None):
        n = write_snapshot(args.metrics_out,
                           meta={"command": args.command})
        print(f"wrote {n} recorder snapshots to {args.metrics_out}",
              file=sys.stderr)


def _finish_telemetry(args, telemetry, eventlog, auditor) -> None:
    if getattr(args, "telemetry_out", None):
        n = telemetry.write_csv(args.telemetry_out)
        print(f"wrote {n} time-series rows to {args.telemetry_out}",
              file=sys.stderr)
    if getattr(args, "telemetry_json", None):
        n = telemetry.write_json(args.telemetry_json,
                                 meta={"command": args.command})
        print(f"wrote {n} time series to {args.telemetry_json}",
              file=sys.stderr)
    if getattr(args, "events_out", None):
        n = eventlog.write_jsonl(args.events_out)
        print(f"wrote {n} events to {args.events_out}", file=sys.stderr)
    if getattr(args, "_top_shorthand", False):
        from repro.obs.dashboard import render_dashboard
        print()
        print(render_dashboard(telemetry, eventlog=eventlog,
                               auditor=auditor, title=args.experiment))
    elif auditor is not None:
        print(auditor.format_report(), file=sys.stderr)


def _finish_slo(args, sli, engine) -> None:
    """Print the ``repro slo`` report; honor ``--out``."""
    from repro.obs.slo import build_slo_report, format_slo_report
    doc = build_slo_report(sli, engine,
                           meta={"command": args.experiment})
    print()
    print(format_slo_report(doc))
    if getattr(args, "out", None):
        _write_out(args.out, doc, "SLO report")


def main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code.

    User-input failures (:class:`CliError`) print as a single
    ``repro: ...`` line on stderr and exit 2 — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CliError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    """Run the parsed command, wiring observability when requested."""
    if args.command is None or args.command == "list":
        from repro.sweep.spec import BUILTIN_SPECS
        print("available experiments:")
        for name, (help_text, _) in COMMANDS.items():
            print(f"  {name:14s} {help_text}")
        print("builtin sweep specs (repro sweep <name>):")
        for name in sorted(BUILTIN_SPECS):
            print(f"  {name}")
        return 0

    if getattr(args, "_trace_shorthand", False) \
            or getattr(args, "_top_shorthand", False) \
            or getattr(args, "_slo_shorthand", False):
        # "repro trace/top/slo <exp>": reuse the experiment's arg defaults
        exp_parser = argparse.ArgumentParser()
        _add_experiment_args(exp_parser, args.experiment)
        for key, value in vars(exp_parser.parse_args([])).items():
            setattr(args, key, value)

    if args.command in ("chaos", "sweep", "record", "serve", "whatif"):
        # these manage their own event logs and observability
        # (they must wrap only the simulations, not the CLI plumbing)
        return args.func(args) or 0

    wants_slo = bool(getattr(args, "_slo_shorthand", False))
    wants_trace = bool(getattr(args, "trace_out", None)
                       or getattr(args, "metrics_out", None)
                       or getattr(args, "_trace_shorthand", False)
                       or wants_slo)
    wants_telemetry = bool(getattr(args, "telemetry_out", None)
                           or getattr(args, "telemetry_json", None)
                           or getattr(args, "events_out", None)
                           or getattr(args, "audit_mode", "off") != "off"
                           or getattr(args, "_top_shorthand", False)
                           or wants_slo)
    if not wants_trace and not wants_telemetry:
        args.func(args)
        return 0

    from repro.metrics.recorder import start_collection, stop_collection
    tracer = telemetry = eventlog = auditor = sli = slo_engine = None
    prev_tracer = prev_telemetry = prev_eventlog = None
    if wants_trace:
        from repro.obs.tracer import Tracer, install
        tracer = Tracer(kernel_events=getattr(args, "kernel_events", False))
        prev_tracer = install(tracer)
    if wants_telemetry:
        from repro.core.config import ObsConfig
        from repro.obs.audit import make_auditor
        from repro.obs.eventlog import EventLog, install_eventlog
        from repro.obs.timeseries import Telemetry, install_telemetry
        obs = ObsConfig(
            telemetry_interval_s=getattr(args, "telemetry_interval", 1.0),
            eventlog_level=getattr(args, "events_level", "info"),
            audit_mode=getattr(args, "audit_mode", "off"))
        eventlog = EventLog(level=obs.eventlog_level)
        auditor = make_auditor(obs.audit_mode, eventlog=eventlog)
        telemetry = Telemetry(interval_s=obs.telemetry_interval_s,
                              max_samples=obs.telemetry_max_samples,
                              auditor=auditor, audit_every=obs.audit_every)
        eventlog.telemetry = telemetry  # shared run numbering
        prev_telemetry = install_telemetry(telemetry)
        prev_eventlog = install_eventlog(eventlog)
    if wants_slo:
        from repro.obs.slo import SliCollector, SloEngine, attach_sli
        sli = SliCollector(alpha=getattr(args, "alpha", 0.01))
        attach_sli(tracer, sli)
        slo_engine = SloEngine(sli=sli, eventlog=eventlog)
        sli.engine = slo_engine
        telemetry.slo = slo_engine
    collected = start_collection()  # keep recorders alive for the snapshot
    try:
        args.func(args)
        if telemetry is not None:
            telemetry.finalize()  # may raise AuditError in --audit raise
        if tracer is not None:
            _finish_observability(args, tracer, sli)
        if telemetry is not None:
            _finish_telemetry(args, telemetry, eventlog, auditor)
        if wants_slo:
            _finish_slo(args, sli, slo_engine)
    finally:
        stop_collection(collected)
        if wants_trace:
            from repro.obs.tracer import install
            install(prev_tracer)
        if wants_telemetry:
            install_telemetry(prev_telemetry)
            install_eventlog(prev_eventlog)
    return 0
