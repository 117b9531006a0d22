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
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from repro.core.config import PLACEMENTS
from repro.core.policy import POLICIES
from repro.faults.chaos import EXPERIMENTS as CHAOS_EXPERIMENTS
from repro.obs.fleet.whatif import SCENARIOS
from repro.sweep.spec import BUILTIN_SPECS


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


def cmd_list(args) -> None:
    """Print the subcommands of :data:`COMMANDS` and the builtin sweep
    specs."""
    print("available experiments:")
    for name, command in COMMANDS.items():
        print(f"  {name:14s} {command.help}")
    print("builtin sweep specs (repro sweep <name>):")
    for name in sorted(BUILTIN_SPECS):
        print(f"  {name}")


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
                                         jobs=args.jobs)))


def cmd_scale(args) -> None:
    """Thousand-host scale-out series: simulator throughput table."""
    from repro.exp import scale as sc
    hosts = tuple(args.hosts)
    results = sc.run_scaling(hosts, jobs=args.jobs, num_iter=args.iters,
                             owners=not args.no_owners)
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
    results = run_cache_ablation(
        seed=args.seed, num_iter=args.iters,
        policies=tuple(args.policies), workloads=tuple(args.workloads))
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
        tuple(args.shards), jobs=args.jobs,
        seed=args.seed, replication=not args.no_replication,
        arrival_rate=args.rate, duration_s=args.duration,
        n_keys=args.keys)
    print(sv.format_serving(results))
    if args.out:
        _write_out(args.out, results, "serving series")


def cmd_all(args) -> None:
    """Everything: shell out to the checkout's
    examples/reproduce_paper.py, wherever the CLI is run from."""
    import subprocess
    script = os.path.abspath(os.path.join(
        __file__, "..", "..", "..", "examples", "reproduce_paper.py"))
    if not os.path.isfile(script):
        raise CliError(f"'repro all' runs {script}, which does not "
                       "exist: run it from a source checkout")
    cmd = [sys.executable, script]
    if args.quick:
        cmd.append("--quick")
    raise SystemExit(subprocess.call(cmd))


def cmd_sweep(args) -> int:
    """Parallel cached sweep over a grid of experiment points."""
    from repro.sweep import EXPERIMENTS, load_spec, run_sweep
    spec = load_spec(args.spec)
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


def cmd_record(args) -> None:
    """Record one scenario run as a run directory for serve/whatif."""
    from repro.obs.fleet.whatif import WhatIfPolicy, record_run
    policy = WhatIfPolicy().override(
        replacement=args.replacement, placement=args.placement,
        idle_window_s=args.idle_window, load_threshold=args.load_threshold)
    meta = record_run(args.out, args.scenario, seed=args.seed,
                      policy=policy, chaos=args.chaos,
                      horizon_s=args.horizon, interval_s=args.interval,
                      audit=args.record_audit)
    m = meta["metrics"]
    print(f"recorded {meta['scenario']} seed={meta['seed']}"
          + (" chaos" if meta.get("chaos") else "") + f" -> {args.out}")
    print(f"  requests={m['requests']} fetches={m['fetches']} "
          f"refetches={m['refetches']} reclaims={m['reclaims']} "
          f"fetch_p95={m['fetch_p95_s']:g}s elapsed={m['elapsed_s']:g}s")


def cmd_whatif(args) -> None:
    """Replay a recorded run under a changed policy; print the delta."""
    from repro.obs.fleet.whatif import format_whatif, run_whatif
    doc = run_whatif(args.run_dir, replacement=args.replacement,
                     placement=args.placement,
                     idle_window_s=args.idle_window,
                     load_threshold=args.load_threshold)
    print(format_whatif(doc))
    if args.out:
        _write_out(args.out, doc, "what-if document")


def cmd_serve(args) -> None:
    """Serve the fleet dashboard over a run directory or a live run."""
    import threading
    from repro.obs.fleet.server import serve_live, serve_run_dir
    if os.path.isdir(args.target):
        server = serve_run_dir(args.target, host=args.host, port=args.port)
    else:
        from repro.obs.eventlog import EventLog
        from repro.obs.fleet.whatif import run_scenario
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


def cmd_observe(args) -> None:
    """``repro trace|top|slo <experiment>``: run an observable
    subcommand at its own defaults with that view forced on."""
    command = COMMANDS[args.experiment]
    defaults = _defaults(OBS_ARGS + command.args)
    _observe(argparse.Namespace(**{**defaults, **vars(args)}),
             command.handler)


def _observe(args, run: Callable) -> None:
    """Run an observable subcommand inside one observability session,
    then write what its flags ask for.  ``args.command`` names the view:
    ``trace`` writes the trace to ``--out``, ``top`` renders the
    dashboard and ``slo`` the SLO report."""
    from repro.obs import (ObsSession, fetch_breakdown, format_fetch_breakdown,
                           render_dashboard, write_chrome_trace,
                           write_snapshot)
    view = args.command
    trace_out = args.out if view == "trace" else args.trace_out
    sampled = bool(view in ("top", "slo") or args.telemetry_out
                   or args.telemetry_json or args.events_out
                   or args.audit_mode != "off")
    slo = {"slo": True, "alpha": args.alpha} if view == "slo" else {}
    with ObsSession(trace=bool(trace_out or args.metrics_out),
                    kernel_events=args.kernel_events,
                    interval_s=args.telemetry_interval if sampled else None,
                    events=args.events_level if sampled else None,
                    audit=args.audit_mode, sample_audit=True,
                    collect=bool(args.metrics_out), **slo) as obs:
        run(args)

    if trace_out:
        n = write_chrome_trace(obs.tracer, trace_out, sli=obs.sli)
        print(f"\nwrote {n} trace events to {trace_out}", file=sys.stderr)
        breakdown = fetch_breakdown(obs.tracer.spans)
        if breakdown["count"]:
            print()
            print(format_fetch_breakdown(breakdown))
    if args.metrics_out:
        n = write_snapshot(args.metrics_out, meta={"command": view})
        print(f"wrote {n} recorder snapshots to {args.metrics_out}",
              file=sys.stderr)
    if args.telemetry_out:
        n = obs.telemetry.write_csv(args.telemetry_out)
        print(f"wrote {n} time-series rows to {args.telemetry_out}",
              file=sys.stderr)
    if args.telemetry_json:
        n = obs.telemetry.write_json(args.telemetry_json,
                                     meta={"command": view})
        print(f"wrote {n} time series to {args.telemetry_json}",
              file=sys.stderr)
    if args.events_out:
        n = obs.eventlog.write_jsonl(args.events_out)
        print(f"wrote {n} events to {args.events_out}", file=sys.stderr)
    if view == "top":
        print()
        print(render_dashboard(obs.telemetry, eventlog=obs.eventlog,
                               auditor=obs.auditor, title=args.experiment))
    elif obs.auditor is not None:
        print(obs.auditor.format_report(), file=sys.stderr)
    if slo:
        from repro.obs.slo import build_slo_report, format_slo_report
        doc = build_slo_report(obs.sli, obs.slo,
                               meta={"command": args.experiment})
        print()
        print(format_slo_report(doc))
        if args.out:
            _write_out(args.out, doc, "SLO report")


# -- the subcommand table -----------------------------------------------------

def _arg(*flags: str, **kwargs) -> tuple:
    """One argument spec: what ``add_argument`` takes."""
    return flags, kwargs


def _defaults(specs: tuple) -> dict:
    """``{dest: default}`` of argument specs, as argparse fills them."""
    return {kwargs.get("dest", flags[0].lstrip("-").replace("-", "_")):
            kwargs.get("default") for flags, kwargs in specs}


@dataclass(frozen=True)
class Command:
    """One ``repro`` subcommand: a row of :data:`COMMANDS` or
    :data:`SHORTHANDS`."""

    help: str
    handler: Callable
    #: :func:`_arg` specs in ``--help`` order
    args: tuple = ()
    #: takes :data:`OBS_ARGS`, and ``repro trace|top|slo`` can run it
    observable: bool = False
    #: its ValueErrors are the invoker's mistakes (an unknown name, an
    #: unreadable file, an observed ``--jobs 2``): one ``repro:`` line
    #: and exit 2, not a traceback
    usage_errors: bool = False


#: sampling, event-log and audit flags: every observable subcommand and
#: every view takes them
TELEMETRY_ARGS = (
    _arg("--telemetry-out", metavar="FILE", default=None,
         help="write sampled time series as long-format CSV"),
    _arg("--telemetry-json", metavar="FILE", default=None,
         help="write sampled time series as JSON"),
    _arg("--telemetry-interval", type=float, default=1.0,
         metavar="SECONDS",
         help="virtual-time sampling period (default: 1.0)"),
    _arg("--events-out", metavar="FILE", default=None,
         help="write the structured event log as JSONL"),
    _arg("--events-level", default="info",
         choices=("debug", "info", "warn", "error"),
         help="minimum event severity recorded (default: info)"),
    _arg("--audit", default="off", choices=("off", "warn", "raise"),
         dest="audit_mode",
         help="cross-check cluster invariants at sample points and "
              "teardown (warn: report; raise: fail the run)"),
)

#: the observability flags of an observable subcommand
OBS_ARGS = (
    _arg("--trace-out", metavar="FILE", default=None,
         help="write a Chrome trace-event JSON of the run"),
    _arg("--metrics-out", metavar="FILE", default=None,
         help="write a JSON snapshot of all recorders"),
    _arg("--kernel-events", action="store_true", default=False,
         help="include per-event kernel dispatch instants in the trace "
              "(verbose)"),
) + TELEMETRY_ARGS

_DAYS = (_arg("--days", type=float, default=4.0,
              help="simulated trace length in days"),)

#: the what-if policy knobs shared by ``record`` and ``whatif``.  All
#: default to None: ``record`` fills in the scenario defaults
#: (lru/random), ``whatif`` treats None as "keep the recorded value"
_POLICY_ARGS = (
    _arg("--replacement", default=None, choices=sorted(POLICIES),
         help="region-cache replacement policy"),
    _arg("--placement", default=None, choices=PLACEMENTS,
         help="manager host-placement policy"),
    _arg("--idle-window", type=float, default=None, metavar="SECONDS",
         help="recruitment idle-window (nondedicated only)"),
    _arg("--load-threshold", type=float, default=None, metavar="FRACTION",
         help="recruitment load threshold (nondedicated only)"),
)

COMMANDS: dict[str, Command] = {
    "fig1": Command("Figure 1: cluster memory availability", cmd_fig1,
                    _DAYS, observable=True),
    "table1": Command("Table 1: memory by use per host class", cmd_table1,
                      _DAYS, observable=True),
    "fig2": Command("Figure 2: per-workstation variation", cmd_fig2,
                    _DAYS, observable=True),
    "disk": Command("Section 5.1 disk bandwidth table", cmd_disk,
                    observable=True),
    "fig7": Command("Figure 7: lu and dmine speedups", cmd_fig7, (
        _arg("--scale-lu", type=_scale, default=1 / 64),
        _arg("--scale-dmine", type=_scale, default=1 / 16),
    ), observable=True),
    "fig8": Command("Figure 8: synthetic benchmark panels", cmd_fig8, (
        _arg("--scale", type=_scale, default=1 / 64),
        _arg("--iters", type=int, default=4),
        _arg("--jobs", type=int, default=1,
             help="worker processes for the panel grid (default: 1; "
                  "results are identical at any value)"),
    ), observable=True, usage_errors=True),
    "scale": Command("thousand-host scale-out throughput series",
                     cmd_scale, (
        _arg("--hosts", type=int, nargs="+", default=[500, 1000, 2000],
             help="host counts of the series (default: 500 1000 2000)"),
        _arg("--iters", type=int, default=2),
        _arg("--jobs", type=int, default=1,
             help="worker processes, one scaling point each"),
        _arg("--no-owners", action="store_true",
             help="skip the background owner processes"),
        _arg("--out", metavar="FILE", default=None,
             help="also write the series as JSON"),
    )),
    "serve-bench": Command(
        "sharded-directory serving tier: shard-count sweep",
        cmd_serve_bench, (
            _arg("--shards", type=int, nargs="+", default=[1, 2, 4, 8],
                 help="shard counts of the series (default: 1 2 4 8)"),
            _arg("--seed", type=int, default=21),
            _arg("--rate", type=float, default=800.0, metavar="RPS",
                 help="open-loop Poisson arrival rate (default: 800)"),
            _arg("--duration", type=float, default=10.0,
                 metavar="SECONDS",
                 help="measured serving window (default: 10)"),
            _arg("--keys", type=int, default=512,
                 help="distinct keys in remote memory (default: 512)"),
            _arg("--no-replication", action="store_true",
                 help="run the shards without primary/backup log "
                      "shipping"),
            _arg("--jobs", type=int, default=1,
                 help="worker processes, one shard-count point each "
                      "(results identical at any value)"),
            _arg("--out", metavar="FILE", default=None,
                 help="also write the series as JSON"),
        )),
    "nondedicated": Command("Section 5.3.1 desktop-cluster run",
                            cmd_nondedicated,
                            (_arg("--iters", type=int, default=4),),
                            observable=True),
    "ablations": Command("design-choice ablations", cmd_ablations,
                         (_arg("--scale", type=_scale, default=1 / 128),),
                         observable=True),
    # policy/workload names are validated by the config layer, not
    # argparse choices, so typos produce the one-line repro: error that
    # names every accepted value
    "cache": Command("elastic-caching ablation: policies and migration",
                     cmd_cache, (
        _arg("--policies", nargs="+", metavar="POLICY",
             default=["none", "lru", "lfu", "clock", "cost-aware"],
             help="eviction policies to ablate (default: none lru lfu "
                  "clock cost-aware)"),
        _arg("--workloads", nargs="+", metavar="WORKLOAD",
             default=["nondedicated", "fig7"],
             help="workloads to run each policy on (default: "
                  "nondedicated fig7)"),
        _arg("--seed", type=int, default=9),
        _arg("--iters", type=int, default=6,
             help="benchmark iterations per cell (default: 6)"),
        _arg("--out", metavar="FILE", default=None,
             help="also write the ablation as canonical JSON"),
    ), usage_errors=True),
    "chaos": Command("nemesis fault-injection run with invariant auditing",
                     cmd_chaos, (
        _arg("experiment", choices=sorted(CHAOS_EXPERIMENTS),
             help="which scenario the nemesis torments"),
        _arg("--seed", type=int, default=0,
             help="drives both the fault schedule and the simulator "
                  "(default: 0)"),
        _arg("--plan-in", metavar="FILE", default=None,
             help="replay a previously exported fault plan (its "
                  "embedded seed takes precedence)"),
        _arg("--plan-out", metavar="FILE", default=None,
             help="export the executed fault plan as JSON"),
        _arg("--events-out", metavar="FILE", default=None,
             help="write the run's structured event log as JSONL"),
        _arg("--horizon", type=float, default=20.0, metavar="SECONDS",
             help="virtual-time window faults are scheduled in "
                  "(default: 20)"),
        _arg("--audit", default="raise", dest="chaos_audit",
             choices=("off", "warn", "raise"),
             help="invariant-audit mode after every injection, heal, "
                  "and at teardown (default: raise)"),
    )),
    "sweep": Command(
        "parallel cached sweep over a grid of experiment points",
        cmd_sweep, (
            _arg("spec", metavar="SPEC",
                 help="path to a sweep spec JSON, or a builtin: "
                      + ", ".join(sorted(BUILTIN_SPECS))),
            _arg("--jobs", type=int, default=1, metavar="N",
                 help="worker processes (default: 1; per-point results "
                      "are byte-identical at any value)"),
            _arg("--cache-dir", metavar="DIR", default=".sweep-cache",
                 help="content-addressed result cache directory "
                      "(default: .sweep-cache; '' disables caching)"),
            _arg("--resume", action="store_true",
                 help="skip points already in the cache instead of "
                      "recomputing them"),
            _arg("--out", metavar="FILE", default=None,
                 help="write the full sweep record (spec, keys, "
                      "per-point results) as canonical JSON"),
            _arg("--quiet", action="store_true",
                 help="suppress per-point progress lines"),
        ), usage_errors=True),
    "record": Command(
        "record a scenario run directory for serve/whatif", cmd_record,
        _POLICY_ARGS + (
            _arg("scenario", choices=SCENARIOS,
                 help="which recordable scenario to run"),
            _arg("--out", metavar="DIR", required=True,
                 help="run directory to write (created if needed)"),
            _arg("--seed", type=int, default=0),
            _arg("--chaos", action="store_true",
                 help="run under the seed-deterministic nemesis"),
            _arg("--horizon", type=float, default=20.0, metavar="SECONDS",
                 help="virtual-time fault window (default: 20)"),
            _arg("--interval", type=float, default=0.25,
                 metavar="SECONDS",
                 help="telemetry sampling period (default: 0.25)"),
            _arg("--audit", default="off", dest="record_audit",
                 choices=("off", "warn", "raise"),
                 help="invariant auditing during the run (default: off)"),
        ), usage_errors=True),
    "serve": Command(
        "serve the fleet dashboard over a recorded or live run",
        cmd_serve, (
            _arg("target", metavar="RUN_DIR|SCENARIO",
                 help="a recorded run directory, or a scenario name to "
                      "run live (fig7, nondedicated)"),
            _arg("--host", default="127.0.0.1",
                 help="bind address (default: 127.0.0.1)"),
            _arg("--port", type=int, default=8000,
                 help="bind port (default: 8000; 0 picks a free one)"),
            _arg("--seed", type=int, default=0,
                 help="live mode: simulator seed (default: 0)"),
            _arg("--chaos", action="store_true",
                 help="live mode: run under the nemesis"),
            _arg("--horizon", type=float, default=20.0, metavar="SECONDS"),
            _arg("--interval", type=float, default=0.25,
                 metavar="SECONDS",
                 help="live mode: telemetry sampling period "
                      "(default: 0.25)"),
        ), usage_errors=True),
    "whatif": Command(
        "replay a recorded run under a changed policy", cmd_whatif,
        _POLICY_ARGS + (
            _arg("run_dir", metavar="RUN_DIR",
                 help="a run directory written by 'repro record'"),
            _arg("--out", metavar="FILE", default=None,
                 help="also write the structured what-if document as "
                      "canonical JSON"),
        ), usage_errors=True),
    "all": Command("everything (examples/reproduce_paper.py)", cmd_all,
                   (_arg("--quick", action="store_true"),)),
}

#: ``repro trace|top|slo <experiment>``: views that run one observable
#: subcommand at its defaults with tracing, telemetry or SLO collection
#: forced on (see :func:`_observe`)
_EXPERIMENT = _arg("experiment", choices=tuple(
    name for name, command in COMMANDS.items() if command.observable))

SHORTHANDS: dict[str, Command] = {
    "trace": Command(
        "run one experiment with tracing on and report the fetch-path "
        "latency breakdown", cmd_observe, (
            _EXPERIMENT,
            _arg("--out", metavar="FILE", default="trace.json",
                 help="trace file to write (default: trace.json)"),
            _arg("--metrics-out", metavar="FILE", default=None),
            _arg("--kernel-events", action="store_true"),
        ) + TELEMETRY_ARGS),
    "top": Command(
        "run one experiment with telemetry on and render an ASCII "
        "dashboard of cluster memory/idleness over virtual time",
        cmd_observe, (_EXPERIMENT,) + TELEMETRY_ARGS),
    "slo": Command(
        "run one experiment with per-request SLI collection on and "
        "report tail latencies, the critical-path blame table and SLO "
        "burn-rate verdicts", cmd_observe, (
            _EXPERIMENT,
            _arg("--out", metavar="FILE", default=None,
                 help="also write the report as canonical JSON"),
            _arg("--alpha", type=float, default=0.01,
                 help="latency-sketch relative-error bound "
                      "(default: 0.01)"),
            _arg("--trace-out", metavar="FILE", default=None,
                 help="also write the Chrome trace (with the "
                      "critical-path track) of the run"),
        ) + TELEMETRY_ARGS),
}


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser: ``list``, then one
    subcommand per :data:`COMMANDS` and :data:`SHORTHANDS` record."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, command in {**COMMANDS, **SHORTHANDS}.items():
        p = sub.add_parser(name, help=command.help)
        for flags, kwargs in command.args + (OBS_ARGS if command.observable
                                             else ()):
            p.add_argument(*flags, **kwargs)
    return parser


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
    """Run the parsed command; observable ones inside a session."""
    if args.command in (None, "list"):
        cmd_list(args)
        return 0
    command = {**COMMANDS, **SHORTHANDS}[args.command]
    try:
        if command.observable:
            _observe(args, command.handler)
            return 0
        return command.handler(args) or 0
    except ValueError as exc:
        if not command.usage_errors:
            raise
        raise CliError(str(exc)) from exc
