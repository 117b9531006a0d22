"""What-if policy replay: rerun a recorded scenario under changed policy.

``repro record`` runs one of the named scenarios (the same scaled-down
platforms the chaos harness uses) with full observability and writes a
run directory (:mod:`repro.obs.fleet.store`) whose ``meta.json`` embeds
the scenario, seed, policy and canonical workload metrics.  ``repro
whatif`` loads that directory, replays the *same scenario and seed*
under a changed :class:`WhatIfPolicy` — region replacement, manager
placement, recruitment thresholds — and reports a structured
side-by-side delta: fetch latency percentiles, refetches, reclaim
evictions, degraded requests.

Replay with an *unchanged* policy reproduces the recorded metrics
byte-identically (same seed drives the simulator, the fault plan and
the workload), which is both the trust anchor for the deltas and a CI
determinism check.  Everything here is virtual-time arithmetic — no
wall clock, no unseeded randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.obs.fleet.insights import build_insights, emit_insights
from repro.obs.fleet.store import RunDir, load_run_dir, write_run_dir
from repro.sweep.spec import jsonify

MB = 1024 * 1024

#: scenarios ``repro record`` / ``repro whatif`` understand
SCENARIOS = ("fig7", "nondedicated")

#: metric keys the delta report compares (must be numeric leaves)
DELTA_KEYS = ("elapsed_s", "fetch_p50_s", "fetch_p95_s", "fetch_max_s",
              "fetch_mean_s", "refetches", "fetches", "local_reads",
              "remote_reads", "disk_reads", "degraded", "reclaims",
              "recruits", "evictions", "requests", "bytes_read")


@dataclass(frozen=True)
class WhatIfPolicy:
    """The replayable policy surface of one run.

    ``replacement`` is the region-cache policy
    (:data:`repro.core.policies.POLICIES`); ``placement`` the manager's
    candidate choice (:data:`repro.core.manager.PLACEMENTS`);
    ``idle_window_s`` and ``load_threshold`` feed the recruitment
    predicate (non-dedicated scenario only; None keeps the scenario
    default).
    """

    replacement: str = "lru"
    placement: str = "random"
    idle_window_s: Optional[float] = None
    load_threshold: Optional[float] = None

    def to_meta(self) -> dict:
        """JSON form stored in a run directory's ``meta.json``."""
        return {"replacement": self.replacement,
                "placement": self.placement,
                "idle_window_s": self.idle_window_s,
                "load_threshold": self.load_threshold}

    @classmethod
    def from_meta(cls, meta: dict) -> "WhatIfPolicy":
        return cls(replacement=meta.get("replacement", "lru"),
                   placement=meta.get("placement", "random"),
                   idle_window_s=meta.get("idle_window_s"),
                   load_threshold=meta.get("load_threshold"))

    def override(self, **changes) -> "WhatIfPolicy":
        """A copy with the given (non-None) fields replaced."""
        effective = {k: v for k, v in changes.items() if v is not None}
        return replace(self, **effective)


class MeasuringRunner:
    """A fault-tolerant synthetic runner that measures the data path.

    Same degraded-read semantics as the chaos harness's runner (a failed
    ``copen``/``cread`` falls back to the file system), plus per-request
    virtual-time latency and a local/remote/disk classification of every
    read — the raw material of the what-if delta.  A *fetch* is a read
    served from beyond the local region cache; a *refetch* is any fetch
    of a region after its first (the cost reclaim churn imposes on
    guests).
    """

    def __init__(self, platform, params, use_dodo: bool = True,
                 policy: str = "lru"):
        from repro.workloads.app import SyntheticRunner
        self._inner = SyntheticRunner(platform, params, use_dodo=use_dodo,
                                      policy=policy)
        self._sim = platform.sim
        self.degraded = 0
        self.latencies_s: list[float] = []
        self.local_reads = 0
        self.remote_reads = 0
        self.disk_reads = 0
        self.fetches = 0
        self.refetches = 0
        self._fetched: set[int] = set()
        self._inner._read = self._read
        self.run = self._inner.run

    def _classify(self, ridx: int, before: dict) -> None:
        stats = self._inner.cache.stats
        deltas = {k: stats.count(k) - before[k]
                  for k in ("cread.local_hits", "cread.remote_hits",
                            "cread.disk_reads")}
        if deltas["cread.remote_hits"] or deltas["cread.disk_reads"]:
            if deltas["cread.remote_hits"] >= deltas["cread.disk_reads"]:
                self.remote_reads += 1
            else:
                self.disk_reads += 1
            self.fetches += 1
            if ridx in self._fetched:
                self.refetches += 1
            self._fetched.add(ridx)
        else:
            self.local_reads += 1

    def _read(self, offset: int, length: int):
        inner = self._inner
        t0 = self._sim.now
        if not inner.use_dodo:
            yield inner.fs.read(inner.fh, offset, length)
            self.latencies_s.append(self._sim.now - t0)
            self.disk_reads += 1
            return
        ridx = offset // inner.region_bytes
        crd = inner._crds.get(ridx)
        if crd is None:
            crd, err = yield from inner.cache.copen(
                inner.region_bytes, inner.fh.fd, ridx * inner.region_bytes)
            if err != 0:
                self.degraded += 1
                yield inner.fs.read(inner.fh, offset, length)
                self.latencies_s.append(self._sim.now - t0)
                return
            inner._crds[ridx] = crd
        stats = inner.cache.stats
        before = {k: stats.count(k)
                  for k in ("cread.local_hits", "cread.remote_hits",
                            "cread.disk_reads")}
        _, err, _ = yield from inner.cache.cread(
            crd, offset - ridx * inner.region_bytes, length)
        if err != 0:
            self.degraded += 1
            yield inner.fs.read(inner.fh, offset, length)
            self.latencies_s.append(self._sim.now - t0)
            return
        self._classify(ridx, before)
        self.latencies_s.append(self._sim.now - t0)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted list (pure Python so
    the result is reproducible to the bit across platforms)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]


def _round(x: float) -> float:
    return round(float(x), 9)


def collect_metrics(runner: MeasuringRunner, result, eventlog,
                    evictions: int) -> dict:
    """The canonical metrics dict stored in ``meta.json`` and compared
    by the delta report.  All floats rounded to 9 decimals so canonical
    JSON is stable."""
    lat = sorted(runner.latencies_s)
    reclaims = len(eventlog.query(component="rmd",
                                  event="node.reclaimed")) \
        + len(eventlog.query(component="imd", event="imd.killed"))
    recruits = len(eventlog.query(component="rmd",
                                  event="node.recruited")) \
        + len(eventlog.query(component="imd", event="imd.start"))
    return {
        "elapsed_s": _round(result.elapsed_s),
        "iteration_s": [_round(t) for t in result.iteration_s],
        "requests": int(result.requests),
        "bytes_read": int(result.bytes_read),
        "fetch_mean_s": _round(sum(lat) / len(lat)) if lat else 0.0,
        "fetch_p50_s": _round(_percentile(lat, 0.50)),
        "fetch_p95_s": _round(_percentile(lat, 0.95)),
        "fetch_max_s": _round(lat[-1]) if lat else 0.0,
        "local_reads": runner.local_reads,
        "remote_reads": runner.remote_reads,
        "disk_reads": runner.disk_reads,
        "fetches": runner.fetches,
        "refetches": runner.refetches,
        "degraded": runner.degraded,
        "reclaims": reclaims,
        "recruits": recruits,
        "evictions": int(evictions),
    }


def run_scenario(scenario: str, seed: int = 0,
                 policy: Optional[WhatIfPolicy] = None,
                 chaos: bool = False, horizon_s: float = 20.0,
                 interval_s: float = 0.25,
                 eventlog_level: str = "debug",
                 audit: str = "off",
                 telemetry=None, eventlog=None,
                 slo: bool = False) -> dict:
    """Run one recordable scenario with full observability.

    Returns ``{"telemetry", "eventlog", "auditor", "result", "metrics",
    "meta"}``.  The same (scenario, seed, policy, chaos) always produces
    byte-identical metrics and exports.  Pre-created ``telemetry`` /
    ``eventlog`` engines may be passed in so an already-running fleet
    server (``repro serve <scenario>``) can watch the run live while it
    executes; by default fresh engines are created.

    ``slo=True`` additionally traces the run through an SLI collector
    and SLO engine (:mod:`repro.obs.slo`): the telemetry gains
    ``slo``-kind series (per-kind tail percentiles, per-spec compliance
    and burn rates), the event log gains ``slo/*`` records, and the
    returned dict gains ``"sli"``, ``"slo"`` and ``"slo_report"``.
    SLI collection only *reads* spans, so metrics and virtual times are
    identical either way.
    """
    from repro.obs.audit import make_auditor
    from repro.obs.eventlog import EventLog, install_eventlog
    from repro.obs.timeseries import Telemetry, install_telemetry
    from repro.obs.tracer import Tracer, install

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, "
                         f"expected one of {SCENARIOS}")
    policy = policy or WhatIfPolicy()
    if telemetry is None:
        telemetry = Telemetry(interval_s=interval_s)
    if eventlog is None:
        eventlog = EventLog(level=eventlog_level, telemetry=telemetry)
    sli = engine = tracer = None
    prev_tracer = None
    if slo:
        from repro.obs.slo import SliCollector, SloEngine, attach_sli
        tracer = Tracer()
        sli = SliCollector()
        attach_sli(tracer, sli)
        engine = SloEngine(sli=sli, eventlog=eventlog)
        sli.engine = engine
        telemetry.slo = engine
        prev_tracer = install(tracer)
    # the auditor rides the nemesis (audit after every injection/heal)
    # and the teardown pass, NOT the periodic sampler: during a fault
    # window directory entries are invalidated lazily (epoch checks), so
    # a mid-fault sample legitimately sees transient inconsistencies
    auditor = make_auditor(audit, eventlog=eventlog)
    prev_t = install_telemetry(telemetry)
    prev_e = install_eventlog(eventlog)
    try:
        runner_fn = _SCENARIOS[scenario]
        out = runner_fn(seed, policy, chaos, horizon_s, auditor)
        telemetry.finalize()
        insights = build_insights(telemetry, eventlog)
        emit_insights(eventlog, out["sim"], insights)
    finally:
        install_telemetry(prev_t)
        install_eventlog(prev_e)
        if slo:
            install(prev_tracer)
    metrics = collect_metrics(out["runner"], out["result"], eventlog,
                              evictions=out["evictions"])
    meta = {"scenario": scenario, "seed": seed, "chaos": bool(chaos),
            "horizon_s": horizon_s, "interval_s": interval_s,
            "policy": policy.to_meta(), "metrics": metrics}
    result = {"telemetry": telemetry, "eventlog": eventlog,
              "auditor": auditor, "result": out["result"],
              "metrics": metrics, "insights": insights,
              "meta": jsonify(meta)}
    if slo:
        from repro.obs.slo import build_slo_report
        result["sli"] = sli
        result["slo"] = engine
        result["slo_report"] = build_slo_report(
            sli, engine, meta={"scenario": scenario, "seed": seed,
                               "chaos": bool(chaos)})
    return result


def _run_fig7(seed, policy: WhatIfPolicy, chaos, horizon_s,
              auditor) -> dict:
    from repro.exp.platform import Platform, PlatformParams
    from repro.faults.chaos import _settle
    from repro.faults.generate import random_plan
    from repro.sim import Simulator
    from repro.workloads.synthetic import SyntheticParams

    n_mem = 4
    hosts = ["app", "mgr"] + [f"mem{i:02d}" for i in range(n_mem)]
    plan = None
    if chaos:
        plan = random_plan(seed, hosts, horizon_s=horizon_s,
                           protected=("app", "mgr"), experiment="fig7")
    sim = Simulator(seed=seed)
    params = PlatformParams(
        transport="udp", store_payload=False, n_memory_hosts=n_mem,
        imd_pool_bytes=2 * MB, local_cache_bytes=512 * 1024,
        app_fs_cache_dodo=1 * MB, app_fs_cache_baseline=4 * MB,
        disk_capacity_bytes=256 * MB)
    config = _scenario_config(dict(
        transport="udp", store_payload=False, dedicated=True,
        max_pool_bytes=2 * MB, placement=policy.placement))
    platform = Platform(sim, params, dodo=True, config=config,
                        faults=plan, nemesis_auditor=auditor)
    runner = MeasuringRunner(platform, SyntheticParams(
        pattern="hotcold", dataset_bytes=2 * MB, req_size=8192,
        num_iter=3, compute_s=0.02), policy=policy.replacement)
    result = sim.run(until=runner.run())
    if plan is not None:
        _settle(sim, platform, plan)
    evictions = runner._inner.cache.stats.count("evictions")
    if auditor is not None and auditor.enabled:
        platform.audit(auditor, teardown=True)
    return {"runner": runner, "result": result, "evictions": evictions,
            "sim": sim}


def _run_nondedicated(seed, policy: WhatIfPolicy, chaos, horizon_s,
                      auditor) -> dict:
    from repro.cluster.idleness import IdlePolicy
    from repro.core.regionlib import RegionCache
    from repro.core.runtime import DodoRuntime
    from repro.exp.nondedicated import NonDedicatedParams, build_cluster
    from repro.faults.generate import random_plan
    from repro.faults.nemesis import Nemesis
    from repro.sim import Simulator
    from repro.workloads.synthetic import SyntheticParams

    p = NonDedicatedParams(n_desktops=6, idle_window_s=5.0,
                           owner_active_mean_s=30.0, seed=seed)
    idle = IdlePolicy(
        window_s=policy.idle_window_s if policy.idle_window_s is not None
        else p.idle_window_s,
        load_threshold=policy.load_threshold
        if policy.load_threshold is not None else 0.3)
    hosts = ["app", "mgr"] + [f"w{i}" for i in range(p.n_desktops)]
    warmup = idle.window_s + 5.0
    plan = None
    if chaos:
        plan = random_plan(seed, hosts, horizon_s=warmup + horizon_s,
                           start_s=warmup, protected=("app", "mgr"),
                           experiment="nondedicated")
    sim = Simulator(seed=seed)
    config = _scenario_config(dict(
        transport=p.transport, store_payload=False, dedicated=False,
        max_pool_bytes=p.max_pool, idle_policy=idle,
        placement=policy.placement))
    cluster, cfg, cmd, rmds, owners = build_cluster(
        sim, p, dodo=True, config=config)
    nemesis = None
    if plan is not None:
        from repro.faults.chaos import _NonDedicatedTargets, _settle
        targets = _NonDedicatedTargets(sim, cluster, cfg, cmd, rmds)
        nemesis = Nemesis(targets, plan, auditor=auditor)
        nemesis.start()
    sim.run(until=warmup)  # let monitors recruit the idle desktops

    class _Plat:
        """Adapter matching what the synthetic runner expects."""

        def __init__(self):
            self.sim = sim
            self.app = cluster["app"]
            self.params = type("P", (), {
                "local_cache_bytes": p.local_cache})()
            self.config = cfg

        def region_cache(self, policy="lru", local_bytes=None,
                         runtime=None):
            rt = runtime or DodoRuntime(sim, self.app, cfg,
                                        shard_map=cmd.shard_map)
            return RegionCache(rt, local_bytes or p.local_cache,
                               policy=policy)

    runner = MeasuringRunner(_Plat(), SyntheticParams(
        pattern="hotcold", dataset_bytes=p.dataset_bytes,
        req_size=p.req_size, num_iter=3, compute_s=0.02),
        policy=policy.replacement)
    result = sim.run(until=runner.run())
    if plan is not None:
        _settle(sim, targets, plan)
    evictions = runner._inner.cache.stats.count("evictions")
    if auditor is not None and auditor.enabled and plan is not None:
        targets.audit(auditor, teardown=True)
    return {"runner": runner, "result": result, "evictions": evictions,
            "sim": sim}


def _scenario_config(base_kwargs: dict):
    """A DodoConfig with the chaos-hardening knobs on (scenarios may be
    recorded with or without faults; the config must not depend on it or
    the no-chaos and chaos runs would not share baselines)."""
    from repro.core.config import DodoConfig
    return DodoConfig(rpc_backoff_s=0.02, rpc_backoff_jitter=0.25,
                      imd_reregister_s=2.0, **base_kwargs)


_SCENARIOS = {"fig7": _run_fig7, "nondedicated": _run_nondedicated}


# -- record / replay ---------------------------------------------------------

def record_run(out_dir: str, scenario: str, seed: int = 0,
               policy: Optional[WhatIfPolicy] = None,
               chaos: bool = False, horizon_s: float = 20.0,
               interval_s: float = 0.25, audit: str = "off") -> dict:
    """``repro record``: run a scenario and write its run directory.
    Returns the meta dict written.  Recordings carry the SLO layer
    (``slo``-kind telemetry series and ``slo/*`` events) so ``repro
    serve`` can answer ``/api/slo`` over them."""
    run = run_scenario(scenario, seed=seed, policy=policy, chaos=chaos,
                       horizon_s=horizon_s, interval_s=interval_s,
                       audit=audit, slo=True)
    return write_run_dir(out_dir, run["telemetry"], run["eventlog"],
                         meta=run["meta"])


def run_whatif(baseline: "RunDir | str", replacement: Optional[str] = None,
               placement: Optional[str] = None,
               idle_window_s: Optional[float] = None,
               load_threshold: Optional[float] = None) -> dict:
    """Replay a recorded run under a (possibly) changed policy.

    Returns the structured what-if document: baseline and replay policy
    + metrics, per-metric delta, and whether the policy actually
    changed (an unchanged replay must reproduce the baseline metrics
    exactly — asserted by tests and the CI fleet smoke).
    """
    if isinstance(baseline, str):
        baseline = load_run_dir(baseline)
    meta = baseline.meta
    base_policy = WhatIfPolicy.from_meta(meta.get("policy", {}))
    replay_policy = base_policy.override(
        replacement=replacement, placement=placement,
        idle_window_s=idle_window_s, load_threshold=load_threshold)
    replay = run_scenario(
        meta["scenario"], seed=int(meta["seed"]),
        policy=replay_policy, chaos=bool(meta.get("chaos", False)),
        horizon_s=float(meta.get("horizon_s", 20.0)),
        interval_s=float(meta.get("interval_s", 0.25)))
    base_metrics = meta.get("metrics", {})
    delta = {}
    for key in DELTA_KEYS:
        a = base_metrics.get(key)
        b = replay["metrics"].get(key)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            delta[key] = _round(b - a)
    return jsonify({
        "scenario": meta["scenario"], "seed": meta["seed"],
        "chaos": bool(meta.get("chaos", False)),
        "changed": replay_policy != base_policy,
        "baseline": {"policy": base_policy.to_meta(),
                     "metrics": base_metrics},
        "replay": {"policy": replay_policy.to_meta(),
                   "metrics": replay["metrics"]},
        "delta": delta,
    })


def format_whatif(doc: dict) -> str:
    """Human summary of one what-if document (the CLI prints this)."""
    lines = [f"whatif[{doc['scenario']}] seed={doc['seed']}"
             + (" chaos" if doc.get("chaos") else "")]
    base, rep = doc["baseline"]["policy"], doc["replay"]["policy"]
    changes = [f"{k}: {base[k]!r} -> {rep[k]!r}"
               for k in sorted(base) if base[k] != rep[k]]
    lines.append("  policy: " + ("; ".join(changes) if changes
                                 else "unchanged (identity replay)"))
    delta = doc["delta"]
    bm, rm = doc["baseline"]["metrics"], doc["replay"]["metrics"]
    for key in DELTA_KEYS:
        if key not in delta:
            continue
        d = delta[key]
        marker = "=" if d == 0 else ("+" if d > 0 else "")
        lines.append(f"  {key:<14s} {bm.get(key)!r:>14} -> "
                     f"{rm.get(key)!r:>14}  ({marker}{d:g})")
    if not doc["changed"] and all(v == 0 for v in delta.values()):
        lines.append("  identity replay reproduced the baseline exactly")
    return "\n".join(lines)
