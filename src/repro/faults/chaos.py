"""Seed-replayable chaos runs: workload + nemesis + auditor + event log.

``run_chaos("fig7", seed=N)`` builds a scaled-down version of the named
experiment's platform, generates a random :class:`FaultPlan` from the
seed (or takes one via ``plan=``), runs the workload while the nemesis
executes the schedule, and audits cluster invariants after every
injection, every heal, and at teardown.  The returned bundle carries the
plan (exportable as JSON), the structured event log (its JSONL dump is
byte-identical across runs of the same seed+plan — asserted in
``tests/faults/test_chaos_determinism.py``), the auditor, and the
workload result.

The same seed drives *both* the schedule generator and the simulator, so
one integer fully reproduces a failing run; alternatively, a previously
exported plan JSON (which embeds its seed) replays it on its own.

Scenarios:

* ``"fig7"`` — the dedicated Section 5.1 platform (scaled down to four
  memory hosts) under a hotcold synthetic workload, the same data path
  the Figure 7 applications exercise.
* ``"nondedicated"`` — the Section 5.3.1 desktop cluster with resource
  monitors and stochastic owners; faults land on top of the normal
  recruit/reclaim churn.
* ``"failover"`` — a two-shard replicated region directory, with
  ``manager_crash`` events drawn per shard so the nemesis crashes shard
  primaries mid-workload and the backups promote themselves (the
  manager hosts are protected from host-level faults — directory loss
  is exercised through the crash/promote path, not by nuking the node
  under it).

The chaos configs enable the hardening this subsystem exists to
exercise: exponential RPC backoff with jitter, imd heartbeat
re-registration (so daemons re-attach after a manager restart), and
client re-registration on manager-incarnation change.
"""

from __future__ import annotations

from typing import Optional

from repro.exp.platform import ClusterTargets
from repro.faults.generate import random_plan
from repro.faults.nemesis import Nemesis
from repro.faults.plan import FaultPlan

EXPERIMENTS = ("fig7", "nondedicated", "failover")

MB = 1024 * 1024


class ChaosRunner:
    """A fault-tolerant synthetic runner: under injected faults the Dodo
    data path may fail outright (manager unreachable at ``copen`` time,
    region lost mid-``cread``); a real application would fall back to
    the file system, so this runner does too, counting each degraded
    request instead of raising."""

    def __init__(self, platform, params, use_dodo: bool = True,
                 policy: str = "lru"):
        from repro.workloads.app import SyntheticRunner
        self._inner = SyntheticRunner(platform, params, use_dodo=use_dodo,
                                      policy=policy)
        self.degraded = 0
        # route every request through the degrading read below
        self._inner._read = self._read
        self.run = self._inner.run

    def _read(self, offset: int, length: int):
        inner = self._inner
        if not inner.use_dodo:
            yield inner.fs.read(inner.fh, offset, length)
            return
        ridx = offset // inner.region_bytes
        crd = inner._crds.get(ridx)
        if crd is None:
            crd, err = yield from inner.cache.copen(
                inner.region_bytes, inner.fh.fd, ridx * inner.region_bytes)
            if err != 0:
                self.degraded += 1
                yield inner.fs.read(inner.fh, offset, length)
                return
            inner._crds[ridx] = crd
        _, err, _ = yield from inner.cache.cread(
            crd, offset - ridx * inner.region_bytes, length)
        if err != 0:
            self.degraded += 1
            yield inner.fs.read(inner.fh, offset, length)


def _chaos_config(base_kwargs: dict, cache=None):
    """A DodoConfig with the fault-tolerance knobs switched on.

    ``cache`` (a :class:`~repro.core.config.CacheConfig`) opts the run
    into the elastic-caching subsystem; None keeps the stock
    byte-identical configuration.
    """
    from repro.core.config import DodoConfig
    if cache is not None:
        base_kwargs["cache"] = cache
    return DodoConfig(rpc_backoff_s=0.02, rpc_backoff_jitter=0.25,
                      imd_reregister_s=2.0, **base_kwargs)


def _plan_end(plan: FaultPlan) -> float:
    return max((ev.time + (ev.duration_s or 0.0) for ev in plan),
               default=0.0)


def run_chaos(experiment: str = "fig7", seed: int = 0,
              plan: Optional[FaultPlan] = None, audit: str = "raise",
              horizon_s: float = 20.0,
              eventlog_level: str = "debug", cache=None) -> dict:
    """One chaos run; see module docstring.  Returns a dict with keys
    ``plan``, ``eventlog``, ``auditor``, ``result``, ``degraded``,
    ``platform`` (scenario-specific), ``injected`` and ``healed``.

    ``cache`` (a :class:`~repro.core.config.CacheConfig`, default None)
    runs the scenario with the elastic-caching subsystem on — the
    differential migration tests replay reclaim storms this way.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown chaos experiment {experiment!r}, "
                         f"expected one of {EXPERIMENTS}")
    if plan is not None and plan.seed is not None:
        seed = plan.seed
    run = _SCENARIOS[experiment](seed, plan, audit, horizon_s,
                                 eventlog_level, cache)
    run["experiment"] = experiment
    run["seed"] = seed
    return run


# -- scenarios ---------------------------------------------------------------
def _run_fig7(seed, plan, audit, horizon_s, eventlog_level,
              cache=None) -> dict:
    from repro.exp.platform import Platform, PlatformParams
    from repro.obs.audit import make_auditor
    from repro.obs.eventlog import EventLog, install_eventlog
    from repro.sim import Simulator
    from repro.workloads.synthetic import SyntheticParams

    n_mem = 4
    hosts = ["app", "mgr"] + [f"mem{i:02d}" for i in range(n_mem)]
    if plan is None:
        plan = random_plan(seed, hosts, horizon_s=horizon_s,
                           protected=("app", "mgr"),
                           experiment="fig7")
    log = EventLog(level=eventlog_level)
    auditor = make_auditor(audit, eventlog=log)
    previous = install_eventlog(log)
    try:
        sim = Simulator(seed=seed)
        params = PlatformParams(
            transport="udp", store_payload=False, n_memory_hosts=n_mem,
            imd_pool_bytes=2 * MB, local_cache_bytes=512 * 1024,
            app_fs_cache_dodo=1 * MB, app_fs_cache_baseline=4 * MB,
            disk_capacity_bytes=256 * MB)
        platform = Platform(
            sim, params, dodo=True,
            config=_chaos_config(dict(
                transport="udp", store_payload=False, dedicated=True,
                max_pool_bytes=2 * MB), cache),
            faults=plan, nemesis_auditor=auditor)
        runner = ChaosRunner(platform, SyntheticParams(
            pattern="hotcold", dataset_bytes=2 * MB, req_size=8192,
            num_iter=3, compute_s=0.02))
        result = sim.run(until=runner.run())
        _settle(sim, platform, plan)
        platform.audit(auditor, teardown=True)
        nem = platform.nemesis
        return {"plan": plan, "eventlog": log, "auditor": auditor,
                "result": result, "degraded": runner.degraded,
                "platform": platform,
                "injected": nem.injected, "healed": nem.healed}
    finally:
        install_eventlog(previous)


def _run_failover(seed, plan, audit, horizon_s, eventlog_level,
                  cache=None) -> dict:
    from repro.exp.platform import Platform, PlatformParams
    from repro.obs.audit import make_auditor
    from repro.obs.eventlog import EventLog, install_eventlog
    from repro.sim import Simulator
    from repro.workloads.synthetic import SyntheticParams

    n_mem, n_shards = 4, 2
    mgr_hosts = [h for i in range(n_shards)
                 for h in (f"mgr{i:02d}", f"bak{i:02d}")]
    hosts = ["app"] + mgr_hosts + [f"mem{i:02d}" for i in range(n_mem)]
    if plan is None:
        plan = random_plan(seed, hosts, horizon_s=horizon_s,
                           protected=tuple(["app"] + mgr_hosts),
                           kinds=("host_crash", "nic_flap", "loss_burst",
                                  "manager_crash"),
                           shards=n_shards, experiment="failover")
    log = EventLog(level=eventlog_level)
    auditor = make_auditor(audit, eventlog=log)
    previous = install_eventlog(log)
    try:
        sim = Simulator(seed=seed)
        params = PlatformParams(
            transport="udp", store_payload=False, n_memory_hosts=n_mem,
            imd_pool_bytes=2 * MB, local_cache_bytes=512 * 1024,
            app_fs_cache_dodo=1 * MB, app_fs_cache_baseline=4 * MB,
            disk_capacity_bytes=256 * MB,
            shards=n_shards, replication=True)
        platform = Platform(
            sim, params, dodo=True,
            config=_chaos_config(dict(
                transport="udp", store_payload=False, dedicated=True,
                max_pool_bytes=2 * MB,
                shards=n_shards, replication=True), cache),
            faults=plan, nemesis_auditor=auditor)
        runner = ChaosRunner(platform, SyntheticParams(
            pattern="hotcold", dataset_bytes=2 * MB, req_size=8192,
            num_iter=3, compute_s=0.02))
        result = sim.run(until=runner.run())
        _settle(sim, platform, plan)
        platform.audit(auditor, teardown=True)
        nem = platform.nemesis
        return {"plan": plan, "eventlog": log, "auditor": auditor,
                "result": result, "degraded": runner.degraded,
                "platform": platform,
                "injected": nem.injected, "healed": nem.healed}
    finally:
        install_eventlog(previous)


def _run_nondedicated(seed, plan, audit, horizon_s,
                      eventlog_level, cache=None) -> dict:
    from repro.cluster.idleness import IdlePolicy
    from repro.exp.nondedicated import NonDedicatedParams, build_cluster
    from repro.obs.audit import make_auditor
    from repro.obs.eventlog import EventLog, install_eventlog
    from repro.sim import Simulator
    from repro.workloads.synthetic import SyntheticParams

    p = NonDedicatedParams(n_desktops=6, idle_window_s=5.0,
                           owner_active_mean_s=30.0, seed=seed)
    hosts = ["app", "mgr"] + [f"w{i}" for i in range(p.n_desktops)]
    warmup = p.idle_window_s + 5.0
    if plan is None:
        plan = random_plan(seed, hosts, horizon_s=warmup + horizon_s,
                           start_s=warmup, protected=("app", "mgr"),
                           experiment="nondedicated")
    log = EventLog(level=eventlog_level)
    auditor = make_auditor(audit, eventlog=log)
    previous = install_eventlog(log)
    try:
        sim = Simulator(seed=seed)
        cfg = _chaos_config(dict(
            transport=p.transport, store_payload=False, dedicated=False,
            max_pool_bytes=p.max_pool,
            idle_policy=IdlePolicy(window_s=p.idle_window_s)), cache)
        cluster, cfg, cmd, rmds, owners = build_cluster(
            sim, p, dodo=True, config=cfg)
        targets = _NonDedicatedTargets(sim, cluster, cfg, cmd, rmds)
        nemesis = Nemesis(targets, plan, auditor=auditor)
        nemesis.start()
        sim.run(until=warmup)  # let monitors recruit the idle desktops

        from repro.core.regionlib import RegionCache
        from repro.core.runtime import DodoRuntime

        class _Plat:  # adapter matching what SyntheticRunner expects
            def __init__(self):
                self.sim = sim
                self.app = cluster["app"]
                self.params = type("P", (), {
                    "local_cache_bytes": p.local_cache})()
                self.config = cfg

            def region_cache(self, policy="lru", local_bytes=None,
                             runtime=None):
                rt = runtime or DodoRuntime(sim, self.app, cfg,
                                            shard_map=targets.shard_map)
                return RegionCache(rt, local_bytes or p.local_cache,
                                   policy=policy)

        runner = ChaosRunner(_Plat(), SyntheticParams(
            pattern="hotcold", dataset_bytes=p.dataset_bytes,
            req_size=p.req_size, num_iter=3, compute_s=0.02))
        result = sim.run(until=runner.run())
        _settle(sim, targets, plan)
        targets.audit(auditor, teardown=True)
        return {"plan": plan, "eventlog": log, "auditor": auditor,
                "result": result, "degraded": runner.degraded,
                "platform": targets,
                "injected": nemesis.injected, "healed": nemesis.healed}
    finally:
        install_eventlog(previous)


class _NonDedicatedTargets(ClusterTargets):
    """Platform-shaped adapter over the Section 5.3.1 cluster for the
    nemesis and the auditor.  ``imds`` accumulates every daemon the
    monitors ever fork (including ones later killed by a host crash) so
    the auditor can tell a killed incarnation from real divergence."""

    def __init__(self, sim, cluster, config, cmd, rmds):
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self.rmds = rmds
        self.shard_map = cmd.shard_map
        self.shard_managers = {cmd.shard_id: [cmd]}
        self.imds: list = []

    def audit(self, auditor=None, teardown: bool = True):
        seen = {id(i) for i in self.imds}
        for rmd in self.rmds:
            imd = rmd.imd
            if imd is not None and id(imd) not in seen:
                self.imds.append(imd)
        return super().audit(auditor, teardown)


def _settle(sim, targets, plan: FaultPlan) -> None:
    """Run past the last heal plus a grace period so lazily-propagated
    state (imd heartbeats, client re-attach) converges before the strict
    teardown audit."""
    config = targets.config
    grace = 2.0 * max(config.imd_reregister_s, 1.0) + 1.0
    if not targets.shard_map.lone:
        # the anti-entropy scrubber needs two full passes to reap a
        # region orphaned moments before the workload ended
        grace += 2.0 * max(config.scrub_interval_s, 0.0) + 1.0
    until = max(sim.now, _plan_end(plan)) + grace
    sim.run(until=until)


_SCENARIOS = {"fig7": _run_fig7, "nondedicated": _run_nondedicated,
              "failover": _run_failover}


def format_chaos(run: dict) -> str:
    """Human summary of one chaos run (the CLI prints this)."""
    plan = run["plan"]
    auditor = run["auditor"]
    lines = [f"chaos[{run['experiment']}] seed={run['seed']}: "
             f"{len(plan)} scheduled faults, "
             f"{run['injected']} injected, {run['healed']} healed"]
    by_kind: dict[str, int] = {}
    for ev in plan:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
    lines.append("  plan: " + ", ".join(
        f"{k}x{v}" for k, v in sorted(by_kind.items())))
    res = run["result"]
    lines.append(f"  workload: {res.requests} requests in "
                 f"{res.elapsed_s:.2f}s virtual, "
                 f"{run['degraded']} degraded to disk")
    if auditor is not None:
        lines.append("  " + auditor.format_report())
    return "\n".join(lines)
