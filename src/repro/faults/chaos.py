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

:func:`play_scenario` builds and runs each scenario, for this harness
and for the what-if replayer alike.  Its configs enable the hardening
this subsystem exists to exercise (:data:`HARDENING`): exponential RPC
backoff with jitter, imd heartbeat re-registration (so daemons
re-attach after a manager restart), and client re-registration on
manager-incarnation change.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.generate import random_plan
from repro.faults.plan import FaultPlan
from repro.workloads.app import SyntheticRunner

EXPERIMENTS = ("fig7", "nondedicated", "failover")

MB = 1024 * 1024

#: the fault-tolerance knobs every scenario runs with, faults or not (a
#: what-if recording without chaos must share its config with the
#: chaos one): exponential RPC backoff with jitter and imd heartbeat
#: re-registration
HARDENING = dict(rpc_backoff_s=0.02, rpc_backoff_jitter=0.25,
                 imd_reregister_s=2.0)


class ChaosRunner(SyntheticRunner):
    """A fault-tolerant synthetic runner that measures its data path.

    Under injected faults the Dodo data path may fail outright (manager
    unreachable at ``copen`` time, region lost mid-``cread``); a real
    application would fall back to the file system, so this runner does
    too, counting each degraded request instead of raising.

    It also records every request's virtual-time latency and classifies
    each read as local, remote or disk — the raw material of the what-if
    delta.  A *fetch* is a read served from beyond the local region
    cache; a *refetch* is any fetch of a region after its first (the
    cost reclaim churn imposes on guests).  Measuring reads virtual time
    and counters only, so it never changes what the run simulates.
    """

    def __init__(self, platform, params, use_dodo: bool = True,
                 policy: str = "lru"):
        super().__init__(platform, params, use_dodo=use_dodo, policy=policy)
        self._sim = platform.sim
        self.degraded = 0
        self.latencies_s: list[float] = []
        self.local_reads = 0
        self.remote_reads = 0
        self.disk_reads = 0
        self.fetches = 0
        self.refetches = 0
        self._fetched: set[int] = set()

    def _classify(self, ridx: int, before: dict) -> None:
        stats = self.cache.stats
        deltas = {k: stats.count(k) - before[k] for k in before}
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

    def _degrade(self, offset: int, length: int, t0: float):
        self.degraded += 1
        yield self.fs.read(self.fh, offset, length)
        self.latencies_s.append(self._sim.now - t0)

    def _read(self, offset: int, length: int):
        t0 = self._sim.now
        if not self.use_dodo:
            yield self.fs.read(self.fh, offset, length)
            self.latencies_s.append(self._sim.now - t0)
            self.disk_reads += 1
            return
        ridx = offset // self.region_bytes
        crd, err = yield from self._region(ridx)
        if err != 0:
            yield from self._degrade(offset, length, t0)
            return
        stats = self.cache.stats
        before = {k: stats.count(k)
                  for k in ("cread.local_hits", "cread.remote_hits",
                            "cread.disk_reads")}
        _, err, _ = yield from self.cache.cread(
            crd, offset - ridx * self.region_bytes, length)
        if err != 0:
            yield from self._degrade(offset, length, t0)
            return
        self._classify(ridx, before)
        self.latencies_s.append(self._sim.now - t0)


def _plan_end(plan: FaultPlan) -> float:
    return max((ev.time + (ev.duration_s or 0.0) for ev in plan),
               default=0.0)


def run_chaos(experiment: str = "fig7", seed: int = 0,
              plan: Optional[FaultPlan] = None, audit: str = "raise",
              horizon_s: float = 20.0,
              eventlog_level: str = "debug", cache=None) -> dict:
    """One chaos run; see module docstring.  Returns a dict with keys
    ``plan``, ``eventlog``, ``auditor``, ``result``, ``degraded``,
    ``platform`` (the built testbed), ``injected`` and ``healed``.

    ``cache`` (a :class:`~repro.core.config.CacheConfig`, default None)
    runs the scenario with the elastic-caching subsystem on — the
    differential migration tests replay reclaim storms this way.
    """
    from repro.obs.session import ObsSession

    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown chaos experiment {experiment!r}, "
                         f"expected one of {EXPERIMENTS}")
    if plan is not None and plan.seed is not None:
        seed = plan.seed
    with ObsSession(events=eventlog_level, audit=audit) as obs:
        run = play_scenario(experiment, seed, plan, horizon_s=horizon_s,
                            auditor=obs.auditor, cache=cache)
    testbed = run["testbed"]
    return {"plan": run["plan"], "eventlog": obs.eventlog,
            "auditor": obs.auditor,
            "result": run["result"], "degraded": run["runner"].degraded,
            "platform": testbed, "injected": testbed.nemesis.injected,
            "healed": testbed.nemesis.healed, "experiment": experiment,
            "seed": seed}


def play_scenario(experiment: str, seed: int,
                  plan: Optional[FaultPlan] = None, *, chaos: bool = True,
                  horizon_s: float = 20.0, auditor=None, cache=None,
                  placement: str = "random", replacement: str = "lru",
                  idle_window_s: Optional[float] = None,
                  load_threshold: Optional[float] = None) -> dict:
    """Build one scenario's testbed and run its hotcold workload.

    The one builder behind both ``run_chaos`` and the what-if replayer
    (:mod:`repro.obs.fleet.whatif`).  The nemesis runs ``plan`` — with
    ``chaos`` and no plan, a random one drawn from ``seed`` — and audits
    after every injection and heal; the run then settles past the last
    heal and takes a teardown audit.  With no plan nothing is injected,
    settled or audited.

    ``cache`` is the :class:`~repro.core.config.CacheConfig` block;
    ``placement`` the manager's placement and ``replacement`` the
    region-cache policy.  ``idle_window_s`` and ``load_threshold``
    change the recruitment predicate, which only the desktop scenario
    has (None keeps the scenario default).  Returns ``{"plan",
    "testbed", "runner", "result"}``.
    """
    from repro.core.config import DodoConfig
    from repro.sim import Simulator
    from repro.workloads.synthetic import SyntheticParams

    changes = dict(HARDENING, placement=placement)
    if cache is not None:
        changes["cache"] = cache
    if experiment == "nondedicated":
        from repro.cluster.idleness import IdlePolicy
        from repro.exp.nondedicated import DesktopCluster, NonDedicatedParams
        p = NonDedicatedParams(
            n_desktops=6, owner_active_mean_s=30.0, seed=seed,
            idle_window_s=5.0 if idle_window_s is None else idle_window_s)
        if load_threshold is not None:
            changes["idle_policy"] = IdlePolicy(
                window_s=p.idle_window_s, load_threshold=load_threshold)
        config = p.dodo_config(**changes)
        hosts = ["app", "mgr"] + [f"w{i}" for i in range(p.n_desktops)]
        warmup = p.idle_window_s + 5.0
        plan_kwargs = dict(horizon_s=warmup + horizon_s, start_s=warmup,
                           protected=("app", "mgr"))
        dataset, req_size = p.dataset_bytes, p.req_size

        def build(sim, plan):
            cluster = DesktopCluster(sim, p, config=config, faults=plan,
                                     nemesis_auditor=auditor)
            sim.run(until=warmup)  # let the monitors recruit desktops
            return cluster
    else:
        from repro.exp.platform import Platform, PlatformParams
        n_mem, mgr_hosts, plan_kwargs = 4, ["mgr"], {}
        if experiment == "failover":
            changes.update(shards=2, replication=True)
            mgr_hosts = [h for i in range(2)
                         for h in (f"mgr{i:02d}", f"bak{i:02d}")]
            plan_kwargs = dict(kinds=("host_crash", "nic_flap",
                                      "loss_burst", "manager_crash"),
                               shards=2)
        config = DodoConfig(store_payload=False, **changes)
        hosts = ["app"] + mgr_hosts + [f"mem{i:02d}" for i in range(n_mem)]
        plan_kwargs.update(horizon_s=horizon_s,
                           protected=tuple(["app"] + mgr_hosts))
        dataset, req_size = 2 * MB, 8192
        params = PlatformParams(
            n_memory_hosts=n_mem, imd_pool_bytes=2 * MB,
            local_cache_bytes=512 * 1024, app_fs_cache_dodo=1 * MB,
            app_fs_cache_baseline=4 * MB, disk_capacity_bytes=256 * MB)

        def build(sim, plan):  # the platform runs its registrations
            return Platform(sim, params, dodo=True, config=config,
                            faults=plan, nemesis_auditor=auditor)

    if chaos and plan is None:
        plan = random_plan(seed, hosts, experiment=experiment,
                           **plan_kwargs)
    sim = Simulator(seed=seed)
    testbed = build(sim, plan)
    runner = ChaosRunner(testbed, SyntheticParams(
        pattern="hotcold", dataset_bytes=dataset, req_size=req_size,
        num_iter=3, compute_s=0.02), policy=replacement)
    result = sim.run(until=runner.run())
    if plan is not None:
        _settle(sim, testbed, plan)
        if auditor is not None:
            testbed.audit(auditor, teardown=True)
    return {"plan": plan, "testbed": testbed, "runner": runner,
            "result": result}


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
