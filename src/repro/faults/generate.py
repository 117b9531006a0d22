"""Seed-deterministic random fault-schedule generation.

``random_plan(seed=N, ...)`` always yields the same :class:`FaultPlan`
for the same arguments — the generator draws from its own
``random.Random(seed)`` instance, never from the simulator's streams, so
plan generation is independent of (and cannot perturb) simulation
randomness.  A chaos run is then fully described by ``(seed, plan)``,
and since the plan embeds the seed, the exported JSON alone replays it.

The schedule is a sequential walk over virtual time with a per-resource
busy-until map: a host that is crashed (or mid-flap, or mid-storm) is
not targeted again until its current fault heals, the network carries at
most one partition at a time, and the manager at most one crash.  That
keeps generated plans *plausible* — overlapping contradictory faults on
one resource would test the nemesis, not the system.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.faults.plan import FaultPlan, FaultSpec

#: relative likelihood of each kind in a generated schedule
_WEIGHTS = {
    "host_crash": 3,
    "nic_flap": 3,
    "loss_burst": 3,
    "partition": 2,
    "reclaim_storm": 2,
    "disk_slowdown": 2,
    "manager_crash": 1,
}

#: (min, max) duration seconds per kind
_DURATIONS = {
    "host_crash": (1.0, 5.0),
    "nic_flap": (0.2, 1.0),
    "loss_burst": (0.5, 2.0),
    "partition": (0.5, 2.0),
    "reclaim_storm": (2.0, 6.0),
    "disk_slowdown": (1.0, 4.0),
    "manager_crash": (1.0, 3.0),
}


def random_plan(seed: int,
                hosts: Sequence[str],
                horizon_s: float = 30.0,
                start_s: float = 2.0,
                mean_gap_s: float = 2.0,
                disk_hosts: Optional[Sequence[str]] = None,
                protected: Sequence[str] = ("app",),
                kinds: Optional[Sequence[str]] = None,
                shards: Optional[int] = None,
                experiment: str = "") -> FaultPlan:
    """Generate a replayable fault schedule.

    ``hosts`` are the crash/flap/storm candidates (``protected`` names —
    by default the application node — are never crashed or flapped, so a
    generated plan cannot trivially kill the workload itself).
    ``disk_hosts`` are slowdown candidates (default: the protected
    hosts, i.e. the app node's disk — the interesting one).
    ``shards`` (when set) makes each ``manager_crash`` target one
    randomly-drawn directory shard, with a per-shard busy map; leaving
    it None keeps the single-manager schedule — and since the
    rng draw sequence is untouched in that case, pre-sharding plans
    regenerate byte-identically.
    """
    rng = random.Random(seed)
    targets = [h for h in hosts if h not in set(protected)]
    slow_targets = list(disk_hosts if disk_hosts is not None else protected)
    pool = list(kinds if kinds is not None else _WEIGHTS)
    if not targets:
        pool = [k for k in pool
                if k in ("loss_burst", "disk_slowdown", "manager_crash")]
    if not slow_targets:
        pool = [k for k in pool if k != "disk_slowdown"]
    if not pool:
        raise ValueError("no applicable fault kinds for this host set")
    weights = [_WEIGHTS[k] for k in pool]

    #: resource -> virtual time its current fault heals
    busy: dict[str, float] = {}
    events = []
    t = start_s
    while True:
        t += rng.expovariate(1.0 / mean_gap_s)
        if t >= horizon_s:
            break
        kind = rng.choices(pool, weights=weights)[0]
        lo, hi = _DURATIONS[kind]
        duration = round(rng.uniform(lo, hi), 3)
        time = round(t, 3)
        if kind in ("host_crash", "nic_flap", "reclaim_storm"):
            free = [h for h in targets if busy.get(h, 0.0) <= time]
            if not free:
                continue
            target = rng.choice(free)
            busy[target] = time + duration
            events.append(FaultSpec(time=time, kind=kind, target=target,
                                    duration_s=duration))
        elif kind == "loss_burst":
            if busy.get("network", 0.0) > time:
                continue
            busy["network"] = time + duration
            events.append(FaultSpec(
                time=time, kind=kind, duration_s=duration,
                value=round(rng.uniform(0.05, 0.3), 3)))
        elif kind == "partition":
            if busy.get("network", 0.0) > time:
                continue
            free = [h for h in targets if busy.get(h, 0.0) <= time]
            if len(free) < 2:
                continue
            cut = rng.sample(free, k=rng.randint(1, len(free) - 1))
            busy["network"] = time + duration
            events.append(FaultSpec(time=time, kind=kind,
                                    duration_s=duration,
                                    group=tuple(sorted(cut))))
        elif kind == "disk_slowdown":
            target = rng.choice(slow_targets)
            if busy.get(f"disk:{target}", 0.0) > time:
                continue
            busy[f"disk:{target}"] = time + duration
            events.append(FaultSpec(
                time=time, kind=kind, target=target, duration_s=duration,
                value=round(rng.uniform(2.0, 8.0), 3)))
        elif kind == "manager_crash":
            if shards is None:
                if busy.get("manager", 0.0) > time:
                    continue
                busy["manager"] = time + duration
                events.append(FaultSpec(time=time, kind=kind,
                                        duration_s=duration))
            else:
                sid = rng.randrange(shards)
                if busy.get(f"manager:{sid}", 0.0) > time:
                    continue
                busy[f"manager:{sid}"] = time + duration
                events.append(FaultSpec(time=time, kind=kind,
                                        duration_s=duration, shard=sid))
    plan = FaultPlan(
        events=tuple(events), seed=seed, experiment=experiment,
        description=f"random_plan(seed={seed}, horizon_s={horizon_s}, "
                    f"hosts={len(hosts)})")
    plan.validate(hosts=set(hosts) | set(slow_targets))
    return plan
