#!/usr/bin/env python3
"""Idle-memory harvesting on a non-dedicated desktop cluster.

Shows the full Dodo control plane in action: resource monitors watch
console activity and load on eight desktop machines whose owners come and
go; idle machines are recruited (an idle memory daemon is forked and
registers its pool with the central manager) and reclaimed the moment
their owner returns — with the reclaim delay, the paper's headline
owner-impact metric, measured for every event.

Run:  python examples/idle_harvesting.py
"""

from repro.cluster import PreferenceRules, min_available_memory, never
from repro.cluster.cluster import Cluster, ClusterConfig, HostSpec
from repro.cluster.idleness import IdlePolicy
from repro.cluster.owner import Owner, OwnerParams
from repro.cluster.workstation import MB
from repro.core import CentralManager, DodoConfig, ResourceMonitor
from repro.sim import Simulator

N_DESKTOPS = 8
SIM_MINUTES = 30.0


def main() -> None:
    sim = Simulator(seed=7)
    hosts = [HostSpec("mgr")] + [
        HostSpec(f"desk{i}", total_mem_bytes=64 * MB)
        for i in range(N_DESKTOPS)]
    cluster = Cluster(sim, ClusterConfig(hosts=hosts))
    cfg = DodoConfig(
        store_payload=False, max_pool_bytes=16 * MB,
        idle_policy=IdlePolicy(window_s=60.0))  # 1 min for the demo

    cmd = CentralManager(sim, cluster["mgr"], cfg)
    rmds, owners = [], []
    for i in range(N_DESKTOPS):
        ws = cluster[f"desk{i}"]
        # Condor-style owner preferences: desk7's owner opted out entirely,
        # everyone else demands 8 MB of headroom beyond the idleness test.
        prefs = PreferenceRules([never()]) if i == 7 else \
            PreferenceRules([min_available_memory(8 * MB)])
        rmds.append(ResourceMonitor(sim, ws, cfg, shard_map=cmd.shard_map,
                                    preferences=prefs))
        owners.append(Owner(sim, ws, OwnerParams(
            active_mean_s=4 * 60.0, away_mean_s=8 * 60.0,
            background_job_prob=0.15), start_active=(i % 3 == 0)))

    print(f"{N_DESKTOPS} desktops, owners active ~4 min / away ~8 min, "
          f"idle window {cfg.idle_policy.window_s:.0f} s\n")
    print(f"{'time':>8s}  {'idle hosts':>10s}  {'harvested MB':>12s}")
    step = 120.0
    t = 0.0
    while t < SIM_MINUTES * 60.0:
        t += step
        sim.run(until=t)
        harvested = sum(ws.guest_memory for ws in cluster) / MB
        idle = sum(1 for r in rmds if r.recruited)
        print(f"{t / 60.0:7.1f}m  {idle:>10d}  {harvested:>12.0f}")

    recruits = sum(r.stats.count("recruits") for r in rmds)
    reclaims = sum(r.stats.count("reclaims") for r in rmds)
    delays = [d for r in rmds for d in r.stats.samples("reclaim_delay_s")]
    print(f"\nover {SIM_MINUTES:.0f} simulated minutes: "
          f"{recruits:.0f} recruitments, {reclaims:.0f} reclaims")
    if delays:
        print(f"owner reclaim delay: mean {1e3 * sum(delays) / len(delays):.2f} ms, "
              f"max {1e3 * max(delays):.2f} ms — 'virtually no delay'")
    print(f"idle-workstation directory now tracks: {sorted(cmd.iwd)}")


if __name__ == "__main__":
    main()
