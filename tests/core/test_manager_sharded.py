"""Integration tests: the sharded directory end to end.

A real (scaled-down) platform with the directory split across two
replicated shard managers: regions land on the shard the ring assigns,
clients route by their shard map and chase promotions, the backup takes
over on a primary crash without losing a region, and the cross-shard
auditor stays green throughout.
"""

from dataclasses import replace

import pytest

from repro.core.config import DodoConfig
from repro.core.manager import RdEntry
from repro.exp.platform import MB, Platform, PlatformParams
from repro.testing import make_backing_file

REGION = 64 * 1024


def make_sharded(sim, shards=2, replication=True, n_hosts=4, **config):
    params = PlatformParams(
        n_memory_hosts=n_hosts, imd_pool_bytes=2 * MB,
        local_cache_bytes=256 * 1024, app_fs_cache_dodo=1 * MB,
        disk_capacity_bytes=256 * MB)
    cfg = DodoConfig(shards=shards, replication=replication,
                     rpc_backoff_s=0.02, imd_reregister_s=2.0, **config)
    return Platform(sim, params, dodo=True, config=cfg)


def open_regions(rt, fd, n, base=0):
    descs = []
    for i in range(n):
        d, err = yield from rt.mopen(REGION, fd, (base + i) * REGION)
        assert err == 0, f"mopen {base + i} failed: errno {err}"
        n_, e = yield from rt.mwrite(d, 0, 512, bytes([i % 251]) * 512)
        assert e == 0
        descs.append(d)
    return descs


def test_platform_is_sharded_only_when_asked(sim):
    assert make_sharded(sim, shards=2).shard_map.n_shards == 2
    assert not make_sharded(sim, shards=1, replication=True).shard_map.lone
    single = make_sharded(sim, shards=1, replication=False)
    # default knobs keep the paper's single manager: the lone ring on "mgr"
    assert single.shard_map.lone and single.shard_map.primary(0) == "mgr"
    assert [mgr.name for mgr in single.shard_managers[0]] == ["cmd"]


def test_regions_spread_across_both_shards(sim):
    plat = make_sharded(sim)
    rt = plat.runtime()
    fd = make_backing_file(plat, size=2 * MB)

    def driver():
        yield from open_regions(rt, fd, 16)

    sim.run(until=sim.process(driver()))
    primaries = [plat.live_primary(sid) for sid in sorted(plat.shard_managers)]
    per_shard = [len(cmd.rd) for cmd in primaries]
    assert sum(per_shard) == 16
    assert all(n > 0 for n in per_shard), per_shard
    # every entry sits on the shard the ring says owns it
    for cmd in primaries:
        for key in cmd.rd:
            assert plat.shard_map.owner_of(key) == cmd.shard_id
    assert not plat.audit(teardown=True)


def test_backup_promotion_keeps_serving(sim):
    plat = make_sharded(sim)
    rt = plat.runtime()
    fd = make_backing_file(plat, size=2 * MB)

    def driver():
        yield from open_regions(rt, fd, 8)
        assert not plat.audit(teardown=False)
        victim, backup = plat.shard_managers[0]
        incarnation = victim.incarnation
        victim.stop()
        yield sim.timeout(3.0)  # heartbeat misses -> promotion
        promoted = plat.live_primary(0)
        assert promoted is backup
        assert promoted.role == "primary"
        # same incarnation: clients keep their cached descriptors
        assert promoted.incarnation == incarnation
        yield from open_regions(rt, fd, 8, base=8)
        d, err = yield from rt.mopen(REGION, fd, 0)  # pre-crash region
        assert err == 0
        n, e, data = yield from rt.mread(d, 0, 512)
        assert e == 0 and data == bytes([0]) * 512

    sim.run(until=sim.process(driver()))
    sim.run(until=sim.now + 12.0)  # scrub interval + settle
    assert not plat.audit(teardown=True)
    # the client timed out against the dead primary at least once, then
    # settled on the promoted backup as its preferred endpoint
    assert rt.stats.counters.get("shard.retry", 0) >= 1
    assert rt._shard_pref[0] == "bak00"


def test_unreplicated_shard_restart_bumps_incarnation(sim):
    from repro.core.manager import CentralManager
    plat = make_sharded(sim, replication=False)
    rt = plat.runtime()
    fd = make_backing_file(plat, size=2 * MB)

    def driver():
        yield from open_regions(rt, fd, 8)
        victim = plat.live_primary(0)
        victim.stop()
        reborn = CentralManager(
            sim, victim.ws, plat.config,
            incarnation=victim.incarnation + 1,
            shard_id=0, shard_map=plat.shard_map)
        plat.shard_managers[0].append(reborn)
        yield sim.timeout(8.0)  # imds re-register with the new incarnation
        # the reborn shard serves fresh opens (its old state is gone;
        # the other shard's regions survive untouched)
        yield from open_regions(rt, fd, 8, base=8)

    sim.run(until=sim.process(driver()))
    sim.run(until=sim.now + 12.0)
    assert not plat.audit(teardown=True)


def test_replication_ships_every_mutation(sim):
    plat = make_sharded(sim)
    rt = plat.runtime()
    fd = make_backing_file(plat, size=2 * MB)

    def driver():
        yield from open_regions(rt, fd, 12)
        yield sim.timeout(1.0)

    sim.run(until=sim.process(driver()))
    for primary, backup in plat.shard_managers.values():
        assert not primary._repl_pending
        assert backup.repl_seq == primary.repl_seq
        assert set(backup.rd) == set(primary.rd)
    assert not plat.audit(teardown=True)


def test_single_shard_map_routes_everything_to_shard_zero(sim):
    plat = make_sharded(sim, shards=1)
    rt = plat.runtime()
    fd = make_backing_file(plat, size=2 * MB)

    def driver():
        yield from open_regions(rt, fd, 8)

    sim.run(until=sim.process(driver()))
    assert list(plat.shard_managers) == [0]
    assert len(plat.live_primary(0).rd) == 8
    assert not plat.audit(teardown=True)


# telemetry scenarios: each returns {shard: time} of its primary crashes
def _serving_run():
    from repro.exp.serving import run_serving
    run_serving(n_shards=1, replication=True, duration_s=2.0,
                arrival_rate=300.0, n_keys=64, n_memory_hosts=4)
    return {}


def _failover_run():
    from repro.faults.chaos import run_chaos
    plan = run_chaos("failover", seed=1)["plan"]
    return {ev.shard: ev.time for ev in plan.events
            if ev.kind == "manager_crash"}


@pytest.mark.parametrize("scenario", [_serving_run, _failover_run],
                         ids=["steady", "failover"])
def test_backup_has_its_own_telemetry_identity(scenario):
    """A shard's primary samples as ``manager/cmdN`` and its backup as
    ``manager_backup/cmdN``, one sample per timestamp each.  Through a
    failover the promoted backup takes over the ``manager`` series and
    its replacement the ``manager_backup`` one; the crashed primary
    stops sampling."""
    from repro.obs.session import ObsSession

    with ObsSession(interval_s=0.5) as obs:
        crashes = scenario()
    run = obs.telemetry.runs()[0]
    for (kind, name, gauge), series in run.series.items():
        if kind.startswith("manager"):
            assert len(series.times) == len(set(series.times)), \
                (kind, name, gauge)
    end = run.get("cluster", "cluster", "hosted_bytes").times[-1]
    for sid in crashes or [0]:
        for kind in ("manager", "manager_backup"):
            times = run.get(kind, f"cmd{sid}", "iwd.hosts").times
            assert times[-1] == end
            if sid in crashes:  # sampled again after the failover gap
                assert any(t > crashes[sid] for t in times)


def brute_force_orphans(cmd, imds) -> set:
    """``(host, epoch, offset)`` of every region an imd hosts for the
    manager's shard that no directory entry references: the scrub's
    check, one scan of the whole directory per hosted offset."""
    orphans = set()
    for imd in imds:
        host = imd.ws.name
        iwd = cmd.iwd.get(host)
        if iwd is None or iwd.epoch != imd.epoch:
            continue
        inventory = imd._h_inventory({"shard": cmd.shard_id}, None)
        for off, _ in inventory["regions"]:
            if not any(e.struct.host == host and e.struct.epoch == iwd.epoch
                       and e.struct.pool_offset == off
                       for e in cmd.rd.values()):
                orphans.add((host, iwd.epoch, off))
    return orphans


def test_scrub_pass_matches_the_brute_force_check(sim):
    """One scrub pass finds exactly the orphans the brute-force check
    finds on a directory with freed, moved and re-placed regions, and it
    re-reads the directory after each free: a region the directory comes
    to reference while a free call to its host is in flight stays."""
    plat = make_sharded(sim, scrub_interval_s=0.0)  # passes run by hand
    rt = plat.runtime()
    fd = make_backing_file(plat, size=2 * MB)

    def populate():
        descs = yield from open_regions(rt, fd, 16)
        for d in descs[:2]:  # freed through the directory: no orphan
            _, err = yield from rt.mclose(d)
            assert err == 0

    sim.run(until=sim.process(populate()))
    cmd = plat.live_primary(0)
    by_host = {}
    for key, entry in cmd.rd.items():
        by_host.setdefault(entry.struct.host, []).append(key)
    host = max(by_host, key=lambda h: (len(by_host[h]), h))
    here = sorted(by_host[host], key=lambda k: cmd.rd[k].struct.pool_offset)
    other = next(k for h, ks in sorted(by_host.items()) if h != host
                 for k in ks)
    assert len(here) >= 3
    # freed: two entries went, but their frees never reached the imd
    gone = cmd.rd.pop(here[0])
    cmd.rd.pop(here[1])
    # moved: from another host onto the first freed region's place
    cmd.rd[other].struct = gone.struct
    # re-placed under a later epoch of the same host and offset
    replaced = cmd.rd[here[-1]]
    replaced.struct = replace(replaced.struct,
                              epoch=replaced.struct.epoch + 1)
    expected = brute_force_orphans(cmd, plat.imds)
    assert len(expected) == 3

    def mark():
        return (yield from cmd._scrub_pass(set(), free=False))

    suspects = sim.run(until=sim.process(mark()))
    assert suspects == expected

    # once the first free to that host is out, a client re-places its
    # last orphan in pass order: the pass must see that and keep it
    last = max(tag for tag in suspects if tag[0] == host)
    raced = []
    imd_call = cmd._imd_call

    def racing_imd_call(iwd, method, args):
        reply = yield from imd_call(iwd, method, args)
        if method == "free" and iwd.host == host and not raced:
            raced.append(args["region_id"])
            cmd.rd[here[1]] = RdEntry(
                struct=replace(gone.struct, epoch=last[1],
                               pool_offset=last[2]), owner=None)
        return reply

    cmd._imd_call = racing_imd_call

    def sweep():
        return (yield from cmd._scrub_pass(suspects))

    assert sim.run(until=sim.process(sweep())) == set()
    assert raced and raced[0] < last[2]
    assert cmd.stats.count("scrub.freed") == 2
    assert brute_force_orphans(cmd, plat.imds) == set()
    hosted = {(i.ws.name, i.epoch, off) for i in plat.imds
              for off, _ in i._h_inventory({"shard": 0}, None)["regions"]}
    assert last in hosted and not (expected - {last}) & hosted
