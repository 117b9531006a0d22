"""Nemesis execution tests: each fault kind against a live platform.

Each test drives a hand-written :class:`FaultPlan` through a tiny
dedicated platform and asserts the injected state, the heal, and —
where the fault interacts with Dodo's bookkeeping — that the invariant
auditor stays clean through the whole episode.
"""

import pytest

from repro.core.config import DodoConfig
from repro.faults import FaultPlan, FaultSpec
from repro.obs.audit import Auditor
from repro.sim import Simulator
from repro.testing import MB, make_backing_file, make_platform, run


@pytest.fixture
def sim():
    return Simulator(seed=17)


def chaos_config(**kw):
    base = dict(transport="udp", store_payload=True, dedicated=True,
                max_pool_bytes=2 * MB, rpc_backoff_s=0.02,
                rpc_backoff_jitter=0.25, imd_reregister_s=1.0)
    base.update(kw)
    return DodoConfig(**base)


def plan_of(*events):
    return FaultPlan(events=tuple(events))


# -- host crash (and the guest-memory accounting regression) ------------------

def test_host_crash_releases_guest_memory_immediately(sim):
    """Regression: ``Workstation.crash()`` used to leave ``guest_memory``
    pinned (and the manager's donation view stale) until keep-alive
    expiry; the imd now dies with its host and releases it at once."""
    auditor = Auditor(mode="raise")
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="host_crash", target="mem00",
                  duration_s=2.0)))
    ws = platform.cluster["mem00"]
    imd = next(i for i in platform.imds if i.ws is ws)
    assert ws.guest_memory == imd.pool_bytes

    sim.run(until=1.5)
    assert ws.crashed and ws.nic.down
    assert ws.guest_memory == 0, "crash left guest memory pinned"
    assert imd.exited and imd.killed
    # the manager has not noticed yet -- the crash-aware donation and
    # directory checks must tolerate exactly that window
    platform.audit(auditor, teardown=False)

    sim.run(until=4.0)
    assert not ws.crashed and not ws.nic.down
    # dedicated platform: the nemesis models the reboot's fresh imd
    fresh = [i for i in platform.imds if i.ws is ws and not i.exited]
    assert len(fresh) == 1
    assert fresh[0].epoch == imd.epoch + 1
    assert ws.guest_memory == fresh[0].pool_bytes
    platform.audit(auditor, teardown=False)
    assert auditor.findings == []


def test_donation_check_still_catches_real_divergence(sim):
    """Crash-awareness must not blind the auditor: a wrong donation count
    on a *healthy* host is still a finding."""
    platform = make_platform(sim)
    sim.run(until=1.0)
    platform.cluster["mem01"].guest_memory += 4096
    found = platform.audit(Auditor(mode="warn"), teardown=False)
    assert any(f.check == "donation.accounting" for f in found)


def test_crashed_host_with_stale_accounting_is_not_reported(sim):
    """While a host is down its memory state is unobservable: the
    donation check skips it instead of reporting phantom divergence."""
    platform = make_platform(sim)
    sim.run(until=1.0)
    ws = platform.cluster["mem01"]
    ws.crash()
    ws.guest_memory += 4096  # garbage: nobody can read it anyway
    found = platform.audit(Auditor(mode="warn"), teardown=False)
    assert not any(f.subject == "mem01" for f in found)


def test_workstation_crash_runs_listeners_once_per_crash(sim):
    platform = make_platform(sim)
    ws = platform.cluster["mem00"]
    calls = []
    ws.on_crash(lambda: calls.append(sim.now))
    ws.crash()
    assert calls == [sim.now]


# -- NIC flap ----------------------------------------------------------------

def test_nic_flap_and_heal(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="nic_flap", target="mem01",
                  duration_s=0.5)))
    nic = platform.cluster["mem01"].nic
    sim.run(until=1.2)
    assert nic.down
    sim.run(until=2.0)
    assert not nic.down


# -- loss bursts -------------------------------------------------------------

def test_loss_bursts_stack_by_max_and_clear(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="loss_burst", duration_s=2.0, value=0.1),
        FaultSpec(time=1.5, kind="loss_burst", duration_s=0.4, value=0.3)))
    net = platform.cluster.network
    sim.run(until=1.2)
    assert net.extra_loss_prob == 0.1
    sim.run(until=1.7)
    assert net.extra_loss_prob == 0.3   # overlapping bursts: max, not sum
    sim.run(until=2.5)
    assert net.extra_loss_prob == 0.1   # the short burst healed
    sim.run(until=3.5)
    assert net.extra_loss_prob == 0.0


# -- partitions --------------------------------------------------------------

def test_partition_blocks_and_heals(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="partition", duration_s=1.0,
                  group=("mem00",))))
    net = platform.cluster.network
    sim.run(until=1.5)
    assert net.partitioned
    assert not net.reachable("app", "mem00")
    assert not net.reachable("mem00", "app")
    assert net.reachable("app", "mem01")
    assert net.reachable("mem00", "mem00")
    sim.run(until=2.5)
    assert not net.partitioned
    assert net.reachable("app", "mem00")


def test_stale_partition_healer_does_not_clear_newer_cut(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="partition", duration_s=1.0,
                  group=("mem00",)),
        FaultSpec(time=1.5, kind="partition", duration_s=2.0,
                  group=("mem01",))))
    net = platform.cluster.network
    sim.run(until=2.2)  # first cut's healer fired at t=2.0
    assert net.partitioned, "stale healer cleared the newer cut"
    assert not net.reachable("app", "mem01")
    sim.run(until=4.0)
    assert not net.partitioned


# -- disk slowdown -----------------------------------------------------------

def test_disk_slowdown_scales_service_time_and_heals(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="disk_slowdown", target="app",
                  duration_s=1.0, value=4.0)))
    disk = platform.cluster["app"].disk
    healthy = disk.service_time(0, 8192, write=False)
    sim.run(until=1.5)
    assert disk.slowdown == 4.0
    assert disk.service_time(0, 8192,
                             write=False) == pytest.approx(4.0 * healthy)
    sim.run(until=2.5)
    assert disk.slowdown == 1.0


def test_disk_slowdown_on_diskless_host_is_a_noop(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="disk_slowdown", target="mem00",
                  duration_s=1.0, value=4.0)))
    sim.run(until=2.5)
    assert platform.nemesis.injected == 1  # counted, but nothing to do


# -- manager crash / restart -------------------------------------------------

def test_manager_restart_bumps_incarnation_and_imds_reregister(sim):
    platform = make_platform(
        sim, config=chaos_config(),
        faults=plan_of(FaultSpec(time=1.0, kind="manager_crash",
                                 duration_s=0.5)))
    old = platform.cmd
    sim.run(until=1.2)
    assert platform.cmd is old          # still the dead one, not replaced
    sim.run(until=4.0)                  # heal + a couple of heartbeats
    assert platform.cmd is not old
    assert platform.cmd.incarnation == old.incarnation + 1
    # the imd heartbeat repopulated the restarted manager's empty IWD
    assert set(platform.cmd.iwd) == {i.ws.name for i in platform.imds
                                     if not i.exited}


def test_client_reregisters_after_manager_restart(sim):
    """The hardening the explorer surfaced: a restarted manager has an
    empty region directory, so the runtime must notice the incarnation
    change, drop its stale descriptors, and keep working."""
    platform = make_platform(
        sim, config=chaos_config(),
        faults=plan_of(FaultSpec(time=5.0, kind="manager_crash",
                                 duration_s=0.5)))
    lib = platform.runtime()
    fd = make_backing_file(platform)

    def proc():
        desc, err = yield from lib.mopen(256 * 1024, fd, 0)
        assert err == 0
        yield sim.timeout(8.0 - sim.now)  # ride through crash + restart
        # next call carries the new incarnation: stale descriptors drop
        desc2, err2 = yield from lib.mopen(256 * 1024, fd, 256 * 1024)
        return desc, desc2, err2

    desc, desc2, err2 = run(sim, proc())
    assert err2 == 0
    assert lib.stats.count("manager_restarts") == 1
    assert lib._entry(desc) is None, "stale descriptor survived restart"
    assert lib._entry(desc2) is not None


# -- reclaim storm -----------------------------------------------------------

def test_reclaim_storm_drains_imd_and_respawns_on_heal(sim):
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="reclaim_storm", target="mem00",
                  duration_s=2.0)))
    ws = platform.cluster["mem00"]
    imd = next(i for i in platform.imds if i.ws is ws)
    sim.run(until=2.0)
    assert ws.owner_load > 0.0
    assert imd.exited and not imd.killed        # graceful drain, not a kill
    assert "mem00" not in platform.cmd.iwd      # manager told: host is busy
    sim.run(until=4.0)
    assert ws.owner_load == 0.0
    fresh = [i for i in platform.imds if i.ws is ws and not i.exited]
    assert len(fresh) == 1 and fresh[0].epoch == imd.epoch + 1


# -- bookkeeping -------------------------------------------------------------

def test_nemesis_counts_and_audits_every_injection(sim):
    auditor = Auditor(mode="raise")
    platform = make_platform(sim, faults=plan_of(
        FaultSpec(time=1.0, kind="nic_flap", target="mem00",
                  duration_s=0.3),
        FaultSpec(time=2.0, kind="loss_burst", duration_s=0.3, value=0.1)),
        nemesis_auditor=auditor)
    sim.run(until=3.0)
    nem = platform.nemesis
    assert nem.injected == 2 and nem.healed == 2
    assert auditor.passes == 4          # one pass per injection and heal
    assert auditor.findings == []


def test_nemesis_logs_every_injection_and_heal(sim):
    from repro.obs.session import ObsSession
    with ObsSession(events="debug") as obs:
        local = Simulator(seed=17)
        make_platform(local, faults=plan_of(
            FaultSpec(time=1.0, kind="host_crash", target="mem00",
                      duration_s=1.0)))
        local.run(until=3.0)
    log = obs.eventlog
    assert len(log.select("nemesis", "inject.host_crash")) == 1
    assert len(log.select("nemesis", "heal.host_crash")) == 1
    # the crash itself also leaves its own component-level trail
    assert len(log.select("imd", "imd.killed")) == 1


def test_faults_require_dodo_platform(sim):
    with pytest.raises(ValueError, match="dodo=True"):
        make_platform(sim, dodo=False, faults=plan_of(
            FaultSpec(time=1.0, kind="nic_flap", target="mem00",
                      duration_s=0.5)))
