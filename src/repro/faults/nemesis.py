"""The nemesis: a DES process that executes a :class:`FaultPlan`.

It sleeps until each event's virtual trigger time, applies the fault to
the live cluster objects, and (when the event carries a ``duration_s``)
spawns a healer process that applies the natural inverse — recover the
host, bring the NIC back up, heal the partition, restore the disk.

Every injection and heal is recorded in the event log under the
``nemesis`` component, so a chaos run's JSONL artifact is a complete,
ordered account of what was done to the cluster.  When an
:class:`~repro.obs.audit.Auditor` is supplied, a full invariant audit
pass runs after every injection and heal — in ``raise`` mode a chaos
run therefore fails at the *first* moment the system's cross-component
state diverges, not at teardown.

The nemesis drives either testbed, both a
:class:`repro.exp.platform.ClusterTargets`: the dedicated
:class:`repro.exp.platform.Platform` and the desktop
:class:`repro.exp.nondedicated.DesktopCluster`.  Where the testbed has
resource monitors (``rmds``) they recruit and reclaim; where it has
none, the nemesis reclaims and restarts imds itself, through
``Platform.start_imd``.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.metrics.recorder import Recorder
from repro.sim import Interrupt


class Nemesis:
    """Executes one fault plan against one platform."""

    def __init__(self, targets, plan: FaultPlan, auditor=None):
        self.targets = targets
        self.plan = plan
        self.auditor = auditor
        self.sim = targets.sim
        self.net = targets.cluster.network
        self.stats = Recorder("nemesis")
        #: currently-injected loss bursts (values stack by max, not sum)
        self._loss_bursts: list[float] = []
        #: the partition groups we installed last, to avoid a stale healer
        #: clearing a newer cut
        self._partition_marker = None
        self.injected = 0
        self.healed = 0
        self.proc = None

    def start(self):
        """Spawn the nemesis process (idempotent)."""
        if self.proc is None:
            self.proc = self.sim.process(self._run())
        return self.proc

    def stop(self) -> None:
        if self.proc is not None and self.proc.is_alive:
            self.proc.interrupt("nemesis-stop")

    # -- main schedule loop ------------------------------------------------
    def _run(self):
        try:
            for ev in self.plan:
                if ev.time > self.sim.now:
                    yield self.sim.at(ev.time)
                yield from self._inject(ev)
        except Interrupt:
            return

    def _inject(self, ev):
        handler = getattr(self, f"_do_{ev.kind}")
        self._log("warn", f"inject.{ev.kind}", ev)
        self.injected += 1
        self.stats.add(f"inject.{ev.kind}")
        healer = yield from handler(ev)
        self._audit()
        if healer is not None and ev.duration_s is not None:
            self.sim.process(self._heal_later(ev, healer))

    def _heal_later(self, ev, healer):
        yield self.sim.timeout(ev.duration_s)
        done = healer()
        if done is not None:
            yield from done
        self._log("info", f"heal.{ev.kind}", ev)
        self.healed += 1
        self.stats.add(f"heal.{ev.kind}")
        self._audit()

    def _log(self, level, event, ev) -> None:
        log = self.sim.eventlog
        if not log.enabled:
            return
        fields = {}
        if ev.duration_s is not None:
            fields["duration_s"] = ev.duration_s
        if ev.value is not None:
            fields["value"] = ev.value
        if ev.group:
            fields["group"] = ",".join(ev.group)
        if ev.shard is not None:
            fields["shard"] = ev.shard
        getattr(log, level)(self.sim, "nemesis", event,
                            host=ev.target or "", **fields)

    def _audit(self) -> None:
        if self.auditor is not None and self.auditor.enabled:
            self.targets.audit(self.auditor, teardown=False)

    # -- fault mechanics ---------------------------------------------------
    # Each ``_do_<kind>`` is a generator (may yield sim events) returning
    # either None (no heal) or a zero-arg healer.  The healer itself may
    # return a generator for heals that need simulated time (re-register).

    def _do_host_crash(self, ev):
        ws = self.targets.cluster[ev.target]
        if ws.crashed:
            return None
        had_imd = any(imd.ws is ws and not imd.exited
                      for imd in self.targets.imds)
        ws.crash()
        yield self.sim.timeout(0)

        def heal():
            ws.recover()
            # on a dedicated platform there is no rmd to re-recruit the
            # host, so the nemesis models the reboot's fresh imd itself;
            # with rmds present they notice the dead imd and resync
            if had_imd and not self.targets.rmds:
                return self._respawn_imd(ws)
            return None
        return heal

    def _respawn_imd(self, ws):
        dead_epochs = [imd.epoch for imd in self.targets.imds
                       if imd.ws is ws]
        epoch = max(dead_epochs, default=0) + 1
        imd = self.targets.start_imd(ws, epoch)
        self.stats.add("imd_respawns")
        yield imd.register()

    def _do_nic_flap(self, ev):
        ws = self.targets.cluster[ev.target]
        if ws.crashed or ws.nic.down:
            return None
        ws.nic.down = True
        yield self.sim.timeout(0)

        def heal():
            # a crash/recover during the flap already reset the NIC
            if not ws.crashed:
                ws.nic.down = False
            return None
        return heal

    def _do_loss_burst(self, ev):
        self._loss_bursts.append(ev.value)
        self.net.extra_loss_prob = max(self._loss_bursts)
        yield self.sim.timeout(0)

        def heal():
            self._loss_bursts.remove(ev.value)
            self.net.extra_loss_prob = (max(self._loss_bursts)
                                        if self._loss_bursts else 0.0)
            return None
        return heal

    def _do_partition(self, ev):
        group = [h for h in ev.group if h in self.targets.cluster.workstations]
        rest = [h for h in self.targets.cluster.workstations
                if h not in set(group)]
        if not group or not rest:
            return None
        self.net.set_partition([group, rest])
        marker = self.net._partition
        self._partition_marker = marker
        yield self.sim.timeout(0)

        def heal():
            if self.net._partition is marker:
                self.net.clear_partition()
            return None
        return heal

    def _do_reclaim_storm(self, ev):
        """The owner storms back: console activity plus a load spike.

        With rmds present (non-dedicated), the rmd observes the activity
        and reclaims the imd itself — the paper's Section 5.3.1 path.  On
        a dedicated platform the nemesis performs the reclaim directly:
        graceful imd shutdown now, fresh incarnation at heal time.
        """
        ws = self.targets.cluster[ev.target]
        if ws.crashed:
            return None
        ws.touch_console()
        ws.owner_load += 1.0
        if not self.targets.rmds:
            victim = next((imd for imd in self.targets.imds
                           if imd.ws is ws and not imd.exited), None)
            if victim is not None:
                # mirror the rmd's reclaim protocol: tell the manager the
                # host is busy (drops it from the IWD), then drain the imd
                yield from self._notify_busy(ws)
                yield victim.shutdown()
        else:
            yield self.sim.timeout(0)

        def heal():
            ws.owner_load = max(0.0, ws.owner_load - 1.0)
            if not self.targets.rmds and not ws.crashed:
                return self._respawn_imd(ws)
            return None
        return heal

    def _notify_busy(self, ws):
        """Tell every shard's live primary the host is busy.  A shard
        with none is skipped, except on the lone ring: there the
        crashed manager's host is still called and costs the caller
        its retry budget, as the paper's manager did."""
        from repro.core.rmd import notify_busy
        targets = self.targets
        cmd_hosts = []
        for sid in sorted(targets.shard_map.shards):
            primary = targets.live_primary(sid)
            if primary is not None:
                cmd_hosts.append(primary.ws.name)
            elif targets.shard_map.lone:
                cmd_hosts.append(targets.shard_map.primary(sid))
        yield from notify_busy(ws.endpoint(targets.config.transport),
                               ws.name, cmd_hosts, self.stats)

    def _do_disk_slowdown(self, ev):
        ws = self.targets.cluster[ev.target]
        if ws.disk is None:
            return None
        ws.disk.slowdown = ev.value
        yield self.sim.timeout(0)

        def heal():
            ws.disk.slowdown = 1.0
            return None
        return heal

    def _do_manager_crash(self, ev):
        """Crash one shard's serving primary (shard 0 — the paper's
        single manager — when the event names none).

        An unreplicated primary comes back at heal time with a bumped
        incarnation (clients and imds notice the change and drop that
        shard's state).  With replication the heal does *not* bring the
        primary back — the backup promotes itself via heartbeat misses —
        it restarts the crashed node as the shard's new backup and
        resyncs it off the promoted primary.
        """
        from repro.core.manager import CentralManager
        sid = ev.shard or 0
        victim = self.targets.live_primary(sid)
        if victim is None:
            return None
        incarnation = victim.incarnation
        replicated = victim.peer is not None
        victim.stop()
        self.stats.add("manager_crashes")
        yield self.sim.timeout(0)

        def heal():
            if replicated:
                return self._replace_backup(sid, victim)
            self.targets.shard_managers[sid].append(CentralManager(
                self.sim, victim.ws, self.targets.config,
                incarnation=incarnation + 1, shard_id=sid,
                shard_map=self.targets.shard_map))
            self.stats.add("manager_restarts")
            return None
        return heal

    def _replace_backup(self, sid, victim):
        from repro.core.config import REPL_HEARTBEAT_S, REPL_PROMOTE_MISSES
        from repro.core.manager import CentralManager
        # wait (bounded) for the backup's heartbeat watcher to promote
        deadline = self.sim.now + 10.0 * REPL_HEARTBEAT_S \
            * REPL_PROMOTE_MISSES
        while self.targets.live_primary(sid) is None \
                and self.sim.now < deadline:
            yield self.sim.timeout(REPL_HEARTBEAT_S)
        primary = self.targets.live_primary(sid)
        if primary is None:
            self.stats.add("promotion_timeouts")
            return
        backup = CentralManager(
            self.sim, victim.ws, self.targets.config,
            incarnation=primary.incarnation, shard_id=sid,
            shard_map=primary.shard_map, role="backup")
        self.targets.shard_managers[sid].append(backup)
        self.stats.add("backup_respawns")
        yield from backup.resync()
