"""The resource monitor daemon (rmd) — Section 4.1.

Runs on every participating machine, samples console and load once a
second, and drives recruitment:

* a machine becomes **idle** after no keyboard/mouse input *and*
  daemon-excluded load below 0.3 for five minutes or more — then rmd
  notifies the central manager and forks an idle memory daemon;
* the moment the machine becomes **busy** again, rmd notifies the manager
  and signals the imd, which completes in-flight transfers and exits.

On a dedicated (Beowulf) cluster the console test is skipped and the wait
window collapses: a lightly loaded machine is recruited immediately
(Section 3's two target environments).

The *reclaim delay* — how long the owner waits between touching the
machine and the imd being gone — is the headline metric of the paper's
non-dedicated evaluation (Section 5.3.1) and is sampled on every reclaim.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CMD_PORT, RPC_RETRIES, RPC_TIMEOUT_S, DodoConfig
from repro.core.imd import IdleMemoryDaemon
from repro.core.shard import ShardMap
from repro.cluster.idleness import classify_idleness, instant_quiet
from repro.cluster.workstation import Workstation
from repro.metrics.recorder import Recorder
from repro.net.rpc import RpcClient, RpcTimeout
from repro.sim import Interrupt, Simulator


class ResourceMonitor:
    """One host's rmd process."""

    def __init__(self, sim: Simulator, ws: Workstation, config: DodoConfig,
                 shard_map: ShardMap, allocator_kind: str = "first-fit",
                 preferences=None):
        self.sim = sim
        self.ws = ws
        self.config = config
        #: the region directory each forked imd registers with and every
        #: busy notification goes to
        self.shard_map = shard_map
        self.allocator_kind = allocator_kind
        #: Condor-style owner preference rules (Section 3.1); recruitment
        #: additionally requires every rule to allow it
        self.preferences = preferences
        self.imd: Optional[IdleMemoryDaemon] = None
        #: every imd this monitor has forked, dead incarnations included
        self.imds: list[IdleMemoryDaemon] = []
        #: imd incarnation counter; becomes each imd's epoch so the
        #: central manager can spot regions from dead incarnations
        self.epoch = 0
        self.recruited = False
        self._quiet_s = 0.0
        self.stats = Recorder(f"rmd.{ws.name}")
        self.endpoint = ws.endpoint(config.transport)
        self.proc = sim.process(self._run())
        if sim.telemetry.enabled:
            sim.telemetry.register(sim, "rmd", ws.name, self)

    def stop(self) -> None:
        if self.proc.is_alive:
            self.proc.interrupt("rmd-stop")

    def idle_state(self) -> int:
        """Telemetry gauge: 0 busy, 1 quiet-accumulating, 2 recruited."""
        return classify_idleness(self._quiet_s, self.recruited)

    # -- main loop ------------------------------------------------------------------
    def _run(self):
        policy = self.config.idle_policy
        try:
            while True:
                yield self.sim.timeout(policy.sample_interval_s)
                if self.ws.crashed:
                    continue
                if self.recruited and (self.imd is None or self.imd.exited):
                    # the host crashed and took the imd with it: resync so
                    # a later idle stretch recruits a fresh incarnation
                    self.ws.daemon_load = max(0.0, self.ws.daemon_load - 0.05)
                    self.recruited = False
                    self.imd = None
                    self._quiet_s = 0.0
                    self.stats.add("imd_lost")
                quiet = self._sample_quiet()
                if quiet:
                    self._quiet_s += policy.sample_interval_s
                else:
                    self._quiet_s = 0.0
                if not self.recruited and self._idle_enough() \
                        and self._preferences_allow():
                    yield from self._recruit()
                elif self.recruited and not (quiet
                                             and self._preferences_allow()):
                    yield from self._reclaim()
        except Interrupt:
            if self.imd is not None and not self.imd.exited:
                yield self.imd.shutdown()

    def _sample_quiet(self) -> bool:
        """One sample of the busy/idle predicate.

        The rmd monitors mouse/keyboard access times and ``/proc``-style
        load, subtracting the screen saver's and imd's own usage —
        :meth:`Workstation.load_excluding_daemons` models that exclusion.
        """
        if self.config.dedicated:
            return self.ws.load_excluding_daemons() \
                < self.config.idle_policy.load_threshold
        return instant_quiet(self.ws, self.config.idle_policy)

    def _idle_enough(self) -> bool:
        if self.config.dedicated:
            return self._quiet_s >= self.config.idle_policy.sample_interval_s
        return self._quiet_s >= self.config.idle_policy.window_s

    def _preferences_allow(self) -> bool:
        """Owner preference rules veto both recruitment and continued
        hosting (a machine leaving its allowed window is reclaimed)."""
        if self.preferences is None:
            return True
        allowed = self.preferences.allows(self.ws, self.sim.now)
        if not allowed:
            self.stats.add("preference_vetoes")
        return allowed

    # -- transitions ------------------------------------------------------------------
    def _recruit(self):
        if self.ws.recruitable_memory() <= 0:
            self.stats.add("recruit.no_memory")
            return
        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "rmd.recruit", "rmd",
                            {"host": self.ws.name}) \
            if tracer.enabled else None
        self.epoch += 1
        # imd CPU presence shows up in raw load but is excluded by rmd
        self.ws.daemon_load += 0.05
        self.imd = IdleMemoryDaemon(
            self.sim, self.ws, self.config, epoch=self.epoch,
            allocator_kind=self.allocator_kind, shard_map=self.shard_map)
        self.imds.append(self.imd)
        yield self.imd.register()
        self.recruited = True
        self.stats.add("recruits")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(
                self.sim, "rmd", "node.recruited", host=self.ws.name,
                epoch=self.epoch, pool_bytes=self.imd.pool_bytes)
        tracer.end(self.sim, span, {"epoch": self.epoch})

    def _reclaim(self):
        """Owner is back: notify the manager, signal the imd, time it."""
        start = self.sim.now
        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "rmd.reclaim", "rmd",
                            {"host": self.ws.name}) \
            if tracer.enabled else None
        yield from notify_busy(
            self.endpoint, self.ws.name,
            [self.shard_map.primary(sid)
             for sid in sorted(self.shard_map.shards)], self.stats)
        if self.imd is not None:
            yield self.imd.shutdown()
            self.imd = None
        self.ws.daemon_load = max(0.0, self.ws.daemon_load - 0.05)
        self.recruited = False
        self._quiet_s = 0.0
        delay = self.sim.now - start
        self.stats.add("reclaims")
        self.stats.sample("reclaim_delay_s", delay)
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(
                self.sim, "rmd", "node.reclaimed", host=self.ws.name,
                epoch=self.epoch, delay_s=round(delay, 6))
        tracer.end(self.sim, span, {"delay_s": delay})


def notify_busy(endpoint, host: str, cmd_hosts, stats: Recorder):
    """Generator: tell each manager in ``cmd_hosts`` that ``host`` is
    busy again, which drops it from that manager's idle-workstation
    directory.  The full ``RPC_RETRIES`` budget per manager; a manager
    that never answers counts ``cmd_unreachable`` on ``stats``.  The
    rmd's reclaim and the nemesis's reclaim storm both notify through
    here."""
    # not rpc.call: every manager is called from this one socket
    sock = endpoint.socket()
    rpc = RpcClient(sock)
    try:
        for cmd_host in cmd_hosts:
            try:
                yield from rpc.call((cmd_host, CMD_PORT), "notify_busy",
                                    {"host": host}, timeout=RPC_TIMEOUT_S,
                                    retries=RPC_RETRIES)
            except RpcTimeout:
                stats.add("cmd_unreachable")
    finally:
        sock.close()
