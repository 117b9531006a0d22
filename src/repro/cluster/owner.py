"""Stochastic workstation-owner behaviour.

Drives the signals Dodo's resource monitor watches: keyboard/mouse events,
owner-attributable load, and process-memory growth during interactive
sessions.  The owner alternates *active* sessions (typing every few
seconds, load up, process memory up) with *away* periods (console silent,
load near zero except for occasional background compute jobs — the paper's
clusters ran batch jobs too, which keep a console-idle host from being
recruited because of the load test).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.workstation import MB, Workstation
from repro.sim import Interrupt, Simulator


@dataclass(frozen=True, slots=True)
class OwnerParams:
    """Session-process parameters (times in seconds)."""

    #: mean length of an interactive session
    active_mean_s: float = 20 * 60.0
    #: mean length of an away period
    away_mean_s: float = 60 * 60.0
    #: keystroke/mouse burst interval while active
    console_interval_s: float = 5.0
    #: owner load while interactively working
    active_load: float = 0.8
    #: baseline load while away
    idle_load: float = 0.05
    #: probability that an away period runs a background compute job
    background_job_prob: float = 0.15
    #: load of a background job (over the idle threshold of 0.3)
    background_load: float = 1.0
    #: extra process memory pinned during an active session
    active_process_mem: int = 24 * MB


class Owner:
    """A process animating one workstation's owner."""

    __slots__ = ("sim", "ws", "params", "rng", "_start_active", "batched",
                 "active", "proc")

    def __init__(self, sim: Simulator, ws: Workstation,
                 params: OwnerParams | None = None,
                 start_active: bool = False, batched: bool = True):
        """``batched=True`` (the default) runs each active session as one
        simulator event plus a lazily evaluated console script — bit-
        identical signals and RNG draws to the per-keystroke stepping
        loop (``batched=False``), at a fraction of the event count."""
        self.sim = sim
        self.ws = ws
        self.params = params or OwnerParams()
        self.rng = sim.rng(f"owner.{ws.name}")
        self._start_active = start_active
        self.batched = batched
        self.active = False
        self.proc = sim.process(self._run())

    def stop(self) -> None:
        if self.proc.is_alive:
            self.proc.interrupt("owner-stop")

    def _run(self):
        p = self.params
        active = self._start_active
        try:
            while True:
                if active:
                    yield from self._active_session(
                        float(self.rng.exponential(p.active_mean_s)))
                else:
                    yield from self._away_period(
                        float(self.rng.exponential(p.away_mean_s)))
                active = not active
        except Interrupt:
            self._leave()

    def _active_session(self, duration: float):
        p = self.params
        self.active = True
        self.ws.owner_load = p.active_load
        self.ws.mem.process += p.active_process_mem
        self.ws.stats.add("owner.sessions")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.debug(self.sim, "owner", "owner.active",
                                    host=self.ws.name,
                                    duration_s=round(duration, 3))
        end = self.sim.now + duration
        if not self.batched:
            while self.sim.now < end:
                self.ws.touch_console()
                step = min(p.console_interval_s, end - self.sim.now)
                if step <= 0:
                    break
                yield self.sim.timeout(step)
            self._leave()
            return
        # Batched: the whole keystroke schedule becomes one lazily
        # evaluated console script and the session one absolute-time
        # event at the exact instant the stepping loop would exit.
        exit_time = self.ws.begin_console_script(
            self.sim.now, end, p.console_interval_s)
        try:
            yield self.sim.at(exit_time)
        finally:
            self.ws.end_console_script()
        self._leave()

    def _leave(self) -> None:
        p = self.params
        if self.active:
            self.ws.mem.process = max(
                0, self.ws.mem.process - p.active_process_mem)
        self.active = False
        self.ws.owner_load = p.idle_load

    def _away_period(self, duration: float):
        p = self.params
        if self.sim.eventlog.enabled:
            self.sim.eventlog.debug(self.sim, "owner", "owner.away",
                                    host=self.ws.name,
                                    duration_s=round(duration, 3))
        if self.rng.random() < p.background_job_prob:
            self.ws.owner_load = p.background_load
            self.ws.stats.add("owner.background_jobs")
        else:
            self.ws.owner_load = p.idle_load
        yield self.sim.timeout(duration)
        self.ws.owner_load = p.idle_load
