"""A workstation: CPU-less host model with memory accounting, NIC, disk.

Each machine in the simulated cluster carries exactly the state Dodo's
daemons observe: installed memory broken into kernel / file-cache /
process / free components, a console-activity timestamp, a load average,
a NIC with UDP and U-Net endpoints, and (optionally) a local disk with a
file system.

Memory accounting follows Section 2 of the paper: *available* memory is
what is left after the kernel, the live file cache and process memory;
*recruitable* memory additionally reserves a 15% headroom of total memory
for near-future file-cache growth (the figure the paper derived from its
usage study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.recorder import Recorder
from repro.net.network import Network
from repro.net.nic import NIC
from repro.net.usocket import TransportEndpoint
from repro.net.params import transport_params
from repro.sim import Simulator
from repro.storage.disk import Disk, DiskParams
from repro.storage.filesystem import FileSystem, FsParams

MB = 1024 * 1024
KB_TO_BYTES = 1024
#: share of installed memory an imd leaves for files likely to be opened
#: soon when it sizes its pool (Section 3.1)
HEADROOM_FRACTION = 0.15


@dataclass(slots=True)
class MemoryState:
    """Byte-denominated memory components of one host."""

    total: int
    kernel: int
    process: int
    filecache: int = 0

    def available(self) -> int:
        """total - kernel - filecache - process, floored at zero."""
        return max(0, self.total - self.kernel - self.filecache - self.process)


class Workstation:
    """One cluster node.  See module docstring."""

    __slots__ = ("sim", "name", "nic", "udp", "unet", "_mem", "disk", "fs",
                 "_console_last", "_owner_load", "_console_script",
                 "_trace_feed", "daemon_load", "guest_memory", "crashed",
                 "_crash_listeners", "stats")

    def __init__(self, sim: Simulator, name: str, network: Network,
                 total_mem_bytes: int = 128 * MB,
                 kernel_mem_bytes: Optional[int] = None,
                 process_mem_bytes: int = 8 * MB,
                 disk_params: Optional[DiskParams] = None,
                 fs_cache_bytes: Optional[int] = None,
                 fs_params: Optional[FsParams] = None,
                 store_data: bool = False,
                 frame_loss_prob: float = 0.0):
        self.sim = sim
        self.name = name
        self.nic = NIC(sim, name)
        network.attach(self.nic)
        self.udp = TransportEndpoint(
            sim, self.nic, network, transport_params("udp", frame_loss_prob))
        self.unet = TransportEndpoint(
            sim, self.nic, network, transport_params("unet", frame_loss_prob))

        if kernel_mem_bytes is None:
            # roughly the paper's Table 1: ~20% of installed memory
            kernel_mem_bytes = total_mem_bytes // 5
        self._mem = MemoryState(total=total_mem_bytes,
                                kernel=kernel_mem_bytes,
                                process=process_mem_bytes)

        self.disk: Optional[Disk] = None
        self.fs: Optional[FileSystem] = None
        if disk_params is not None or fs_cache_bytes is not None:
            self.disk = Disk(sim, f"{name}.disk", disk_params)
            cache = fs_cache_bytes if fs_cache_bytes is not None else 16 * MB
            self.fs = FileSystem(sim, self.disk, cache_bytes=cache,
                                 params=fs_params, store_data=store_data,
                                 name=f"{name}.fs")

        #: virtual time of the last *materialized* keyboard/mouse event;
        #: starts "long ago" (see :attr:`console_last_activity`)
        self._console_last: float = float("-inf")
        #: instantaneous load average as `w` would report it (owner jobs)
        self._owner_load: float = 0.0
        #: active console script ``[cursor, end, interval]`` — an owner
        #: session's keystroke schedule, evaluated lazily instead of one
        #: simulator event per keystroke burst (see
        #: :meth:`begin_console_script`)
        self._console_script: Optional[list] = None
        #: lazy trace feed (a :class:`~repro.cluster.replay.TraceReplayer`)
        #: whose pending samples are applied on first observation
        self._trace_feed = None
        #: load contributed by the screen saver and Dodo's own daemons —
        #: the resource monitor subtracts this before judging idleness
        self.daemon_load: float = 0.0
        #: guest memory currently pinned by an idle memory daemon
        self.guest_memory: int = 0
        self.crashed = False
        #: callbacks invoked synchronously by :meth:`crash` — daemons
        #: whose process dies with the host (the imd) register here so a
        #: power failure kills them instantly instead of leaving zombie
        #: state behind (stale pools, pinned guest memory)
        self._crash_listeners: list = []
        self.stats = Recorder(f"ws.{name}")
        if sim.telemetry.enabled:
            sim.telemetry.register(sim, "workstation", name, self)

    # -- lazy signal plumbing ---------------------------------------------------
    def refresh(self) -> None:
        """Apply any pending lazy trace samples up to the current time.

        Every observable signal accessor calls this, so readers always
        see the state an eagerly stepped replay would have produced —
        without one simulator event per trace sample.
        """
        feed = self._trace_feed
        if feed is not None:
            feed.sync(self.sim.now)

    @property
    def mem(self) -> MemoryState:
        """Memory components, synced with any lazy trace feed."""
        self.refresh()
        return self._mem

    # -- console / load signals ------------------------------------------------
    def touch_console(self) -> None:
        """Record keyboard/mouse activity at the current time."""
        self._console_last = self.sim.now

    def begin_console_script(self, start: float, end: float,
                             interval: float) -> float:
        """Declare keystroke bursts at ``start``, then every ``interval``
        until ``end`` — evaluated lazily on observation instead of one
        simulator event each.  The touch instants replicate the float
        accumulation of the stepping loop this replaces
        (``t += min(interval, end - t)``) bit for bit; returns the
        instant that loop would exit.
        """
        t = start
        if t < end:
            self._console_script = [t, end, interval]
            while t < end:
                t += min(interval, end - t)
        return t

    def end_console_script(self) -> None:
        """Close the active console script, materializing the last touch
        at or before the current time into the activity timestamp."""
        script = self._console_script
        self._console_script = None
        if script is not None:
            t = self._advance_script(script, self.sim.now)
            if t > self._console_last:
                self._console_last = t

    def _advance_script(self, script: list, now: float) -> float:
        """Move the script cursor to the last touch instant <= now."""
        t, end, interval = script
        while True:
            nxt = t + min(interval, end - t)
            if nxt <= now and nxt < end:
                t = nxt
            else:
                break
        script[0] = t
        return t

    @property
    def console_last_activity(self) -> float:
        """Virtual time of the last keyboard/mouse event, script-aware."""
        self.refresh()
        last = self._console_last
        script = self._console_script
        if script is not None:
            t = self._advance_script(script, self.sim.now)
            if t > last:
                last = t
        return last

    @console_last_activity.setter
    def console_last_activity(self, when: float) -> None:
        self._console_last = when

    def console_idle_seconds(self) -> float:
        return self.sim.now - self.console_last_activity

    @property
    def owner_load(self) -> float:
        """Owner-attributable load, synced with any lazy trace feed."""
        self.refresh()
        return self._owner_load

    @owner_load.setter
    def owner_load(self, value: float) -> None:
        self._owner_load = value

    @property
    def load(self) -> float:
        """Total load including daemons (what a naive `w` would show)."""
        return self.owner_load + self.daemon_load

    def load_excluding_daemons(self) -> float:
        """Owner-attributable load: the paper's rmd subtracts the screen
        saver's and imd's processor usage before the 0.3 test."""
        return self.owner_load

    # -- memory signals ----------------------------------------------------------
    @property
    def filecache_bytes(self) -> int:
        """Live file-cache footprint: tracked by the local FS if present."""
        if self.fs is not None:
            return self.fs.cache.resident_bytes
        return self.mem.filecache

    def available_memory(self) -> int:
        return max(0, self.mem.total - self.mem.kernel - self.mem.process
                   - self.filecache_bytes - self.guest_memory)

    def recruitable_memory(self) -> int:
        """How much an imd may pin: available minus the 15% headroom the
        paper reserves for files likely to be opened soon (Section 3.1)."""
        headroom = int(self.mem.total * HEADROOM_FRACTION)
        return max(0, self.available_memory() - headroom)

    # -- failure injection ----------------------------------------------------------
    def on_crash(self, fn) -> None:
        """Register a callback to run when this host power-fails."""
        self._crash_listeners.append(fn)

    def crash(self) -> None:
        """Power-fail the host: drops all network traffic immediately and
        kills every process registered via :meth:`on_crash`."""
        self.crashed = True
        self.nic.down = True
        self.stats.add("crashes")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.warn(self.sim, "workstation", "host.crash",
                                   host=self.name)
        for fn in list(self._crash_listeners):
            fn()

    def recover(self) -> None:
        self.crashed = False
        self.nic.down = False
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(self.sim, "workstation", "host.recover",
                                   host=self.name)

    def endpoint(self, transport: str) -> TransportEndpoint:
        if transport == "udp":
            return self.udp
        if transport == "unet":
            return self.unet
        raise ValueError(f"unknown transport {transport!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workstation {self.name} {self.mem.total // MB}MB>"
