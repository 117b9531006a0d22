"""Mechanical disk model — the Quantum Fireball ST3.2A of the paper.

Per-request service time is seek + rotational latency + media transfer,
with sequential requests (starting where the last one ended) skipping the
positioning costs entirely.  Seek time follows the classic
``min + (avg - min) * sqrt(distance / avg_distance)`` curve, capped at the
maximum.  The single disk arm is a contended resource.

The default parameters are calibrated (see
``tests/storage/test_calibration.py`` and the disk-calibration benchmark)
against the application-level figures reported in Section 5.1:

* sequential 8 KB / 32 KB reads through the file system: **7.75 MB/s**
* random 8 KB reads: **0.57 MB/s**
* random 32 KB reads: **1.56 MB/s**
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.metrics.recorder import Recorder
from repro.sim import Event, Resource, Simulator


@dataclass(frozen=True)
class DiskParams:
    """Geometry and timing of one disk."""

    #: usable capacity in bytes (3.2 GB Quantum Fireball)
    capacity_bytes: int = 3_200_000_000
    #: minimum (track-to-track) seek
    seek_min_s: float = 2.0e-3
    #: average random-seek time for reads / writes (paper: 10 / 11 ms)
    seek_avg_read_s: float = 10.0e-3
    seek_avg_write_s: float = 11.0e-3
    #: maximum stroke seek (paper: 12 / 13 ms)
    seek_max_read_s: float = 12.0e-3
    seek_max_write_s: float = 13.0e-3
    #: spindle speed (5400 RPM)
    rpm: float = 5400.0
    #: sustained media transfer rate, bytes/s
    media_rate: float = 8.0e6
    #: fixed per-request controller/driver overhead
    overhead_s: float = 0.3e-3

    @property
    def rotation_s(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency_s(self) -> float:
        return self.rotation_s / 2.0


class Disk:
    """One disk with a single arm; requests are served FIFO.

    Offsets are byte addresses ("LBA * 512" collapsed to plain bytes).
    ``read``/``write`` return a process whose value is the service time of
    that request (excluding queueing).
    """

    def __init__(self, sim: Simulator, name: str = "disk",
                 params: DiskParams | None = None):
        self.sim = sim
        self.name = name
        self.params = params or DiskParams()
        self.arm = Resource(sim, capacity=1)
        self._head: int = 0           # current head byte position
        self._last_end: int = -1      # end of last transfer, for streaming
        #: fault-injection hook: service times are multiplied by this
        #: (1.0 = healthy; the nemesis raises it to model a degraded disk)
        self.slowdown: float = 1.0
        self.stats = Recorder(name)
        if sim.telemetry.enabled:
            sim.telemetry.register(sim, "disk", name, self)

    # -- timing model ---------------------------------------------------------
    def seek_time(self, distance: int, write: bool) -> float:
        """Positioning time for a head movement of ``distance`` bytes."""
        p = self.params
        if distance == 0:
            return 0.0
        avg = p.seek_avg_write_s if write else p.seek_avg_read_s
        cap = p.seek_max_write_s if write else p.seek_max_read_s
        avg_dist = p.capacity_bytes / 3.0  # mean |a-b| for uniform a, b
        t = p.seek_min_s + (avg - p.seek_min_s) * math.sqrt(distance / avg_dist)
        return min(t, cap)

    def service_time(self, offset: int, nbytes: int, write: bool) -> float:
        """Pure service time for one request at the current head position."""
        p = self.params
        transfer = nbytes / p.media_rate
        if offset == self._last_end:
            # Streaming: the head is already there, no rotational miss.
            return (p.overhead_s + transfer) * self.slowdown
        seek = self.seek_time(abs(offset - self._head), write)
        return (p.overhead_s + seek + p.avg_rotational_latency_s
                + transfer) * self.slowdown

    # -- I/O ----------------------------------------------------------------------
    def read(self, offset: int, nbytes: int):
        """One read; yields the service time (excluding queueing)."""
        return self._access(((offset, nbytes),), write=False)

    def write(self, offset: int, nbytes: int):
        """One write; yields the service time (excluding queueing)."""
        return self._access(((offset, nbytes),), write=True)

    def read_batch(self, runs):
        """One FIFO batch of reads; yields the summed service time.

        ``runs`` is a sequence of ``(offset, nbytes)`` pairs served
        back to back.  Timing-identical to yielding each run's ``read``
        in order, but an uncontended batch costs one plain event per run
        instead of a process (and its bootstrap, acquire and timeout
        events) per run.  A request that queues mid-batch is granted the
        arm between members, exactly as on the per-request path.
        """
        return self._access(tuple(runs), write=False)

    def write_batch(self, runs):
        """One FIFO batch of writes; see :meth:`read_batch`."""
        return self._access(tuple(runs), write=True)

    def _access(self, runs, write: bool):
        """Route a batch to the fast path or the per-request processes.

        The fast path engages only when the simulator's fast paths are on
        and it is provably timing-identical: the tracer off (the process
        path emits per-request spans), every run already valid (invalid
        ones must raise through a process, as they always have) and the
        arm idle with no queued waiters (so service starts now); the arm
        is taken last, once the other checks passed.
        """
        sim = self.sim
        cap = self.params.capacity_bytes
        if (sim.fastpath and runs and not sim.tracer.enabled
                and all(n > 0 and 0 <= o and o + n <= cap for o, n in runs)
                and self.arm.try_acquire()):
            return self._fast_access(runs, write)
        return sim.process(self._batch_io(runs, write))

    def _batch_io(self, runs, write: bool):
        """Per-request process path for a whole batch; value = total."""
        total = 0.0
        for offset, nbytes in runs:
            total += yield from self._io(offset, nbytes, write)
        return total

    def _fast_access(self, runs, write: bool) -> Event:
        """Closed-form batch service: one event per run boundary.

        Replays the per-request path's exact arithmetic — each run's
        service time is computed *at its start instant* (so a nemesis
        slowdown change mid-batch lands on the same runs) with the head
        state the previous run left behind, and completion bookkeeping
        (head position, stats) happens at the same virtual time the
        process path would perform it.  If another request queues on the
        arm mid-batch, the remaining runs fall back to the per-request
        path so the waiter is granted the arm between members.  The
        caller holds the arm already.
        """
        batch = _FastBatch(self, runs, write)
        self.stats.add("fastpath.batches")
        batch.start_next()
        return batch.done

    def _drain(self, batch: "_FastBatch"):
        """Finish a contended batch on the per-request path."""
        runs = batch.runs
        while batch.index < len(runs):
            offset, nbytes = runs[batch.index]
            batch.total += yield from self._io(offset, nbytes, batch.write)
            batch.index += 1
        batch.done.succeed(batch.total)

    def _io(self, offset: int, nbytes: int, write: bool):
        if nbytes <= 0:
            raise ValueError(f"disk I/O of {nbytes} bytes")
        if offset < 0 or offset + nbytes > self.params.capacity_bytes:
            raise ValueError(
                f"I/O [{offset}, {offset + nbytes}) beyond disk capacity "
                f"{self.params.capacity_bytes}")
        kind = "write" if write else "read"
        tracer = self.sim.tracer
        #: span covers arm queueing + service, so trace gaps show contention
        span = tracer.begin(self.sim, f"disk.{kind}", "disk",
                            {"disk": self.name, "bytes": nbytes}) \
            if tracer.enabled else None
        service = 0.0
        sequential = False
        try:
            yield self.arm.acquire()
            try:
                service = self.service_time(offset, nbytes, write)
                sequential = offset == self._last_end
                yield self.sim.timeout(service)
                self._head = offset + nbytes
                self._last_end = offset + nbytes
            finally:
                self.arm.release()
        finally:
            tracer.end(self.sim, span, {"service_s": service,
                                        "sequential": sequential})
        self.stats.add(f"{kind}.ops")
        self.stats.add(f"{kind}.bytes", nbytes)
        if sequential:
            self.stats.add(f"{kind}.sequential")
        self.stats.sample("service_s", service)
        return service


class _FastBatch:
    """One batch on the disk fast path, one run in service at a time.

    The completion event's callback is a bound method of this object,
    which refers to nothing that refers back to it, so a finished batch
    dies by reference counting (closures that call each other would
    form a reference cycle through their enclosing scope).
    """

    __slots__ = ("disk", "runs", "write", "done", "index", "total",
                 "offset", "nbytes", "service", "sequential")

    def __init__(self, disk: Disk, runs, write: bool):
        self.disk = disk
        self.runs = runs
        self.write = write
        self.done = Event(disk.sim)
        #: next run to finish, and the service time accumulated so far
        self.index = 0
        self.total = 0.0

    def start_next(self) -> None:
        disk = self.disk
        sim = disk.sim
        self.offset, self.nbytes = offset, nbytes = self.runs[self.index]
        self.service = disk.service_time(offset, nbytes, self.write)
        self.sequential = offset == disk._last_end
        sim.at(sim.now + self.service).callbacks.append(self.finish_one)

    def finish_one(self, _event: Event) -> None:
        disk = self.disk
        arm = disk.arm
        end = self.offset + self.nbytes
        disk._head = end
        disk._last_end = end
        self.index += 1
        self.total += self.service
        last = self.index >= len(self.runs)
        contended = not last and bool(arm.queue_length)
        if last or contended:
            arm.release()
        stats = disk.stats
        kind = "write" if self.write else "read"
        stats.add(f"{kind}.ops")
        stats.add(f"{kind}.bytes", self.nbytes)
        if self.sequential:
            stats.add(f"{kind}.sequential")
        stats.sample("service_s", self.service)
        if last:
            self.done.succeed(self.total)
        elif contended:
            stats.add("fastpath.fallbacks")
            disk.sim.process(disk._drain(self))
        else:
            self.start_next()
