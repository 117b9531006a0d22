"""Application harness: run a request stream against the FS or Dodo.

Runs a workload two comparable ways on either testbed (the Section 5.1
platform or the Section 5.3.1 desktop cluster):

* **baseline** — plain ``read()`` through the OS page cache and disk (the
  app's otherwise-free memory all belongs to the file cache);
* **dodo** — through the region-management library (``cread``), with the
  region cache in application memory and remote memory behind it.

The harness owns the compute model (the synthetic benchmarks' fixed 10 ms
per request; the real applications pass their own per-request compute
times) and collects per-iteration wall-clock plus source counters, which
is exactly what Figures 7/8 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.regionlib import RegionCache
from repro.exp.platform import ClusterTargets
from repro.workloads.synthetic import SyntheticParams, iteration_offsets


@dataclass
class RunResult:
    """Outcome of one application run."""

    elapsed_s: float
    iteration_s: list[float] = field(default_factory=list)
    bytes_read: int = 0
    requests: int = 0

    @property
    def steady_state_s(self) -> float:
        """Mean time of the post-warmup iterations (2..n)."""
        if len(self.iteration_s) <= 1:
            return self.elapsed_s
        tail = self.iteration_s[1:]
        return sum(tail) / len(tail)


class SyntheticRunner:
    """Drives one synthetic benchmark on a platform."""

    def __init__(self, platform: ClusterTargets, params: SyntheticParams,
                 use_dodo: bool, policy: str = "lru",
                 region_bytes: Optional[int] = None,
                 dataset_name: str = "dataset"):
        self.platform = platform
        self.params = params
        self.use_dodo = use_dodo
        self.policy = policy
        #: Dodo caches at region granularity; the synthetic benchmarks use
        #: one region per request slot so access patterns translate 1:1
        self.region_bytes = region_bytes or params.req_size
        if params.dataset_bytes % self.region_bytes:
            raise ValueError("dataset must be a multiple of region size")
        self.fs = platform.app.fs
        if not self.fs.exists(dataset_name):
            self.fs.create(dataset_name, size=params.dataset_bytes)
        self.fh = self.fs.open(dataset_name, "r+")
        self.cache: Optional[RegionCache] = None
        if use_dodo:
            self.cache = platform.region_cache(policy=policy)
        self._crds: dict[int, int] = {}  # region index -> crd

    def run(self):
        """Process: execute the benchmark; value is a :class:`RunResult`."""
        return self.platform.sim.process(self._run())

    def _run(self):
        sim = self.platform.sim
        rng = sim.rng(f"workload.{self.params.pattern}")
        result = RunResult(elapsed_s=0.0)
        start = sim.now
        for offsets in iteration_offsets(self.params, rng):
            it_start = sim.now
            for off in offsets:
                yield sim.timeout(self.params.compute_s)
                yield from self._read(int(off), self.params.req_size)
                result.requests += 1
                result.bytes_read += self.params.req_size
            result.iteration_s.append(sim.now - it_start)
        result.elapsed_s = sim.now - start
        return result

    def _region(self, ridx: int):
        """Generator: ``(crd, errno)`` of region ``ridx``, opened on its
        first touch."""
        crd = self._crds.get(ridx)
        if crd is None:
            crd, err = yield from self.cache.copen(
                self.region_bytes, self.fh.fd, ridx * self.region_bytes)
            if err != 0:
                return crd, err
            self._crds[ridx] = crd
        return crd, 0

    def _read(self, offset: int, length: int):
        if not self.use_dodo:
            yield self.fs.read(self.fh, offset, length)
            return
        ridx = offset // self.region_bytes
        crd, err = yield from self._region(ridx)
        if err != 0:
            raise RuntimeError(f"copen failed: errno {err}")
        n, err, _ = yield from self.cache.cread(
            crd, offset - ridx * self.region_bytes, length)
        if err != 0:
            raise RuntimeError(f"cread failed: errno {err}")


@dataclass
class TraceRequest:
    """One request of a recorded application I/O trace."""

    kind: str          # "read" | "write"
    offset: int
    length: int
    compute_s: float   # CPU time preceding this request


class TraceRunner:
    """Replays an application I/O trace (used by the dmine/lu drivers).

    The trace abstracts the application: each record carries the compute
    time that preceded the I/O, so replaying the trace against baseline
    and Dodo data paths reproduces the application's timing behaviour
    without re-running its arithmetic.
    """

    def __init__(self, platform: ClusterTargets, trace: Sequence[TraceRequest],
                 dataset_bytes: int, use_dodo: bool, policy: str = "first-in",
                 region_bytes: int = 128 * 1024,
                 dataset_name: str = "dataset",
                 cache: Optional[RegionCache] = None):
        self.platform = platform
        self.trace = trace
        self.use_dodo = use_dodo
        self.region_bytes = region_bytes
        self.fs = platform.app.fs
        if not self.fs.exists(dataset_name):
            self.fs.create(dataset_name, size=dataset_bytes)
        self.fh = self.fs.open(dataset_name, "r+")
        self.cache = cache
        if use_dodo and self.cache is None:
            self.cache = platform.region_cache(policy=policy)
        self._crds: dict[int, int] = {}

    def run(self):
        """Process: replay the trace; value is a :class:`RunResult`."""
        return self.platform.sim.process(self._run())

    def _run(self):
        sim = self.platform.sim
        result = RunResult(elapsed_s=0.0)
        start = sim.now
        for req in self.trace:
            if req.compute_s > 0:
                yield sim.timeout(req.compute_s)
            if req.kind == "read":
                yield from self._io(req, read=True)
            else:
                yield from self._io(req, read=False)
            result.requests += 1
            result.bytes_read += req.length
        result.elapsed_s = sim.now - start
        result.iteration_s.append(result.elapsed_s)
        return result

    def _io(self, req: TraceRequest, read: bool):
        # Requests may span region boundaries; split accordingly.
        offset, remaining = req.offset, req.length
        while remaining > 0:
            ridx = offset // self.region_bytes
            in_region = offset - ridx * self.region_bytes
            n = min(remaining, self.region_bytes - in_region)
            if self.use_dodo:
                crd = self._crds.get(ridx)
                if crd is None:
                    crd, err = yield from self.cache.copen(
                        self.region_bytes, self.fh.fd,
                        ridx * self.region_bytes)
                    if err != 0:
                        raise RuntimeError(f"copen errno {err}")
                    self._crds[ridx] = crd
                if read:
                    _, err, _ = yield from self.cache.cread(crd, in_region, n)
                else:
                    _, err = yield from self.cache.cwrite(crd, in_region, n)
                if err != 0:
                    raise RuntimeError(f"c{'read' if read else 'write'} "
                                       f"errno {err}")
            else:
                if read:
                    yield self.fs.read(self.fh, offset, n)
                else:
                    yield self.fs.write(self.fh, offset, n, None)
            offset += n
            remaining -= n
