"""I/O trace recording, persistence and analysis.

The Figure 7 benchmarks replay application I/O traces.  This module
closes the loop: a :class:`TraceRecorder` can be interposed on a live
(functional) application run to capture its actual request stream —
offsets, lengths, kinds and inter-request compute times — which can then
be saved, characterized (the paper's Section 5.2 descriptions: request
size distributions, read/write mix, access-pattern class) and replayed
through :class:`~repro.workloads.app.TraceRunner` against either data
path.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from repro.workloads.app import TraceRequest


class TraceRecorder:
    """Accumulates a request trace from a live run.

    Wraps time observation explicitly: the caller notifies the recorder
    around each request; the gap between the previous request's end and
    this one's start is recorded as that request's compute time.
    """

    def __init__(self, sim):
        self.sim = sim
        self.requests: list[TraceRequest] = []
        self._last_io_end: Optional[float] = None
        self._pending_start: Optional[float] = None
        self._pending: Optional[tuple[str, int, int]] = None

    def begin(self, kind: str, offset: int, length: int) -> None:
        """Call immediately before issuing the I/O."""
        if kind not in ("read", "write"):
            raise ValueError(f"bad request kind {kind!r}")
        if self._pending is not None:
            raise RuntimeError("begin() without matching end()")
        self._pending = (kind, offset, length)
        self._pending_start = self.sim.now

    def end(self) -> None:
        """Call immediately after the I/O completes."""
        if self._pending is None:
            raise RuntimeError("end() without begin()")
        kind, offset, length = self._pending
        compute = 0.0
        if self._last_io_end is not None:
            compute = max(0.0, self._pending_start - self._last_io_end)
        self.requests.append(TraceRequest(kind, offset, length, compute))
        self._last_io_end = self.sim.now
        self._pending = None

    def recording_fs(self, fs, fh):
        """A read/write facade over a FileSystem handle that records."""
        recorder = self

        class _Facade:
            def read(self, offset, n):
                recorder.begin("read", offset, n)
                proc = fs.read(fh, offset, n)
                return recorder._finish(proc)

            def write(self, offset, n, data=None):
                recorder.begin("write", offset, n)
                proc = fs.write(fh, offset, n, data)
                return recorder._finish(proc)

        return _Facade()

    def _finish(self, proc):
        sim = self.sim

        def wrapper():
            result = yield proc
            self.end()
            return result

        return sim.process(wrapper())


# -- persistence --------------------------------------------------------------------

def save_trace(requests: Sequence[TraceRequest], path: str) -> None:
    """Write a trace as JSON lines (kind, offset, length, compute_s)."""
    with open(path, "w", encoding="utf-8") as f:
        for r in requests:
            f.write(json.dumps({"k": r.kind, "o": r.offset, "l": r.length,
                                "c": r.compute_s}) + "\n")


def load_trace(path: str) -> list[TraceRequest]:
    """Read a JSONL request trace written by :func:`save_trace`."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            out.append(TraceRequest(d["k"], int(d["o"]), int(d["l"]),
                                    float(d["c"])))
    return out


# -- characterization ----------------------------------------------------------------

def characterize(requests: Sequence[TraceRequest]) -> dict:
    """Summarize a trace the way Section 5.2 describes its applications:
    request-size stats, read fraction, compute share, and a crude
    access-pattern classification (sequential / multi-scan / random)."""
    if not requests:
        raise ValueError("empty trace")
    sizes = np.array([r.length for r in requests], dtype=float)
    reads = sum(1 for r in requests if r.kind == "read")
    compute = sum(r.compute_s for r in requests)

    offsets = [r.offset for r in requests if r.kind == "read"]
    sequential_steps = sum(
        1 for a, b in zip(offsets, offsets[1:])
        if b == a + requests[0].length or b > a)
    rewinds = sum(1 for a, b in zip(offsets, offsets[1:]) if b < a)
    n_pairs = max(1, len(offsets) - 1)
    if sequential_steps / n_pairs > 0.9:
        if rewinds >= 1:
            pattern = "multi-scan"
        else:
            pattern = "sequential"
    elif sequential_steps / n_pairs > 0.6:
        pattern = "triangle-scan"
    else:
        pattern = "random"

    return {
        "requests": len(requests),
        "read_fraction": reads / len(requests),
        "bytes": float(sizes.sum()),
        "mean_request_bytes": float(sizes.mean()),
        "min_request_bytes": float(sizes.min()),
        "max_request_bytes": float(sizes.max()),
        "total_compute_s": compute,
        "pattern": pattern,
    }
