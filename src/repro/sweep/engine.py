"""The sweep driver: fan points across workers, memoize, resume.

:func:`run_sweep` executes a :class:`~repro.sweep.spec.SweepSpec`:

1. every point is content-addressed (:func:`repro.sweep.cache.point_key`
   — identity = experiment + seed + overrides + code fingerprint);
2. with ``resume=True`` and a cache directory, points whose key already
   has an entry are reported as **cached** without running anything —
   an interrupted sweep continues exactly where it left off;
3. remaining points run through :func:`repro.sweep.runner.run_sweep_point`
   either inline (``jobs=1``) or on a ``multiprocessing`` pool
   (``jobs>1``).  Each worker builds its own fresh simulator from the
   point's seed, so results are byte-identical regardless of worker
   count or completion order (asserted in ``tests/sweep/`` and CI);
4. successful results are written to the cache **as they complete**
   (atomic temp+rename), so a crash mid-sweep never loses finished
   points and never leaves a torn entry;
5. a failed point is recorded (first line of the error) and does *not*
   poison the sweep: other points continue, the failure is never
   cached, and a later resume retries only the failures.

Progress goes to the ``progress`` stream as one line per completed
point, with running done/cached/failed counts and an ETA extrapolated
from the mean wall time of completed points.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, IO, Optional

from repro.obs.files import atomic_write
from repro.obs.session import observing
from repro.sweep.cache import ResultCache, code_fingerprint, point_key
from repro.sweep.runner import run_sweep_point
from repro.sweep.spec import SweepPoint, SweepSpec, canonical_text


def _pool_context(name: Optional[str] = None):
    """The multiprocessing context to fan out with.

    ``fork`` is preferred where available (cheap, inherits the loaded
    package), falling back to the platform default elsewhere.
    """
    if name:
        return multiprocessing.get_context(name)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _execute(payload: tuple) -> tuple:
    """Worker body: run one point, never raise (errors become data)."""
    index, experiment, seed, overrides = payload
    point = SweepPoint(experiment, seed=seed, overrides=overrides)
    start = time.perf_counter()
    try:
        result = run_sweep_point(point)
        return index, "ok", result, None, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - reported per point
        error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        return index, "failed", None, error, time.perf_counter() - start


def _apply(payload: tuple) -> object:
    """Worker body for :func:`parallel_map`: ``fn(**kwargs)``."""
    fn, kwargs = payload
    return fn(**kwargs)


def _refuse_observed_fan_out(jobs: int) -> None:
    """Raise :class:`ValueError` for ``jobs > 1`` while an observability
    engine or a recorder collection is installed: the workers would
    record into their own copies, and the run would write empty outputs
    and pass an audit that checked nothing."""
    if jobs > 1 and observing():
        raise ValueError(
            f"cannot fan out to {jobs} worker processes while tracing, "
            "telemetry, an event log or a recorder snapshot is on: the "
            "workers' observations would be lost; run with one job")


def parallel_map(fn: Callable, kwargs_list: list[dict], jobs: int = 1,
                 mp_context: Optional[str] = None) -> list:
    """Run ``fn(**kwargs)`` for each entry, optionally on a pool.

    Results come back in input order.  ``fn`` must be picklable (a
    module-level function) when ``jobs > 1``.  This is the light-weight
    sibling of :func:`run_sweep` for callers that want parallelism but
    manage their own result shapes and caching — e.g.
    :func:`repro.exp.fig8.run_fig8` routes its panel grid through here.
    Both refuse ``jobs > 1`` under observation.
    """
    _refuse_observed_fan_out(jobs)
    payloads = [(fn, kwargs) for kwargs in kwargs_list]
    if jobs <= 1 or len(payloads) <= 1:
        return [_apply(p) for p in payloads]
    ctx = _pool_context(mp_context)
    with ctx.Pool(processes=min(jobs, len(payloads))) as pool:
        return pool.map(_apply, payloads)


@dataclass
class PointRun:
    """Outcome of one point within a sweep."""

    index: int
    point: SweepPoint
    key: str
    status: str  #: "ok" | "cached" | "failed"
    result: Optional[dict] = None
    error: Optional[str] = None
    wall_s: float = 0.0


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` invocation produced."""

    spec: SweepSpec
    fingerprint: str
    runs: list[PointRun] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ran(self) -> int:
        """Points actually executed this invocation."""
        return sum(1 for r in self.runs if r.status == "ok")

    @property
    def cached(self) -> int:
        """Points satisfied from the result cache."""
        return sum(1 for r in self.runs if r.status == "cached")

    @property
    def failed(self) -> int:
        """Points whose driver raised."""
        return sum(1 for r in self.runs if r.status == "failed")

    @property
    def ok(self) -> bool:
        """True when every point has a result (ran or cached)."""
        return self.failed == 0

    def summary(self) -> str:
        """One-line human summary (the CLI prints and CI greps this)."""
        return (f"sweep {self.spec.name}: {len(self.runs)} points — "
                f"{self.ran} ran, {self.cached} cached, "
                f"{self.failed} failed in {self.wall_s:.1f}s")

    def to_dict(self) -> dict:
        """Plain-data form of the whole sweep (for ``--out``)."""
        return {
            "spec": self.spec.to_dict(),
            "fingerprint": self.fingerprint,
            "summary": {"points": len(self.runs), "ran": self.ran,
                        "cached": self.cached, "failed": self.failed},
            "points": [{
                "index": r.index,
                "point": r.point.canonical(),
                "key": r.key,
                "status": r.status,
                "error": r.error,
                "result": r.result,
            } for r in self.runs],
            "timing": {"wall_s": round(self.wall_s, 3)},
        }

    def write(self, path: str) -> None:
        """Atomically write the sweep record as canonical JSON."""
        with atomic_write(path) as fp:
            fp.write(canonical_text(self.to_dict()))
            fp.write("\n")


def run_sweep(spec: SweepSpec, jobs: int = 1,
              cache_dir: Optional[str] = None, resume: bool = False,
              out: Optional[str] = None,
              progress: Optional[IO[str]] = None,
              mp_context: Optional[str] = None) -> SweepResult:
    """Execute ``spec``; see the module docstring for the contract.

    ``cache_dir=None`` disables memoization entirely.  With a cache
    directory, completed points are always *written*; they are only
    *read back* when ``resume=True`` (so a plain re-run recomputes and
    refreshes entries, while ``--resume`` skips them).
    """
    _refuse_observed_fan_out(jobs)
    started = time.perf_counter()
    fingerprint = code_fingerprint()
    cache = ResultCache(cache_dir) if cache_dir else None
    result = SweepResult(spec=spec, fingerprint=fingerprint)
    runs: dict[int, PointRun] = {}
    pending: list[tuple] = []

    for index, point in enumerate(spec.points):
        key = point_key(point, fingerprint)
        if cache is not None and resume:
            record = cache.get(key)
            if record is not None:
                runs[index] = PointRun(index, point, key, "cached",
                                       result=record["result"])
                _report(progress, runs[index], len(runs),
                        len(spec.points), eta_s=None)
                continue
        runs[index] = PointRun(index, point, key, "pending")
        pending.append((index, point.experiment, point.seed,
                        point.overrides))

    ran_walls: list[float] = []

    def finish(index: int, status: str, point_result, error: str,
               wall: float) -> None:
        run = runs[index]
        run.status = status
        run.result = point_result
        run.error = error
        run.wall_s = wall
        if status == "ok":
            ran_walls.append(wall)
            if cache is not None:
                cache.put(run.key, run.point, point_result, fingerprint)
        done = sum(1 for r in runs.values() if r.status != "pending")
        remaining = len(spec.points) - done
        eta = (remaining * (sum(ran_walls) / len(ran_walls))
               if ran_walls and remaining else None)
        _report(progress, run, done, len(spec.points), eta)

    if jobs <= 1 or len(pending) <= 1:
        for payload in pending:
            finish(*_execute(payload))
    else:
        ctx = _pool_context(mp_context)
        with ctx.Pool(processes=min(jobs, len(pending))) as pool:
            for outcome in pool.imap_unordered(_execute, pending):
                finish(*outcome)

    result.runs = [runs[i] for i in range(len(spec.points))]
    result.wall_s = time.perf_counter() - started
    if out:
        result.write(out)
    return result


def _report(stream: Optional[IO[str]], run: PointRun, done: int,
            total: int, eta_s: Optional[float]) -> None:
    """One progress line per completed point."""
    if stream is None:
        return
    if run.status == "cached":
        tail = "cached"
    elif run.status == "failed":
        tail = f"FAILED ({run.error})"
    else:
        tail = f"ran in {run.wall_s:.2f}s"
    eta = f", eta {eta_s:.0f}s" if eta_s else ""
    stream.write(f"[{done}/{total}] {run.point.label()}: {tail}{eta}"
                 + os.linesep)
    stream.flush()
