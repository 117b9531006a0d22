"""Per-run metrics snapshots: every Recorder in the system, as JSON.

Benchmark trajectories only become debuggable when two runs can be
*diffed*.  A snapshot walks the global :class:`~repro.metrics.recorder.
Recorder` registry (every daemon, NIC, disk, cache and library owns one)
and serializes counters plus sample summaries — count / mean / min /
max / p50 / p90 / p99 — with stable key sorting, so ``diff run_a.json
run_b.json`` pinpoints exactly which component's behaviour moved between
two code versions or two configurations.

One run builds many recorders of one name: every simulator of an
experiment builds its own ``cmd`` and its own hosts, and each transport
endpoint shares one ``sock.<host>`` and one ``rpc.client.<host>``
recorder among all its sockets and RPC clients.  Snapshots therefore
*group* recorders by name and merge each group: counters are summed,
sample lists pooled.  The per-group ``instances`` field records how many
recorders were merged.

The CLI's ``--metrics-out run.json`` writes one of these after any
experiment.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Optional

from repro.metrics.recorder import Recorder, iter_recorders
from repro.obs.files import atomic_write

#: sample quantiles included in every snapshot
QUANTILES = (0.5, 0.9, 0.99)

def _summary(vals: list[float]) -> dict:
    ordered = sorted(vals)
    n = len(ordered)
    summary = {
        "count": n,
        "mean": sum(ordered) / n if n else 0.0,
        "min": ordered[0] if n else 0.0,
        "max": ordered[-1] if n else 0.0,
    }
    for q in QUANTILES:
        if not n:
            summary[f"p{int(q * 100)}"] = 0.0
            continue
        pos = q * (n - 1)
        lo = int(pos)
        frac = pos - lo
        if frac == 0.0 or lo + 1 >= n:
            summary[f"p{int(q * 100)}"] = ordered[lo]
        else:
            summary[f"p{int(q * 100)}"] = \
                ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac
    return summary


def merged_snapshot(recs: Iterable[Recorder]) -> dict:
    """Summarize a group of recorders: summed counters, pooled samples."""
    counters: dict[str, float] = {}
    pooled: dict[str, list[float]] = {}
    n = 0
    for rec in recs:
        n += 1
        for key in rec.counter_names():
            counters[key] = counters.get(key, 0.0) + rec.count(key)
        for key in rec.sample_names():
            pooled.setdefault(key, []).extend(rec.samples(key))
    return {
        "instances": n,
        "counters": counters,
        "samples": {k: _summary(v) for k, v in pooled.items()},
    }


def recorder_snapshot(rec: Recorder) -> dict:
    """Summarize one recorder: raw counters, per-key sample summaries."""
    return merged_snapshot([rec])


def snapshot(meta: Optional[dict] = None) -> dict:
    """Snapshot every live recorder, grouped by name."""
    groups: dict[str, list[Recorder]] = {}
    for rec in iter_recorders():
        groups.setdefault(rec.name or "recorder", []).append(rec)
    return {
        "meta": meta or {},
        "recorders": {name: merged_snapshot(recs)
                      for name, recs in groups.items()},
    }


def dump_snapshot(fp: IO[str], meta: Optional[dict] = None) -> None:
    """Serialize the current metrics snapshot to ``fp`` as JSON."""
    json.dump(snapshot(meta), fp, sort_keys=True, indent=1)


def write_snapshot(path: str, meta: Optional[dict] = None) -> int:
    """Write a snapshot to ``path``; returns the recorder-group count."""
    snap = snapshot(meta)
    with atomic_write(path) as fp:
        json.dump(snap, fp, sort_keys=True, indent=1)
        fp.write("\n")
    return len(snap["recorders"])
