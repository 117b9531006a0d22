"""The benchmark's workloads: how a seed becomes driver inputs, how each
driver is called, and what must hold of its simulated outputs.

Importing this module does not import ``repro``: the child process times
that import as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def derive_seed(workload: str, seed: int, stream: str) -> int:
    """A driver seed generated from the benchmark seed.  String seeds go
    through SHA-512 in :class:`random.Random`, so the value does not
    depend on hash randomisation or the platform."""
    return random.Random(f"{workload}/{stream}/{seed}").randrange(1 << 31)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload over a public ``repro.exp`` driver."""

    name: str
    #: the driver module; the child times its import as set-up
    module: str
    #: benchmark seed -> the keyword inputs the driver receives
    params: Callable[[int], dict]
    #: (driver module, inputs) -> the driver's JSON-safe output
    run: Callable
    #: output -> descriptions of the invariants it breaks
    check: Callable
    #: (output, RunResults from Simulator.run) -> (attempted, failed)
    ops: Callable
    #: ``--seconds`` divided by this fixes how many children one
    #: invocation runs, the same number every time (a child takes about
    #: 16 s, 11 s and 6 s on a 2-vCPU x86 VM for fig7, serve, scale-2k)
    child_s: float
    #: host-time fields of the driver's output, dropped before pinning
    host_fields: tuple = ()


# -- fig7: lu + dmine over udp and unet --------------------------------------

def _fig7_params(seed: int) -> dict:
    return {"lu_seed": derive_seed("fig7", seed, "lu"),
            "dmine_seed": derive_seed("fig7", seed, "dmine")}


def _fig7_run(fig7, p: dict) -> dict:
    out = {}
    for transport in ("udp", "unet"):
        out[f"lu/{transport}"] = fig7.run_lu(transport, seed=p["lu_seed"])
        out[f"dmine/{transport}"] = fig7.run_dmine(
            transport, seed=p["dmine_seed"])
    return out


def _fig7_check(out: dict) -> list[str]:
    bad = []
    for key, r in out.items():
        base, dodo = r["baseline_s"], r["dodo_s"]
        if isinstance(base, list):  # dmine: the run after the first
            base, dodo = base[-1], dodo[-1]
        if not dodo < base:
            bad.append(f"{key}: Dodo run ({dodo} s) is not faster than "
                       f"the baseline ({base} s)")
    return bad


def _fig7_ops(out: dict, results: list) -> tuple[int, int]:
    # every trace request of every application run, calibration included;
    # a failed request raises inside the driver, so none count as failed
    return sum(r.requests for r in results), 0


# -- serve: sharded open-loop serving tier -----------------------------------

def _serve_params(seed: int) -> dict:
    return {"n_shards": 2, "seed": derive_seed("serve", seed, "sim")}


def _serve_check(out: dict) -> list[str]:
    bad = []
    if out["offered"] != out["completed"] + out["rejected"]:
        bad.append(f"offered {out['offered']} != completed "
                   f"{out['completed']} + rejected {out['rejected']}")
    if out["audit_findings"] != 0:
        bad.append(f"audit found {out['audit_findings']} problems")
    return bad


def _serve_ops(out: dict, results: list) -> tuple[int, int]:
    # admission rejects are the tier's failed requests
    return out["offered"], out["failed"]


# -- scale-2k: 2000-host scale-out ------------------------------------------

SCALE_REQUESTS = 6144


def _scale_params(seed: int) -> dict:
    return {"n_hosts": 2000, "seed": derive_seed("scale-2k", seed, "sim")}


def _scale_check(out: dict) -> list[str]:
    if out["requests"] != SCALE_REQUESTS:
        return [f"requests {out['requests']} != {SCALE_REQUESTS}"]
    return []


def _scale_ops(out: dict, results: list) -> tuple[int, int]:
    return out["requests"], 0


WORKLOADS = {w.name: w for w in (
    Workload("fig7", "repro.exp.fig7", _fig7_params, _fig7_run,
             _fig7_check, _fig7_ops, child_s=10.0),
    Workload("serve", "repro.exp.serving", _serve_params,
             lambda serving, p: serving.run_serving(**p),
             _serve_check, _serve_ops, child_s=10.0),
    Workload("scale-2k", "repro.exp.scale", _scale_params,
             lambda scale, p: scale.run_scale(**p),
             _scale_check, _scale_ops, child_s=6.0,
             host_fields=("build_wall_s", "wall_s", "events_per_sec",
                          "peak_rss_mb")),
)}

#: exact per-layer counts: metric -> (recorder name regex, counter keys);
#: each metric sums those counters over every matching Recorder the run
#: created
COUNTS = {
    "net.datagrams": (r"network", ("tx.datagrams",)),
    "net.frames": (r"network", ("tx.frames",)),
    "net.fastpath.dgrams": (r"network", ("fastpath.dgrams",)),
    "net.fastpath.transfers": (r"network", ("fastpath.transfers",)),
    "net.fastpath.fallbacks": (r"network", ("fastpath.dgram_fallbacks",
                                            "fastpath.fallbacks")),
    "storage.fs.read_ops": (r".+\.fs", ("read.ops",)),
    "storage.fs.write_ops": (r".+\.fs", ("write.ops",)),
    "storage.pagecache.hits": (r".+\.fs\.cache", ("hits",)),
    "storage.pagecache.misses": (r".+\.fs\.cache", ("misses",)),
    "storage.disk.fastpath.batches": (r".+\.disk", ("fastpath.batches",)),
    "storage.disk.fastpath.fallbacks": (r".+\.disk",
                                        ("fastpath.fallbacks",)),
    "core.mgr.alloc_placed": (r"cmd\d*", ("alloc.placed",)),
    "core.mgr.check_hit": (r"cmd\d*", ("check.hit",)),
    "core.mgr.check_miss": (r"cmd\d*", ("check.miss",)),
    "core.imd.bytes_read": (r"imd\..+", ("bytes_read",)),
    "core.imd.bytes_written": (r"imd\..+", ("bytes_written",)),
    "core.rt.shard_retry": (r"lib\..+", ("shard.retry",)),
}
