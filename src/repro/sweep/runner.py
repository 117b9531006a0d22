"""Experiment adapters: one JSON-safe entry point per sweepable driver.

The sweep engine executes points by name through :data:`EXPERIMENTS`,
a registry mapping experiment names to plain functions that accept the
point's overrides (plus ``seed`` when the point carries one) as keyword
arguments and return **JSON-serializable** data.  The adapters wrap the
drivers in :mod:`repro.exp` and :mod:`repro.faults.chaos`, converting
their richer return values (dataclasses, tuple-keyed dicts, simulation
objects) into stable plain data — which is what makes results cacheable
and byte-comparable across ``--jobs`` settings.

Every adapter builds a fresh :class:`~repro.sim.Simulator` seeded from
its arguments, so a point's result is a pure function of
``(experiment, overrides, seed, code version)`` — the contract the
content-addressed cache in :mod:`repro.sweep.cache` assumes.

``selftest`` is a microscopic deterministic pseudo-experiment used by
the unit tests and handy for smoke-testing a sweep setup without
simulating anything; ``fail=True`` raises, exercising failure paths.
"""

from __future__ import annotations

import hashlib
import io
from typing import Callable

from repro.sweep.spec import SweepPoint, jsonify

EXPERIMENTS: dict[str, Callable[..., dict]] = {}


class UnknownExperimentError(ValueError):
    """A sweep point names an experiment with no registered adapter."""


def experiment(name: str) -> Callable:
    """Decorator: register an adapter under ``name``."""
    def register(fn: Callable[..., dict]) -> Callable[..., dict]:
        EXPERIMENTS[name] = fn
        return fn
    return register


def run_sweep_point(point: SweepPoint) -> dict:
    """Execute one point and return its JSON-safe result.

    Raises :class:`UnknownExperimentError` for unregistered experiment
    names; any exception the driver raises propagates (the engine
    records it as a failed point).
    """
    try:
        fn = EXPERIMENTS[point.experiment]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {point.experiment!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}") from None
    kwargs = dict(point.overrides)
    if point.seed is not None:
        kwargs["seed"] = point.seed
    return jsonify(fn(**kwargs))


# -- section 2 (trace studies) ------------------------------------------------

@experiment("fig1")
def _fig1(seed: int = 42, days: float = 4.0) -> dict:
    """Figure 1 cluster-availability summaries (series elided)."""
    from repro.exp.sec2 import run_fig1
    results = run_fig1(seed=seed, days=days)
    return {name: {"summary": res["summary"], "paper": res["paper"]}
            for name, res in results.items()}


@experiment("table1")
def _table1(seed: int = 43, days: float = 2.0,
            hosts_per_class: int = 4) -> dict:
    """Table 1 memory-by-use means/stds per host class."""
    from repro.exp.sec2 import run_table1
    return run_table1(seed=seed, days=days,
                      hosts_per_class=hosts_per_class)


@experiment("fig2")
def _fig2(seed: int = 44, days: float = 4.0) -> dict:
    """Figure 2 per-workstation availability stats (traces elided)."""
    from repro.exp.sec2 import run_fig2
    results = run_fig2(seed=seed, days=days)
    return {mb: {k: v for k, v in res.items() if k != "trace"}
            for mb, res in results.items()}


# -- section 5.1 --------------------------------------------------------------

@experiment("disk")
def _disk() -> dict:
    """The four-point application-level disk bandwidth table."""
    from repro.exp.disk_cal import run_disk_calibration
    return run_disk_calibration()


@experiment("fig7")
def _fig7(scale_lu: float = 1 / 64, scale_dmine: float = 1 / 16) -> dict:
    """Both Figure 7 applications on both transports."""
    from repro.exp.fig7 import run_fig7
    return run_fig7(scale_lu=scale_lu, scale_dmine=scale_dmine)


@experiment("fig7_lu")
def _fig7_lu(transport: str = "udp", scale: float = 1 / 64,
             seed: int = 7) -> dict:
    """One lu bar of Figure 7 (grid-friendly unit)."""
    from repro.exp.fig7 import run_lu
    return run_lu(transport, scale=scale, seed=seed)


@experiment("fig7_dmine")
def _fig7_dmine(transport: str = "udp", scale: float = 1 / 16,
                seed: int = 8, n_runs: int = 2) -> dict:
    """One dmine pair (run 1 + run 2) of Figure 7."""
    from repro.exp.fig7 import run_dmine
    return run_dmine(transport, scale=scale, seed=seed, n_runs=n_runs)


# -- figure 8 -----------------------------------------------------------------

@experiment("fig8_point")
def _fig8_point(pattern: str = "hotcold", req_size: int = 8192,
                dataset_gb: int = 1, transport: str = "udp",
                scale: float = 1 / 64, num_iter: int = 4,
                seed: int = 5) -> dict:
    """One bar of Figure 8: the natural grid unit for size ablations."""
    from repro.exp.fig8 import Fig8Point, run_point
    return run_point(Fig8Point(pattern, req_size, dataset_gb, transport),
                     scale=scale, num_iter=num_iter, seed=seed)


@experiment("fig8")
def _fig8(scale: float = 1 / 64, num_iter: int = 4) -> dict:
    """All four Figure 8 panels in one point."""
    from repro.exp.fig8 import run_fig8
    return run_fig8(scale=scale, num_iter=num_iter)


# -- section 5.3.1 ------------------------------------------------------------

@experiment("nondedicated")
def _nondedicated(seed: int = 9, n_desktops: int = 8,
                  num_iter: int = 4, idle_window_s: float = 20.0) -> dict:
    """Desktop-cluster run: speedup + reclaim-delay statistics."""
    from repro.exp.nondedicated import NonDedicatedParams, run_nondedicated
    results = run_nondedicated(NonDedicatedParams(
        seed=seed, n_desktops=n_desktops, num_iter=num_iter,
        idle_window_s=idle_window_s))
    out = {"speedup": results["speedup"]}
    for mode in ("baseline", "dodo"):
        entry = results[mode]
        out[mode] = {k: v for k, v in entry.items() if k != "result"}
    return out


# -- ablations ----------------------------------------------------------------

@experiment("ablation_allocator")
def _ablation_allocator(pool_mb: int = 64, n_ops: int = 4000,
                        seed: int = 3) -> dict:
    """First-fit vs buddy allocator under region churn."""
    from repro.exp.ablations import run_allocator_ablation
    return run_allocator_ablation(pool_mb=pool_mb, n_ops=n_ops, seed=seed)


@experiment("ablation_refraction")
def _ablation_refraction(scale: float = 1 / 128, seed: int = 4) -> dict:
    """Refraction period on vs off under memory pressure."""
    from repro.exp.ablations import run_refraction_ablation
    return run_refraction_ablation(scale=scale, seed=seed)


@experiment("ablation_policy")
def _ablation_policy(scale: float = 1 / 128, seed: int = 5) -> dict:
    """Replacement policies on a cyclic multi-scan."""
    from repro.exp.ablations import run_policy_ablation
    return run_policy_ablation(scale=scale, seed=seed)


@experiment("ablation_prefetch")
def _ablation_prefetch(scale: float = 1 / 128, seed: int = 7) -> dict:
    """Region prefetching extension on sequential scans."""
    from repro.exp.ablations import run_prefetch_ablation
    return run_prefetch_ablation(scale=scale, seed=seed)


@experiment("ablation_pregrant")
def _ablation_pregrant(size: int = 8192, n: int = 50,
                       transport: str = "udp", seed: int = 6) -> dict:
    """Window pre-grant vs offer/window handshake latency."""
    from repro.exp.ablations import run_pregrant_ablation
    return run_pregrant_ablation(size=size, n=n, transport=transport,
                                 seed=seed)


# -- elastic caching ----------------------------------------------------------

@experiment("cache")
def _cache(policy: str = "none", migration: bool = False,
           workload: str = "nondedicated", seed: int = 9,
           num_iter: int = 6) -> dict:
    """One elastic-caching ablation cell (docs/CACHING.md).

    ``run_cache`` already returns flat JSON-safe counters, so the
    adapter is a pass-through; the ``cache-ablation`` builtin spec
    grids this over policies × workloads.
    """
    from repro.exp.cache import run_cache
    return run_cache(policy=policy, migration=bool(migration),
                     workload=workload, seed=int(seed),
                     num_iter=int(num_iter))


# -- scale-out ----------------------------------------------------------------

@experiment("scale")
def _scale(n_hosts: int = 1000, seed: int = 11, pattern: str = "hotcold",
           num_iter: int = 2, transport: str = "unet",
           owners: bool = True) -> dict:
    """One thousand-host-class scaling point (throughput-focused).

    Wall-clock fields vary run to run, so cached results record the
    machine they were measured on; the simulation outcome fields
    (``virtual_s``, ``events``, ``requests``) are deterministic.
    """
    from repro.exp.scale import run_scale
    return run_scale(n_hosts=n_hosts, seed=seed, pattern=pattern,
                     num_iter=num_iter, transport=transport, owners=owners)


# -- chaos --------------------------------------------------------------------

@experiment("chaos")
def _chaos(scenario: str = "fig7", seed: int = 0, audit: str = "raise",
           horizon_s: float = 20.0) -> dict:
    """One nemesis chaos run, reduced to plain data.

    The full event log is summarized as a SHA-256 of its JSONL dump —
    enough to prove byte-identical replay across ``--jobs`` settings
    without storing megabytes per point.
    """
    from repro.faults.chaos import run_chaos
    run = run_chaos(scenario, seed=seed, audit=audit,
                    horizon_s=horizon_s)
    plan = run["plan"]
    by_kind: dict[str, int] = {}
    for ev in plan:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
    buf = io.StringIO()
    run["eventlog"].dump_jsonl(buf)
    auditor = run["auditor"]
    return {
        "scenario": scenario, "seed": run["seed"],
        "scheduled": len(plan), "injected": run["injected"],
        "healed": run["healed"], "degraded": run["degraded"],
        "fault_kinds": by_kind,
        "requests": run["result"].requests,
        "elapsed_s": run["result"].elapsed_s,
        "audit_passes": auditor.passes if auditor else 0,
        "audit_findings": len(auditor.findings) if auditor else 0,
        "eventlog_sha256":
            hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "eventlog_records": len(run["eventlog"].events),
    }


# -- serving ------------------------------------------------------------------

@experiment("serving")
def _serving(n_shards: int = 1, replication: bool = True, seed: int = 21,
             mgr_service_s: float = 0.002, arrival_rate: float = 800.0,
             duration_s: float = 10.0, n_keys: int = 512,
             n_workers: int = 8, write_fraction: float = 0.1,
             desc_cache: int = 16) -> dict:
    """One serve-bench point: the sharded-directory serving tier.

    ``run_serving`` already returns plain JSON-safe data, so the
    adapter is a pass-through; each point is a fresh simulator, making
    the shard-count series a natural sweep axis.
    """
    from repro.exp.serving import run_serving
    return run_serving(
        n_shards=n_shards, replication=replication, seed=seed,
        mgr_service_s=mgr_service_s, arrival_rate=arrival_rate,
        duration_s=duration_s, n_keys=n_keys, n_workers=n_workers,
        write_fraction=write_fraction, desc_cache=desc_cache)


# -- selftest -----------------------------------------------------------------

@experiment("selftest")
def _selftest(seed: int = 0, x: int = 1, fail: bool = False,
              fail_seeds: tuple = ()) -> dict:
    """Instant deterministic pseudo-experiment for tests and smoke runs."""
    if fail or seed in tuple(fail_seeds):
        raise RuntimeError(f"selftest: injected failure (seed={seed})")
    digest = hashlib.sha256(f"{seed}:{x}".encode()).hexdigest()
    return {"seed": seed, "x": x, "value": seed * 1000 + x,
            "digest": digest[:16]}
