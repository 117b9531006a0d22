"""Synthetic memory-usage traces reproducing the Section 2 study.

The paper's design was motivated by multi-week traces of two Solaris
clusters (clusterA: 29 hosts at UCSB, clusterB: 23 hosts at GMU) captured
with top/lsof/memtool.  We do not have those traces; this module generates
statistically matched synthetic ones:

* per-host memory components (kernel / file-cache / process) follow AR(1)
  processes whose stationary mean and standard deviation come straight
  from the paper's Table 1, plus short-lived process-memory spikes that
  produce the availability "dips" of Figure 2;
* owner console activity and load follow a two-state Markov model with a
  diurnal cycle, plus occasional background compute jobs (the clusters ran
  batch jobs), which feed the idle-host analysis of Figure 1.

Available memory is derived exactly as in the paper:
``total - kernel - filecache - process`` (the Table 1 rows sum this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.idleness import idle_mask

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class HostClassStats:
    """Table 1 row: mean (std) of each component, in KB."""

    total_kb: int
    kernel_mean: float
    kernel_std: float
    filecache_mean: float
    filecache_std: float
    process_mean: float
    process_std: float

    @property
    def available_mean(self) -> float:
        return self.total_kb - self.kernel_mean - self.filecache_mean \
            - self.process_mean


#: Table 1 of the paper, keyed by installed memory in MB.
TABLE1: dict[int, HostClassStats] = {
    32: HostClassStats(32 * 1024, 10310, 1133, 2402, 2257, 3746, 2686),
    64: HostClassStats(64 * 1024, 16347, 2081, 4093, 3776, 10017, 6982),
    128: HostClassStats(128 * 1024, 25512, 3257, 8216, 10271, 12583, 12621),
    256: HostClassStats(256 * 1024, 50109, 8625, 7384, 7821, 17606, 23335),
}

#: Host mixes chosen so aggregate installed/available memory matches the
#: cluster totals reported with Figure 1 (clusterA: 3549/2747 MB
#: all/idle-hosts available; clusterB: 852/742 MB).
CLUSTER_A_MIX: dict[int, int] = {256: 14, 128: 11, 64: 3, 32: 1}
CLUSTER_B_MIX: dict[int, int] = {128: 3, 64: 16, 32: 4}


@dataclass(frozen=True)
class TraceParams:
    """Knobs of the synthetic generator."""

    duration_s: float = 4 * 86400.0
    dt_s: float = 60.0
    #: AR(1) persistence per step for the memory components
    phi: float = 0.985
    #: long-run fraction of daytime steps with the owner at the console
    busy_frac_day: float = 0.35
    busy_frac_night: float = 0.04
    #: mean interactive session length
    session_mean_s: float = 30 * 60.0
    #: probability an away period carries a background compute job
    background_job_prob: float = 0.12
    background_job_mean_s: float = 45 * 60.0
    #: process-memory spike rate (per host per day) and duration
    spike_rate_per_day: float = 3.0
    spike_mean_s: float = 8 * 60.0
    #: spike size as a fraction of installed memory
    spike_frac: float = 0.45
    day_start_h: float = 8.0
    day_end_h: float = 20.0
    #: owners come in far less on Saturdays/Sundays (days 5 and 6 of the
    #: trace week) — visible as the weekly dips in the paper's Figure 1
    weekend_busy_factor: float = 0.3


@dataclass
class HostTrace:
    """Sampled time series for one host; memory in KB."""

    name: str
    total_kb: int
    dt_s: float
    kernel: np.ndarray
    filecache: np.ndarray
    process: np.ndarray
    console_active: np.ndarray  # bool
    load: np.ndarray
    idle: np.ndarray = field(init=False)  # bool, paper predicate

    def __post_init__(self) -> None:
        self.idle = idle_mask(self.console_active, self.load, self.dt_s)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.kernel)) * self.dt_s

    @property
    def available(self) -> np.ndarray:
        used = self.kernel + self.filecache + self.process
        return np.maximum(0, self.total_kb - used)


def _ar1(rng: np.random.Generator, n: int, mean: float, std: float,
         phi: float) -> np.ndarray:
    """Stationary AR(1) with the requested mean/std, clipped at >= 0."""
    eps = rng.standard_normal(n) * std * np.sqrt(max(1e-12, 1 - phi * phi))
    x = np.empty(n)
    x[0] = mean + rng.standard_normal() * std
    for i in range(1, n):
        x[i] = mean + phi * (x[i - 1] - mean) + eps[i]
    return np.maximum(0.0, x)


def _markov_state(rng: np.random.Generator, n: int, p_on: np.ndarray,
                  mean_on_s: float, dt_s: float) -> np.ndarray:
    """Two-state on/off chain: stationary on-probability ``p_on[t]``,
    mean on-duration ``mean_on_s``."""
    p_exit = min(1.0, dt_s / mean_on_s)
    # For stationary fraction f: p_enter = f * p_exit / (1 - f)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_enter = np.clip(p_on * p_exit / np.maximum(1e-9, 1 - p_on), 0, 1)
    u = rng.random(n)
    state = np.zeros(n, dtype=bool)
    on = False
    for i in range(n):
        on = (u[i] >= p_exit) if on else (u[i] < p_enter[i])
        state[i] = on
    return state


def generate_host_trace(rng: np.random.Generator, name: str,
                        stats: HostClassStats,
                        params: TraceParams | None = None) -> HostTrace:
    """One host's synthetic multi-day trace."""
    p = params or TraceParams()
    n = int(p.duration_s / p.dt_s)
    t = np.arange(n) * p.dt_s
    hour = (t / 3600.0) % 24.0
    is_day = (hour >= p.day_start_h) & (hour < p.day_end_h)
    busy_target = np.where(is_day, p.busy_frac_day, p.busy_frac_night)
    weekday = (t // 86400.0).astype(int) % 7
    busy_target = np.where(weekday >= 5,
                           busy_target * p.weekend_busy_factor, busy_target)

    busy = _markov_state(rng, n, busy_target, p.session_mean_s, p.dt_s)
    background = _markov_state(
        rng, n, np.full(n, p.background_job_prob),
        p.background_job_mean_s, p.dt_s)

    load = (0.03 + 0.05 * rng.random(n)
            + busy * (0.5 + 0.5 * rng.random(n))
            + background * 1.0)
    console_active = busy.copy()

    kernel = _ar1(rng, n, stats.kernel_mean, stats.kernel_std, p.phi)
    filecache = _ar1(rng, n, stats.filecache_mean, stats.filecache_std, p.phi)
    process = _ar1(rng, n, stats.process_mean, stats.process_std, p.phi)

    # Short-lived large allocations: the Figure 2 "dips".
    n_spikes = rng.poisson(p.spike_rate_per_day * p.duration_s / 86400.0)
    spikes = np.zeros(n)
    for _ in range(n_spikes):
        start = int(rng.integers(0, n))
        length = max(1, int(rng.exponential(p.spike_mean_s) / p.dt_s))
        size = p.spike_frac * stats.total_kb * (0.5 + rng.random())
        spikes[start:start + length] += size
    process = process + spikes

    # Physical cap: components cannot exceed installed memory.  Overflow is
    # taken out of the file cache first (the OS sheds cache under
    # pressure), then process memory is clipped.
    headroom = 0.99 * stats.total_kb
    overflow = np.maximum(0.0, kernel + filecache + process - headroom)
    shed = np.minimum(filecache, overflow)
    filecache = filecache - shed
    overflow = overflow - shed
    process = np.maximum(0.0, process - overflow)

    return HostTrace(name=name, total_kb=stats.total_kb, dt_s=p.dt_s,
                     kernel=kernel, filecache=filecache, process=process,
                     console_active=console_active, load=load)


def generate_cluster(rng: np.random.Generator, mix: dict[int, int],
                     params: TraceParams | None = None,
                     name: str = "cluster") -> list[HostTrace]:
    """Traces for a whole cluster given its {installed MB: host count} mix."""
    traces = []
    i = 0
    for mb in sorted(mix, reverse=True):
        stats = TABLE1[mb]
        for _ in range(mix[mb]):
            traces.append(generate_host_trace(
                rng, f"{name}-{mb}mb-{i}", stats, params))
            i += 1
    return traces


# -- analysis (what Figures 1/2 and Table 1 plot) ---------------------------------

def available_series_mb(traces: list[HostTrace]) -> dict[str, np.ndarray]:
    """Aggregate availability over time: the Figure 1 series.

    Returns ``times_s``, ``all_hosts_mb`` (sum of available memory over
    every host) and ``idle_hosts_mb`` (only hosts passing the idleness
    predicate at that instant).
    """
    if not traces:
        raise ValueError("no traces")
    avail = np.stack([tr.available for tr in traces])  # hosts x time, KB
    idle = np.stack([tr.idle for tr in traces])
    return {
        "times_s": traces[0].times,
        "all_hosts_mb": avail.sum(axis=0) / 1024.0,
        "idle_hosts_mb": (avail * idle).sum(axis=0) / 1024.0,
    }


def cluster_summary(traces: list[HostTrace]) -> dict[str, float]:
    """Headline Figure-1 numbers for one cluster."""
    series = available_series_mb(traces)
    installed_mb = sum(tr.total_kb for tr in traces) / 1024.0
    return {
        "installed_mb": installed_mb,
        "avg_available_all_mb": float(series["all_hosts_mb"].mean()),
        "avg_available_idle_mb": float(series["idle_hosts_mb"].mean()),
        "frac_available_all": float(series["all_hosts_mb"].mean())
        / installed_mb,
        "frac_available_idle": float(series["idle_hosts_mb"].mean())
        / installed_mb,
        "frac_hosts_idle": float(np.stack(
            [tr.idle for tr in traces]).mean()),
    }


def table1_from_traces(traces: list[HostTrace]) -> dict[int, dict[str, tuple]]:
    """Recompute Table 1 (mean, std per component) from generated traces."""
    by_class: dict[int, list[HostTrace]] = {}
    for tr in traces:
        by_class.setdefault(tr.total_kb // 1024, []).append(tr)
    out = {}
    for mb, trs in sorted(by_class.items()):
        rows = {}
        for comp in ("kernel", "filecache", "process", "available"):
            vals = np.concatenate([getattr(tr, comp) for tr in trs])
            rows[comp] = (float(vals.mean()), float(vals.std()))
        out[mb] = rows
    return out
