"""Lightweight counters and time series shared by all components.

Every daemon, NIC, disk and cache owns a :class:`Recorder`; experiments pull
numbers out of them after a run.  Recording is plain dictionary arithmetic —
cheap enough to leave on unconditionally.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

#: weak references to every Recorder ever created, in creation order —
#: the observability snapshot (:mod:`repro.obs.snapshot`) walks this to
#: collect the whole system's counters without a wiring pass
_REGISTRY: list[weakref.ref] = []

#: registry length at which the next registration prunes dead references.
#: Each prune resets it to twice the survivors (at least ``_PRUNE_FLOOR``),
#: so every prune scans at most twice the registrations since the last:
#: amortized O(1) per recorder, however many recorders stay alive
_PRUNE_FLOOR = 4096
_prune_at = _PRUNE_FLOOR

#: active strong-reference collections (see :func:`start_collection`)
_COLLECTORS: list[list] = []

#: the samples of a recorder that has not sampled yet: nearly every
#: recorder only counts, so its sample dict is made on the first sample
_NO_SAMPLES: Mapping[str, list[float]] = MappingProxyType({})


def iter_recorders() -> Iterable["Recorder"]:
    """All live recorders in creation order (dead ones are skipped)."""
    for ref in _REGISTRY:
        rec = ref()
        if rec is not None:
            yield rec


def start_collection() -> list:
    """Keep every Recorder created from now on alive (strong refs).

    The registry itself is weak so experiments don't leak; a snapshot
    taken *after* a run would then see nothing.  An observability
    session (:class:`repro.obs.session.ObsSession`, ``collect=True``)
    brackets a run with this and :func:`stop_collection` so the run's
    recorders survive until the snapshot is written.  Returns the list
    holding the references.
    """
    collected: list = []
    _COLLECTORS.append(collected)
    return collected


def stop_collection(collected: list) -> None:
    """Stop collecting into (and release) a :func:`start_collection` list."""
    try:
        _COLLECTORS.remove(collected)
    except ValueError:
        pass


def collecting() -> bool:
    """Whether any :func:`start_collection` list is still collecting."""
    return bool(_COLLECTORS)


def _register(rec: "Recorder") -> None:
    global _prune_at
    if len(_REGISTRY) >= _prune_at:
        _REGISTRY[:] = [r for r in _REGISTRY if r() is not None]
        _prune_at = max(_PRUNE_FLOOR, 2 * len(_REGISTRY))
    _REGISTRY.append(weakref.ref(rec))


class Recorder:
    """A named bag of additive counters and value accumulators."""

    __slots__ = ("name", "tally", "_samples", "__weakref__")

    def __init__(self, name: str = ""):
        self.name = name
        #: the live counters, in first-increment order.  ``add`` is
        #: ``tally[key] += amount``; a hot path bumping several counters
        #: may do that itself, one dict operation each instead of a call.
        #: Its identity never changes (``clear`` empties it in place).
        self.tally: defaultdict[str, float] = defaultdict(float)
        self._samples: Mapping[str, list[float]] = _NO_SAMPLES
        _register(self)
        for collected in _COLLECTORS:
            collected.append(self)

    # -- counters -----------------------------------------------------------
    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment counter ``key`` by ``amount``."""
        self.tally[key] += amount

    def count(self, key: str) -> float:
        """Current value of counter ``key`` (0 if never incremented)."""
        return self.tally.get(key, 0.0)

    @property
    def counters(self) -> dict[str, float]:
        return dict(self.tally)

    # -- series enumeration (the exporters' API) ----------------------------
    def counter_names(self) -> list[str]:
        """Registered counter keys, in first-increment order."""
        return list(self.tally)

    def sample_names(self) -> list[str]:
        """Registered sample keys, in first-observation order."""
        return list(self._samples)

    def names(self) -> list[str]:
        """All registered series keys: counters, then samples."""
        seen = dict.fromkeys(self.tally)
        seen.update(dict.fromkeys(self._samples))
        return list(seen)

    # -- samples --------------------------------------------------------------
    def sample(self, key: str, value: float) -> None:
        """Append one observation to the sample list for ``key``."""
        if self._samples is _NO_SAMPLES:
            self._samples = defaultdict(list)
        self._samples[key].append(value)

    def samples(self, key: str) -> list[float]:
        return list(self._samples.get(key, []))

    def mean(self, key: str) -> float:
        vals = self._samples.get(key)
        if not vals:
            return 0.0
        return sum(vals) / len(vals)

    def maximum(self, key: str) -> float:
        vals = self._samples.get(key)
        return max(vals) if vals else 0.0

    def percentile(self, key: str, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the samples for ``key``,
        with linear interpolation between order statistics (numpy's
        default method).  Returns 0.0 when no samples exist, matching
        :meth:`mean`/:meth:`maximum`."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        vals = self._samples.get(key)
        if not vals:
            return 0.0
        ordered = sorted(vals)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        frac = pos - lo
        if frac == 0.0 or lo + 1 >= len(ordered):
            return ordered[lo]
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac

    def histogram(self, key: str,
                  bins: int | Sequence[float] = 10
                  ) -> tuple[list[int], list[float]]:
        """Histogram of the samples for ``key``.

        ``bins`` is either a bin count (equal-width bins spanning
        [min, max]) or an explicit increasing edge sequence.  Returns
        ``(counts, edges)`` with ``len(edges) == len(counts) + 1``; the
        last bin is closed on both sides, like numpy.  Empty sample
        lists yield all-zero counts (edges [0, 1] when ``bins`` is a
        count).
        """
        vals = self._samples.get(key, [])
        if isinstance(bins, int):
            if bins < 1:
                raise ValueError(f"need at least 1 bin, got {bins}")
            lo = min(vals) if vals else 0.0
            hi = max(vals) if vals else 1.0
            if hi == lo:
                hi = lo + 1.0
            width = (hi - lo) / bins
            edges = [lo + i * width for i in range(bins)] + [hi]
        else:
            edges = [float(e) for e in bins]
            if len(edges) < 2 or any(a >= b for a, b in
                                     zip(edges, edges[1:])):
                raise ValueError("bin edges must be increasing, >= 2")
        counts = [0] * (len(edges) - 1)
        for v in vals:
            if v < edges[0] or v > edges[-1]:
                continue
            lo_i, hi_i = 0, len(counts) - 1
            while lo_i < hi_i:
                mid = (lo_i + hi_i + 1) // 2
                if edges[mid] <= v:
                    lo_i = mid
                else:
                    hi_i = mid - 1
            counts[min(lo_i, len(counts) - 1)] += 1
        return counts, edges

    def clear(self) -> None:
        self.tally.clear()
        self._samples = _NO_SAMPLES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Recorder {self.name!r} {dict(self.tally)}>"


class TimeSeries:
    """(time, value) pairs with stepwise integration helpers.

    Used for Section-2 style availability traces: ``integral``/``average``
    treat the series as a right-continuous step function, matching how the
    original study averaged sampled memory levels.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float) -> float:
        """Step-function value at ``time`` (last recorded value <= time)."""
        if not self.times or time < self.times[0]:
            raise ValueError(f"no value recorded at or before t={time}")
        lo, hi = 0, len(self.times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.times[mid] <= time:
                lo = mid
            else:
                hi = mid - 1
        return self.values[lo]

    def integral(self, t0: float, t1: float) -> float:
        """Integral of the step function over ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return 0.0
        total = 0.0
        prev_t = t0
        prev_v = self.value_at(t0)
        for t, v in zip(self.times, self.values):
            if t <= t0:
                continue
            if t >= t1:
                break
            total += prev_v * (t - prev_t)
            prev_t, prev_v = t, v
        total += prev_v * (t1 - prev_t)
        return total

    def average(self, t0: float, t1: float) -> float:
        """Time-weighted mean over ``[t0, t1]``."""
        if t1 == t0:
            return self.value_at(t0)
        return self.integral(t0, t1) / (t1 - t0)

    def minimum(self) -> float:
        if not self.values:
            raise ValueError("empty time series")
        return min(self.values)

    def maximum(self) -> float:
        if not self.values:
            raise ValueError("empty time series")
        return max(self.values)

    @staticmethod
    def aggregate(series: Iterable["TimeSeries"], times: Iterable[float],
                  name: str = "sum") -> "TimeSeries":
        """Sum several step series sampled at common ``times``."""
        out = TimeSeries(name)
        series = list(series)
        for t in times:
            out.record(t, sum(s.value_at(t) for s in series))
        return out
