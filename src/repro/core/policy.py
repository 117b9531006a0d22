"""Region-replacement policies for both of Dodo's region caches.

Sections 3.3 and 4.5: the region-management library is modularized so a
policy is just (a) a pair of state-management procedures invoked on
every access and (b) a reclamation procedure that picks a victim.  One
interface, :class:`CachePolicy`, serves both caches:

* the client's local region cache (:class:`~repro.core.regionlib.RegionCache`,
  paper Figure 5), keyed by region descriptor;
* each imd's donor pool when elastic caching is on
  (:class:`~repro.core.config.CacheConfig`, docs/CACHING.md), keyed by
  pool offset.  A full pool evicts in policy order (never a *pinned*
  region, one with an in-flight transfer) instead of rejecting the
  allocation, and :meth:`CachePolicy.heat` orders the manager's
  hotspot migration.  This side follows Ditto's elastic caching design
  (SNIPPETS.md).

Six policies ship:

* ``lru`` — evict the least recently used region (the library default);
* ``mru`` — evict the most recently used (useful for cyclic scans
  larger than the cache);
* ``first-in`` — cache regions in first-access order and *never replace
  them*; motivated by Uysal et al.'s finding that data-intensive
  applications overwhelmingly do sequential/triangle scans, where LRU
  flushes the whole cache every pass and first-in keeps a stable prefix.
  Its victim is always None (``evicts`` is False): newcomers bypass the
  client cache, and the manager offers a full donor no allocation;
* ``lfu`` — evict the region with the fewest accesses;
* ``clock`` — second-chance reference bits, LRU-like at O(1) per access;
* ``cost-aware`` — GreedyDual-Size-Frequency: refetch-cost-weighted, so
  small regions (whose refetch is dominated by the disk seek) and hot
  regions are kept over large cold streaming ones.

Everything here is deterministic: no wall clock, no RNG — victim order
is a pure function of the access history, so identically-seeded runs
evict identically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

#: fixed per-refetch cost (the disk seek+rotation share) relative to the
#: per-byte transfer share, in bytes: a refetch of ``size`` bytes costs
#: ``SEEK_COST_BYTES + size`` cost units.  Small regions therefore have
#: the highest cost *density* (cost/byte), matching the disk model where
#: positioning dominates small transfers.
SEEK_COST_BYTES = 256 * 1024


class CachePolicy:
    """Replacement-order interface for one region cache.

    Keys are region descriptors (client) or pool offsets (donor);
    ``size`` is the region's logical length in bytes.  Implementations
    must be fully deterministic: ties break toward the smallest key.

    Lifecycle: :meth:`on_insert` when a region becomes cached,
    :meth:`on_access` on every read/write touch, :meth:`on_remove` when
    it is freed, evicted or migrated away.  :meth:`victim` returns the
    next region to evict (skipping ``pinned`` keys) or None.
    """

    name = "?"
    #: False when :meth:`victim` is always None: a full cache under this
    #: policy can never make room, so the manager offers a full donor
    #: no allocation
    evicts = True

    def __init__(self) -> None:
        self._sizes: dict[int, int] = {}
        #: accesses since each cached key's last :meth:`on_insert`
        self._heat: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: int) -> bool:
        return key in self._sizes

    def keys(self) -> Iterable[int]:
        return self._sizes.keys()

    def size_of(self, key: int) -> int:
        return self._sizes.get(key, 0)

    def heat(self, key: int) -> int:
        """Access count since insertion (the manager's migration
        ordering signal); 0 for unknown keys."""
        return self._heat.get(key, 0)

    def on_insert(self, key: int, size: int) -> None:
        self._sizes[key] = size
        self._heat[key] = 0

    def on_access(self, key: int) -> None:
        if key in self._heat:
            self._heat[key] += 1

    def on_remove(self, key: int) -> None:
        self._sizes.pop(key, None)
        self._heat.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        raise NotImplementedError


class LruCachePolicy(CachePolicy):
    """Least-recently-used: evict the region touched longest ago."""

    name = "lru"

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_insert(self, key: int, size: int) -> None:
        super().on_insert(key, size)
        self._order[key] = None
        self._order.move_to_end(key)

    def on_access(self, key: int) -> None:
        if key in self._order:
            self._order.move_to_end(key)
            self._heat[key] += 1

    def on_remove(self, key: int) -> None:
        super().on_remove(key)
        self._order.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        for key in self._order:  # oldest first
            if key not in pinned:
                return key
        return None


class MruCachePolicy(LruCachePolicy):
    """Most-recently-used: evict the region touched last (good for
    cyclic scans larger than the cache)."""

    name = "mru"

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        for key in reversed(self._order):  # newest first
            if key not in pinned:
                return key
        return None


class FirstInPolicy(CachePolicy):
    """Cache in first-access order; once cached, never replaced."""

    name = "first-in"
    evicts = False

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        return None  # refuse: newcomers bypass the cache instead


class LfuCachePolicy(CachePolicy):
    """Least-frequently-used: evict the region with the fewest touches
    (ties break LRU-then-smallest-offset, so a scan of cold regions
    drains in access order)."""

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._tick = 0
        self._last: dict[int, int] = {}

    def on_insert(self, key: int, size: int) -> None:
        super().on_insert(key, size)
        self._tick += 1
        self._last[key] = self._tick

    def on_access(self, key: int) -> None:
        if key in self._heat:
            self._heat[key] += 1
            self._tick += 1
            self._last[key] = self._tick

    def on_remove(self, key: int) -> None:
        super().on_remove(key)
        self._last.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        best = None
        for key, freq in self._heat.items():
            if key in pinned:
                continue
            rank = (freq, self._last[key], key)
            if best is None or rank < best[0]:
                best = (rank, key)
        return best[1] if best is not None else None


class ClockCachePolicy(CachePolicy):
    """CLOCK (second chance): a circular sweep over the regions; an
    accessed region's reference bit buys it one more lap before it can
    be evicted.  Approximates LRU at O(1) per access."""

    name = "clock"

    def __init__(self) -> None:
        super().__init__()
        #: insertion-ordered ring of (key -> reference bit); re-inserting
        #: a held key keeps its place on the ring
        self._ref: OrderedDict[int, bool] = OrderedDict()

    def on_insert(self, key: int, size: int) -> None:
        super().on_insert(key, size)
        self._ref[key] = False

    def on_access(self, key: int) -> None:
        if key in self._ref:
            self._ref[key] = True
            self._heat[key] += 1

    def on_remove(self, key: int) -> None:
        super().on_remove(key)
        self._ref.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        eligible = [k for k in self._ref if k not in pinned]
        if not eligible:
            return None
        # Sweep the hand: clear reference bits until an unreferenced,
        # unpinned region comes up.  Two laps suffice — after one lap
        # every eligible bit is clear (the second-chance invariant).
        for _ in range(2 * len(self._ref)):
            key, ref = next(iter(self._ref.items()))
            self._ref.move_to_end(key)  # advance the hand
            if key in pinned:
                continue
            if ref:
                self._ref[key] = False  # second chance spent
                continue
            return key
        return eligible[0]  # pragma: no cover - defensive


class CostAwareCachePolicy(CachePolicy):
    """GreedyDual-Size-Frequency: evict the region with the lowest
    ``clock + frequency * refetch_cost / size``.

    ``refetch_cost`` models what a miss costs: a disk refetch pays a
    positioning charge (:data:`SEEK_COST_BYTES`) plus the bytes.  The
    aging ``clock`` rises to each evicted victim's priority, so regions
    that stop being touched eventually drain no matter how hot they
    once were.  Ties break toward the smallest pool offset.
    """

    name = "cost-aware"

    def __init__(self) -> None:
        super().__init__()
        self._prio: dict[int, float] = {}
        self._clock = 0.0

    def _priority(self, key: int) -> float:
        size = max(1, self._sizes.get(key, 1))
        cost = SEEK_COST_BYTES + size
        return self._clock + (1 + self._heat.get(key, 0)) * cost / size

    def on_insert(self, key: int, size: int) -> None:
        super().on_insert(key, size)
        self._prio[key] = self._priority(key)

    def on_access(self, key: int) -> None:
        if key in self._heat:
            self._heat[key] += 1
            self._prio[key] = self._priority(key)

    def on_remove(self, key: int) -> None:
        super().on_remove(key)
        self._prio.pop(key, None)

    def victim(self, pinned: Optional[set] = None) -> Optional[int]:
        pinned = pinned or ()
        best = None
        for key, prio in self._prio.items():
            if key in pinned:
                continue
            rank = (prio, key)
            if best is None or rank < best[0]:
                best = (rank, key)
        if best is None:
            return None
        self._clock = max(self._clock, best[0][0])  # age the cache
        return best[1]


#: every replacement policy, by config name
POLICIES: dict[str, type[CachePolicy]] = {
    "lru": LruCachePolicy,
    "mru": MruCachePolicy,
    "first-in": FirstInPolicy,
    "lfu": LfuCachePolicy,
    "clock": ClockCachePolicy,
    "cost-aware": CostAwareCachePolicy,
}


def make_policy(name: str) -> CachePolicy:
    """Instantiate a registered policy; ``ValueError`` for unknown names
    (listing the accepted ones, so the CLI error is self-explanatory)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{sorted(POLICIES)}") from None
    return cls()
