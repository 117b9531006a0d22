"""Memory-pool allocators for the idle memory daemon (Section 4.2).

The imd allocates one big pool at startup and serves arbitrary-sized
region allocations out of it.  The paper uses **first-fit with a periodic
coalescing pass** and notes that a **buddy** scheme is the fallback plan
if fragmentation ever becomes a problem; both are implemented here (the
ablation benchmark compares them), behind one interface.

Offsets are plain ints into the pool; the daemon maps them to its storage.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.metrics.recorder import Recorder


class PoolAllocator:
    """Interface shared by both allocation schemes."""

    __slots__ = ("pool_size", "stats")

    def __init__(self, pool_size: int, name: str = "alloc"):
        if pool_size <= 0:
            raise ValueError(f"pool size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stats = Recorder(name)

    def alloc(self, size: int) -> Optional[int]:
        raise NotImplementedError

    def free(self, offset: int) -> int:
        raise NotImplementedError

    def coalesce(self) -> None:
        """Defragmentation pass; a no-op for schemes that merge eagerly."""

    @property
    def used_bytes(self) -> int:
        raise NotImplementedError

    @property
    def free_bytes(self) -> int:
        return self.pool_size - self.used_bytes

    def largest_free(self) -> int:
        raise NotImplementedError

    def fragmentation(self) -> float:
        """1 - largest_free/free_bytes: 0 when free space is one block."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free() / free

    def allocated_size(self, offset: int) -> Optional[int]:
        """Size of the live allocation starting at ``offset``, or None."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Self-audit: return a list of internal-consistency problems
        (empty when the allocator's books balance).  Used by the
        invariant auditor (:mod:`repro.obs.audit`)."""
        raise NotImplementedError


class FirstFitAllocator(PoolAllocator):
    """First fit over an address-ordered free list, lazy coalescing.

    ``free()`` returns blocks to the list without merging; the periodic
    :meth:`coalesce` pass merges adjacent blocks, exactly as described in
    Section 4.2.
    """

    __slots__ = ("_free", "_allocated")

    def __init__(self, pool_size: int, name: str = "firstfit"):
        super().__init__(pool_size, name)
        self._free: list[tuple[int, int]] = [(0, pool_size)]  # (offset, size)
        self._allocated: dict[int, int] = {}

    def alloc(self, size: int) -> Optional[int]:
        if size <= 0:
            raise ValueError(f"allocation of {size} bytes")
        for i, (off, blk) in enumerate(self._free):
            if blk >= size:
                if blk == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (off + size, blk - size)
                self._allocated[off] = size
                self.stats.add("allocs")
                return off
        self.stats.add("alloc_failures")
        return None

    def free(self, offset: int) -> int:
        size = self._allocated.pop(offset, None)
        if size is None:
            raise KeyError(f"free of unallocated offset {offset}")
        insort(self._free, (offset, size))
        self.stats.add("frees")
        return size

    def coalesce(self) -> None:
        if len(self._free) < 2:
            return
        merged = [self._free[0]]
        for off, size in self._free[1:]:
            last_off, last_size = merged[-1]
            if last_off + last_size == off:
                merged[-1] = (last_off, last_size + size)
            else:
                merged.append((off, size))
        if len(merged) != len(self._free):
            self.stats.add("coalesce_merges", len(self._free) - len(merged))
        self._free = merged

    @property
    def used_bytes(self) -> int:
        return sum(self._allocated.values())

    def largest_free(self) -> int:
        return max((s for _, s in self._free), default=0)

    def allocated_size(self, offset: int) -> Optional[int]:
        return self._allocated.get(offset)

    def check(self) -> list[str]:
        problems = []
        spans = sorted([(o, s, "free") for o, s in self._free]
                       + [(o, s, "used") for o, s in self._allocated.items()])
        if list(self._free) != sorted(self._free):
            problems.append("free list is not address-ordered")
        cursor = 0
        for off, size, state in spans:
            if size <= 0:
                problems.append(f"{state} block at {off} has size {size}")
            if off < cursor:
                problems.append(f"{state} block at {off} overlaps the "
                                f"previous block ending at {cursor}")
            cursor = max(cursor, off + size)
        if cursor > self.pool_size:
            problems.append(f"blocks extend to {cursor}, past the "
                            f"{self.pool_size}-byte pool")
        total = sum(s for _, s, _ in spans)
        if total != self.pool_size:
            problems.append(f"free + allocated bytes sum to {total}, "
                            f"expected the full {self.pool_size}-byte pool")
        return problems


class BuddyAllocator(PoolAllocator):
    """Binary buddy allocator (the paper's Section 4.2 fallback plan).

    Sizes round up to powers of two (internal fragmentation) in exchange
    for eager, cheap merging (no external fragmentation growth).
    """

    MIN_BLOCK = 4096

    __slots__ = ("_free_by_order", "_max_order", "_min_order", "_allocated")

    def __init__(self, pool_size: int, name: str = "buddy"):
        super().__init__(pool_size, name)
        if pool_size & (pool_size - 1):
            raise ValueError(f"buddy pool size must be a power of two, "
                             f"got {pool_size}")
        self._free_by_order: dict[int, set[int]] = {}
        self._max_order = pool_size.bit_length() - 1
        self._min_order = self.MIN_BLOCK.bit_length() - 1
        self._free_by_order[self._max_order] = {0}
        self._allocated: dict[int, int] = {}  # offset -> order

    def _order_for(self, size: int) -> int:
        order = max(self._min_order, (size - 1).bit_length())
        return order

    def alloc(self, size: int) -> Optional[int]:
        if size <= 0:
            raise ValueError(f"allocation of {size} bytes")
        if size > self.pool_size:
            self.stats.add("alloc_failures")
            return None
        want = self._order_for(size)
        order = want
        while order <= self._max_order and not self._free_by_order.get(order):
            order += 1
        if order > self._max_order:
            self.stats.add("alloc_failures")
            return None
        off = self._free_by_order[order].pop()
        while order > want:  # split down
            order -= 1
            buddy = off + (1 << order)
            self._free_by_order.setdefault(order, set()).add(buddy)
        self._allocated[off] = want
        self.stats.add("allocs")
        return off

    def free(self, offset: int) -> int:
        order = self._allocated.pop(offset, None)
        if order is None:
            raise KeyError(f"free of unallocated offset {offset}")
        size = 1 << order
        while order < self._max_order:
            buddy = offset ^ (1 << order)
            peers = self._free_by_order.get(order)
            if peers and buddy in peers:
                peers.remove(buddy)
                offset = min(offset, buddy)
                order += 1
            else:
                break
        self._free_by_order.setdefault(order, set()).add(offset)
        self.stats.add("frees")
        return size

    @property
    def used_bytes(self) -> int:
        return sum(1 << o for o in self._allocated.values())

    def largest_free(self) -> int:
        orders = [o for o, s in self._free_by_order.items() if s]
        return (1 << max(orders)) if orders else 0

    def allocated_size(self, offset: int) -> Optional[int]:
        order = self._allocated.get(offset)
        return None if order is None else (1 << order)

    def check(self) -> list[str]:
        problems = []
        spans = []
        for order, offsets in self._free_by_order.items():
            for off in offsets:
                spans.append((off, 1 << order, "free"))
                if off % (1 << order):
                    problems.append(f"free block at {off} is not aligned "
                                    f"to its order-{order} size")
        for off, order in self._allocated.items():
            spans.append((off, 1 << order, "used"))
            if off % (1 << order):
                problems.append(f"used block at {off} is not aligned "
                                f"to its order-{order} size")
        cursor = 0
        for off, size, state in sorted(spans):
            if off < cursor:
                problems.append(f"{state} block at {off} overlaps the "
                                f"previous block ending at {cursor}")
            cursor = max(cursor, off + size)
        if cursor > self.pool_size:
            problems.append(f"blocks extend to {cursor}, past the "
                            f"{self.pool_size}-byte pool")
        total = sum(s for _, s, _ in spans)
        if total != self.pool_size:
            problems.append(f"free + allocated bytes sum to {total}, "
                            f"expected the full {self.pool_size}-byte pool")
        return problems


def make_allocator(kind: str, pool_size: int) -> PoolAllocator:
    """Factory: ``kind`` is 'first-fit' or 'buddy'."""
    if kind == "first-fit":
        return FirstFitAllocator(pool_size)
    if kind == "buddy":
        # round the pool down to a power of two
        p = 1 << (pool_size.bit_length() - 1)
        return BuddyAllocator(p)
    raise ValueError(f"unknown allocator kind {kind!r}")
