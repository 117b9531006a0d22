"""OS page-cache model: LRU pages with dirty tracking.

This is the Linux buffer/page cache that the *baseline* (no-Dodo) runs
live or die by: it is what makes sequential re-reads cheap and what a
1 GB dataset thrashes straight through on a 128 MB machine.  The
:class:`~repro.storage.filesystem.FileSystem` drives it; this class is
pure bookkeeping (which pages are resident/dirty, what gets evicted) and
never touches the simulated clock itself.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.metrics.recorder import Recorder

PageKey = tuple[int, int]  # (inode, page_number)


class PageCache:
    """A byte-budgeted LRU of fixed-size pages."""

    def __init__(self, capacity_bytes: int, page_size: int = 4096,
                 name: str = "pagecache"):
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        self.page_size = page_size
        self.capacity_pages = capacity_bytes // page_size
        self._pages: OrderedDict[PageKey, bool] = OrderedDict()  # key -> dirty
        self.stats = Recorder(name)

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        return len(self._pages) * self.page_size

    def __contains__(self, key: PageKey) -> bool:
        return key in self._pages

    # -- access ------------------------------------------------------------------
    def touch(self, key: PageKey) -> bool:
        """Reference a page; True on hit (moves it to MRU position)."""
        if key in self._pages:
            self._pages.move_to_end(key)
            self.stats.add("hits")
            return True
        self.stats.add("misses")
        return False

    def touch_range(self, inode: int, first: int, last: int) -> list[int]:
        """Reference pages ``first..last-1`` of ``inode`` in order; returns
        the missing page numbers.

        Equivalent to :meth:`touch` on each page, but each counter is
        added once per call (in the order the page-by-page loop would
        first increment it), and never with zero.
        """
        pages = self._pages
        move_to_end = pages.move_to_end
        missing = []
        for pg in range(first, last):
            key = (inode, pg)
            if key in pages:
                move_to_end(key)
            else:
                missing.append(pg)
        misses = len(missing)
        hits = len(range(first, last)) - misses
        add = self.stats.add
        if misses and missing[0] == first:
            add("misses", misses)
            if hits:
                add("hits", hits)
        else:
            if hits:
                add("hits", hits)
            if misses:
                add("misses", misses)
        return missing

    def insert(self, key: PageKey, dirty: bool = False) -> list[PageKey]:
        """Make a page resident; returns evicted *dirty* pages needing
        write-back (clean evictions are simply dropped)."""
        if key in self._pages:
            # keep the dirty bit sticky until an explicit clean()
            self._pages[key] = self._pages[key] or dirty
            self._pages.move_to_end(key)
            return []
        self._pages[key] = dirty
        self.stats.add("insertions")
        writeback = []
        while len(self._pages) > self.capacity_pages:
            old_key, old_dirty = self._pages.popitem(last=False)
            self.stats.add("evictions")
            if old_dirty:
                self.stats.add("evictions.dirty")
                writeback.append(old_key)
        return writeback

    def insert_many(self, keys, dirty: bool = False) -> list[PageKey]:
        """Insert several pages in order; one combined write-back list.

        Exactly equivalent to calling :meth:`insert` on each key in
        sequence (same final LRU order, same evictions in the same
        order, evicting after each insertion), concatenating the
        write-back lists.  Each counter is added once per call, in
        first-increment order, and never with zero.
        """
        pages = self._pages
        capacity = self.capacity_pages
        writeback: list[PageKey] = []
        inserted = evicted = 0
        for key in keys:
            if key in pages:
                pages[key] = pages[key] or dirty
                pages.move_to_end(key)
                continue
            pages[key] = dirty
            inserted += 1
            while len(pages) > capacity:
                old_key, old_dirty = pages.popitem(last=False)
                evicted += 1
                if old_dirty:
                    writeback.append(old_key)
        add = self.stats.add
        if inserted:
            add("insertions", inserted)
        if evicted:
            add("evictions", evicted)
        if writeback:
            add("evictions.dirty", len(writeback))
        return writeback

    def mark_dirty(self, key: PageKey) -> None:
        if key not in self._pages:
            raise KeyError(f"page {key} not resident")
        self._pages[key] = True

    def clean(self, key: PageKey) -> None:
        """Clear the dirty bit after a successful write-back."""
        if key in self._pages:
            self._pages[key] = False

    def dirty_pages(self, inode: int | None = None) -> list[PageKey]:
        """All dirty pages, optionally restricted to one file."""
        return [k for k, d in self._pages.items()
                if d and (inode is None or k[0] == inode)]

    def drop(self, inode: int) -> int:
        """Discard all pages of a file (e.g. on delete); returns count.

        Dirty pages are discarded too — matching Unix semantics where
        deleting an unsynced file loses buffered data.
        """
        doomed = [k for k in self._pages if k[0] == inode]
        for k in doomed:
            del self._pages[k]
        return len(doomed)

    def resize(self, capacity_bytes: int) -> list[PageKey]:
        """Shrink/grow the budget; returns dirty pages evicted by a shrink."""
        self.capacity_pages = capacity_bytes // self.page_size
        writeback = []
        while len(self._pages) > self.capacity_pages:
            old_key, old_dirty = self._pages.popitem(last=False)
            self.stats.add("evictions")
            if old_dirty:
                self.stats.add("evictions.dirty")
                writeback.append(old_key)
        return writeback

    def hit_ratio(self) -> float:
        hits = self.stats.count("hits")
        total = hits + self.stats.count("misses")
        return hits / total if total else 0.0

    def summary(self) -> dict:
        """One-shot counters for metrics snapshots and trace tooling."""
        return {
            "resident_pages": len(self._pages),
            "resident_bytes": self.resident_bytes,
            "capacity_pages": self.capacity_pages,
            "hits": self.stats.count("hits"),
            "misses": self.stats.count("misses"),
            "insertions": self.stats.count("insertions"),
            "evictions": self.stats.count("evictions"),
            "dirty_evictions": self.stats.count("evictions.dirty"),
            "hit_ratio": self.hit_ratio(),
        }
