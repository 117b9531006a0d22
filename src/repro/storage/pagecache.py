"""OS page-cache model: LRU pages with dirty tracking, kept as runs.

This is the Linux buffer/page cache that the *baseline* (no-Dodo) runs
live or die by: it is what makes sequential re-reads cheap and what a
1 GB dataset thrashes straight through on a 128 MB machine.  The
:class:`~repro.storage.filesystem.FileSystem` drives it; this class is
pure bookkeeping (which pages are resident/dirty, what gets evicted) and
never touches the simulated clock itself.

**Semantics.**  The cache behaves exactly like one LRU list of 4 KB
pages.  Touching a resident page moves it to the MRU end.  Inserting a
resident page ORs in the dirty bit and moves it there too; inserting a
missing page appends it, then evicts from the LRU head until the page
count fits the capacity, after *each* page.  Dirty evicted pages are
returned for write-back in eviction order.

**Representation.**  A *run* is a stretch of consecutive pages of one
inode that are also consecutive in LRU order and share one dirty bit.
Runs sit on a doubly linked LRU list (pages inside a run are in LRU
order by page number), and no run crosses an aligned block of
:data:`BLOCK_PAGES` pages.  Each ``(inode, block)`` indexes its runs in a
short list sorted by first page, so finding, splitting or removing a run
costs a scan of at most one block's runs, however many runs the cache
holds.  Without the block bound, one inode's run list grows with the
cache: a cache full of two-page runs left by random reads would shift a
list of thousands of entries on every insertion and eviction.

**Why batches are exact.**  ``touch_range`` and ``insert_range`` walk
the range in page order, one stretch at a time, each stretch lying in
one run or in one gap between runs of one block:

* A resident stretch moves to the MRU end in page order, which is where
  touching (or re-inserting) its pages one by one would leave them.  No
  page count changes, so nothing is evicted.
* A missing stretch of ``k`` pages is appended, then the LRU head is
  trimmed until the count fits.  Page-by-page insertion evicts at most
  one page per inserted page (the count fit before), always from the
  head of the list the inserted pages were appended to, so after ``k``
  pages it has evicted exactly the prefix of (old LRU list + inserted
  pages) that one trim removes, in the same order.
* Each next stretch is looked up after the previous one's trim, so a
  page of the range that the trim evicted counts as missing when its
  turn comes, as it would page by page.

Return values, write-back order, LRU order and dirty bits are therefore
those of the page-by-page loop.  Every counter is added once per call,
in the order that loop would first increment it, and never with zero.
``Recorder.counter_names()`` lists keys in first-increment order and the
metrics snapshot exports them in it, so a fresh cache's snapshot is the
same as page by page.

A dirty-bit change (:meth:`PageCache.mark_dirty`, or :meth:`clean` as
``FileSystem._fsync`` calls it page by page) splits at most one run into
three in place and re-merges neighbours that continue it, so an fsync
leaves a file in as few runs as it found it, not in one-page runs.
"""

from __future__ import annotations

from itertools import repeat

from repro.metrics.recorder import Recorder

PageKey = tuple[int, int]  # (inode, page_number)

#: pages per index block; no run crosses an aligned block
BLOCK_PAGES = 64


class _Run:
    """Pages ``first..last-1`` of ``inode``, consecutive in LRU order."""

    __slots__ = ("inode", "first", "last", "dirty", "prev", "next")

    def __init__(self, inode, first, last, dirty, prev, next):
        self.inode = inode
        self.first = first
        self.last = last
        self.dirty = dirty
        self.prev = prev
        self.next = next


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
        # the LRU list's sentinel: head.next is the LRU run, head.prev
        # the MRU run; its None fields never match a run's
        self._head = head = _Run(None, None, None, None, None, None)
        head.prev = head.next = head
        #: inode -> block -> that block's runs, sorted by first page
        self._index: dict[int, dict[int, list[_Run]]] = {}
        self._count = 0  # resident pages
        self.stats = Recorder(name)

    def __len__(self) -> int:
        return self._count

    @property
    def resident_bytes(self) -> int:
        return self._count * self.page_size

    def __contains__(self, key: PageKey) -> bool:
        return self._run_at(*key) is not None

    def entries(self) -> list[tuple[PageKey, bool]]:
        """The resident ``((inode, page), dirty)`` pairs, LRU first."""
        return [((run.inode, pg), run.dirty) for run in self._runs()
                for pg in range(run.first, run.last)]

    # -- access ------------------------------------------------------------------
    def touch(self, key: PageKey) -> bool:
        """Reference a page; True on hit (moves it to MRU position)."""
        inode, pg = key
        return not self.touch_range(inode, pg, pg + 1)

    def touch_range(self, inode: int, first: int, last: int) -> list[int]:
        """Reference pages ``first..last-1`` of ``inode`` in order; returns
        the missing page numbers.

        Equivalent to :meth:`touch` on each page, but each counter is
        added once per call (in the order the page-by-page loop would
        first increment it), and never with zero.
        """
        blocks = self._index.get(inode)
        missing: list[int] = []
        hits = 0
        pg = first
        while pg < last:
            block = pg // BLOCK_PAGES
            end = (block + 1) * BLOCK_PAGES
            if end > last:
                end = last
            run = None
            if blocks:
                for run in blocks.get(block, ()):
                    if run.last > pg:
                        break
                else:
                    run = None
            if run is None or run.first >= end:
                missing += range(pg, end)
                pg = end
                continue
            if run.first > pg:
                missing += range(pg, run.first)
                pg = run.first
            e = run.last if run.last < end else end
            hits += e - pg
            self._move(run, pg, e, run.dirty, blocks[block])
            pg = e
        add = self.stats.add
        if missing and missing[0] == first:
            add("misses", len(missing))
            if hits:
                add("hits", hits)
        else:
            if hits:
                add("hits", hits)
            if missing:
                add("misses", len(missing))
        return missing

    def insert(self, key: PageKey, dirty: bool = False) -> list[PageKey]:
        """Make a page resident; returns evicted *dirty* pages needing
        write-back (clean evictions are simply dropped).  A resident
        page keeps its dirty bit until an explicit :meth:`clean`."""
        inode, pg = key
        return self.insert_range(inode, pg, pg + 1, dirty)

    def insert_range(self, inode: int, first: int, last: int,
                     dirty: bool = False) -> list[PageKey]:
        """Insert pages ``first..last-1`` of ``inode`` in order; one
        combined write-back list.

        Exactly equivalent to calling :meth:`insert` on each page in
        sequence (same final LRU order, same evictions in the same
        order, evicting after each insertion), concatenating the
        write-back lists.  Each counter is added once per call, in
        first-increment order, and never with zero.
        """
        writeback: list[PageKey] = []
        if first >= last:
            return writeback
        blocks = self._index.get(inode)
        if blocks is None:
            blocks = self._index[inode] = {}
        head = self._head
        inserted = evicted = 0
        pg = first
        while pg < last:
            block = pg // BLOCK_PAGES
            end = (block + 1) * BLOCK_PAGES
            if end > last:
                end = last
            runs = blocks.get(block)
            if runs is None:
                runs = blocks[block] = []
            i = 0
            for run in runs:
                if run.last > pg:
                    break
                i += 1
            else:
                run = None
            if run is not None and run.first <= pg:
                e = run.last if run.last < end else end
                self._move(run, pg, e, run.dirty or dirty, runs)
                pg = e
                continue
            # pages pg..e-1 are missing: append them at the MRU end
            e = run.first if run is not None and run.first < end else end
            self._count += e - pg
            inserted += e - pg
            tail = head.prev
            if tail.last == pg and tail.inode == inode \
                    and tail.dirty == dirty and pg % BLOCK_PAGES:
                tail.last = e
            else:
                tail.next = head.prev = run = _Run(
                    inode, pg, e, dirty, tail, head)
                runs.insert(i, run)
            if self._count > self.capacity_pages:
                evicted += self._trim(writeback)
            pg = e
        add = self.stats.add
        if inserted:
            add("insertions", inserted)
        if evicted:
            add("evictions", evicted)
        if writeback:
            add("evictions.dirty", len(writeback))
        return writeback

    def mark_dirty(self, key: PageKey) -> None:
        if not self._set_dirty(key, True):
            raise KeyError(f"page {key} not resident")

    def clean(self, key: PageKey) -> None:
        """Clear the dirty bit as the page's write-back starts."""
        self._set_dirty(key, False)

    def dirty_pages(self, inode: int | None = None) -> list[PageKey]:
        """All dirty pages in LRU order, optionally restricted to one
        file."""
        return [(run.inode, pg) for run in self._runs()
                if run.dirty and (inode is None or run.inode == inode)
                for pg in range(run.first, run.last)]

    def drop(self, inode: int) -> int:
        """Discard all pages of a file (e.g. on delete); returns count.

        Dirty pages are discarded too — matching Unix semantics where
        deleting an unsynced file loses buffered data.
        """
        dropped = 0
        for runs in self._index.pop(inode, {}).values():
            for run in runs:
                run.prev.next = run.next
                run.next.prev = run.prev
                dropped += run.last - run.first
        self._count -= dropped
        return dropped

    def resize(self, capacity_bytes: int) -> list[PageKey]:
        """Shrink/grow the budget; returns dirty pages evicted by a shrink."""
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        self.capacity_pages = capacity_bytes // self.page_size
        writeback: list[PageKey] = []
        evicted = self._trim(writeback)
        if evicted:
            self.stats.add("evictions", evicted)
        if writeback:
            self.stats.add("evictions.dirty", len(writeback))
        return writeback

    def hit_ratio(self) -> float:
        hits = self.stats.count("hits")
        total = hits + self.stats.count("misses")
        return hits / total if total else 0.0

    def summary(self) -> dict:
        """One-shot counters for metrics snapshots and trace tooling."""
        return {
            "resident_pages": self._count,
            "resident_bytes": self.resident_bytes,
            "capacity_pages": self.capacity_pages,
            "hits": self.stats.count("hits"),
            "misses": self.stats.count("misses"),
            "insertions": self.stats.count("insertions"),
            "evictions": self.stats.count("evictions"),
            "dirty_evictions": self.stats.count("evictions.dirty"),
            "hit_ratio": self.hit_ratio(),
        }

    # -- runs --------------------------------------------------------------------
    def _runs(self):
        """The resident runs, LRU first."""
        head = self._head
        run = head.next
        while run is not head:
            yield run
            run = run.next

    def _run_at(self, inode: int, pg: int):
        """The run holding page ``pg`` of ``inode``, or None."""
        blocks = self._index.get(inode)
        if blocks:
            for run in blocks.get(pg // BLOCK_PAGES, ()):
                if pg < run.last:
                    return run if run.first <= pg else None
        return None

    def _move(self, run: _Run, a: int, e: int, dirty: bool,
              runs: list[_Run]) -> None:
        """Move pages ``a..e-1`` of ``run`` (one of its block's ``runs``)
        to the MRU end with dirty bit ``dirty``; what is left of ``run``
        stays in place."""
        if a > run.first or e < run.last:
            self._isolate(run, a, e, runs)
        run.dirty = dirty
        head = self._head
        tail = head.prev
        if run is not tail:
            run.prev.next = run.next
            run.next.prev = run.prev
            run.prev = tail
            run.next = head
            tail.next = head.prev = run
        self._merge_prev(run, runs)

    def _isolate(self, run: _Run, a: int, e: int, runs: list[_Run]) -> None:
        """Shrink ``run`` to pages ``a..e-1``; the pages before and after
        become runs of their own in its place, in LRU and block order."""
        i = runs.index(run)
        if a > run.first:
            left = _Run(run.inode, run.first, a, run.dirty, run.prev, run)
            run.prev.next = left
            run.prev = left
            runs.insert(i, left)
            i += 1
            run.first = a
        if e < run.last:
            right = _Run(run.inode, e, run.last, run.dirty, run, run.next)
            run.next.prev = right
            run.next = right
            runs.insert(i + 1, right)
            run.last = e

    def _merge_prev(self, run: _Run, runs: list[_Run]) -> _Run:
        """Fold ``run`` into its LRU predecessor if that continues it in
        its block with the same dirty bit; returns the run that holds
        ``run``'s pages."""
        prev = run.prev
        if prev.last == run.first and prev.inode == run.inode \
                and prev.dirty == run.dirty and run.first % BLOCK_PAGES:
            prev.last = run.last
            prev.next = run.next
            run.next.prev = prev
            runs.remove(run)
            return prev
        return run

    def _trim(self, writeback: list[PageKey]) -> int:
        """Evict from the LRU head until the count fits the capacity,
        appending dirty evicted pages to ``writeback``; returns the
        number of pages evicted."""
        excess = self._count - self.capacity_pages
        if excess <= 0:
            return 0
        self._count -= excess
        head = self._head
        left = excess
        while left:
            run = head.next
            first = run.first
            n = run.last - first
            if n > left:
                if run.dirty:
                    writeback.extend(zip(repeat(run.inode),
                                         range(first, first + left)))
                run.first = first + left
                break
            if run.dirty:
                writeback.extend(zip(repeat(run.inode),
                                     range(first, run.last)))
            head.next = run.next
            run.next.prev = head
            blocks = self._index[run.inode]
            runs = blocks[first // BLOCK_PAGES]
            if len(runs) == 1:
                del blocks[first // BLOCK_PAGES]
            else:
                runs.remove(run)
            left -= n
        return excess

    def _set_dirty(self, key: PageKey, dirty: bool) -> bool:
        """Give resident page ``key`` dirty bit ``dirty`` in place;
        False if it is not resident."""
        inode, pg = key
        run = self._run_at(inode, pg)
        if run is None:
            return False
        if run.dirty != dirty:
            runs = self._index[inode][pg // BLOCK_PAGES]
            self._isolate(run, pg, pg + 1, runs)
            run.dirty = dirty
            run = self._merge_prev(run, runs)
            self._merge_prev(run.next, runs)
        return True
