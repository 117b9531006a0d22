"""A Unix-like file system over the disk model and page cache.

Implements what the paper's applications see: ``open``/``pread``/``pwrite``
/``fsync`` with an OS page cache in front of a mechanical disk.  The pieces
that matter for reproducing the evaluation:

* **Sequential readahead** — Linux-style: a read starting where the last
  one ended grows a readahead window (up to 128 KB) that is fetched in one
  disk operation, which is why sequential scans run at media rate and the
  ``sequential`` benchmark shows no Dodo speedup (Section 5.3).
* **File layout** — files are allocated in extents.  ``contiguity=N``
  places extents back to back (a freshly written benchmark file);
  a finite extent size with gaps models aged/fragmented on-disk layout
  (used for the ``dmine`` dataset, see DESIGN.md).
* **Real data (optional)** — with ``store_data=True`` files carry actual
  bytes so Dodo's write-through and read paths can be verified end to end.
* **Inode numbers** — region descriptors in the central manager are keyed
  by ``(inode, offset)`` exactly as in Section 4.3.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from repro.metrics.recorder import Recorder
from repro.sim import Simulator
from repro.storage.disk import Disk
from repro.storage.pagecache import PageCache


class FsError(Exception):
    """File-system level failure (bad fd, bad mode, out of space...)."""


@dataclass(frozen=True)
class FsParams:
    """Tunables of the simulated file system: page size, readahead
    window bounds, and the extent-allocation / disk-aging model."""

    page_size: int = 4096
    #: max readahead window (Linux 2.x: 32 pages = 128 KB)
    readahead_max: int = 128 * 1024
    #: initial window granted on first sequential detection
    readahead_min: int = 16 * 1024
    #: extent size used when allocating file blocks; None = fully contiguous
    extent_bytes: Optional[int] = None
    #: random gap (0..gap) left between consecutive extents, in bytes —
    #: non-zero models mild aging of the disk layout
    extent_gap: int = 0
    #: scatter extents uniformly over the whole disk instead of bump
    #: allocation — models a heavily aged multi-file disk where a large
    #: dataset is interleaved with everything else (used for the dmine
    #: dataset; each extent boundary then costs a long seek)
    scatter: bool = False
    #: memory-copy bandwidth for cache-hit reads/writes, bytes/s
    copy_bandwidth: float = 150e6


@dataclass
class Extent:
    """One contiguous run of file bytes mapped onto the disk."""

    file_off: int
    disk_off: int
    length: int


@dataclass
class File:
    """An on-disk file: inode, name, size, and its extent map."""

    inode: int
    name: str
    size: int = 0
    extents: list[Extent] = field(default_factory=list)
    #: bytes the extents cover, and each extent's ``file_off`` in order
    #: (``FileSystem._disk_runs`` bisects it); ``FileSystem._extend`` is
    #: the only writer of these two fields and of ``extents``
    allocated: int = 0
    extent_starts: list[int] = field(default_factory=list)
    data: Optional[bytearray] = None
    nlink: int = 1
    #: readahead state: expected next sequential offset, current window,
    #: and how far ahead pages have already been brought in
    ra_next: int = -1
    ra_window: int = 0
    ra_until: int = 0


class FileHandle:
    """An open file descriptor (mode 'r' or 'r+')."""

    def __init__(self, fd: int, file: File, mode: str):
        self.fd = fd
        self.file = file
        self.mode = mode
        self.closed = False

    @property
    def writable(self) -> bool:
        return self.mode == "r+"

    @property
    def inode(self) -> int:
        return self.file.inode


class FileSystem:
    """One mounted file system: a disk, a page cache, and a name table."""

    def __init__(self, sim: Simulator, disk: Disk, cache_bytes: int,
                 params: FsParams | None = None, store_data: bool = False,
                 name: str = "fs"):
        self.sim = sim
        self.disk = disk
        self.params = params or FsParams()
        self.cache = PageCache(cache_bytes, self.params.page_size,
                               name=f"{name}.cache")
        self.store_data = store_data
        self._files: dict[str, File] = {}
        self._inodes: dict[int, File] = {}  # the same files, by inode
        self._handles: dict[int, FileHandle] = {}
        self._next_fd = 3
        self._next_inode = 100
        self._next_disk_off = 0
        self._gap_rng = sim.rng(f"{name}.layout")
        self._scatter_slots: set[int] = set()  # extent slots already used
        self.stats = Recorder(name)
        if sim.telemetry.enabled:
            # the cache has no sim reference; its owner registers it
            sim.telemetry.register(sim, "pagecache", f"{name}.cache",
                                   self.cache)

    # -- namespace ----------------------------------------------------------------
    def create(self, name: str, size: int = 0) -> File:
        """Create a file, preallocating ``size`` bytes of extents."""
        if name in self._files:
            raise FsError(f"file exists: {name}")
        f = File(inode=self._next_inode, name=name)
        self._next_inode += 1
        if self.store_data:
            f.data = bytearray()
        self._files[name] = f
        self._inodes[f.inode] = f
        if size:
            self._extend(f, size)
        return f

    def exists(self, name: str) -> bool:
        return name in self._files

    def unlink(self, name: str) -> None:
        f = self._files.pop(name, None)
        if f is None:
            raise FsError(f"no such file: {name}")
        del self._inodes[f.inode]
        self.cache.drop(f.inode)

    def open(self, name: str, mode: str = "r") -> FileHandle:
        if mode not in ("r", "r+"):
            raise FsError(f"bad mode {mode!r} (use 'r' or 'r+')")
        f = self._files.get(name)
        if f is None:
            if mode == "r+":
                f = self.create(name)
            else:
                raise FsError(f"no such file: {name}")
        fh = FileHandle(self._next_fd, f, mode)
        self._next_fd += 1
        self._handles[fh.fd] = fh
        return fh

    def handle(self, fd: int) -> Optional[FileHandle]:
        """Look up an open descriptor (None if closed/never opened)."""
        return self._handles.get(fd)

    def close(self, fh: FileHandle) -> None:
        if fh.closed:
            return
        fh.closed = True
        self._handles.pop(fh.fd, None)

    # -- layout --------------------------------------------------------------------
    def _extend(self, f: File, new_size: int) -> None:
        """Allocate extents so the file covers ``new_size`` bytes."""
        p = self.params
        disk_cap = self.disk.params.capacity_bytes
        while f.allocated < new_size:
            want = new_size - f.allocated
            if p.extent_bytes is not None:
                want = min(want, p.extent_bytes)
            if p.scatter:
                if p.extent_bytes is None:
                    raise FsError("scatter layout requires extent_bytes")
                slot = self._pick_scatter_slot(disk_cap // p.extent_bytes)
                start = slot * p.extent_bytes
            else:
                if p.extent_gap:
                    self._next_disk_off += int(self._gap_rng.integers(
                        0, p.extent_gap + 1))
                start = self._next_disk_off
                self._next_disk_off += want
            if start + want > disk_cap:
                raise FsError("out of disk space")
            f.extents.append(Extent(f.allocated, start, want))
            f.extent_starts.append(f.allocated)
            f.allocated += want
        f.size = max(f.size, new_size)
        if f.data is not None and len(f.data) < new_size:
            f.data.extend(b"\x00" * (new_size - len(f.data)))

    def _pick_scatter_slot(self, nslots: int) -> int:
        if len(self._scatter_slots) >= nslots:
            raise FsError("out of disk space")
        while True:
            slot = int(self._gap_rng.integers(0, nslots))
            if slot not in self._scatter_slots:
                self._scatter_slots.add(slot)
                return slot

    def _disk_runs(self, f: File, offset: int, n: int) -> list[tuple[int, int]]:
        """Map a byte range of the file to (disk_off, length) runs."""
        runs = []
        end = offset + n
        # extents tile the file back to back: start at the one holding
        # ``offset`` and stop at the first past the range
        first = max(bisect_right(f.extent_starts, offset) - 1, 0)
        for e in islice(f.extents, first, None):
            if e.file_off >= end:
                break
            e_end = e.file_off + e.length
            if e_end <= offset:
                continue
            lo = max(offset, e.file_off)
            hi = min(end, e_end)
            runs.append((e.disk_off + (lo - e.file_off), hi - lo))
        return runs

    # -- data path ----------------------------------------------------------------
    def read(self, fh: FileHandle, offset: int, n: int):
        """Process: pread.  Value is ``(nbytes, data_or_None)``; short reads
        at EOF return as many bytes as exist, 0 at/after EOF."""
        return self.sim.process(self._read(fh, offset, n))

    def write(self, fh: FileHandle, offset: int, n: int,
              data: Optional[bytes] = None):
        """Process: pwrite (write-back through the page cache).  Value is
        the byte count written.  Extends the file as needed."""
        return self.sim.process(self._write(fh, offset, n, data))

    def fsync(self, fh: FileHandle):
        """Process: flush all of this file's dirty pages to disk."""
        return self.sim.process(self._fsync(fh))

    def _read(self, fh: FileHandle, offset: int, n: int):
        self._check_open(fh)
        if offset < 0 or n < 0:
            raise FsError(f"bad read range offset={offset} n={n}")
        f = fh.file
        n = max(0, min(n, f.size - offset))
        if n == 0:
            return 0, (b"" if f.data is not None else None)
        p = self.params
        ps = p.page_size

        # Readahead window update (sequential detection).  Readahead is
        # *batched*, as in Linux: the window is refilled in one disk
        # operation each time the reader catches up with it, so sequential
        # scans pay one positioning + one request overhead per window, not
        # per read — that is what makes them run at media rate.
        if offset == f.ra_next:
            f.ra_window = min(max(f.ra_window * 2, p.readahead_min),
                              p.readahead_max)
        else:
            f.ra_window = 0
            f.ra_until = 0
        f.ra_next = offset + n

        fetch_end = offset + n
        if f.ra_window and offset + n >= f.ra_until:
            fetch_end = offset + n + f.ra_window
            f.ra_until = min(fetch_end, f.size)
        fetch_end = min(f.size, fetch_end)
        first_page = offset // ps
        last_page = math.ceil(fetch_end / ps)  # exclusive

        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "fs.read", "fs",
                            {"inode": f.inode, "bytes": n}) \
            if tracer.enabled else None
        try:
            # Collect missing pages; fetch contiguous runs in single I/Os.
            missing = self.cache.touch_range(f.inode, first_page, last_page)
            if span is not None:
                span.tag("pages", last_page - first_page)
                span.tag("misses", len(missing))
            if missing:
                yield from self._fetch_pages(f, missing)
            self.stats.add("read.ops")
            self.stats.add("read.bytes", n)
            copy = tracer.begin(self.sim, "pagecache.copy", "pagecache",
                                {"bytes": n, "hit": not missing}) \
                if tracer.enabled else None
            yield self.sim.timeout(n / p.copy_bandwidth)
            tracer.end(self.sim, copy)
        finally:
            tracer.end(self.sim, span)
        data = bytes(f.data[offset:offset + n]) if f.data is not None else None
        return n, data

    def _fetch_pages(self, f: File, pages: list[int]):
        """Read the listed (sorted, distinct) pages from disk and insert
        them."""
        ps = self.params.page_size
        writeback: list = []
        n = len(pages)
        i = 0
        while i < n:
            # sorted and distinct, so pages[i:] is one run iff it spans
            # exactly n - i page numbers; else walk to this run's end
            j = n - 1
            if pages[j] - pages[i] != j - i:
                j = i
                while pages[j + 1] == pages[j] + 1:
                    j += 1
            start = pages[i] * ps
            length = min((pages[j] + 1) * ps, f.allocated) - start
            if length > 0:
                runs = self._disk_runs(f, start, length)
                if runs:
                    # One batch per contiguous page run: an uncontended
                    # fetch costs one event per extent instead of a
                    # process per extent, with identical timing.
                    yield self.disk.read_batch(runs)
            writeback += self.cache.insert_range(f.inode, pages[i],
                                                 pages[j] + 1)
            i = j + 1
        if writeback:
            yield from self._writeback(writeback)

    def _write(self, fh: FileHandle, offset: int, n: int,
               data: Optional[bytes]):
        self._check_open(fh)
        if not fh.writable:
            raise FsError(f"fd {fh.fd} not open for writing")
        if offset < 0 or n < 0:
            raise FsError(f"bad write range offset={offset} n={n}")
        if data is not None and len(data) != n:
            raise FsError(f"write n={n} but len(data)={len(data)}")
        if n == 0:
            return 0
        f = fh.file
        ps = self.params.page_size
        if offset + n > f.allocated:
            self._extend(f, offset + n)
        f.size = max(f.size, offset + n)

        first_page = offset // ps
        last_page = math.ceil((offset + n) / ps)
        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "fs.write", "fs",
                            {"inode": f.inode, "bytes": n}) \
            if tracer.enabled else None
        try:
            # Partially-covered edge pages need read-modify-write if absent.
            rmw = []
            for pg in (first_page, last_page - 1):
                pg_start, pg_end = pg * ps, (pg + 1) * ps
                partial = offset > pg_start \
                    or (offset + n) < min(pg_end, f.size)
                if partial and (f.inode, pg) not in self.cache:
                    rmw.append(pg)
            if rmw:
                yield from self._fetch_pages(f, sorted(set(rmw)))

            writeback = self.cache.insert_range(f.inode, first_page,
                                                last_page, dirty=True)
            if span is not None:
                span.tag("rmw", len(rmw))
                span.tag("writeback", len(writeback))
            if writeback:
                yield from self._writeback(writeback)
            if f.data is not None and data is not None:
                f.data[offset:offset + n] = data
            self.stats.add("write.ops")
            self.stats.add("write.bytes", n)
            copy = tracer.begin(self.sim, "pagecache.copy", "pagecache",
                                {"bytes": n, "hit": not rmw}) \
                if tracer.enabled else None
            yield self.sim.timeout(n / self.params.copy_bandwidth)
            tracer.end(self.sim, copy)
        finally:
            tracer.end(self.sim, span)
        return n

    def _writeback(self, keys: list) -> object:
        """Write evicted dirty pages back to disk, coalescing runs."""
        by_inode: dict[int, list[int]] = {}
        for inode, pg in keys:
            by_inode.setdefault(inode, []).append(pg)
        for inode, pages in by_inode.items():
            f = self._inodes.get(inode)
            if f is None:
                continue  # file deleted while pages were in cache
            pages.sort()
            ps = self.params.page_size
            i = 0
            while i < len(pages):
                j = i
                while j + 1 < len(pages) and pages[j + 1] == pages[j] + 1:
                    j += 1
                start = pages[i] * ps
                length = min((pages[j] + 1) * ps, f.allocated) - start
                if length > 0:
                    runs = self._disk_runs(f, start, length)
                    if runs:
                        yield self.disk.write_batch(runs)
                    self.stats.add("writeback.bytes", length)
                i = j + 1

    def _fsync(self, fh: FileHandle):
        self._check_open(fh)
        f = fh.file
        dirty = self.cache.dirty_pages(f.inode)
        # Clean before the write-back yields to the disk, as Linux clears
        # a page's dirty bit when its write-back starts: a write that
        # lands meanwhile dirties the page again for a later write-back.
        for key in dirty:
            self.cache.clean(key)
        yield from self._writeback(dirty)
        self.stats.add("fsyncs")
        return None

    def _check_open(self, fh: FileHandle) -> None:
        if fh.closed or self._handles.get(fh.fd) is not fh:
            raise FsError(f"fd {getattr(fh, 'fd', '?')} is not open")
