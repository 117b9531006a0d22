"""``libmanage`` — the region-management library (Sections 3.3 and 4.5).

Layered on top of the runtime library, it frees the programmer from
coordinating data movement: it keeps a *local* cache of regions in the
application's address space and transparently migrates regions between
four states —

1. cached locally, 2. cached remotely, 3. cached both, 4. on disk only —

using a pluggable replacement policy (:mod:`repro.core.policy`; LRU by
default, MRU and first-in as in the paper).  When local space runs out,
the **grimReaper** procedure (paper Figure 5) evicts a victim: dirty data
goes to disk, the region is cloned to remote memory if the cluster has
space (allocation failures trigger the runtime's refraction period), and
the local entry is removed either way.

API mirrors Figure 4: ``copen / cread / cwrite / cclose / csync /
csetPolicy``, all with the C-style ``(value, errno)`` returns of the
runtime layer.  Calls are generator process bodies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.errno import EINVAL, EIO
from repro.core.policy import CachePolicy, make_policy
from repro.core.runtime import DodoRuntime
from repro.metrics.recorder import Recorder
from repro.storage.filesystem import FsError

#: application-memory copy bandwidth for local-cache hits, bytes/s
LOCAL_COPY_BW = 150e6


@dataclass
class CRegion:
    """Directory entry for one managed region."""

    crd: int
    length: int
    backing_fd: int
    backing_offset: int
    #: local copy (bytearray in payload mode, True in metadata mode);
    #: None when not locally cached
    local: object = None
    dirty: bool = False
    #: runtime-library descriptor while remotely cached
    remote_desc: Optional[int] = None
    #: whether we have asked the central manager if a previous run left a
    #: remote copy of this region behind (done once, on first access)
    probed: bool = False
    #: a local load is in flight (prevents concurrent double-loads when
    #: the prefetcher and the application race); waiters block on the
    #: event until the load settles
    loading: bool = False
    load_done: object = None

    @property
    def is_local(self) -> bool:
        return self.local is not None

    @property
    def is_remote(self) -> bool:
        return self.remote_desc is not None

    @property
    def state(self) -> str:
        if self.is_local and self.is_remote:
            return "both"
        if self.is_local:
            return "local"
        if self.is_remote:
            return "remote"
        return "disk"


class RegionCache:
    """One application's managed local region cache."""

    def __init__(self, runtime: DodoRuntime, local_bytes: int,
                 policy: str = "lru", prefetch_regions: int = 0):
        self.runtime = runtime
        self.sim = runtime.sim
        self.ws = runtime.ws
        self.local_bytes = local_bytes
        self.policy: CachePolicy = make_policy(policy)
        #: EXTENSION (not in the paper's implementation; cf. its citation
        #: of Voelker et al.'s cooperative prefetching): on a sequential
        #: region-access pattern, pull the next N regions toward the
        #: application in the background, overlapping their transfer with
        #: the application's compute.  0 disables (the paper's behaviour).
        self.prefetch_regions = prefetch_regions
        self.directory: dict[int, CRegion] = {}
        self._by_backing: dict[tuple[int, int], int] = {}
        self._prev_read_crd: Optional[int] = None
        self._next_crd = 0
        self._local_used = 0
        self.stats = Recorder(f"regionlib.{self.ws.name}")
        if self.sim.telemetry.enabled:
            self.sim.telemetry.register(self.sim, "regionlib", self.ws.name,
                                        self)

    # -- tracing ----------------------------------------------------------------------
    def _span(self, name: str, tags: Optional[dict] = None):
        tracer = self.sim.tracer
        if not tracer.enabled:
            return None
        return tracer.begin(self.sim, name, "regionlib", tags)

    def _end_span(self, span, tags: Optional[dict] = None) -> None:
        self.sim.tracer.end(self.sim, span, tags)

    # -- policy ----------------------------------------------------------------------
    def csetPolicy(self, policy: str) -> int:
        """Switch replacement policy (Figure 4); returns 0 or -1."""
        try:
            new = make_policy(policy)
        except ValueError:
            return -1
        for crd, region in self.directory.items():
            if region.is_local:
                new.on_insert(crd, region.length)
        self.policy = new
        return 0

    @property
    def local_free(self) -> int:
        return self.local_bytes - self._local_used

    def state(self, crd: int) -> Optional[str]:
        region = self.directory.get(crd)
        return region.state if region else None

    # -- copen -----------------------------------------------------------------------
    def copen(self, length: int, fd: int, offset: int):
        """Generator: ``(crd, 0)`` or ``(-1, EINVAL)``.

        Creation is cheap: the region starts in the *disk* state (its
        contents are whatever the backing file holds) and is materialized
        locally/remotely on demand.
        """
        fh = self.ws.fs.handle(fd)
        if fh is None or not fh.writable or length < 1 or offset < 0:
            self.stats.add("copen.einval")
            return -1, EINVAL
        crd = self._next_crd
        self._next_crd += 1
        self.directory[crd] = CRegion(
            crd=crd, length=length, backing_fd=fd, backing_offset=offset)
        self._by_backing[(fd, offset)] = crd
        self.stats.add("copen.ok")
        return crd, 0
        yield  # pragma: no cover - makes copen a generator like its peers

    # -- cread -----------------------------------------------------------------------
    def cread(self, crd: int, offset: int, length: int):
        """Generator: ``(nbytes, 0, data)`` or ``(-1, errno, None)``."""
        region = self.directory.get(crd)
        if region is None:
            return -1, EINVAL, None
        if offset < 0 or offset > region.length or length < 0:
            return -1, EINVAL, None
        sequential = self._track_sequence(region)
        span = self._span("cread", {"crd": crd, "bytes": length,
                                    "state": region.state})
        try:
            result = yield from self._cread_inner(region, offset, length)
        finally:
            self._end_span(span)
        if sequential:
            # issue prefetches only after the demand request has been
            # served, so they never queue ahead of it on the disk arm
            self._issue_prefetches(region)
        return result

    def _cread_inner(self, region: CRegion, offset: int, length: int):
        crd = region.crd
        length = min(length, region.length - offset)
        self.policy.on_access(crd)

        if region.loading:
            # a prefetch is already transferring this region: join it
            # rather than issuing a duplicate transfer
            yield region.load_done
            self.stats.add("cread.joined_prefetch")
        if region.is_local:
            self.stats.add("cread.local_hits")
            # capture before yielding: a concurrent eviction (prefetcher
            # pressure) must not invalidate data already being copied out
            data = self._slice(region, offset, length)
            yield self.sim.timeout(length / LOCAL_COPY_BW)
            return length, 0, data

        yield from self._probe_remote(region)
        if region.is_remote:
            got = yield from self._read_remote(region, offset, length,
                                               lost="cread.remote_lost")
            if got is not None:
                n, data, migrated = got
                self.stats.add("cread.remote_hits")
                if migrated:
                    self.stats.add("cread.migrated_hits")
                return n, 0, data

        self.stats.add("cread.disk_reads")
        loaded = yield from self._load_local(region)
        if loaded:
            data = self._slice(region, offset, length)
            yield self.sim.timeout(length / LOCAL_COPY_BW)
            return length, 0, data
        # Cache bypass (the local policy did not admit it): serve the
        # requested bytes from disk, and clone the region straight into
        # remote memory — the "cached remotely" state of Section 3.3.
        # This is how a first-in dmine run pushes the whole dataset into
        # the cluster during its first scan while only the first 80 MB
        # stay local.
        fh = self.ws.fs.handle(region.backing_fd)
        if fh is None:
            return -1, EIO, None
        n, data = yield self.ws.fs.read(
            fh, region.backing_offset + offset, length)
        yield from self._clone_from_disk(region)
        return n, 0, data

    # -- cwrite ----------------------------------------------------------------------
    def cwrite(self, crd: int, offset: int, length: int,
               data: Optional[bytes] = None):
        """Generator: ``(nbytes, 0)`` or ``(-1, errno)``.

        Writes land in the local copy (write-back at region granularity:
        dirty data reaches the disk at eviction, ``csync`` or ``cclose``).
        A stale remote copy is dropped so every state stays coherent.
        """
        region = self.directory.get(crd)
        if region is None:
            return -1, EINVAL
        if offset < 0 or offset > region.length or length < 0:
            return -1, EINVAL
        length = min(length, region.length - offset)
        if data is not None and len(data) < length:
            return -1, EINVAL
        self.policy.on_access(crd)

        span = self._span("cwrite", {"crd": crd, "bytes": length,
                                     "state": region.state})
        try:
            if not region.is_local:
                loaded = yield from self._load_local(region)
                if not loaded:
                    # No local space: write through to disk + remote.
                    return (yield from self._write_through(
                        region, offset, length, data))
            yield self.sim.timeout(length / LOCAL_COPY_BW)
            if isinstance(region.local, bytearray) and data is not None:
                region.local[offset:offset + length] = data[:length]
            region.dirty = True
            if region.is_remote:
                # remote copy is now stale; deallocate it (it will be
                # re-cloned with fresh contents at eviction or csync)
                yield from self.runtime.mclose(region.remote_desc)
                region.remote_desc = None
                self.stats.add("cwrite.remote_invalidated")
            self.stats.add("cwrite.ok")
            return length, 0
        finally:
            self._end_span(span)

    def _write_through(self, region: CRegion, offset: int, length: int,
                       data: Optional[bytes]):
        if region.is_remote:
            n, err = yield from self.runtime.mwrite(
                region.remote_desc, offset, length, data)
            if err == 0:
                return n, 0
            region.remote_desc = None  # lost; fall through to plain disk
        fh = self.ws.fs.handle(region.backing_fd)
        if fh is None:
            return -1, EIO
        try:
            n = yield self.ws.fs.write(
                fh, region.backing_offset + offset, length, data)
        except FsError:
            return -1, EIO
        self.stats.add("cwrite.disk_writethrough")
        return n, 0

    # -- csync -----------------------------------------------------------------------
    def csync(self, crd: int):
        """Generator: force a dirty region to remote memory *and* disk;
        blocks until both are durable (Figure 4's caption)."""
        region = self.directory.get(crd)
        if region is None:
            return -1, EINVAL
        if region.is_local and region.dirty:
            ok = yield from self._flush(region, also_remote=True)
            if not ok:
                return -1, EIO
        fh = self.ws.fs.handle(region.backing_fd)
        if fh is None:
            return -1, EIO
        yield self.ws.fs.fsync(fh)
        self.stats.add("csync.ok")
        return 0, 0

    # -- cclose ----------------------------------------------------------------------
    def cclose(self, crd: int):
        """Generator: flush dirty data, free local and remote copies."""
        region = self.directory.get(crd)
        if region is None:
            return -1, EINVAL
        if region.is_local and region.dirty:
            ok = yield from self._flush(region, also_remote=False)
            if not ok:
                return -1, EIO
        if region.is_remote:
            yield from self.runtime.mclose(region.remote_desc)
        if region.is_local:
            self._drop_local(region)
        del self.directory[crd]
        self._by_backing.pop((region.backing_fd, region.backing_offset),
                             None)
        self.policy.on_remove(crd)
        self.stats.add("cclose.ok")
        return 0, 0

    # -- shutdown -----------------------------------------------------------------------
    def detach(self, persist: bool = False):
        """Generator: shut the library down.

        With ``persist=True`` every region is left cached in remote
        memory for a future run (dmine's behaviour — "remote memory
        regions are not deleted at the end of a run"): dirty regions are
        flushed, locally-cached ones are cloned out, and the runtime
        detaches without freeing anything.  With ``persist=False`` the
        runtime detach lets the central manager reclaim everything.
        """
        if persist:
            for region in list(self.directory.values()):
                if region.is_local and region.dirty:
                    yield from self._flush(region, also_remote=True)
                if region.is_local and not region.is_remote:
                    yield from self._clone_remote(region)
                elif not region.is_local and not region.is_remote \
                        and region.probed:
                    yield from self._clone_from_disk(region)
        yield from self.runtime.detach(persist=persist)
        self.stats.add("detach.persist" if persist else "detach")
        return None

    # -- grimReaper (Figure 5) ----------------------------------------------------------
    def grim_reaper(self, needed: int):
        """Generator: make room for ``needed`` local bytes.

        Paper Figure 5: pick a victim by policy; write it to disk if
        dirty; try to clone it into remote memory (the runtime's
        refraction period throttles attempts after an allocation
        failure); remove the local entry either way.  Returns True if the
        space was freed.
        """
        while self.local_free < needed:
            victim_crd = self.policy.victim()
            if victim_crd is None:
                return False  # policy refuses (first-in) or cache empty
            victim = self.directory.get(victim_crd)
            if victim is None or not victim.is_local:
                self.policy.on_remove(victim_crd)
                continue
            yield from self._evict(victim)
        return True

    def _evict(self, victim: CRegion):
        self.stats.add("evictions")
        span = self._span("reaper.evict", {"crd": victim.crd,
                                           "dirty": victim.dirty})
        cloned = False
        try:
            cloned = yield from self._clone_remote(victim)
            if not cloned and victim.dirty:
                # no remote home: the dirty data must reach the disk before
                # the local copy is dropped
                yield from self._flush(victim, also_remote=False)
            self._drop_local(victim)
            self.policy.on_remove(victim.crd)
        finally:
            if self.sim.eventlog.enabled:
                self.sim.eventlog.debug(
                    self.sim, "regionlib",
                    "region.migrate" if cloned else "region.evict",
                    host=self.ws.name, crd=victim.crd, bytes=victim.length)
            self._end_span(span, {"cloned": cloned})

    def _clone_remote(self, region: CRegion):
        """cloneRemoteRegion: allocate remote space and push the bytes.

        A dirty region is pushed with ``mwrite`` (disk + remote in
        parallel, so the write-back to disk rides along); a clean one uses
        ``mpush`` (remote only — the disk already has the data)."""
        if region.is_remote and not region.dirty:
            return True  # already cloned and still current
        desc, err = yield from self.runtime.mopen(
            region.length, region.backing_fd, region.backing_offset)
        if err != 0:
            self.stats.add("clone.enomem")
            return False
        # Zero-copy: mwrite/mpush snapshot bytes(data[:length]) before
        # their first yield, so handing them a view of the live buffer is
        # safe and skips one full-region copy here.
        data = memoryview(region.local) \
            if isinstance(region.local, bytearray) else None
        if region.dirty:
            n, err = yield from self.runtime.mwrite(
                desc, 0, region.length, data)
        else:
            n, err = yield from self.runtime.mpush(
                desc, 0, region.length, data)
        if err != 0:
            self.stats.add("clone.push_failed")
            return False
        region.remote_desc = desc
        region.dirty = False
        self.stats.add("clone.ok")
        return True

    # -- prefetching (extension) -----------------------------------------------------
    def _track_sequence(self, region: CRegion) -> bool:
        """Update the last-read pointer; True if this access sequentially
        follows the previous one (same backing file, adjacent ranges)."""
        prev, self._prev_read_crd = self._prev_read_crd, region.crd
        if not self.prefetch_regions or prev is None:
            return False
        prev_region = self.directory.get(prev)
        return (prev_region is not None
                and prev_region.backing_fd == region.backing_fd
                and prev_region.backing_offset + prev_region.length
                == region.backing_offset)

    def _issue_prefetches(self, region: CRegion) -> None:
        """Pull the regions after ``region`` toward the application in
        detached background processes."""
        for i in range(1, self.prefetch_regions + 1):
            key = (region.backing_fd,
                   region.backing_offset + i * region.length)
            nxt = self._by_backing.get(key)
            if nxt is None:
                continue
            target = self.directory.get(nxt)
            if target is None or target.is_local or target.loading:
                continue
            self.stats.add("prefetch.issued")
            self.sim.process(self._prefetch_one(target))

    def _prefetch_one(self, region: CRegion):
        loaded = yield from self._load_local(region)
        if loaded:
            self.stats.add("prefetch.loaded")

    # -- internals ----------------------------------------------------------------------
    def _probe_remote(self, region: CRegion):
        """First touch of an uncached region: ask the central manager
        whether an earlier run left a remote copy (checkAlloc).  This is
        what makes dmine's second run find its dataset already cached."""
        if region.probed or region.is_remote or region.is_local:
            return
        region.probed = True
        desc, err = yield from self.runtime.mlookup(
            region.length, region.backing_fd, region.backing_offset)
        if err == 0:
            region.remote_desc = desc
            self.stats.add("probe.remote_found")

    def _read_remote(self, region: CRegion, offset: int, length: int,
                     lost: Optional[str] = None):
        """Generator: read from the region's remote copy, and once more
        from wherever a migration moved it if that copy is lost (adding
        to the ``lost`` counter, when given).  ``(n, data, migrated)``,
        or None when no remote copy answered: the region then self-heals
        to disk."""
        n, err, data = yield from self.runtime.mread(
            region.remote_desc, offset, length)
        if err == 0:
            return n, data, False
        # remote copy lost (host crashed/reclaimed)
        region.remote_desc = None
        if lost is not None:
            self.stats.add(lost)
        if (yield from self._reprobe_migrated(region)):
            n, err, data = yield from self.runtime.mread(
                region.remote_desc, offset, length)
            if err == 0:
                return n, data, True
            region.remote_desc = None
        return None

    def _reprobe_migrated(self, region: CRegion):
        """A remote read just failed: with elastic caching on, the copy
        may not be gone but *migrated* to another donor (docs/CACHING.md)
        — the hotspot-aware reclaim path repoints the directory entry.
        One extra checkAlloc turns that into a remote refetch instead of
        a disk read; off (the default), remote loss heals to disk as in
        the paper.  Returns True when a live copy was found."""
        if not self.runtime.config.cache.enabled:
            return False
        region.probed = False
        yield from self._probe_remote(region)
        if region.is_remote:
            self.stats.add("probe.migrated_found")
            return True
        return False

    def _slice(self, region: CRegion, offset: int, length: int):
        if isinstance(region.local, bytearray):
            return bytes(region.local[offset:offset + length])
        return None

    def _clone_from_disk(self, region: CRegion):
        """Clone a disk-state region into remote memory (no local copy).

        Used on local-cache admission bypass; the runtime's refraction
        period keeps this cheap once remote memory has filled up.
        """
        if region.is_remote:
            return True
        desc, err = yield from self.runtime.mopen(
            region.length, region.backing_fd, region.backing_offset)
        if err != 0:
            self.stats.add("clone.enomem")
            return False
        data = None
        if self.runtime.config.store_payload:
            fh = self.ws.fs.handle(region.backing_fd)
            if fh is None:
                return False
            _, data = yield self.ws.fs.read(
                fh, region.backing_offset, region.length)
            data = (data or b"").ljust(region.length, b"\x00")
        n, err = yield from self.runtime.mpush(
            desc, 0, region.length, data)
        if err != 0:
            self.stats.add("clone.push_failed")
            return False
        region.remote_desc = desc
        self.stats.add("clone.ok")
        return True

    def _load_local(self, region: CRegion):
        """Bring a region into the local cache from its best source.
        Returns False when the policy/space does not admit it."""
        if region.is_local:
            return True
        if region.loading:
            # another process (the prefetcher) is loading it: wait for
            # that load and use its outcome instead of duplicating I/O
            yield region.load_done
            return region.is_local
        region.loading = True
        region.load_done = self.sim.event()
        try:
            return (yield from self._load_local_inner(region))
        finally:
            region.loading = False
            region.load_done.succeed()

    def _load_local_inner(self, region: CRegion):
        yield from self._probe_remote(region)
        if region.length > self.local_bytes:
            return False
        if self.local_free < region.length:
            made = yield from self.grim_reaper(region.length)
            if not made:
                self.stats.add("admission_bypass")
                return False
        # Reserve the space *before* the transfer so concurrent loads
        # (demand + prefetchers) cannot collectively overcommit the cache.
        self._local_used += region.length
        ok = False
        try:
            data = None
            if region.is_remote:
                got = yield from self._read_remote(region, 0, region.length)
                if got is not None:
                    data = got[1]
            if data is None and not region.is_remote:
                fh = self.ws.fs.handle(region.backing_fd)
                if fh is None:
                    return False
                n, data = yield self.ws.fs.read(
                    fh, region.backing_offset, region.length)
                if self.runtime.config.store_payload:
                    data = (data or b"").ljust(region.length, b"\x00")
            if self.runtime.config.store_payload:
                if data is None:  # remote read in metadata mode
                    data = b"\x00" * region.length
                region.local = bytearray(data[:region.length])
            else:
                region.local = True
            ok = True
        finally:
            if not ok:
                self._local_used -= region.length
        region.dirty = False
        self.policy.on_insert(region.crd, region.length)
        self.stats.add("local_loads")
        return True

    def _drop_local(self, region: CRegion) -> None:
        if region.is_local:
            region.local = None
            self._local_used -= region.length

    def _flush(self, region: CRegion, also_remote: bool):
        """Write a dirty local region back to its backing file (and
        optionally refresh/establish the remote copy)."""
        fh = self.ws.fs.handle(region.backing_fd)
        if fh is None:
            return False
        data = bytes(region.local) if isinstance(region.local, bytearray) \
            else None
        if also_remote:
            cloned = yield from self._clone_remote(region)
            if cloned:
                return True
        try:
            yield self.ws.fs.write(
                fh, region.backing_offset, region.length, data)
        except FsError:
            return False
        region.dirty = False
        self.stats.add("flushes")
        return True


class DescriptorCache:
    """A bounded LRU of runtime descriptors keyed by (fd, offset).

    The serving tier (``workloads/serving.py``) touches millions of keys
    but each worker may only pin a handful of descriptors; uncached keys
    cost a directory round-trip (``mlookup``, falling back to ``mopen``)
    — which is exactly the per-request manager load that sharding the
    directory is meant to relieve.  Evicting an entry forgets the
    *descriptor*, here and in the runtime's table
    (:meth:`DodoRuntime.forget`), so a runtime holds at most ``capacity``
    of them however many keys miss; the remote region itself stays where
    it is (regions in the serving tier are opened persistently).
    """

    def __init__(self, runtime: DodoRuntime, capacity: int):
        self.runtime = runtime
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.stats = Recorder(f"desccache.{runtime.ws.name}")

    def __len__(self) -> int:
        return len(self._entries)

    def invalidate(self, fd: int, offset: int) -> None:
        """Forget a cached descriptor (after a failed read: the region
        moved or its host died)."""
        self._entries.pop((fd, offset), None)

    def open(self, length: int, fd: int, offset: int):
        """Generator: ``(descriptor, 0)`` or ``(-1, errno)``.

        A cache hit is free (no directory traffic); a miss pays an
        ``mlookup`` and, if no region exists yet, an ``mopen``.
        """
        key = (fd, offset)
        desc = self._entries.get(key)
        if desc is not None:
            if self.runtime.holds(desc):
                self._entries.move_to_end(key)
                self.stats.add("hits")
                return desc, 0
            # descriptor went stale underneath us (host dropped,
            # manager failover): fall through to a fresh lookup
            del self._entries[key]
            self.stats.add("stale")
        self.stats.add("misses")
        desc, err = yield from self.runtime.mlookup(length, fd, offset)
        if err != 0:
            desc, err = yield from self.runtime.mopen(length, fd, offset)
        if err != 0:
            return -1, err
        self._entries[key] = desc
        if len(self._entries) > self.capacity:
            self.runtime.forget(self._entries.popitem(last=False)[1])
        return desc, 0
