"""``libdodo`` — the runtime library linked into applications (Section 3.2/4.4).

Implements the paper's five-call API with its exact error semantics:

* ``mopen(len, fd, offset)`` — allocate (or re-find) a remote region backed
  by ``offset`` within the already-open file ``fd``; returns a descriptor,
  or -1/EINVAL for bad arguments, -1/ENOMEM when no idle memory exists
  (after which the library observes a *refraction period* during which it
  refuses further allocation attempts without contacting the manager).
* ``mread`` / ``mwrite`` — move bytes between the caller and the region
  over the bulk protocol; writes also go **to the backing file in
  parallel** (remote memory is a read-only cache; the disk always has the
  truth).  Short reads/writes clamp at the region end.  A failed access to
  a region's host drops *all* descriptors on that host.
* ``mclose`` — deallocate through the central manager.
* ``msync`` — block until the region's backing-file data is on disk.

All calls are generator *process bodies*: application code runs inside the
simulation and uses ``result = yield from lib.mopen(...)``.  Returns are
``(value, errno)`` pairs — C conventions, no exceptions for expected
failures — plus a data element for ``mread``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import (CMD_PORT, IMD_PORT, RPC_RETRIES,
                               RPC_TIMEOUT_S, SHARD_ATTEMPTS, DodoConfig)
from repro.core.descriptors import RegionKey, RegionStruct, RegionTableEntry
from repro.core.errno import EINVAL, EIO, ENOMEM
from repro.core.shard import ShardMap
from repro.cluster.workstation import Workstation
from repro.metrics.recorder import Recorder
from repro.net import rpc
from repro.net.bulk import BulkError, recv_bulk, send_bulk
from repro.net.rpc import RpcClient, RpcRemoteError, RpcServer, RpcTimeout
from repro.sim import AllOf, AnyOf, Simulator
from repro.storage.filesystem import FsError


class DodoRuntime:
    """Per-application client library instance."""

    def __init__(self, sim: Simulator, ws: Workstation, config: DodoConfig,
                 shard_map: ShardMap):
        if ws.fs is None:
            raise ValueError(f"{ws.name} needs a local file system for "
                             "backing files")
        self.sim = sim
        self.ws = ws
        self.config = config
        #: routing table of the region directory: keyed calls go to the
        #: shard the consistent-hash ring names, chasing wrong_shard /
        #: not_primary redirects and failing over between replicas
        self.shard_map = shard_map
        self.endpoint = ws.endpoint(config.transport)
        #: per-manager-host persistent RPC clients; shard 0's primary
        #: gets its socket at attach time, before the echo socket
        self._mgr_socks: dict[str, tuple] = {}
        self._rpc_for(self.shard_map.primary(0))
        #: per-shard preferred endpoint (last host that answered)
        self._shard_pref: dict[int, str] = {}
        #: per-shard manager incarnation last observed; a change means
        #: that shard's manager restarted with an empty directory
        self._shard_incarnations: dict[int, int] = {}
        echo_sock = self.endpoint.socket()
        self.echo_port = echo_sock.port
        self._echo = RpcServer(echo_sock, {"echo": self._h_echo},
                               name=f"lib.{ws.name}.echo")
        self._echo.start()
        #: cluster-unique client identity used for keep-alives and
        #: (optionally) multi-client region keys
        self.client_id = f"{ws.name}#{self.echo_port}"
        self._regions: dict[int, RegionTableEntry] = {}
        self._next_desc = 0
        self._refraction_until = float("-inf")
        self.detached = False
        self.stats = Recorder(f"lib.{ws.name}")

    # -- helpers --------------------------------------------------------------------
    def _span(self, name: str, tags: Optional[dict] = None):
        """Open a library-layer span (None when tracing is off)."""
        tracer = self.sim.tracer
        if not tracer.enabled:
            return None
        return tracer.begin(self.sim, name, "lib", tags)

    def _end_span(self, span, tags: Optional[dict] = None) -> None:
        self.sim.tracer.end(self.sim, span, tags)

    def _key_for(self, inode: int, offset: int) -> RegionKey:
        client = self.client_id if self.config.multi_client_keys else None
        return RegionKey(inode=inode, offset=offset, client=client)

    # -- directory routing ----------------------------------------------------------
    def _rpc_for(self, host: str) -> RpcClient:
        """Persistent per-manager-host RPC client."""
        pair = self._mgr_socks.get(host)
        if pair is None:
            sock = self.endpoint.socket()
            pair = (sock, RpcClient(sock))
            self._mgr_socks[host] = pair
        return pair[1]

    def _shard_candidates(self, sid: int) -> list[str]:
        """The shard's replica hosts, preferred endpoint first."""
        info = self.shard_map.shards[sid]
        cands = [h for h in (info.primary, info.backup) if h]
        pref = self._shard_pref.get(sid)
        if pref in cands and cands[0] != pref:
            cands.remove(pref)
            cands.insert(0, pref)
        return cands

    def _adopt_map(self, raw: Optional[dict]) -> None:
        """Replace our routing table when a reply embeds a newer one."""
        if not raw:
            return
        new = ShardMap.from_wire(raw)
        if new.version > self.shard_map.version:
            self.shard_map = new
            self.stats.add("shard.map_refresh")

    def _cmd_call(self, method: str, args: dict,
                  key: Optional[RegionKey] = None,
                  shard: Optional[int] = None):
        """One directory call: pick the owning shard by the ring (or use
        the explicit ``shard``), try its replicas — preferred endpoint
        first — and chase ``wrong_shard`` (stale map) and
        ``not_primary`` (failover in progress) redirects until an
        answer or ``SHARD_ATTEMPTS`` is exhausted.  The paper's lone
        manager has no replica to fail over to: one call spends the
        whole ``RPC_RETRIES`` budget on it."""
        args = dict(args)
        args["client"] = self.client_id
        args["echo_port"] = self.echo_port
        sid = shard if shard is not None else (
            self.shard_map.owner_of(key) if key is not None else 0)
        cfg = self.config
        lone = self.shard_map.lone
        attempts = 1 if lone else SHARD_ATTEMPTS
        for attempt in range(attempts):
            cands = self._shard_candidates(sid)
            host = cands[attempt % len(cands)]
            try:
                reply = yield from self._rpc_for(host).call(
                    (host, CMD_PORT), method, args,
                    timeout=RPC_TIMEOUT_S,
                    retries=RPC_RETRIES if lone else 2,
                    backoff_s=cfg.rpc_backoff_s,
                    backoff_jitter=cfg.rpc_backoff_jitter)
            except RpcTimeout:
                if lone:
                    raise
                self.stats.add("shard.retry")
                self._shard_pref.pop(sid, None)
                continue
            if isinstance(reply, dict):
                if reply.get("not_primary"):
                    self.stats.add("shard.not_primary")
                    self._adopt_map(reply.get("shard_map"))
                    hint = reply.get("primary")
                    if hint and hint != host:
                        self._shard_pref[sid] = hint
                    else:
                        yield self.sim.timeout(RPC_TIMEOUT_S)
                    continue
                if reply.get("wrong_shard"):
                    self.stats.add("shard.wrong_shard")
                    self._adopt_map(reply.get("shard_map"))
                    if shard is None and key is not None:
                        sid = self.shard_map.owner_of(key)
                    continue
                self._shard_pref[sid] = host
                self._note_incarnation(sid, reply.get("mgr_incarnation"))
            return reply
        self.stats.add("shard.unreachable")
        raise RpcTimeout(f"{method}: shard {sid} unreachable after "
                         f"{attempts} attempts")

    def _note_incarnation(self, sid: int, inc: Optional[int]) -> None:
        """Per-shard incarnation tracking.  A bump means that shard's
        manager restarted with an empty directory: every descriptor
        whose key it owns references an entry it never heard of, so
        drop them (reads fall back to the backing file, Section 3.1's
        failure rule).  A promoted backup keeps the incarnation —
        descriptors survive failover.  Runs synchronously so the
        caller's own reply is processed against clean state."""
        if inc is None:
            return
        prev = self._shard_incarnations.get(sid)
        self._shard_incarnations[sid] = inc
        if prev is None or inc == prev:
            return
        doomed = [d for d, e in self._regions.items()
                  if self.shard_map.owner_of(e.key) == sid]
        for d in doomed:
            del self._regions[d]
        self.stats.add("manager_restarts")
        if doomed:
            self.stats.add("descriptors_dropped", len(doomed))
        if self.sim.eventlog.enabled:
            where = {} if self.shard_map.n_shards == 1 else {"shard": sid}
            self.sim.eventlog.warn(
                self.sim, "lib", "client.reregister", host=self.ws.name,
                client=self.client_id, incarnation=inc, **where,
                descriptors_dropped=len(doomed))

    def _h_echo(self, args: dict, src) -> dict:
        """Keep-alive echo handler; piggybacked incarnation detects a
        manager restart even when the library is otherwise idle."""
        self._note_incarnation(int(args.get("shard", 0)),
                               args.get("incarnation"))
        return {"ok": True}

    def _entry(self, desc: int) -> Optional[RegionTableEntry]:
        return self._regions.get(desc)

    def holds(self, desc: int) -> bool:
        """True while ``desc`` is in this library's descriptor table."""
        return desc in self._regions

    def forget(self, desc: int) -> None:
        """Drop ``desc`` from the descriptor table locally, with no
        manager call: the region stays in remote memory, as after
        ``detach(persist=True)``, and a later ``mlookup`` finds it."""
        self._regions.pop(desc, None)

    def _lost(self, desc: int, host: str, gone: bool) -> None:
        """React to a failed access to ``desc``'s region on ``host``.
        Section 3.1 drops every descriptor on the host; with elastic
        caching on, a definitive rejection from a live host (``gone``
        False) means only this region was evicted or migrated away, so
        only ``desc`` goes."""
        if not gone and self.config.cache.enabled:
            self._regions.pop(desc, None)
            self.stats.add("descriptors_dropped")
        else:
            self.drop_host(host)

    def _install(self, key: RegionKey, length: int, fd: int, offset: int,
                 region: dict) -> int:
        """Enter a region the manager vouched for (its wire form) in the
        descriptor table; returns the new descriptor."""
        struct = RegionStruct.from_wire(region)
        desc = self._next_desc
        self._next_desc += 1
        self._regions[desc] = RegionTableEntry(
            descriptor=desc, key=key, length=length, backing_fd=fd,
            backing_offset=offset, remote=struct)
        return desc

    def drop_host(self, host: str) -> int:
        """Drop every descriptor for regions on ``host`` (Section 3.1:
        the library's reaction to any access failure on that node)."""
        doomed = [d for d, e in self._regions.items()
                  if e.remote is not None and e.remote.host == host]
        for d in doomed:
            del self._regions[d]
        if doomed:
            self.stats.add("hosts_dropped")
            self.stats.add("descriptors_dropped", len(doomed))
        return len(doomed)

    @property
    def open_regions(self) -> int:
        return len(self._regions)

    def in_refraction(self) -> bool:
        """True while the library refuses allocation attempts after an
        ENOMEM (Section 3.1's refraction period)."""
        return self.sim.now < self._refraction_until

    # -- API: mopen -----------------------------------------------------------------
    def mopen(self, length: int, fd: int, offset: int):
        """Generator: ``(descriptor, 0)`` or ``(-1, errno)``."""
        fh = self.ws.fs.handle(fd)
        if fh is None or not fh.writable or length < 1 or offset < 0:
            self.stats.add("mopen.einval")
            return -1, EINVAL
        if self.in_refraction():
            self.stats.add("mopen.refraction_skip")
            return -1, ENOMEM
        key = self._key_for(fh.inode, offset)

        span = self._span("mopen", {"len": length, "inode": fh.inode,
                                    "offset": offset})
        try:
            try:
                # An identically-keyed region may already exist (e.g. left
                # by a previous run against the same backing file — the
                # dmine pattern).  checkAlloc both finds and validates it.
                reply = yield from self._cmd_call(
                    "check_alloc",
                    {"key": [key.inode, key.offset, key.client]}, key=key)
                if reply.get("ok") and reply["region"]["length"] < length:
                    reply = {"ok": False}  # too small: allocate replacement
                if not reply.get("ok"):
                    reply = yield from self._cmd_call(
                        "alloc", {"key": [key.inode, key.offset, key.client],
                                  "length": length}, key=key)
            except (RpcTimeout, RpcRemoteError):
                self.stats.add("mopen.cmd_unreachable")
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM
            if not reply.get("ok"):
                self._refraction_until = \
                    self.sim.now + self.config.refraction_period_s
                self.stats.add("mopen.enomem")
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM
            desc = self._install(key, length, fd, offset, reply["region"])
            self.stats.add("mopen.ok")
            return desc, 0
        finally:
            self._end_span(span)

    def mlookup(self, length: int, fd: int, offset: int):
        """Generator: find an *existing* region for (fd, offset) without
        allocating — a pure checkAlloc (the cmd operation the paper
        exports to the library).  ``(descriptor, 0)`` when a valid region
        of at least ``length`` bytes exists, ``(-1, ENOMEM)`` otherwise.

        This is how a new run discovers regions a previous run left in
        remote memory (dmine's persistence pattern) without ``mopen``'s
        side effect of allocating on a miss.
        """
        fh = self.ws.fs.handle(fd)
        if fh is None or not fh.writable or length < 1 or offset < 0:
            return -1, EINVAL
        key = self._key_for(fh.inode, offset)
        span = self._span("mlookup", {"len": length, "inode": fh.inode,
                                      "offset": offset})
        try:
            try:
                reply = yield from self._cmd_call(
                    "check_alloc",
                    {"key": [key.inode, key.offset, key.client]}, key=key)
            except (RpcTimeout, RpcRemoteError):
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM
            if not reply.get("ok") or reply["region"]["length"] < length:
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM
            desc = self._install(key, length, fd, offset, reply["region"])
            self.stats.add("mlookup.hit")
            return desc, 0
        finally:
            self._end_span(span)

    # -- API: mread -----------------------------------------------------------------
    def mread(self, desc: int, offset: int, length: int):
        """Generator: ``(nbytes, 0, data)`` or ``(-1, errno, None)``.

        ``data`` is real bytes in payload mode, None otherwise.
        """
        entry = self._entry(desc)
        if entry is None or entry.remote is None:
            self.stats.add("mread.enomem")
            return -1, ENOMEM, None
        if offset < 0 or offset > entry.length or length < 0:
            self.stats.add("mread.einval")
            return -1, EINVAL, None
        length = min(length, entry.length - offset)
        if length == 0:
            return 0, 0, b"" if self.config.store_payload else None
        struct = entry.remote

        span = self._span("mread", {"desc": desc, "bytes": length,
                                    "host": struct.host})
        try:
            reply_sock = self.endpoint.socket()
            receiver = self.sim.process(recv_bulk(
                reply_sock, first_timeout=self._transfer_timeout(length),
                close_socket=True, pregranted=True))
            # The read request carries our receive-buffer grant, so the imd
            # blasts without a separate negotiation round-trip.  The RPC
            # reply only matters on the failure path (bad region / daemon
            # exiting): the moment the data is complete the read is done, so
            # race the receiver against the RPC instead of waiting for both.
            req = {"region_id": struct.pool_offset, "offset": offset,
                   "length": length, "reply_port": reply_sock.port,
                   "window": reply_sock.recvbuf}
            if struct.gen:
                req["gen"] = struct.gen
            rpc_proc = self.sim.process(self._imd_call_quiet(
                struct, "read", req, data_bytes=length))
            idx, val = yield AnyOf(self.sim, [receiver, rpc_proc])
            rejected = False
            if idx == 0 or receiver.processed:
                result = receiver.value
                failed = result is None
            elif val is None or not val.get("ok"):
                # RPC failed first: tear the receiver down.
                rejected = val is not None
                reply_sock.close()
                yield receiver  # drains to None once the socket closes
                result, failed = None, True
            else:
                # RPC confirmed but the blast is still landing (e.g. a lost
                # chunk being NACKed): wait for the data.
                result = yield receiver
                failed = result is None
            if failed:
                # a negative reply (``rejected``) comes from a live host
                self._lost(desc, struct.host, gone=not rejected)
                self.stats.add("mread.enomem")
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM, None
            data, total, _src = result
            self.stats.add("mread.ok")
            self.stats.add("mread.bytes", total)
            return total, 0, data
        finally:
            self._end_span(span)

    # -- API: mwrite ----------------------------------------------------------------
    def mwrite(self, desc: int, offset: int, length: int,
               data: Optional[bytes] = None):
        """Generator: ``(nbytes, 0)`` or ``(-1, errno)``.

        The write goes to the backing file and to the remote region in
        parallel (Section 3.2); both must complete before return.
        """
        entry = self._entry(desc)
        if entry is None or entry.remote is None:
            self.stats.add("mwrite.enomem")
            return -1, ENOMEM
        if offset < 0 or offset > entry.length or length < 0:
            self.stats.add("mwrite.einval")
            return -1, EINVAL
        if data is not None and len(data) < length:
            return -1, EINVAL
        length = min(length, entry.length - offset)
        if data is not None:
            data = bytes(data[:length])
        if length == 0:
            return 0, 0

        fh = self.ws.fs.handle(entry.backing_fd)
        if fh is None:
            self.stats.add("mwrite.eio")
            return -1, EIO
        span = self._span("mwrite", {"desc": desc, "bytes": length,
                                     "host": entry.remote.host})
        try:
            disk_proc = self.sim.process(self._backing_write(
                fh, entry.backing_offset + offset, length, data))
            remote_proc = self.sim.process(self._remote_write(
                entry.remote, offset, length, data))
            disk_ok, remote_ok = yield AllOf(self.sim,
                                             [disk_proc, remote_proc])
            if not disk_ok:
                # the paper passes through the backing write()'s errno
                self.stats.add("mwrite.eio")
                if span is not None:
                    span.tag("err", "eio")
                return -1, EIO
            if not remote_ok:
                self._lost(desc, entry.remote.host, gone=remote_ok is False)
                self.stats.add("mwrite.enomem")
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM
            self.stats.add("mwrite.ok")
            self.stats.add("mwrite.bytes", length)
            return length, 0
        finally:
            self._end_span(span)

    def _backing_write(self, fh, offset: int, length: int,
                       data: Optional[bytes]):
        try:
            yield self.ws.fs.write(fh, offset, length, data)
            return True
        except FsError:
            return False

    def _remote_write(self, struct: RegionStruct, offset: int, length: int,
                      data: Optional[bytes]):
        """True once the bytes landed; None when the live host rejected
        the write (the region is gone); False when the host failed."""
        try:
            req = {"region_id": struct.pool_offset, "offset": offset,
                   "length": length}
            if struct.gen:
                req["gen"] = struct.gen
            reply = yield from self._imd_call(struct, "write", req)
            if not reply.get("ok"):
                return None  # definitive reject: host alive, region gone
            sock = self.endpoint.socket()
            try:
                yield self.sim.process(send_bulk(
                    sock, (struct.host, int(reply["data_port"])), length,
                    data=data, window=reply.get("window")))
            finally:
                sock.close()
            return True
        except (RpcTimeout, RpcRemoteError, BulkError):
            return False

    def mpush(self, desc: int, offset: int, length: int,
              data: Optional[bytes] = None):
        """Generator: remote-only write — ``(nbytes, 0)`` or ``(-1, errno)``.

        Used by the region-management library's ``cloneRemoteRegion``: when
        migrating a *clean* region to remote memory the backing file is
        already current, so only the network copy is needed.
        """
        entry = self._entry(desc)
        if entry is None or entry.remote is None:
            return -1, ENOMEM
        if offset < 0 or offset > entry.length or length < 0:
            return -1, EINVAL
        length = min(length, entry.length - offset)
        if data is not None:
            data = bytes(data[:length])
        if length == 0:
            return 0, 0
        span = self._span("mpush", {"desc": desc, "bytes": length,
                                    "host": entry.remote.host})
        try:
            ok = yield self.sim.process(self._remote_write(
                entry.remote, offset, length, data))
            if not ok:
                self._lost(desc, entry.remote.host, gone=ok is False)
                if span is not None:
                    span.tag("err", "enomem")
                return -1, ENOMEM
            self.stats.add("mpush.bytes", length)
            return length, 0
        finally:
            self._end_span(span)

    # -- API: msync / mclose ---------------------------------------------------------
    def msync(self, desc: int):
        """Generator: block until the region's backing data is on disk."""
        entry = self._entry(desc)
        if entry is None:
            return -1, EINVAL
        fh = self.ws.fs.handle(entry.backing_fd)
        if fh is None:
            return -1, EINVAL
        span = self._span("msync", {"desc": desc})
        try:
            yield self.ws.fs.fsync(fh)
        finally:
            self._end_span(span)
        self.stats.add("msync.ok")
        return 0, 0

    def mclose(self, desc: int):
        """Generator: deallocate the region via the central manager.

        Does not close the backing file descriptor (paper semantics).
        """
        entry = self._entry(desc)
        if entry is None:
            return -1, EINVAL
        key = entry.key
        span = self._span("mclose", {"desc": desc})
        try:
            try:
                reply = yield from self._cmd_call(
                    "free", {"key": [key.inode, key.offset, key.client]},
                    key=key)
            except (RpcTimeout, RpcRemoteError):
                return -1, EINVAL
            # pop, not del: the reply may have carried a new manager
            # incarnation, in which case the table was already cleared
            self._regions.pop(desc, None)
            if not reply.get("ok"):
                self.stats.add("mclose.stale")
                return -1, EINVAL
            self.stats.add("mclose.ok")
            return 0, 0
        finally:
            self._end_span(span)

    # -- lifecycle --------------------------------------------------------------------
    def detach(self, persist: bool = False):
        """Generator: clean library shutdown.  ``persist=True`` leaves
        regions in remote memory for a later run (dmine's usage).
        Idempotent."""
        if self.detached:
            return None
        # every shard tracks this client independently
        for sid in sorted(self.shard_map.shards):
            try:
                yield from self._cmd_call(
                    "client_detach", {"persist": persist}, shard=sid)
            except (RpcTimeout, RpcRemoteError):
                pass
        self.detached = True
        self._regions.clear()
        self._echo.stop()
        for sock, _rpc in self._mgr_socks.values():
            sock.close()
        self._mgr_socks.clear()
        return None

    # -- internals ---------------------------------------------------------------------
    def _transfer_timeout(self, length: int) -> float:
        """Patience for a bulk transfer: control timeout plus worst-case
        wire time at a very conservative 1 MB/s."""
        return RPC_TIMEOUT_S * RPC_RETRIES + length / 1e6 + 1.0

    def _imd_call_quiet(self, struct: RegionStruct, method: str, args: dict,
                        data_bytes: int = 0):
        """Like :meth:`_imd_call` but returns None instead of raising, so
        it can run as a detached/raced process."""
        try:
            reply = yield from self._imd_call(struct, method, args,
                                              data_bytes=data_bytes)
            return reply
        except (RpcTimeout, RpcRemoteError):
            return None

    def _imd_call(self, struct: RegionStruct, method: str, args: dict,
                  data_bytes: int = 0):
        """Generator: one call to the imd hosting ``struct``, patient
        enough for ``data_bytes`` of transfer."""
        return rpc.call(self.endpoint, (struct.host, IMD_PORT), method, args,
                        timeout=self._transfer_timeout(data_bytes),
                        retries=RPC_RETRIES)
