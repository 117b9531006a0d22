"""The idle memory daemon (imd) — Section 4.2.

Forked by the resource monitor when a workstation is recruited.  It pins a
memory pool sized from the host's recruitable memory (inquiry tools +
``lotsfree`` + the 15% headroom rule), timestamps itself with an epoch
counter, and serves four operations over its control port:

* ``alloc`` / ``free`` — from the central manager; first-fit allocation
  with a periodic coalescing sweep.  Freed space is never returned to the
  OS, only marked reusable, exactly as in the paper.
* ``read`` / ``write`` — from client runtime libraries; region data moves
  over the Section 4.4 bulk blast protocol on per-transfer ephemeral
  sockets.
* ``migrate`` — from the central manager's hotspot-aware reclaim path
  (docs/CACHING.md): blast one hosted region directly to another imd's
  pre-opened receive port, so a busy donor's hot data survives reclaim.

With a :class:`~repro.core.config.CacheConfig` policy active the pool
behaves as a cache: a full pool evicts cold regions in policy order
(never one pinned by an in-flight transfer) instead of rejecting the
allocation, every access feeds the policy, and the inventory reply can
carry per-region heat for the manager's migration ordering.
``policy="none"`` — the default — leaves all of this code unreachable
and the daemon byte-identical to the paper's behavior.

On reclaim the daemon finishes in-flight transfers, then exits; every
reply piggybacks the current largest free block so the central manager's
idle-workstation directory stays fresh.
"""

from __future__ import annotations

from typing import Optional

from repro.core.allocator import make_allocator
from repro.core.config import (CMD_PORT, COALESCE_INTERVAL_S, IMD_PORT,
                               RPC_RETRIES, RPC_TIMEOUT_S, SHARD_ATTEMPTS,
                               DodoConfig)
from repro.core.policy import make_policy
from repro.core.shard import ShardMap
from repro.cluster.workstation import Workstation
from repro.metrics.recorder import Recorder
from repro.net.bulk import BulkError, recv_bulk, send_bulk
from repro.net.rpc import RpcClient, RpcServer, RpcTimeout
from repro.sim import Interrupt, Simulator


class IdleMemoryDaemon:
    """One recruited host's guest-memory server."""

    __slots__ = ("sim", "ws", "config", "epoch", "shard_map", "pool_bytes",
                 "allocator", "pool", "stats", "endpoint", "_ctrl_sock",
                 "control_port", "_server", "_regions", "_region_shard",
                 "_shard_incarnations", "active_transfers", "stopping",
                 "exited", "killed", "cache_policy", "_pinned", "_gen",
                 "_region_gen", "_drained", "_coalescer", "_reregister")

    def __init__(self, sim: Simulator, ws: Workstation, config: DodoConfig,
                 epoch: int, shard_map: Optional[ShardMap] = None,
                 pool_bytes: Optional[int] = None,
                 allocator_kind: str = "first-fit",
                 control_port: int = IMD_PORT):
        self.sim = sim
        self.ws = ws
        self.config = config
        self.epoch = epoch
        #: the region directory to register with (every shard's
        #: primary); each hosted region is tagged with the shard that
        #: placed it.  None: a standalone daemon that never registers.
        self.shard_map = shard_map
        if pool_bytes is None:
            pool_bytes = min(config.max_pool_bytes, ws.recruitable_memory())
        if pool_bytes <= 0:
            raise ValueError(f"no recruitable memory on {ws.name}")
        self.pool_bytes = pool_bytes
        self.allocator = make_allocator(allocator_kind, pool_bytes)
        #: the guest data lives in the daemon's address space (paper);
        #: a real byte pool in functional mode, None in metadata-only mode
        self.pool: Optional[bytearray] = (
            bytearray(self.allocator.pool_size) if config.store_payload
            else None)
        ws.guest_memory += pool_bytes
        self.stats = Recorder(f"imd.{ws.name}")

        self.endpoint = ws.endpoint(config.transport)
        self._ctrl_sock = self.endpoint.socket(port=control_port)
        self.control_port = control_port
        handlers = {
            "alloc": self._h_alloc,
            "free": self._h_free,
            "read": self._h_read,
            "write": self._h_write,
            "ping": self._h_ping,
            "inventory": self._h_inventory,
        }
        if config.cache.migration:
            handlers["migrate"] = self._h_migrate
        self._server = RpcServer(self._ctrl_sock, handlers,
                                 name=f"imd.{ws.name}", component="imd")
        self._server.start()
        #: logical (requested) size of each hosted region, by pool offset
        self._regions: dict[int, int] = {}
        #: which directory shard placed each region
        self._region_shard: dict[int, int] = {}
        #: per-shard manager incarnation we last registered with
        self._shard_incarnations: dict[int, int] = {}
        self.active_transfers = 0
        self.stopping = False
        self.exited = False
        #: True when the daemon died with its host (power failure) rather
        #: than exiting gracefully — the auditor tolerates directory
        #: entries still pointing at a killed incarnation, because the
        #: manager only discovers the death lazily (RPC timeout)
        self.killed = False
        #: elastic caching (docs/CACHING.md): eviction policy over hosted
        #: regions and transfer pins that protect in-flight regions from
        #: eviction.  None/empty with the default ``cache.policy="none"``.
        cache = config.cache
        self.cache_policy = (make_policy(cache.policy)
                             if cache.enabled else None)
        #: refcount of in-flight transfers per region (eviction shield)
        self._pinned: dict[int, int] = {}
        #: per-allocation generation stamps: eviction can re-allocate a
        #: pool offset within one epoch, so reads/writes carrying a gen
        #: are checked against the offset's current stamp (stale
        #: descriptors must fail, not alias).  Unused (and off the
        #: wire) when the cache subsystem is disabled.
        self._gen = 0
        self._region_gen: dict[int, int] = {}
        self._drained = sim.event()
        self._coalescer = sim.process(self._coalesce_loop())
        self._reregister = sim.process(self._reregister_loop()) \
            if config.imd_reregister_s > 0 and shard_map is not None \
            else None
        ws.on_crash(self._on_host_crash)
        if sim.telemetry.enabled:
            sim.telemetry.register(sim, "imd", ws.name, self)
        if sim.eventlog.enabled:
            sim.eventlog.info(sim, "imd", "imd.start", host=ws.name,
                              epoch=epoch, pool_bytes=pool_bytes)

    # -- lifecycle -----------------------------------------------------------------
    def register(self):
        """Process: announce pool size and epoch to the central manager."""
        if self.shard_map is None:
            raise ValueError(f"imd.{self.ws.name} is standalone: it has "
                             "no shard map to register with")
        return self.sim.process(self._register())

    def _register(self):
        ok = True
        for sid in sorted(self.shard_map.shards):
            got = yield from self._register_shard(sid)
            ok = ok and got
        return ok

    def _register_shard(self, sid: int):
        """Register with one shard's primary, trying the backup when the
        primary is unreachable and chasing ``not_primary`` redirects
        (bounded by ``SHARD_ATTEMPTS``; the paper's lone manager gets
        one call with the whole ``RPC_RETRIES`` budget instead).  A
        changed shard incarnation means that shard's directory
        restarted empty: regions it placed here are unreachable
        garbage, so drop *only those*."""
        cfg = self.config
        lone = self.shard_map.lone
        info = self.shard_map.shards[sid]
        candidates = [h for h in (info.primary, info.backup) if h]
        for attempt in range(1 if lone else SHARD_ATTEMPTS):
            if self.exited or self.stopping:
                return False
            host = candidates[attempt % len(candidates)]
            # not rpc.call: every imd of a large cluster registers at
            # once while it is built, and the helper's extra generator
            # frame per pending call shows in peak memory
            sock = self.endpoint.socket()
            client = RpcClient(sock)
            try:
                reply = yield from client.call(
                    (host, CMD_PORT), "imd_register",
                    {"host": self.ws.name, "pool_bytes": self.pool_bytes,
                     "epoch": self.epoch, "port": self.control_port,
                     "largest_free": self.allocator.largest_free()},
                    timeout=RPC_TIMEOUT_S,
                    retries=RPC_RETRIES if lone else 1,
                    backoff_s=cfg.rpc_backoff_s,
                    backoff_jitter=cfg.rpc_backoff_jitter)
            except RpcTimeout:
                continue
            finally:
                sock.close()
            if reply.get("not_primary"):
                raw = reply.get("shard_map")
                if raw:
                    new = ShardMap.from_wire(raw)
                    if new.version > self.shard_map.version:
                        self.shard_map = new
                        info = new.shards[sid]
                        candidates = [h for h in (info.primary,
                                                  info.backup) if h]
                yield self.sim.timeout(RPC_TIMEOUT_S)
                continue
            if reply.get("ok"):
                inc = reply.get("incarnation")
                if inc is not None:
                    prev = self._shard_incarnations.get(sid)
                    if prev is not None and inc != prev:
                        self._drop_shard_regions(sid)
                    self._shard_incarnations[sid] = inc
                return True
        self.stats.add("register_failures")
        return False

    def _drop_shard_regions(self, sid: int) -> None:
        """Free every region that shard ``sid`` placed (its directory
        restarted empty and can never reference them again)."""
        doomed = [off for off, s in sorted(self._region_shard.items())
                  if s == sid]
        for offset in doomed:
            self.allocator.free(offset)
            del self._regions[offset]
            del self._region_shard[offset]
            self._cache_remove(offset)
        if doomed:
            self.stats.add("regions_dropped", len(doomed))
        if self.sim.eventlog.enabled:
            where = {} if self.shard_map.n_shards == 1 else {"shard": sid}
            self.sim.eventlog.warn(
                self.sim, "imd", "imd.reset", host=self.ws.name,
                epoch=self.epoch, **where, regions_dropped=len(doomed))

    def _reregister_loop(self):
        """Heartbeat: periodically re-announce to the central manager so a
        restarted manager's empty IWD repopulates (opt-in via
        ``imd_reregister_s``)."""
        try:
            while True:
                yield self.sim.timeout(self.config.imd_reregister_s)
                if self.exited:
                    return
                if self.ws.crashed or self.stopping:
                    continue
                yield from self._register()
        except Interrupt:
            return

    def shutdown(self):
        """Process: graceful exit — finish in-flight transfers, release.

        This is the imd's signal handler from Section 4.1: it completes
        ongoing transfers and exits.  The process value is the drain time.
        """
        return self.sim.process(self._shutdown())

    def _shutdown(self):
        if self.exited:
            return 0.0
        start = self.sim.now
        self.stopping = True
        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "imd.drain", "imd",
                            {"host": self.ws.name,
                             "in_flight": self.active_transfers}) \
            if tracer.enabled else None
        if self.active_transfers > 0:
            yield self._drained
        tracer.end(self.sim, span)
        self._exit("imd-exit")
        self.stats.add("shutdowns")
        drain = self.sim.now - start
        self.stats.sample("drain_s", drain)
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(
                self.sim, "imd", "imd.exit", host=self.ws.name,
                epoch=self.epoch, drain_s=round(drain, 6),
                regions_left=len(self._regions))
        return drain

    def _coalesce_loop(self):
        try:
            while True:
                yield self.sim.timeout(COALESCE_INTERVAL_S)
                self.allocator.coalesce()
        except Interrupt:
            return

    def _on_host_crash(self) -> None:
        """The host power-failed: the daemon process dies with it — no
        drain, no busy notification, in-flight transfers torn down.  The
        pinned pool vanishes with the OS, so guest-memory accounting is
        released immediately rather than lingering until keep-alive
        expiry (the manager still only learns via its next RPC timeout)."""
        if self.exited:
            return
        self.stopping = True
        self.killed = True
        self._exit("host-crash")
        self.stats.add("hard_kills")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.warn(
                self.sim, "imd", "imd.killed", host=self.ws.name,
                epoch=self.epoch, regions_lost=len(self._regions))

    def _exit(self, cause: str) -> None:
        """Teardown shared by graceful exit and host crash: stop serving,
        interrupt the daemon's loops with ``cause`` and release the
        pinned pool."""
        self._server.stop()
        for proc in (self._coalescer, self._reregister):
            if proc is not None and proc.is_alive:
                proc.interrupt(cause)
        self.ws.guest_memory -= self.pool_bytes
        self.pool = None
        self.exited = True

    # -- bookkeeping helpers ----------------------------------------------------------
    def _piggyback(self, reply: dict) -> dict:
        reply["largest_free"] = self.allocator.largest_free()
        return reply

    def _begin_transfer(self) -> None:
        self.active_transfers += 1

    def _end_transfer(self) -> None:
        self.active_transfers -= 1
        if self.active_transfers == 0 and self.stopping \
                and not self._drained.triggered:
            self._drained.succeed()

    # -- elastic caching (docs/CACHING.md) ---------------------------------------------
    def _cache_insert(self, offset: int, size: int) -> None:
        if self.cache_policy is not None:
            self.cache_policy.on_insert(offset, size)

    def _cache_remove(self, offset: int) -> None:
        self._region_gen.pop(offset, None)
        if self.cache_policy is not None:
            self.cache_policy.on_remove(offset)

    def _note_access(self, offset: int) -> None:
        if self.cache_policy is not None:
            self.cache_policy.on_access(offset)

    def _pin(self, offset: int) -> None:
        self._pinned[offset] = self._pinned.get(offset, 0) + 1

    def _unpin(self, offset: int) -> None:
        left = self._pinned.get(offset, 0) - 1
        if left <= 0:
            self._pinned.pop(offset, None)
        else:
            self._pinned[offset] = left

    def _evict_for(self, size: int, shard: int) -> list:
        """Evict cold regions, in policy order, until a ``size``-byte
        block can be carved (or no eligible victim remains).  Pinned
        regions and regions another directory shard placed are never
        victims — the replying manager must own every evicted directory
        entry so it can drop them from its own shard.  Returns the
        evicted pool offsets."""
        evicted = []
        while True:
            # first-fit frees lazily; merge so largest_free is honest
            self.allocator.coalesce()
            if self.allocator.largest_free() >= size:
                break
            ineligible = set(self._pinned)
            ineligible.update(off for off, s in self._region_shard.items()
                              if s != shard)
            victim = self.cache_policy.victim(pinned=ineligible)
            if victim is None:
                break
            bytes_out = self._regions.pop(victim)
            self.allocator.free(victim)
            self._region_shard.pop(victim, None)
            self._cache_remove(victim)
            evicted.append(victim)
            self.stats.add("cache.evictions")
            self.stats.add("cache.evicted_bytes", bytes_out)
            if self.sim.eventlog.enabled:
                self.sim.eventlog.debug(
                    self.sim, "imd", "cache.evict", host=self.ws.name,
                    epoch=self.epoch, region_id=victim, bytes=bytes_out)
        return evicted

    # -- RPC handlers -----------------------------------------------------------------
    def _h_ping(self, args: dict, src) -> dict:
        return self._piggyback({"ok": not self.stopping,
                                "epoch": self.epoch})

    def _h_inventory(self, args: dict, src) -> dict:
        """List hosted regions (optionally only those a given shard
        placed) — the promoted primary's anti-entropy scrub uses this to
        find regions its replicated directory never heard of."""
        shard = args.get("shard")
        regions = [[off, size] for off, size in sorted(self._regions.items())
                   if shard is None
                   or self._region_shard.get(off, 0) == shard]
        reply = {"ok": not self.stopping, "epoch": self.epoch,
                 "regions": regions}
        if args.get("heat") and self.cache_policy is not None:
            # separate field so the [[offset, size]] shape of "regions"
            # stays stable for the anti-entropy scrub
            reply["heat"] = [[off, self.cache_policy.heat(off)]
                             for off, _ in regions]
        return self._piggyback(reply)

    def _h_alloc(self, args: dict, src) -> dict:
        if self.stopping:
            return self._piggyback({"ok": False, "reason": "shutting down"})
        size = int(args["size"])
        shard = int(args.get("shard", 0))
        offset = self.allocator.alloc(size)
        evicted: list = []
        if offset is None and self.cache_policy is not None:
            # evict in policy order (the coalesce inside may open space
            # even when nothing is evicted), then retry once
            evicted = self._evict_for(size, shard)
            offset = self.allocator.alloc(size)
        if offset is None:
            self.stats.add("alloc_rejects")
            reply = {"ok": False, "reason": "no space"}
            if evicted:
                reply["evicted"] = evicted
            return self._piggyback(reply)
        self._regions[offset] = size
        self._region_shard[offset] = shard
        self._cache_insert(offset, size)
        self.stats.add("regions_hosted")
        reply = {"ok": True, "region_id": offset, "epoch": self.epoch}
        if self.cache_policy is not None:
            self._gen += 1
            self._region_gen[offset] = self._gen
            reply["gen"] = self._gen
        if evicted:
            reply["evicted"] = evicted
        return self._piggyback(reply)

    def _h_free(self, args: dict, src) -> dict:
        try:
            freed = self.allocator.free(int(args["region_id"]))
        except KeyError:
            return self._piggyback({"ok": False, "reason": "no such region"})
        self._regions.pop(int(args["region_id"]), None)
        self._region_shard.pop(int(args["region_id"]), None)
        self._cache_remove(int(args["region_id"]))
        self.stats.add("regions_freed")
        return self._piggyback({"ok": True, "freed": freed})

    def _region_span(self, args: dict) -> tuple[int, int, int]:
        """Validate (region_id, offset, length) and clamp the length to
        what exists, per the paper's short-read/short-write semantics."""
        region_id = int(args["region_id"])
        size = self._regions.get(region_id)
        if size is None:
            raise KeyError("no such region")
        gen = args.get("gen")
        if gen is not None and int(gen) != self._region_gen.get(region_id):
            # the offset was evicted and re-allocated since this
            # descriptor was minted: fail like a lost region rather
            # than aliasing onto the new tenant's bytes
            raise KeyError("stale generation")
        offset = int(args["offset"])
        length = int(args["length"])
        if offset < 0 or offset > size or length < 0:
            raise ValueError("bad range")
        return region_id, offset, min(length, size - offset)

    def _h_read(self, args: dict, src):
        """Generator handler: blast region bytes back to the client's
        reply port; the RPC reply (bytes pushed) doubles as completion."""
        if self.stopping:
            return {"ok": False, "reason": "shutting down"}
        try:
            region_id, offset, length = self._region_span(args)
        except (KeyError, ValueError) as exc:
            self.stats.add("read_rejects")
            return self._piggyback({"ok": False, "reason": str(exc)})
        self._note_access(region_id)
        sent = yield from self._send_region(
            region_id, offset, length, (src[0], int(args["reply_port"])),
            args.get("window"))
        if not sent:
            self.stats.add("read_aborts")
            return self._piggyback({"ok": False, "reason": "client gone"})
        self.stats.add("bytes_read", length)
        return self._piggyback({"ok": True, "nbytes": length})

    def _send_region(self, region_id: int, offset: int, length: int,
                     dst: tuple[str, int], window: Optional[int]):
        """Generator: blast ``length`` bytes of a hosted region, from
        ``offset``, to ``dst``, as an in-flight transfer that pins the
        region against eviction.  False when the peer went away."""
        data = None
        if self.pool is not None:
            base = region_id + offset
            data = bytes(self.pool[base:base + length])
        self._begin_transfer()
        self._pin(region_id)
        try:
            sock = self.endpoint.socket()
            try:
                yield self.sim.process(send_bulk(sock, dst, length,
                                                 data=data, window=window))
            finally:
                sock.close()
            return True
        except BulkError:
            return False
        finally:
            self._unpin(region_id)
            self._end_transfer()

    def _h_write(self, args: dict, src) -> dict:
        """Open a per-transfer receive socket and tell the client where to
        blast; a detached process lands the bytes in the pool."""
        if self.stopping:
            return {"ok": False, "reason": "shutting down"}
        try:
            region_id, offset, length = self._region_span(args)
        except (KeyError, ValueError) as exc:
            self.stats.add("write_rejects")
            return self._piggyback({"ok": False, "reason": str(exc)})
        self._note_access(region_id)
        sock = self.endpoint.socket()
        self._begin_transfer()
        self._pin(region_id)
        self.sim.process(self._write_receiver(
            sock, region_id, offset, length,
            migrate=bool(args.get("migrate"))))
        return self._piggyback({"ok": True, "data_port": sock.port,
                                "window": sock.recvbuf, "nbytes": length})

    def _write_receiver(self, sock, region_id: int, offset: int,
                        length: int, migrate: bool = False):
        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "imd.write_recv", "imd",
                            {"host": self.ws.name, "bytes": length}) \
            if tracer.enabled else None
        try:
            result = yield self.sim.process(recv_bulk(
                sock, first_timeout=2.0, close_socket=True,
                pregranted=True))
            if result is None:
                self.stats.add("write_aborts")
                sock.close()
                return
            data, total, _ = result
            if self.pool is not None and data is not None:
                base = region_id + offset
                n = min(length, len(data))
                self.pool[base:base + n] = data[:n]
            self.stats.add("bytes_written", total)
            if migrate:
                # landing side of a hot-region migration: counted
                # separately so the auditor can prove byte conservation
                # against the source side's migrate.bytes_out
                self.stats.add("migrate.regions_in")
                self.stats.add("migrate.bytes_in", total)
        finally:
            tracer.end(self.sim, span)
            self._unpin(region_id)
            self._end_transfer()

    def _h_migrate(self, args: dict, src):
        """Generator handler (registered only with ``cache.migration``
        on): blast one hosted region to a destination imd's pre-opened
        write port — the source side of the manager-orchestrated
        hotspot migration (docs/CACHING.md).  ``migrate.bytes_out`` is
        counted before the blast so the auditor's conservation check
        (bytes_in <= bytes_out) holds even mid-transfer."""
        if self.stopping:
            return {"ok": False, "reason": "shutting down"}
        try:
            region_id, offset, length = self._region_span(args)
        except (KeyError, ValueError) as exc:
            self.stats.add("migrate.rejects")
            return self._piggyback({"ok": False, "reason": str(exc)})
        self.stats.add("migrate.bytes_out", length)
        sent = yield from self._send_region(
            region_id, offset, length,
            (str(args["dest_host"]), int(args["data_port"])),
            args.get("window"))
        if not sent:
            self.stats.add("migrate.aborts")
            return self._piggyback({"ok": False, "reason": "dest gone"})
        self.stats.add("migrate.regions_out")
        return self._piggyback({"ok": True, "nbytes": length})
