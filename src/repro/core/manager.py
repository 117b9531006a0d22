"""The central manager daemon (cmd) — Sections 3.1 and 4.3.

Runs on a dedicated machine.  Maintains:

* the **idle-workstation directory (IWD)** — currently idle hosts, each
  with its last known epoch and largest known free block (hints, refreshed
  by piggybacked information on every imd reply and verified before use);
* the **region directory (RD)** — a hash table keyed by
  ``(inode-of-backing-file, offset-in-file)`` mapping to the hosting
  machine, pool offset, length and epoch timestamp.

Exports ``alloc`` / ``checkAlloc`` / ``free`` to runtime libraries and
accepts registrations and busy/idle notifications from the per-host
daemons.  Sends periodic keep-alive echoes to every attached client and
reclaims the regions of clients that stop answering (applications that
died without freeing); clients that *detach cleanly* may leave their
regions behind for a later run (how dmine reuses its dataset across runs,
Section 5.2.1).
"""

from __future__ import annotations

import inspect
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional

from repro.core.config import (CMD_PORT, IMD_RPC_RETRIES,
                               KEEPALIVE_INTERVAL_S, KEEPALIVE_THRESHOLD_S,
                               MIGRATE_MAX_REGIONS, REPL_HEARTBEAT_S,
                               REPL_PROMOTE_MISSES, RPC_TIMEOUT_S,
                               SHARD_ATTEMPTS, DodoConfig)
from repro.core.descriptors import RegionKey, RegionStruct
from repro.core.policy import POLICIES
from repro.core.shard import ShardMap
from repro.cluster.workstation import Workstation
from repro.metrics.recorder import Recorder
from repro.net import rpc
from repro.net.rpc import RpcClient, RpcServer, RpcTimeout
from repro.sim import Interrupt, Resource, Simulator


@dataclass(slots=True)
class IwdEntry:
    """One idle host: epoch + free-space hint + control port."""

    host: str
    epoch: int
    largest_free: int
    port: int


class IdleDirectory(dict):
    """The IWD: host -> :class:`IwdEntry` in registration order, plus
    :attr:`index`, every entry's ``(largest_free, host)`` pair in sorted
    order.

    Item assignment, ``del`` and :meth:`pop` keep the index exact, and a
    hint changes only through :meth:`set_free`, so :meth:`fitting` can
    see that every host fits a request without touching the entries.
    """

    __slots__ = ("index",)

    def __init__(self, entries=()):
        super().__init__()
        self.index: list[tuple[int, str]] = []
        for host, entry in entries:
            self[host] = entry

    def __setitem__(self, host: str, entry: IwdEntry) -> None:
        old = self.get(host)
        if old is not None:  # re-registration keeps the dict position
            self._unindex(old.largest_free, host)
        dict.__setitem__(self, host, entry)
        insort(self.index, (entry.largest_free, host))

    def __delitem__(self, host: str) -> None:
        self._unindex(self[host].largest_free, host)
        dict.__delitem__(self, host)

    def pop(self, host: str, *default):
        if host in self:
            self._unindex(self[host].largest_free, host)
        return dict.pop(self, host, *default)

    def _unsupported(self, *args, **kwargs):
        raise TypeError("the IWD index tracks only item assignment, del, "
                        "pop and set_free")

    update = setdefault = popitem = clear = __ior__ = _unsupported

    def set_free(self, host: str, largest_free: int) -> None:
        """Refresh a host's free-space hint (piggybacked on imd replies);
        unknown hosts are ignored."""
        entry = self.get(host)
        if entry is not None and entry.largest_free != largest_free:
            self._unindex(entry.largest_free, host)
            entry.largest_free = largest_free
            insort(self.index, (largest_free, host))

    def fitting(self, length: int) -> list[str]:
        """Hosts whose hint is at least ``length``, in registration
        order.  When the smallest hint fits, that is every host."""
        if not self.index or self.index[0][0] >= length:
            return list(self)
        return [h for h, e in self.items() if e.largest_free >= length]

    def _unindex(self, largest_free: int, host: str) -> None:
        index = self.index
        del index[bisect_left(index, (largest_free, host))]


@dataclass
class RdEntry:
    """One allocated region and the client that created it (None once the
    creating client detached persistently)."""

    struct: RegionStruct
    owner: Optional[str]


@dataclass
class ClientState:
    """Keep-alive target: the echo endpoint of one runtime library."""

    addr: str
    echo_port: int
    last_echo: float
    missed: int = 0


def _wire_key(key: RegionKey) -> list:
    return [key.inode, key.offset, key.client]


def _unwire_key(raw) -> RegionKey:
    return RegionKey(inode=raw[0], offset=raw[1], client=raw[2])


# The replication log's set-records; _apply_record reads them back.
def _rd_record(key: RegionKey, entry: RdEntry) -> list:
    return ["rd_set", _wire_key(key), entry.struct.to_wire(), entry.owner]


def _iwd_record(entry: IwdEntry) -> list:
    return ["iwd_set", [entry.host, entry.epoch, entry.largest_free,
                        entry.port]]


def _client_record(cid: str, state: ClientState) -> list:
    return ["client_set", [cid, state.addr, state.echo_port]]


class CentralManager:
    """The cmd process and its directories.

    A manager owns the slice of the region directory that its
    ``shard_map`` assigns to ``shard_id``.  The paper's single manager
    is the smallest map, one shard and no backup, built on this host
    when ``shard_map`` is omitted.  Larger maps reject misrouted keys
    with a ``wrong_shard`` reply carrying the current map.
    ``role="backup"`` builds a warm standby instead: it applies the
    primary's shipped mutation log, answers every normal verb with
    ``not_primary``, and promotes itself (same incarnation — the
    directory survives) after missing enough liveness probes.
    """

    def __init__(self, sim: Simulator, ws: Workstation, config: DodoConfig,
                 port: int = CMD_PORT, incarnation: int = 1,
                 shard_id: int = 0, shard_map: Optional[ShardMap] = None,
                 role: str = "primary", peer: Optional[str] = None):
        self.sim = sim
        self.ws = ws
        self.config = config
        #: restart counter: a manager brought back after a crash carries a
        #: higher incarnation, and every client-facing reply and keep-alive
        #: echo is stamped with it so peers can detect the restart and
        #: re-register (directories are in-memory and die with the cmd).
        #: A *promoted backup* keeps the incarnation — the directory
        #: state survived, so peers must NOT discard their descriptors.
        self.incarnation = incarnation
        self.shard_id = shard_id
        self.shard_map = shard_map or ShardMap.single(ws.name)
        if role not in ("primary", "backup"):
            raise ValueError(f"unknown manager role {role!r}")
        if role == "backup" and self.shard_map.primary(shard_id) == ws.name:
            raise ValueError("a backup manager needs a shard map naming "
                             "another primary")
        self.role = role
        #: backup host this primary ships its mutation log to (None =
        #: unreplicated); on a backup, the primary it watches is read
        #: from the shard map instead
        self.peer = peer
        self.stopped = False
        #: replication log-shipping state: next sequence number to ship /
        #: expect, unshipped records, and the degraded latch (set when
        #: the backup stops answering; cleared by repl_sync)
        self.repl_seq = 0
        self._repl_pending: list[list] = []
        self.repl_degraded = False
        self.iwd = IdleDirectory()
        self.rd: dict[RegionKey, RdEntry] = {}
        self.clients: dict[str, ClientState] = {}
        #: a lone primary is the paper's "cmd"; shard managers are "cmdN"
        lone = self.shard_map.lone and role == "primary"
        self.name = "cmd" if lone else f"cmd{shard_id}"
        self.stats = Recorder(self.name)
        self._rng = sim.rng(f"{self.name}.placement")
        self._rr = 0  # round-robin cursor (placement="round-robin")
        #: donors evict under the configured policy, so a donor whose
        #: free-space hint says "full" can still make room
        self._donors_evict = (config.cache.enabled
                              and POLICIES[config.cache.policy].evicts)
        self.endpoint = ws.endpoint(config.transport)
        self.port = port
        self._sock = self.endpoint.socket(port=port)
        self._cpu = Resource(sim, 1) if config.mgr_service_s > 0 else None
        # hotspot-aware reclaim swaps in a *generator* notify_busy (the
        # RpcServer runs generator handlers in their own process); the
        # plain handler stays the default so the paper's event stream is
        # untouched unless migration is configured on
        notify_busy = (self._h_notify_busy_migrate
                       if config.cache.migration else self._h_notify_busy)
        handlers = {
            "alloc": self._routed(self._h_alloc, keyed=True),
            "check_alloc": self._routed(self._h_check_alloc, keyed=True),
            "free": self._routed(self._h_free, keyed=True),
            "imd_register": self._routed(self._h_imd_register),
            "notify_busy": self._routed(notify_busy),
            "client_detach": self._routed(self._h_client_detach),
            "client_attach": self._routed(self._h_client_attach),
            "mgr_ping": self._h_mgr_ping,
            "shard_map": self._h_shard_map,
            "repl_apply": self._h_repl_apply,
            "repl_sync": self._h_repl_sync,
        }
        self._server = RpcServer(self._sock, handlers, name=self.name,
                                 component="manager")
        self._server.start()
        self._keepalive = None
        self._watcher = None
        self._scrubber = None
        if role == "primary":
            self._keepalive = sim.process(self._keepalive_loop())
            if not self.shard_map.lone:
                # the anti-entropy scrub reaps what failover or a
                # cross-shard race orphans; a lone manager has neither
                self._scrubber = sim.process(self._reconcile_loop())
        else:
            self._watcher = sim.process(self._watch_primary())
        if sim.telemetry.enabled:
            # one registration: telemetry files it under component_kind
            sim.telemetry.register(sim, "manager", self.name, self)

    @property
    def component_kind(self) -> Optional[str]:
        """The kind telemetry and the auditor file this manager under
        right now: its current role, so a promoted backup counts as a
        ``manager``; None once stopped."""
        if self.stopped:
            return None
        return "manager" if self.role == "primary" else "manager_backup"

    def stop(self) -> None:
        self.stopped = True
        self._server.stop()
        for proc in (self._keepalive, self._watcher, self._scrubber):
            if proc is not None and proc.is_alive:
                proc.interrupt("cmd-stop")

    # -- routing guards + service time -------------------------------------------
    def _routed(self, inner, keyed: bool = False):
        """Wrap a directory verb for :meth:`_serve`, a generator the
        RpcServer runs in its own process.  A plain verb on a lone
        manager with no service time — the paper's cmd — has nothing
        to wait for and answers in place instead."""
        plain = not inspect.isgeneratorfunction(inner)

        def handler(args: dict, src):
            if plain and self._cpu is None and self.shard_map.lone:
                guard = self._guard(args, keyed)
                return inner(args, src) if guard is None else guard
            return self._serve(inner, keyed, args, src)
        return handler

    def _serve(self, inner, keyed: bool, args: dict, src):
        """Reject calls on a backup (``not_primary``) or for keys this
        shard does not own (``wrong_shard``), charge the modeled
        directory service time, run the verb, then synchronously ship
        any directory mutations to the backup before replying."""
        guard = self._guard(args, keyed)
        if guard is not None:
            return guard
        if self._cpu is not None:
            yield self._cpu.acquire()
            try:
                yield self.sim.timeout(self.config.mgr_service_s)
            finally:
                self._cpu.release()
        result = inner(args, src)
        if hasattr(result, "__next__"):
            reply = yield from result
        else:
            reply = result
        yield from self._repl_flush()
        return reply

    def _guard(self, args: dict, keyed: bool) -> Optional[dict]:
        """The routing checks every directory verb runs first; None
        means the call may proceed."""
        if self.role != "primary":
            self.stats.add("shard.not_primary")
            return self._stamp({
                "ok": False, "not_primary": True,
                "primary": self.shard_map.primary(self.shard_id),
                "shard_map": self.shard_map.to_wire()})
        if keyed and self.shard_map.n_shards > 1:
            key = _unwire_key(args["key"])
            owner = self.shard_map.owner_of(key)
            if owner != self.shard_id:
                self.stats.add("shard.wrong_shard")
                return self._stamp({
                    "ok": False, "wrong_shard": True, "owner": owner,
                    "shard_map": self.shard_map.to_wire()})
        return None

    def _h_mgr_ping(self, args: dict, src) -> dict:
        """Liveness probe (backup -> primary heartbeat)."""
        return {"ok": True, "incarnation": self.incarnation,
                "role": self.role}

    def _h_shard_map(self, args: dict, src) -> dict:
        """Hand out the current routing table."""
        return self._stamp({"ok": True,
                            "shard_map": self.shard_map.to_wire()})

    # -- replication: mutation capture ---------------------------------------------
    # Every directory mutation flows through these helpers so the
    # primary can append a log record; with no peer configured they are
    # plain dict operations (an unreplicated manager pays nothing).
    def _repl_log(self, record: list) -> None:
        if self.peer is not None and self.role == "primary":
            self._repl_pending.append(record)

    def _rd_set(self, key: RegionKey, entry: RdEntry) -> None:
        self.rd[key] = entry
        self._repl_log(_rd_record(key, entry))

    def _rd_del(self, key: RegionKey) -> Optional[RdEntry]:
        entry = self.rd.pop(key, None)
        if entry is not None:
            self._repl_log(["rd_del", _wire_key(key)])
        return entry

    def _iwd_set(self, entry: IwdEntry) -> None:
        self.iwd[entry.host] = entry
        self._repl_log(_iwd_record(entry))

    def _iwd_del(self, host: str) -> None:
        if self.iwd.pop(host, None) is not None:
            self._repl_log(["iwd_del", host])

    def _client_set(self, cid: str, state: ClientState) -> None:
        self.clients[cid] = state
        self._repl_log(_client_record(cid, state))

    def _client_del(self, cid: Optional[str]) -> None:
        if self.clients.pop(cid, None) is not None:
            self._repl_log(["client_del", cid])

    # -- replication: log shipping + snapshots --------------------------------------
    def _repl_flush(self):
        """Ship pending log records to the backup, synchronously (the
        reply a client sees is only sent once the backup acked).  A
        backup that stops answering latches ``repl_degraded`` — the
        primary keeps serving unreplicated (availability over
        durability) until a repl_sync re-attaches a backup."""
        if self.peer is None or self.role != "primary":
            self._repl_pending.clear()
            return
        if not self._repl_pending:
            return
        if self.repl_degraded:
            self._repl_pending.clear()
            return
        records = self._repl_pending
        self._repl_pending = []
        seq_from = self.repl_seq
        self.repl_seq += len(records)
        try:
            reply = yield from self._call(
                (self.peer, self.port), "repl_apply",
                {"shard_id": self.shard_id, "seq_from": seq_from,
                 "records": records, "incarnation": self.incarnation})
        except RpcTimeout:
            self.repl_degraded = True
            self.stats.add("repl.degraded")
            if self.sim.eventlog.enabled:
                self.sim.eventlog.warn(self.sim, "manager",
                                       "repl.degraded", host=self.ws.name,
                                       shard=self.shard_id)
            return
        if reply.get("resync"):
            yield from self._push_snapshot()

    def _push_snapshot(self):
        """Bring a gapped backup back in line with a full state image."""
        try:
            yield from self._call(
                (self.peer, self.port), "repl_apply",
                {"shard_id": self.shard_id, "snapshot": self._snapshot()})
            self.stats.add("repl.snapshots")
        except RpcTimeout:
            self.repl_degraded = True
            self.stats.add("repl.degraded")

    def _snapshot(self) -> dict:
        """Full replication image: the set-records that rebuild the
        directory (rd by key, then the IWD and the clients by name, a
        stable order so identically-seeded runs ship identical bytes),
        plus the log position, incarnation and shard map."""
        def keysort(kv):
            key = kv[0]
            return (key.inode, key.offset, key.client or "")
        records = [_rd_record(k, e)
                   for k, e in sorted(self.rd.items(), key=keysort)]
        records += [_iwd_record(e) for _, e in sorted(self.iwd.items())]
        records += [_client_record(cid, st)
                    for cid, st in sorted(self.clients.items())]
        return {"records": records, "seq": self.repl_seq,
                "incarnation": self.incarnation,
                "shard_map": self.shard_map.to_wire()}

    def _install_snapshot(self, snap: dict) -> None:
        self.rd, self.iwd, self.clients = {}, IdleDirectory(), {}
        for rec in snap["records"]:
            self._apply_record(rec)
        self.repl_seq = int(snap["seq"])
        self.incarnation = int(snap["incarnation"])
        self.shard_map = ShardMap.from_wire(snap["shard_map"])
        self.stats.add("repl.installed")

    def _apply_record(self, rec: list) -> None:
        kind = rec[0]
        if kind == "rd_set":
            self.rd[_unwire_key(rec[1])] = RdEntry(
                struct=RegionStruct.from_wire(rec[2]), owner=rec[3])
        elif kind == "rd_del":
            self.rd.pop(_unwire_key(rec[1]), None)
        elif kind == "iwd_set":
            host, epoch, free, port = rec[1]
            self.iwd[host] = IwdEntry(host=host, epoch=int(epoch),
                                      largest_free=int(free),
                                      port=int(port))
        elif kind == "iwd_del":
            self.iwd.pop(rec[1], None)
        elif kind == "client_set":
            cid, addr, port = rec[1]
            self.clients[cid] = ClientState(addr=addr, echo_port=int(port),
                                            last_echo=self.sim.now)
        elif kind == "client_del":
            self.clients.pop(rec[1], None)

    def _h_repl_apply(self, args: dict, src) -> dict:
        """Backup side of log shipping: apply records in sequence order;
        a gap (lost batch while the primary thought us dead) asks for a
        full snapshot instead of applying out of order."""
        if self.role != "backup":
            return {"ok": False, "reason": "not a backup"}
        if "snapshot" in args:
            self._install_snapshot(args["snapshot"])
            return {"ok": True}
        if int(args["seq_from"]) != self.repl_seq:
            self.stats.add("repl.gap")
            return {"ok": True, "resync": True}
        for rec in args["records"]:
            self._apply_record(rec)
        self.repl_seq += len(args["records"])
        self.stats.add("repl.applied", len(args["records"]))
        return {"ok": True}

    def _h_repl_sync(self, args: dict, src) -> dict:
        """A (new) backup attaches: adopt it as the replication peer,
        clear the degraded latch, publish it in the shard map, and hand
        back a full snapshot."""
        if self.role != "primary":
            return {"ok": False, "not_primary": True,
                    "primary": self.shard_map.primary(self.shard_id)}
        self.peer = args["host"]
        self.repl_degraded = False
        self._repl_pending.clear()
        self.shard_map = self.shard_map.promoted(
            self.shard_id, self.ws.name, args["host"])
        self.stats.add("repl.syncs")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(self.sim, "manager", "repl.attached",
                                   host=args["host"], shard=self.shard_id)
        return {"ok": True, "snapshot": self._snapshot()}

    def resync(self):
        """Backup-side pull: fetch a full snapshot from the shard's
        current primary (per our possibly-stale map, then its
        ``primary`` hint) and install it.  Used by the nemesis healer
        when it stands up a replacement backup."""
        primary = self.shard_map.primary(self.shard_id)
        for _ in range(SHARD_ATTEMPTS):
            if self.stopped:
                return False
            try:
                reply = yield from self._call(
                    (primary, self.port), "repl_sync",
                    {"host": self.ws.name, "shard_id": self.shard_id})
            except RpcTimeout:
                yield self.sim.timeout(REPL_HEARTBEAT_S)
                continue
            if reply.get("ok"):
                self._install_snapshot(reply["snapshot"])
                return True
            hint = reply.get("primary")
            if hint and hint != primary:
                primary = hint
                continue
            yield self.sim.timeout(REPL_HEARTBEAT_S)
        self.stats.add("repl.sync_failed")
        return False

    # -- replication: failover ------------------------------------------------------
    def _watch_primary(self):
        """Backup heartbeat loop: probe the primary; after enough
        consecutive misses, promote ourselves."""
        misses = 0
        try:
            while True:
                yield self.sim.timeout(REPL_HEARTBEAT_S)
                if self.role != "backup" or self.stopped:
                    return
                primary = self.shard_map.primary(self.shard_id)
                try:
                    yield from self._call((primary, self.port), "mgr_ping",
                                          {"shard_id": self.shard_id})
                    misses = 0
                except RpcTimeout:
                    misses += 1
                    if misses >= REPL_PROMOTE_MISSES:
                        self._promote()
                        return
        except Interrupt:
            return

    def _promote(self) -> None:
        """Become the shard's primary: same incarnation (the replicated
        directory survived — clients keep their descriptors, imds keep
        their regions), new shard-map version pointing at us, keep-alive
        duty, and an anti-entropy scrub for regions leaked by
        operations in flight at the crash."""
        self.role = "primary"
        self.peer = None
        self.shard_map = self.shard_map.promoted(
            self.shard_id, self.ws.name, None)
        self.stats.add("repl.promotions")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.warn(self.sim, "manager", "mgr.promoted",
                                   host=self.ws.name, shard=self.shard_id,
                                   version=self.shard_map.version)
        self._keepalive = self.sim.process(self._keepalive_loop())
        self._scrubber = self.sim.process(
            self._reconcile_loop(immediate=True))

    def _reconcile_loop(self, immediate: bool = False):
        """Periodic anti-entropy scrub: inventory every known imd for
        regions tagged to this shard and free those the directory does
        not reference (an alloc whose reply was lost, an alloc placed
        but not yet shipped when the old primary died, a free shipped
        but not yet executed, a client retry that double-placed).

        A region must be orphaned across *two consecutive* passes before
        it is freed — a single-pass orphan may simply be an alloc whose
        directory insert is still in flight.  ``immediate=True`` (used
        at promotion) runs a first mark-only pass right away so crash
        leftovers are reaped one interval later rather than two.
        """
        if self.config.scrub_interval_s <= 0:
            return
        suspects: set = set()
        try:
            if immediate:
                suspects = yield from self._scrub_pass(suspects,
                                                       free=False)
            while not self.stopped:
                yield self.sim.timeout(self.config.scrub_interval_s)
                suspects = yield from self._scrub_pass(suspects)
        except Interrupt:
            return

    def _scrub_pass(self, suspects: set, free: bool = True):
        """One inventory sweep; returns the (host, epoch, offset) set of
        orphans seen (and not freed) this pass."""
        seen: set = set()
        freed = 0
        for host in sorted(self.iwd):
            if self.stopped:
                return seen
            iwd = self.iwd.get(host)
            if iwd is None:
                continue
            reply = yield from self._imd_call(
                iwd, "inventory", {"shard": self.shard_id})
            if reply is None or not reply.get("ok"):
                continue
            if int(reply["epoch"]) != iwd.epoch:
                continue
            hosted = sorted(int(off) for off, _ in reply["regions"])
            if not hosted:
                continue
            placed = self._placed_on(host)
            for off in hosted:
                live = self.iwd.get(host)
                if live is None or live.epoch != iwd.epoch:
                    break
                if (iwd.epoch, off) in placed:
                    continue
                tag = (host, iwd.epoch, off)
                if free and tag in suspects:
                    yield from self._imd_call(
                        iwd, "free", {"region_id": off})
                    freed += 1
                    # the directory may have changed during the call
                    placed = self._placed_on(host)
                else:
                    seen.add(tag)
        yield from self._repl_flush()
        if freed:
            self.stats.add("scrub.freed", freed)
            if self.sim.eventlog.enabled:
                self.sim.eventlog.info(self.sim, "manager", "scrub.freed",
                                       host=self.ws.name,
                                       shard=self.shard_id, regions=freed)
        return seen

    def _placed_on(self, host: str) -> set:
        """``(epoch, pool_offset)`` of every region the directory places
        on ``host``."""
        return {(e.struct.epoch, e.struct.pool_offset)
                for e in self.rd.values() if e.struct.host == host}

    # -- imd-facing handlers ---------------------------------------------------------
    def _h_imd_register(self, args: dict, src) -> dict:
        entry = IwdEntry(host=args["host"], epoch=int(args["epoch"]),
                         largest_free=int(args["largest_free"]),
                         port=int(args["port"]))
        self._iwd_set(entry)
        self.stats.add("imd_registrations")
        return {"ok": True, "incarnation": self.incarnation}

    def _h_notify_busy(self, args: dict, src,
                       migrated: Optional[int] = None) -> dict:
        """A host was reclaimed: drop it from the IWD.  Its RD entries are
        invalidated lazily by the epoch check, as in the paper.  The
        migrating variant passes how many regions it moved first, which
        the event and the reply then carry."""
        host = args["host"]
        self._iwd_del(host)
        self.stats.add("busy_notifications")
        detail = {} if migrated is None else {"migrated": migrated}
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(self.sim, "manager", "host.busy",
                                   host=host, **detail)
        return {"ok": True, **detail}

    def _h_notify_busy_migrate(self, args: dict, src):
        """Generator variant of notify_busy (installed only with
        ``cache.migration`` on): before dropping the busy host from the
        IWD, migrate its hottest directory-referenced regions to other
        donors so clients refetch from remote memory instead of disk
        (docs/CACHING.md).  Migration runs while the source imd is still
        draining — the rmd only shuts it down once this reply lands —
        and the per-reclaim byte/region budget keeps that well inside
        the busy-notification retry window."""
        migrated = yield from self._migrate_from(args["host"])
        return self._h_notify_busy(args, src, migrated=migrated)

    def _migrate_from(self, host: str):
        """Hotspot-aware reclaim: pull the busy imd's heat-annotated
        inventory, then move its hottest regions (hot first, bounded by
        ``MIGRATE_MAX_REGIONS`` / ``migrate_max_bytes``) to other idle
        hosts.  Returns the number of regions moved."""
        iwd = self.iwd.get(host)
        if iwd is None:
            return 0
        reply = yield from self._imd_call(
            iwd, "inventory", {"shard": self.shard_id, "heat": True})
        if reply is None or not reply.get("ok") \
                or int(reply["epoch"]) != iwd.epoch:
            return 0
        heat = {int(off): int(h) for off, h in reply.get("heat", [])}
        regions = [(int(off), int(size)) for off, size in reply["regions"]]
        regions.sort(key=lambda t: (-heat.get(t[0], 0), t[0]))
        by_offset = {e.struct.pool_offset: key
                     for key, e in self.rd.items()
                     if e.struct.host == host
                     and e.struct.epoch == iwd.epoch}
        moved = 0
        budget = self.config.cache.migrate_max_bytes
        for off, size in regions:
            if moved >= MIGRATE_MAX_REGIONS or budget <= 0:
                break
            if size > budget:
                continue
            key = by_offset.get(off)
            if key is None:
                continue  # not directory-referenced: nothing to save
            ok = yield from self._migrate_one(iwd, key, off, size,
                                              heat.get(off, 0))
            if ok:
                moved += 1
                budget -= size
        return moved

    def _migrate_one(self, src_iwd: "IwdEntry", key: RegionKey,
                     off: int, size: int, heat: int):
        """Move one region: alloc on a destination donor, open its write
        port, have the source blast the bytes straight across, repoint
        the directory entry (with the destination's epoch), then free
        the source copy.  Any failure leaves the old entry intact — the
        region just gets reclaimed the paper's way."""
        self.stats.add("migrate.attempted")
        entry = self.rd.get(key)
        if entry is None:
            self.stats.add("migrate.failed")
            return False
        candidates = self._candidates(size, exclude=src_iwd.host)
        while candidates:
            pick = self._pick_candidate(candidates)
            dest = self.iwd.get(pick)
            if dest is None:
                continue
            areply = yield from self._imd_call(
                dest, "alloc", {"size": size, "shard": self.shard_id})
            if areply is None:
                continue
            # a refused alloc may have evicted regions making room
            self._drop_evicted(pick, int(areply.get("epoch", dest.epoch)),
                               areply.get("evicted"))
            if not areply.get("ok"):
                continue
            dest_off = int(areply["region_id"])
            dest_epoch = int(areply["epoch"])
            dest_gen = int(areply.get("gen", 0))
            wargs = {"region_id": dest_off, "offset": 0,
                     "length": size, "migrate": True}
            if dest_gen:
                wargs["gen"] = dest_gen
            wreply = yield from self._imd_call(dest, "write", wargs)
            if wreply is None or not wreply.get("ok"):
                yield from self._free_on(pick, dest_off)
                continue
            margs = {"region_id": off, "offset": 0, "length": size,
                     "dest_host": pick, "data_port": wreply["data_port"],
                     "window": wreply.get("window")}
            if entry.struct.gen:
                # reject at the source if the hot region was evicted
                # (and its offset re-used) while we were setting up
                margs["gen"] = entry.struct.gen
            mreply = yield from self._imd_call(src_iwd, "migrate", margs)
            if mreply is None or not mreply.get("ok"):
                yield from self._free_on(pick, dest_off)
                break  # the source is the problem; stop trying dests
            live = self.rd.get(key)
            if live is None:
                # the client freed the region mid-flight: drop the copy
                yield from self._free_on(pick, dest_off)
                break
            struct = RegionStruct(host=pick, pool_offset=dest_off,
                                  length=size, epoch=dest_epoch,
                                  gen=dest_gen)
            self._rd_set(key, RdEntry(struct=struct, owner=live.owner))
            yield from self._free_on(src_iwd.host, off)
            self.stats.add("migrate.ok")
            self.stats.add("migrate.bytes", size)
            if self.sim.eventlog.enabled:
                self.sim.eventlog.info(
                    self.sim, "manager", "cache.migrate",
                    host=src_iwd.host, dest=pick, bytes=size, heat=heat)
            return True
        self.stats.add("migrate.failed")
        return False

    def _free_on(self, host: str, region_id: int):
        """Best-effort free of one region on a (possibly gone) imd."""
        iwd = self.iwd.get(host)
        if iwd is not None:
            yield from self._imd_call(iwd, "free", {"region_id": region_id})

    def _drop_evicted(self, host: str, epoch: int, evicted) -> None:
        """An imd alloc evicted cold regions to make space: drop their
        directory entries (the imd only evicts regions this shard
        placed, so every entry is ours to drop)."""
        if not evicted:
            return
        offs = {int(o) for o in evicted}
        doomed = [k for k, e in self.rd.items()
                  if e.struct.host == host and e.struct.epoch == epoch
                  and e.struct.pool_offset in offs]
        for k in doomed:
            self._rd_del(k)
        if doomed:
            self.stats.add("cache.entries_evicted", len(doomed))
            if self.sim.eventlog.enabled:
                self.sim.eventlog.debug(
                    self.sim, "manager", "cache.evict_drop", host=host,
                    regions=len(doomed))

    # -- client-facing handlers ----------------------------------------------------
    def _stamp(self, reply: dict) -> dict:
        """Stamp a client-facing reply with this manager's incarnation so
        the runtime library can detect a restart (pure metadata — the
        charged wire size does not depend on the payload dict)."""
        reply["mgr_incarnation"] = self.incarnation
        reply["shard"] = self.shard_id
        return reply

    def _track_client(self, args: dict, src) -> Optional[str]:
        client = args.get("client")
        echo_port = args.get("echo_port")
        if client is None or echo_port is None:
            return client
        state = self.clients.get(client)
        if state is None:
            self._client_set(client, ClientState(
                addr=src[0], echo_port=int(echo_port),
                last_echo=self.sim.now))
        else:
            state.last_echo = self.sim.now
        return client

    def _h_check_alloc(self, args: dict, src) -> dict:
        self._track_client(args, src)
        key = _unwire_key(args["key"])
        entry = self.rd.get(key)
        if entry is None:
            self.stats.add("check.miss")
            return self._stamp({"ok": False})
        if self._live(entry.struct) is None:
            # stale: the hosting imd is gone or has been restarted
            self._rd_del(key)
            self.stats.add("check.stale")
            if self.sim.eventlog.enabled:
                self.sim.eventlog.info(self.sim, "manager", "region.stale",
                                       host=entry.struct.host,
                                       epoch=entry.struct.epoch)
            return self._stamp({"ok": False})
        self.stats.add("check.hit")
        return self._stamp({"ok": True, "region": entry.struct.to_wire()})

    def _pick_candidate(self, candidates: list[str]) -> str:
        """Remove and return the next host to try, per the configured
        placement policy.  "random" draws from the seeded placement
        stream (the paper's behavior, bit-identical to the original
        implementation); "most-free" prefers the largest free-block
        hint; "round-robin" cycles through candidates in IWD order."""
        placement = self.config.placement
        if placement == "most-free":
            idx = max(range(len(candidates)),
                      key=lambda i: (self.iwd[candidates[i]].largest_free
                                     if candidates[i] in self.iwd else -1,
                                     -i))
            return candidates.pop(idx)
        if placement == "round-robin":
            idx = self._rr % len(candidates)
            self._rr += 1
            return candidates.pop(idx)
        return candidates.pop(int(self._rng.integers(0, len(candidates))))

    def _h_alloc(self, args: dict, src):
        """Generator handler: place a new region on an idle host with
        enough space (chosen by :attr:`DodoConfig.placement`), verifying
        hints before trusting them."""
        client = self._track_client(args, src)
        key = _unwire_key(args["key"])
        length = int(args["length"])

        existing = self.rd.get(key)
        if existing is not None:
            if self._live(existing.struct) is not None \
                    and existing.struct.length >= length:
                self.stats.add("alloc.reused")
                existing.owner = client or existing.owner
                self._repl_log(_rd_record(key, existing))
                return self._stamp(
                    {"ok": True, "region": existing.struct.to_wire()})
            self._rd_del(key)  # stale or too small: replace

        candidates = self._candidates(length)
        while candidates:
            pick = self._pick_candidate(candidates)
            iwd = self.iwd.get(pick)
            if iwd is None:
                continue
            reply = yield from self._imd_call(
                iwd, "alloc", {"size": length, "shard": self.shard_id})
            if reply is None:
                continue  # host vanished; already dropped from IWD
            self._drop_evicted(pick, int(reply.get("epoch", iwd.epoch)),
                               reply.get("evicted"))
            if reply.get("ok"):
                struct = RegionStruct(host=pick,
                                      pool_offset=int(reply["region_id"]),
                                      length=length,
                                      epoch=int(reply["epoch"]),
                                      gen=int(reply.get("gen", 0)))
                self._rd_set(key, RdEntry(struct=struct, owner=client))
                self.stats.add("alloc.placed")
                if self.sim.eventlog.enabled:
                    self.sim.eventlog.info(
                        self.sim, "manager", "region.placed", host=pick,
                        bytes=length, offset=struct.pool_offset)
                return self._stamp(
                    {"ok": True, "region": struct.to_wire()})
            self.stats.add("alloc.host_full")
        self.stats.add("alloc.enomem")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.warn(self.sim, "manager", "region.enomem",
                                   bytes=length)
        return self._stamp({"ok": False, "reason": "no idle memory"})

    def _h_free(self, args: dict, src):
        self._track_client(args, src)
        key = _unwire_key(args["key"])
        entry = self._rd_del(key)
        if entry is None:
            self.stats.add("free.miss")
            return self._stamp({"ok": False, "reason": "no such region"})
        yield from self._free_entry(entry)
        self.stats.add("free.ok")
        if self.sim.eventlog.enabled:
            self.sim.eventlog.info(self.sim, "manager", "region.freed",
                                   host=entry.struct.host,
                                   bytes=entry.struct.length)
        return self._stamp({"ok": True})

    def _h_client_detach(self, args: dict, src):
        """Clean shutdown of a runtime library.  ``persist=True`` leaves
        the client's regions in remote memory for a future run."""
        client = args.get("client")
        persist = bool(args.get("persist", False))
        self._client_del(client)
        freed = 0
        if not persist:
            freed = yield from self._reclaim_client(client)
        else:
            for key, entry in self.rd.items():
                if entry.owner == client:
                    entry.owner = None
                    self._repl_log(_rd_record(key, entry))
            self.stats.add("detach.persist")
        return self._stamp({"ok": True, "freed": freed})

    def _h_client_attach(self, args: dict, src) -> dict:
        """Explicit (re-)attach: lets a client that detected a manager
        restart resume keep-alive tracking without another side effect."""
        self._track_client(args, src)
        self.stats.add("client_attaches")
        return self._stamp({"ok": True})

    # -- shared helpers -----------------------------------------------------------
    def _call(self, dst: tuple[str, int], method: str, args: dict,
              retries: int = 1):
        """Generator: one control call from a fresh socket, with the
        control timeout and the configured backoff."""
        cfg = self.config
        return rpc.call(self.endpoint, dst, method, args,
                        timeout=RPC_TIMEOUT_S, retries=retries,
                        backoff_s=cfg.rpc_backoff_s,
                        backoff_jitter=cfg.rpc_backoff_jitter)

    def _live(self, struct: RegionStruct) -> Optional[IwdEntry]:
        """The IWD entry of the imd hosting ``struct``, or None when that
        host left the IWD or its imd restarted (a newer epoch)."""
        iwd = self.iwd.get(struct.host)
        return iwd if iwd is not None and iwd.epoch == struct.epoch \
            else None

    def _candidates(self, length: int,
                    exclude: Optional[str] = None) -> list[str]:
        """Hosts to offer a ``length``-byte region, in IWD order, without
        ``exclude``.  When none fits but donors evict, a host whose hint
        says "full" can still make room: offer them all and let each imd
        answer ENOMEM only when eviction can't open a large-enough
        hole."""
        hosts = self.iwd.fitting(length)
        if exclude is not None:
            hosts = [h for h in hosts if h != exclude]
        if not hosts and self._donors_evict:
            hosts = [h for h in self.iwd if h != exclude]
        return hosts

    def _free_entry(self, entry: RdEntry):
        """Free a dropped directory entry's region on its imd, unless that
        imd is gone (its pool went with it)."""
        iwd = self._live(entry.struct)
        if iwd is not None:
            yield from self._imd_call(
                iwd, "free", {"region_id": entry.struct.pool_offset})

    def _imd_call(self, iwd: IwdEntry, method: str, args: dict):
        """Call one imd; updates the free-space hint from the piggyback.
        Returns the reply dict or None (host declared dead and removed)."""
        try:
            reply = yield from self._call((iwd.host, iwd.port), method, args,
                                          retries=IMD_RPC_RETRIES)
        except RpcTimeout:
            self._iwd_del(iwd.host)
            self.stats.add("imd.dead")
            if self.sim.eventlog.enabled:
                self.sim.eventlog.warn(self.sim, "manager", "imd.dead",
                                       host=iwd.host, epoch=iwd.epoch)
            return None
        if "largest_free" in reply:
            self.iwd.set_free(iwd.host, int(reply["largest_free"]))
        return reply

    def _reclaim_client(self, client: Optional[str]):
        """Free every region owned by ``client`` (keep-alive expiry or
        non-persistent detach)."""
        tracer = self.sim.tracer
        span = tracer.begin(self.sim, "cmd.reclaim", "manager",
                            {"client": client}) if tracer.enabled else None
        doomed = [k for k, e in self.rd.items() if e.owner == client]
        freed = 0
        try:
            for key in doomed:
                entry = self._rd_del(key)
                if entry is None:
                    continue
                yield from self._free_entry(entry)
                freed += 1
        finally:
            tracer.end(self.sim, span, {"freed": freed})
        if freed:
            self.stats.add("reclaimed_regions", freed)
        return freed

    def _keepalive_loop(self):
        """Echo every attached client; reclaim those that stay silent past
        the threshold (Section 3.1 fault handling)."""
        tracer = self.sim.tracer
        try:
            while True:
                yield self.sim.timeout(KEEPALIVE_INTERVAL_S)
                sweep = tracer.begin(
                    self.sim, "cmd.keepalive", "manager",
                    {"clients": len(self.clients)}) \
                    if tracer.enabled and self.clients else None
                for cid in list(self.clients):
                    state = self.clients.get(cid)
                    if state is None:
                        continue
                    # not rpc.call: the socket stays bound through the
                    # reclaim below, or a late echo reply would count as
                    # rx.dropped.no_port
                    sock = self.endpoint.socket()
                    try:
                        yield from RpcClient(sock).call(
                            (state.addr, state.echo_port), "echo",
                            {"client": cid, "incarnation": self.incarnation,
                             "shard": self.shard_id},
                            timeout=RPC_TIMEOUT_S, retries=2)
                        state.last_echo = self.sim.now
                        state.missed = 0
                    except RpcTimeout:
                        state.missed += 1
                        silent = self.sim.now - state.last_echo
                        if silent >= KEEPALIVE_THRESHOLD_S:
                            self.stats.add("clients_expired")
                            self._client_del(cid)
                            if self.sim.eventlog.enabled:
                                self.sim.eventlog.warn(
                                    self.sim, "manager", "client.expired",
                                    host=state.addr, client=cid)
                            yield self.sim.process(
                                self._drain_reclaim(cid))
                    finally:
                        sock.close()
                if sweep is not None:
                    tracer.end(self.sim, sweep)
        except Interrupt:
            return

    def _drain_reclaim(self, cid: str):
        yield from self._reclaim_client(cid)
        yield from self._repl_flush()
