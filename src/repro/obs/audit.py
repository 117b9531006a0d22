"""Online invariant auditing: catch silent cross-component divergence.

A distributed-by-construction simulation can rot quietly: the manager's
region directory can drift from what the idle memory daemons actually
host, an allocator's accounting can leak, network counters can stop
conserving datagrams.  The auditor cross-checks those invariants *while
the system runs* — at telemetry sample points — and again at teardown,
when the cluster is quiescent and stronger (race-free) checks apply.

Checks are deliberately conservative: a mid-run pass only asserts
invariants that hold at every instant (e.g. a region directory entry
whose host+epoch the manager currently vouches for must be backed by a
live imd), while checks that are only true of a quiesced system (every
hosted region appears in the directory) run at teardown only.  A clean
run of every shipped experiment must produce **zero findings** — that is
enforced in CI — while a corrupted directory entry must be detected
(``tests/obs/test_audit.py``).

``mode`` selects how loudly divergence fails: ``"warn"`` records
findings (and mirrors them to the event log); ``"raise"`` additionally
raises :class:`AuditError` at the end of the failing pass.
"""

from __future__ import annotations

from dataclasses import dataclass

#: audit modes, in increasing loudness
MODES = ("off", "warn", "raise")


class AuditError(AssertionError):
    """Raised in ``raise`` mode when an audit pass finds divergence."""


@dataclass(frozen=True)
class Finding:
    """One detected inconsistency."""

    check: str      # e.g. "directory.missing_region"
    subject: str    # the component / host / key concerned
    detail: str     # human-readable description
    time: float     # virtual time of the audit pass

    def __str__(self) -> str:
        return f"[t={self.time:.3f}] {self.check} {self.subject}: {self.detail}"


class Auditor:
    """Runs invariant checks over the components of one or more runs.

    Wire it into a :class:`~repro.obs.timeseries.Telemetry` (checks run
    at sample points and at ``finalize()``), or call
    :meth:`audit_components` directly with ``(kind, name, obj)`` triples
    (what :meth:`repro.exp.platform.Platform.audit` does).
    """

    def __init__(self, mode: str = "warn", eventlog=None):
        if mode not in MODES:
            raise ValueError(f"unknown audit mode {mode!r}, "
                             f"expected one of {MODES}")
        self.mode = mode
        self.eventlog = eventlog
        self.findings: list[Finding] = []
        self.passes = 0

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    # -- entry points ------------------------------------------------------
    def audit_run(self, run, sim, teardown: bool = False) -> list[Finding]:
        """Audit one telemetry run's registered components."""
        return self.audit_components(sim, run.live_components(), teardown)

    def audit_components(self, sim, components, teardown: bool = False
                         ) -> list[Finding]:
        """One audit pass; returns (and records) this pass's findings.

        ``components`` is an iterable of ``(kind, name, obj)``; in
        ``raise`` mode the pass raises :class:`AuditError` after
        recording everything it found.
        """
        if not self.enabled:
            return []
        self.passes += 1
        by_kind: dict[str, list] = {}
        for kind, _name, obj in components:
            by_kind.setdefault(kind, []).append(obj)
        found: list[Finding] = []
        self._check_directory(sim, by_kind, teardown, found)
        self._check_shards(sim, by_kind, found)
        self._check_replication(sim, by_kind, teardown, found)
        self._check_allocators(sim, by_kind, found)
        self._check_donations(sim, by_kind, found)
        self._check_network(sim, by_kind, found)
        self._check_migration(sim, by_kind, teardown, found)
        for f in found:
            self.findings.append(f)
            log = self.eventlog
            if log is not None and log.enabled:
                log.error(sim, "audit", f.check, host=f.subject,
                          detail=f.detail)
        if found and self.mode == "raise":
            raise AuditError(
                f"audit pass at t={sim.now:.3f} found "
                f"{len(found)} inconsistenc"
                f"{'y' if len(found) == 1 else 'ies'}:\n"
                + "\n".join(f"  {f}" for f in found))
        return found

    def format_report(self) -> str:
        if not self.findings:
            return f"audit: {self.passes} passes, no inconsistencies"
        lines = [f"audit: {self.passes} passes, "
                 f"{len(self.findings)} finding(s):"]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)

    # -- checks ------------------------------------------------------------
    def _live_imds(self, by_kind) -> dict[tuple[str, int], object]:
        """Live daemons keyed by (host, epoch) — an rmd restarts its imd
        with a fresh epoch, so the pair is unique among live daemons."""
        live = {}
        for imd in by_kind.get("imd", ()):
            if not imd.exited:
                live[(imd.ws.name, imd.epoch)] = imd
        return live

    @staticmethod
    def _crashed_hosts(by_kind) -> set:
        return {ws.name for ws in by_kind.get("workstation", ())
                if ws.crashed}

    @staticmethod
    def _killed_imds(by_kind) -> set:
        """(host, epoch) incarnations that died with their host.  The
        manager discovers such deaths lazily (next RPC timeout), so
        directory entries pointing at them are expected, not divergence."""
        return {(imd.ws.name, imd.epoch) for imd in by_kind.get("imd", ())
                if getattr(imd, "killed", False)}

    def _check_directory(self, sim, by_kind, teardown, found) -> None:
        """Manager region directory vs. what the imds actually host.

        Forward (any time): an RD entry whose (host, epoch) the manager's
        idle-workstation directory still vouches for must be backed by a
        live imd hosting a large-enough allocated region at that offset.
        Reverse (teardown only — mid-run an alloc reply can be in flight
        between the imd and the manager): every region hosted by a
        vouched-for imd must appear in the directory.  With a sharded
        directory the reverse check is against the *union* of all shard
        directories — each shard only knows its own slice.
        """
        live = self._live_imds(by_kind)
        crashed = self._crashed_hosts(by_kind)
        killed = self._killed_imds(by_kind)
        for cmd in by_kind.get("manager", ()):
            vouched: dict[tuple[str, int], object] = {}
            for entry_key, entry in list(cmd.rd.items()):
                s = entry.struct
                iwd = cmd.iwd.get(s.host)
                if iwd is None or iwd.epoch != s.epoch:
                    continue  # stale entry, invalidated lazily by design
                imd = live.get((s.host, s.epoch))
                if imd is None:
                    if s.host in crashed or (s.host, s.epoch) in killed:
                        # hard crash: the manager only learns on its next
                        # RPC timeout — stale vouching is by design
                        continue
                    found.append(Finding(
                        "directory.unbacked", s.host,
                        f"RD entry {entry_key} points at epoch {s.epoch} "
                        f"which the IWD vouches for, but no live imd "
                        f"incarnation exists", sim.now))
                    continue
                vouched[(s.host, s.epoch)] = imd
                hosted = imd._regions.get(s.pool_offset)
                if hosted is None:
                    found.append(Finding(
                        "directory.missing_region", s.host,
                        f"RD entry {entry_key} expects a region at pool "
                        f"offset {s.pool_offset}, imd hosts none there",
                        sim.now))
                    continue
                if hosted < s.length:
                    found.append(Finding(
                        "directory.length_mismatch", s.host,
                        f"RD entry {entry_key} says {s.length} bytes at "
                        f"offset {s.pool_offset}, imd hosts {hosted}",
                        sim.now))
                backing = imd.allocator.allocated_size(s.pool_offset)
                if backing is None or backing < hosted:
                    found.append(Finding(
                        "directory.unallocated", s.host,
                        f"region at offset {s.pool_offset} "
                        f"({hosted} bytes) is not backed by an allocated "
                        f"block (allocator says {backing})", sim.now))
        if not teardown:
            return
        mgrs = list(by_kind.get("manager", ()))
        for (host, epoch), imd in live.items():
            vouchers = [cmd for cmd in mgrs
                        if cmd.iwd.get(host) is not None
                        and cmd.iwd[host].epoch == epoch]
            if not vouchers:
                continue
            in_rd: set[int] = set()
            for cmd in vouchers:
                in_rd |= {e.struct.pool_offset for e in cmd.rd.values()
                          if e.struct.host == host
                          and e.struct.epoch == epoch}
            for offset in imd._regions:
                if offset not in in_rd:
                    found.append(Finding(
                        "directory.orphan_region", host,
                        f"imd hosts a region at offset {offset} that "
                        f"no RD entry in any shard references", sim.now))

    def _check_shards(self, sim, by_kind, found) -> None:
        """Cross-shard exclusivity and routing (any time).

        No region key may appear in two primaries' directories, and a
        primary must only hold keys the hash ring routes to it.
        """
        seen: dict = {}
        for cmd in by_kind.get("manager", ()):
            for key in cmd.rd:
                other = seen.get(key)
                if other is not None and other != cmd.shard_id:
                    found.append(Finding(
                        "shard.duplicate_key", f"cmd{cmd.shard_id}",
                        f"region key {key} is owned by both shard "
                        f"{other} and shard {cmd.shard_id}", sim.now))
                else:
                    seen[key] = cmd.shard_id
                if cmd.shard_map.n_shards > 1:
                    owner = cmd.shard_map.owner_of(key)
                    if owner != cmd.shard_id:
                        found.append(Finding(
                            "shard.misrouted", f"cmd{cmd.shard_id}",
                            f"region key {key} hashes to shard {owner} "
                            f"but sits in shard {cmd.shard_id}'s "
                            f"directory", sim.now))

    def _check_replication(self, sim, by_kind, teardown, found) -> None:
        """Backup log-shipping vs. primary state.

        Mid-run, a backup may only *lag* its primary (seq monotonicity).
        At teardown (quiesced, and replication not degraded) the backup
        must hold byte-identical directory state: region directory wire
        forms, IWD membership (host/epoch/port — free-space hints are
        deliberately not replicated), and known-client sets.
        """
        backups = {cmd.shard_id: cmd
                   for cmd in by_kind.get("manager_backup", ())}
        if not backups:
            return
        for cmd in by_kind.get("manager", ()):
            bak = backups.get(cmd.shard_id)
            if bak is None or cmd.peer != bak.ws.name:
                continue
            sid = cmd.shard_id
            if bak.repl_seq > cmd.repl_seq:
                found.append(Finding(
                    "replication.seq", f"cmd{sid}",
                    f"backup applied seq {bak.repl_seq}, primary only "
                    f"shipped {cmd.repl_seq}", sim.now))
            if not teardown or cmd.repl_degraded:
                continue
            if cmd._repl_pending:
                found.append(Finding(
                    "replication.unshipped", f"cmd{sid}",
                    f"{len(cmd._repl_pending)} mutation(s) still "
                    f"queued at quiesce", sim.now))
            p_rd = {str(k): e.struct.to_wire() for k, e in cmd.rd.items()}
            b_rd = {str(k): e.struct.to_wire() for k, e in bak.rd.items()}
            if p_rd != b_rd:
                only_p = sorted(set(p_rd) - set(b_rd))
                only_b = sorted(set(b_rd) - set(p_rd))
                diff = sorted(k for k in set(p_rd) & set(b_rd)
                              if p_rd[k] != b_rd[k])
                found.append(Finding(
                    "replication.rd_divergence", f"cmd{sid}",
                    f"primary-only={only_p} backup-only={only_b} "
                    f"differing={diff}", sim.now))
            p_iwd = {h: (w.epoch, w.port) for h, w in cmd.iwd.items()}
            b_iwd = {h: (w.epoch, w.port) for h, w in bak.iwd.items()}
            if p_iwd != b_iwd:
                found.append(Finding(
                    "replication.iwd_divergence", f"cmd{sid}",
                    f"primary={sorted(p_iwd.items())} "
                    f"backup={sorted(b_iwd.items())}", sim.now))
            if set(cmd.clients) != set(bak.clients):
                found.append(Finding(
                    "replication.client_divergence", f"cmd{sid}",
                    f"primary={sorted(cmd.clients)} "
                    f"backup={sorted(bak.clients)}", sim.now))

    def _check_allocators(self, sim, by_kind, found) -> None:
        """Each live imd's allocator accounting must be self-consistent
        and every hosted region must sit inside an allocated block."""
        for imd in by_kind.get("imd", ()):
            if imd.exited:
                continue
            host = imd.ws.name
            alloc = imd.allocator
            for problem in alloc.check():
                found.append(Finding("allocator.inconsistent", host,
                                     problem, sim.now))
            if alloc.used_bytes + alloc.free_bytes != alloc.pool_size:
                found.append(Finding(
                    "allocator.accounting", host,
                    f"used {alloc.used_bytes} + free {alloc.free_bytes} "
                    f"!= pool {alloc.pool_size}", sim.now))
            if alloc.largest_free() > alloc.free_bytes:
                found.append(Finding(
                    "allocator.accounting", host,
                    f"largest free block {alloc.largest_free()} exceeds "
                    f"total free {alloc.free_bytes}", sim.now))
            for offset, size in imd._regions.items():
                backing = alloc.allocated_size(offset)
                if backing is None or backing < size:
                    found.append(Finding(
                        "allocator.region_unbacked", host,
                        f"hosted region ({offset}, {size}) has allocator "
                        f"backing {backing}", sim.now))

    def _check_donations(self, sim, by_kind, found) -> None:
        """Workstation guest-memory accounting vs. summed live-imd pools,
        and the manager's free-space hints vs. the donating pools."""
        donated: dict[str, int] = {}
        for imd in by_kind.get("imd", ()):
            if not imd.exited:
                donated[imd.ws.name] = donated.get(imd.ws.name, 0) \
                    + imd.pool_bytes
        for ws in by_kind.get("workstation", ()):
            if ws.crashed:
                # a crashed host's memory state is unobservable (and any
                # imd on it was killed with the OS); audit it on recovery
                continue
            expect = donated.get(ws.name, 0)
            if ws.guest_memory != expect:
                found.append(Finding(
                    "donation.accounting", ws.name,
                    f"workstation pins {ws.guest_memory} guest bytes but "
                    f"live imd pools sum to {expect}", sim.now))
        live = self._live_imds(by_kind)
        for cmd in by_kind.get("manager", ()):
            for host, iwd in cmd.iwd.items():
                imd = live.get((host, iwd.epoch))
                if imd is not None and iwd.largest_free > imd.pool_bytes:
                    found.append(Finding(
                        "donation.hint", host,
                        f"IWD free-space hint {iwd.largest_free} exceeds "
                        f"the {imd.pool_bytes}-byte pool", sim.now))

    def _check_network(self, sim, by_kind, found) -> None:
        """Conservation: the fabric can drop traffic (loss, downed NICs)
        but never invent it — per-NIC receive counters must not exceed
        the network's transmit counters."""
        for net in by_kind.get("network", ()):
            nics = [n for n in by_kind.get("nic", ())
                    if n.network is net]
            if not nics:
                continue
            tx_b = net.stats.count("tx.bytes")
            tx_d = net.stats.count("tx.datagrams")
            rx_b = sum(n.stats.count("rx.bytes") for n in nics)
            rx_d = sum(n.stats.count("rx.datagrams") for n in nics)
            if rx_b > tx_b:
                found.append(Finding(
                    "network.conservation", "network",
                    f"NICs received {rx_b} bytes, network only "
                    f"transmitted {tx_b}", sim.now))
            if rx_d > tx_d:
                found.append(Finding(
                    "network.conservation", "network",
                    f"NICs received {rx_d} datagrams, network only "
                    f"transmitted {tx_d}", sim.now))
            if net.stats.count("tx.frames") < tx_d:
                found.append(Finding(
                    "network.conservation", "network",
                    f"{net.stats.count('tx.frames')} frames carried "
                    f"{tx_d} datagrams (need >= 1 frame each)", sim.now))

    def _check_migration(self, sim, by_kind, teardown, found) -> None:
        """Hotspot-migration conservation (docs/CACHING.md).

        Any time: summed destination-side ``migrate.bytes_in`` may never
        exceed summed source-side ``migrate.bytes_out`` — migration can
        lose a transfer (busy source torn down mid-blast) but never
        invent bytes.  The source counts bytes *before* blasting, so the
        inequality holds even mid-transfer.  Imd stat recorders survive
        exit, so exited daemons stay in the sums.  At teardown every
        manager's attempts must be fully accounted:
        ``migrate.attempted == migrate.ok + migrate.failed``.
        """
        imds = list(by_kind.get("imd", ()))
        if imds:
            bytes_out = sum(i.stats.count("migrate.bytes_out")
                            for i in imds)
            bytes_in = sum(i.stats.count("migrate.bytes_in")
                           for i in imds)
            if bytes_in > bytes_out:
                found.append(Finding(
                    "migration.conservation", "imd",
                    f"destinations landed {bytes_in} migrated bytes, "
                    f"sources only sent {bytes_out}", sim.now))
        if not teardown:
            return
        for cmd in by_kind.get("manager", ()):
            attempted = cmd.stats.count("migrate.attempted")
            settled = cmd.stats.count("migrate.ok") \
                + cmd.stats.count("migrate.failed")
            if attempted != settled:
                found.append(Finding(
                    "migration.unaccounted", f"cmd{cmd.shard_id}",
                    f"{attempted} migration attempt(s), only {settled} "
                    f"settled as ok/failed", sim.now))
