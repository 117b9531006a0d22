"""The switched-Ethernet fabric connecting all workstations.

Models the paper's 16-port BayStack 350: every host has a dedicated
full-duplex 100 Mb/s link to one store-and-forward switch.  A transmission

1. occupies the sender's TX engine for its full serialization time,
2. crosses the switch after ``switch_latency + first_frame_time`` (frames
   pipeline through the switch, so only the leading frame's store-and-
   forward delay is on the critical path),
3. occupies the receiver's RX engine for the serialization time (running
   concurrently with the sender's TX — this is where receiver-side
   contention between multiple senders appears),
4. suffers per-frame Bernoulli loss (burst datagrams lose individual
   chunks; single datagrams are dropped whole, matching IP fragmentation
   semantics where one lost fragment kills the datagram),
5. is charged the receiver's per-datagram CPU overhead and delivered to
   the NIC's port demux.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.recorder import Recorder
from repro.net.nic import NIC
from repro.net.packet import Datagram
from repro.net.params import LinkParams, TransportParams
from repro.sim import Event, Simulator


class BulkToken:
    """Registration of one in-flight bulk transfer (see ``bulk_begin``).

    ``abort`` is armed only by the flow-level fast path: it fires when a
    NIC on either end goes down mid-transfer, so an analytically-completed
    transfer can notice failures it no longer observes packet by packet.
    """

    __slots__ = ("hosts", "abort")

    def __init__(self, hosts: tuple[str, ...]):
        self.hosts = hosts
        self.abort = None


class Network:
    """The cluster switch plus all attached host links."""

    def __init__(self, sim: Simulator, link: LinkParams | None = None):
        self.sim = sim
        self.link = link or LinkParams()
        self._nics: dict[str, NIC] = {}
        self.stats = Recorder("network")
        self._loss_rng = sim.rng("net.loss")
        #: in-flight bulk transfers, for fast-path contention clearance
        self._bulk_tokens: list[BulkToken] = []
        #: per host, the registered bulk transfers plus the fast-path
        #: datagrams in flight that touch it; both fast paths engage
        #: only over hosts no other traffic holds (see :meth:`inflight`)
        self._inflight: dict[str, int] = {}
        #: engage the flow-level datagram fast path (see fast_transmit);
        #: timing-identical to the packet path, False forces every
        #: datagram through the packet-by-packet simulation
        self.dgram_fastpath: bool = True
        #: fault injection: extra per-frame loss probability folded into
        #: every endpoint's own loss model (nemesis loss bursts)
        self.extra_loss_prob: float = 0.0
        #: fault injection: current partition as frozensets of host names;
        #: hosts in different groups cannot reach each other (hosts in no
        #: group form one implicit group).  None = fully connected.
        self._partition: Optional[list[frozenset]] = None
        if sim.telemetry.enabled:
            sim.telemetry.register(sim, "network", "network", self)

    def attach(self, nic: NIC) -> None:
        if nic.addr in self._nics:
            raise ValueError(f"host {nic.addr!r} already attached")
        self._nics[nic.addr] = nic
        nic.network = self

    def nic(self, addr: str) -> NIC:
        return self._nics[addr]

    def host_nic(self, addr: str) -> Optional[NIC]:
        """Like :meth:`nic` but returns None for unknown hosts."""
        return self._nics.get(addr)

    @property
    def hosts(self) -> list[str]:
        return list(self._nics)

    # -- in-flight registry ----------------------------------------------------
    # Every bulk transfer (packet or fast path) registers the hosts it
    # touches for its duration, and so does every fast-path datagram.
    # Both fast paths consult these counts to detect competing traffic
    # and fall back to the packet path when a host is already busy: a
    # fast datagram occupies an engine at a *future* instant no
    # closed-form plan can see.  The bulk path also arms the token's
    # abort event so a NIC going down mid-flight cancels the analytic
    # completion.

    def bulk_begin(self, src: str, dst: str) -> BulkToken:
        token = BulkToken((src,) if src == dst else (src, dst))
        counts = self._inflight
        for h in token.hosts:
            counts[h] = counts.get(h, 0) + 1
        self._bulk_tokens.append(token)
        return token

    def bulk_end(self, token: BulkToken) -> None:
        counts = self._inflight
        for h in token.hosts:
            counts[h] -= 1
        self._bulk_tokens.remove(token)

    def inflight(self, host: str) -> int:
        """Registered bulk transfers plus in-flight fast-path datagrams
        touching ``host``."""
        return self._inflight.get(host, 0)

    def fast_arm(self, token: BulkToken):
        """Arm (and return) the token's mid-transfer abort event."""
        if token.abort is None:
            token.abort = Event(self.sim)
        return token.abort

    def notify_nic_down(self, addr: str) -> None:
        """Called by a NIC's ``down`` setter: abort in-flight fast
        transfers that touch the failed host."""
        for token in self._bulk_tokens:
            if token.abort is not None and addr in token.hosts \
                    and not token.abort.triggered:
                token.abort.succeed()
                self.stats.add("fastpath.aborts")

    # -- fault injection -------------------------------------------------------
    def reachable(self, a: str, b: str) -> bool:
        """Can ``a`` currently reach ``b``?  True unless a partition puts
        them in different groups (absent hosts share an implicit group)."""
        if self._partition is None or a == b:
            return True
        ga = next((i for i, g in enumerate(self._partition) if a in g), None)
        gb = next((i for i, g in enumerate(self._partition) if b in g), None)
        return ga == gb

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def set_partition(self, groups) -> None:
        """Partition the switch into ``groups`` (iterables of host names).

        In-flight fast-path transfers whose endpoints land on different
        sides are aborted, exactly as when a NIC goes down: the analytic
        completion would otherwise never observe the cut.
        """
        self._partition = [frozenset(g) for g in groups]
        self.stats.add("partitions")
        for token in self._bulk_tokens:
            if token.abort is None or token.abort.triggered \
                    or len(token.hosts) != 2:
                continue
            if not self.reachable(token.hosts[0], token.hosts[1]):
                token.abort.succeed()
                self.stats.add("fastpath.aborts")

    def clear_partition(self) -> None:
        self._partition = None

    # -- framing -------------------------------------------------------------
    def frames_for(self, payload_bytes: int) -> int:
        """Ethernet frames needed for one datagram of ``payload_bytes``."""
        return self.link.frames_for(payload_bytes)

    def burst_frames(self, dgram: Datagram) -> int:
        if dgram.is_burst:
            return sum(self.frames_for(c.size) for c in dgram.chunks)
        return self.frames_for(dgram.size)

    # -- transmission ----------------------------------------------------------
    def transmit(self, dgram: Datagram, params: TransportParams,
                 min_hold: float = 0.0):
        """Start carrying ``dgram``; returns the transmission process.

        ``min_hold`` is residual sender CPU work that overlaps the wire
        (burst pipelining): the TX engine is held for
        ``max(wire_time, min_hold)``, so a CPU-bound sender throttles the
        transmission instead of paying CPU and wire serially.

        The process value is True if the datagram (or any chunk of a
        burst) was delivered, False if it was lost or the destination is
        down/absent.
        """
        return self.sim.process(self._transmit(dgram, params, min_hold))

    def _transmit(self, dgram: Datagram, params: TransportParams,
                  min_hold: float):
        src_nic = self._nics.get(dgram.src)
        if src_nic is None or src_nic.down:
            self.stats.add("tx.dropped.src_down")
            return False
        frames = self.burst_frames(dgram)
        wire = self.link.wire_time(dgram.size, frames)
        hold = max(wire, min_hold)
        first = self.link.frame_time(
            min(dgram.size, self.link.mtu_bytes - 28))
        self.stats.add("tx.datagrams", dgram.count)
        self.stats.add("tx.bytes", dgram.size)
        self.stats.add("tx.frames", frames)
        delivered = yield from self._transmit_tail(src_nic, dgram, params,
                                                   hold, first)
        return delivered

    def _transmit_tail(self, src_nic: NIC, dgram: Datagram,
                       params: TransportParams, hold: float, first: float):
        """Packet path from the TX-engine grant onward (also the fallback
        continuation when a fast datagram finds its TX engine busy)."""
        yield src_nic.tx.acquire()
        rx_proc = self.sim.process(self._rx_side(dgram, params, hold, first))
        yield self.sim.timeout(hold)
        src_nic.tx.release()
        delivered = yield rx_proc
        return delivered

    def _rx_side(self, dgram: Datagram, params: TransportParams,
                 wire: float, first_frame: float):
        yield self.sim.timeout(self.link.switch_latency_s + first_frame)
        dst_nic = self._nics.get(dgram.dst)
        if dst_nic is None or dst_nic.down:
            self.stats.add("rx.dropped.dst_down")
            return False
        if not self.reachable(dgram.src, dgram.dst):
            self.stats.add("rx.dropped.partitioned")
            return False

        # Receiver CPU: frames are processed as they arrive, so for bursts
        # only the final chunk's processing trails the last frame; the
        # rest overlaps (and throttles) the stream.
        frames = self.burst_frames(dgram)
        cpu_total = params.cpu_time(dgram.size, frames, dgram.count,
                                    params.recv_overhead_s)
        if dgram.is_burst and dgram.count > 1:
            last = dgram.chunks[-1]
            tail = min(cpu_total, params.cpu_time(
                last.size, self.frames_for(last.size), 1,
                params.recv_overhead_s))
            hold = max(wire, cpu_total - tail)
        else:
            tail = cpu_total
            hold = wire

        delivered = yield from self._rx_finish(dst_nic, dgram, params,
                                               hold, tail)
        return delivered

    def _rx_finish(self, dst_nic: NIC, dgram: Datagram,
                   params: TransportParams, hold: float, tail: float):
        """Packet path from the RX-engine grant onward (also the fallback
        continuation when a fast datagram finds its RX engine busy)."""
        yield dst_nic.rx.acquire()
        yield self.sim.timeout(hold)
        dst_nic.rx.release()

        dgram = self._apply_loss(dgram, params)
        if dgram is None:
            return False
        yield self.sim.timeout(tail)
        dst_nic.deliver(dgram)
        return True

    # -- datagram fast path -----------------------------------------------------
    # The RPC-rate twin of the bulk fast path (net/bulk.py): on the common
    # lossless, uncontended configuration a single datagram costs ~13
    # events across three generator processes just to prove that nothing
    # contended.  fast_transmit computes the same timeline in closed form
    # and walks it with five plain events and zero processes.  Each stage
    # *re-validates* the condition the packet path would have checked at
    # that instant and falls back to the exact packet-path continuation
    # when the world changed mid-flight, so virtual times, stats and
    # deliveries are identical either way (ties at equal timestamps may
    # interleave differently; see docs/PERFORMANCE.md).

    def fast_transmit(self, dgram: Datagram,
                      params: TransportParams) -> Optional["Event"]:
        """Carry a single uncontended datagram with O(1) events.

        Returns the send event — firing with ``dgram.size`` after the
        sender-side CPU overhead, exactly like ``USocket._send_proc`` —
        or None when the fast path cannot engage (burst, lossy transport,
        engines busy, competing bulk/datagram traffic, partition, either
        NIC down): the caller then uses the packet path unchanged.
        """
        if not self.dgram_fastpath or dgram.is_burst or dgram.count != 1 \
                or dgram.src == dgram.dst:
            return None
        if params.frame_loss_prob > 0.0 or self.extra_loss_prob > 0.0:
            return None
        src_nic = self._nics.get(dgram.src)
        dst_nic = self._nics.get(dgram.dst)
        if src_nic is None or src_nic.down or dst_nic is None \
                or dst_nic.down:
            return None
        if not self.reachable(dgram.src, dgram.dst):
            return None
        if not (src_nic.quiescent and dst_nic.quiescent):
            return None
        inflight = self._inflight
        src, dst = dgram.src, dgram.dst
        if inflight.get(src, 0) or inflight.get(dst, 0):
            return None

        # The packet path's exact schedule, replayed float-for-float:
        #   t1      sender CPU done; TX engine taken       (_send_proc)
        #   t1+wire TX engine released                     (_transmit)
        #   t_arr   leading frame through the switch       (_rx_side)
        #   t_rx    RX engine released, loss point         (_rx_side)
        #   t_dlv   receiver CPU done; datagram delivered  (_rx_side)
        sim = self.sim
        link = self.link
        frames = self.frames_for(dgram.size)
        wire = link.wire_time(dgram.size, frames)
        first = link.frame_time(min(dgram.size, link.mtu_bytes - 28))
        t1 = sim.now + params.cpu_time(dgram.size, frames, 1,
                                       params.send_overhead_s)
        tail = params.cpu_time(dgram.size, frames, 1,
                               params.recv_overhead_s)
        t_arr = t1 + (link.switch_latency_s + first)
        t_rx = t_arr + wire
        t_dlv = t_rx + tail

        inflight[src] = inflight.get(src, 0) + 1
        inflight[dst] = inflight.get(dst, 0) + 1
        self.stats.add("fastpath.dgrams")

        def finish():
            inflight[src] -= 1
            inflight[dst] -= 1

        def stage_send(_evt):
            # t1: the NIC takes the datagram (packet path: _transmit entry)
            nic = self._nics.get(src)
            if nic is None or nic.down:
                self.stats.add("tx.dropped.src_down")
                finish()
                return
            self.stats.add("tx.datagrams", 1)
            self.stats.add("tx.bytes", dgram.size)
            self.stats.add("tx.frames", frames)
            tx = nic.tx
            if tx._in_use or tx._waiters:
                # the engine got busy since clearance: packet continuation
                self.stats.add("fastpath.dgram_fallbacks")
                sim.process(self._dgram_fallback_tx(
                    nic, dgram, params, wire, first, finish))
                return
            # grant the idle engine directly — release() below restores
            # the normal waiter-granting path for anyone who queues up
            tx._in_use += 1
            sim.call_at(t1 + wire, tx.release)
            arr = sim.at(t_arr)
            arr.callbacks.append(stage_arrive)

        def stage_arrive(_evt):
            # t_arr: leading frame at the receiver (packet: _rx_side checks)
            nic = self._nics.get(dst)
            if nic is None or nic.down:
                self.stats.add("rx.dropped.dst_down")
                finish()
                return
            if not self.reachable(src, dst):
                self.stats.add("rx.dropped.partitioned")
                finish()
                return
            rx = nic.rx
            if rx._in_use or rx._waiters:
                self.stats.add("fastpath.dgram_fallbacks")
                sim.process(self._dgram_fallback_rx(
                    nic, dgram, params, wire, tail, finish))
                return
            rx._in_use += 1
            done = sim.at(t_rx)
            done.callbacks.append(stage_rx_done)

        def stage_rx_done(_evt):
            # t_rx: serialization complete; the loss point.  _apply_loss
            # is a no-op draw-for-draw match of the packet path: it only
            # consumes RNG when a loss burst started mid-flight.
            self._nics[dst].rx.release()
            survived = self._apply_loss(dgram, params)
            if survived is None:
                finish()
                return
            dlv = sim.at(t_dlv)
            dlv.callbacks.append(
                lambda _e, d=survived: stage_deliver(d))

        def stage_deliver(d):
            # t_dlv: receiver CPU charged; deliver() re-checks NIC state
            self._nics[dst].deliver(d)
            finish()

        evt = sim.at(t1, value=dgram.size)
        evt.callbacks.append(stage_send)
        return evt

    def _dgram_fallback_tx(self, src_nic: NIC, dgram: Datagram,
                           params: TransportParams, hold: float,
                           first: float, finish):
        """Fast datagram whose TX engine got busy between clearance and
        handoff: finish on the packet path, keeping the host registered
        until delivery so no new fast traffic engages over it."""
        try:
            delivered = yield from self._transmit_tail(
                src_nic, dgram, params, hold, first)
        finally:
            finish()
        return delivered

    def _dgram_fallback_rx(self, dst_nic: NIC, dgram: Datagram,
                           params: TransportParams, hold: float,
                           tail: float, finish):
        """Fast datagram whose RX engine got busy mid-flight: finish on
        the packet path from the RX-engine grant onward."""
        try:
            delivered = yield from self._rx_finish(
                dst_nic, dgram, params, hold, tail)
        finally:
            finish()
        return delivered

    # -- loss model ------------------------------------------------------------
    def _apply_loss(self, dgram: Datagram,
                    params: TransportParams) -> Datagram | None:
        p_frame = params.frame_loss_prob
        if self.extra_loss_prob > 0.0:
            # injected loss burst: frames survive only if they dodge both
            # the endpoint's own loss model and the injected one
            p_frame = 1.0 - (1.0 - p_frame) * (1.0 - self.extra_loss_prob)
        if p_frame <= 0.0:
            return dgram
        if not dgram.is_burst:
            p_drop = 1.0 - (1.0 - p_frame) ** self.frames_for(dgram.size)
            if self._loss_rng.random() < p_drop:
                self.stats.add("loss.datagrams")
                return None
            return dgram
        lost = set()
        for chunk in dgram.chunks:
            p_drop = 1.0 - (1.0 - p_frame) ** self.frames_for(chunk.size)
            if self._loss_rng.random() < p_drop:
                lost.add(chunk.seq)
        if len(lost) == len(dgram.chunks):
            self.stats.add("loss.bursts_total")
            return None
        if lost:
            self.stats.add("loss.chunks", len(lost))
            survivors = [c for c in dgram.chunks if c.seq not in lost]
            return Datagram(
                src=dgram.src, sport=dgram.sport, dst=dgram.dst,
                dport=dgram.dport,
                size=sum(c.size for c in survivors),
                transport=dgram.transport, payload=dgram.payload,
                chunks=tuple(survivors), lost=frozenset(lost))
        return dgram
