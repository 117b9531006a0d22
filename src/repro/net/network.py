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


class CostTable(dict):
    """What each datagram shape costs one transport: shape ->
    ``(frames, leg)``, filled on first use by
    :meth:`~repro.net.params.LinkParams.frames_for` and
    :meth:`Network.leg`.

    A cost that depends only on the transport parameters and the shape
    is computed once per network: every send, fast datagram and bulk
    plan reads it here.  A single datagram's shape is its size; a
    burst's or a blast's is the whole argument tuple of
    :meth:`Network.leg` after ``p``.  A hit is one dict lookup and no
    call, and an entry is the very tuple ``leg`` returned, so times stay
    bit-identical.
    """

    __slots__ = ("network", "params")

    def __init__(self, network: "Network", params: TransportParams):
        super().__init__()
        self.network = network
        self.params = params

    def __missing__(self, shape) -> tuple:
        network = self.network
        if shape.__class__ is tuple:
            cost = (shape[1], network.leg(self.params, *shape))
        else:
            frames = network.link.frames_for(shape)
            cost = (frames, network.leg(self.params, shape, frames))
        self[shape] = cost
        return cost


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
        #: only over hosts no other traffic holds (see :meth:`fast_clear`)
        self._inflight: dict[str, int] = {}
        #: fault injection: extra per-frame loss probability folded into
        #: every endpoint's own loss model (nemesis loss bursts)
        self.extra_loss_prob: float = 0.0
        #: fault injection: current partition as frozensets of host names;
        #: hosts in different groups cannot reach each other (hosts in no
        #: group form one implicit group).  None = fully connected.
        self._partition: Optional[list[frozenset]] = None
        #: one cost table per transport parameter set; the sets are
        #: frozen and hash by value, so equal copies share a table
        self._costs: dict[TransportParams, CostTable] = {}
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

    def _register(self, hosts: tuple[str, ...]) -> None:
        counts = self._inflight
        for h in hosts:
            counts[h] = counts.get(h, 0) + 1

    def _release(self, hosts: tuple[str, ...]) -> None:
        counts = self._inflight
        for h in hosts:
            counts[h] -= 1

    def bulk_begin(self, src: str, dst: str) -> BulkToken:
        token = BulkToken((src,) if src == dst else (src, dst))
        self._register(token.hosts)
        self._bulk_tokens.append(token)
        return token

    def bulk_end(self, token: BulkToken) -> None:
        self._release(token.hosts)
        self._bulk_tokens.remove(token)

    def fast_clear(self, params: TransportParams, src: str, dst: str,
                   own: int) -> bool:
        """May a closed form own the host pair ``src``/``dst`` now?

        True when the sender's transport (``params``) and the injected
        loss are lossless, both NICs are up and reachable, all four
        serialization engines are idle, and each host's in-flight count
        equals ``own``, the caller's own registrations (0 for a
        datagram, 1 for a bulk transfer).
        """
        # The in-flight count is the cheapest test and the usual refusal
        # (all 32,519 datagram refusals of a seed-1 serve run saw another
        # registration), so it goes first; every test here is pure.
        inflight = self._inflight
        if inflight.get(src, 0) != own or inflight.get(dst, 0) != own:
            return False
        if params.frame_loss_prob > 0.0 or self.extra_loss_prob > 0.0:
            return False
        src_nic = self._nics.get(src)
        dst_nic = self._nics.get(dst)
        if src_nic is None or src_nic.down or dst_nic is None \
                or dst_nic.down:
            return False
        if self._partition is not None and not self.reachable(src, dst):
            return False
        return src_nic.quiescent and dst_nic.quiescent

    def fast_arm(self, token: BulkToken):
        """Arm (and return) the token's mid-transfer abort event."""
        if token.abort is None:
            token.abort = Event(self.sim)
        return token.abort

    def _abort_fast(self, cut) -> None:
        """Fire the armed abort of every registered transfer whose hosts
        ``cut`` says lost their path, in registration order."""
        for token in self._bulk_tokens:
            abort = token.abort
            if abort is not None and not abort.triggered and cut(token.hosts):
                abort.succeed()
                self.stats.add("fastpath.aborts")

    def notify_nic_down(self, addr: str) -> None:
        """Called by a NIC's ``down`` setter: abort in-flight fast
        transfers that touch the failed host."""
        self._abort_fast(lambda hosts: addr in hosts)

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
        self._abort_fast(lambda hosts: len(hosts) == 2
                         and not self.reachable(*hosts))

    def clear_partition(self) -> None:
        self._partition = None

    # -- cost model -----------------------------------------------------------
    def cost_table(self, params: TransportParams) -> CostTable:
        """The cost table of transport ``params`` on this network."""
        table = self._costs.get(params)
        if table is None:
            table = self._costs[params] = CostTable(self, params)
        return table

    def frames_for(self, payload_bytes: int) -> int:
        """Ethernet frames needed for one datagram of ``payload_bytes``."""
        return self.link.frames_for(payload_bytes)

    def leg(self, p: TransportParams, size: int, frames: int,
            count: int = 1, c0: int = 0, f0: int = 0, cl: int = 0,
            fl: int = 0) -> tuple:
        """Event-time deltas of one datagram of ``size`` bytes in
        ``frames`` frames, or of one burst of ``count`` chunks whose first
        is ``c0`` bytes in ``f0`` frames and whose last ``cl`` in ``fl``.

        The one place a datagram's cost becomes time.  Returns ``(cpu,
        tx_hold, switch, rx_hold, tail)``: the sender's CPU before the NIC
        takes the datagram, the TX engine hold, the switch latency plus
        the leading frame, the RX engine hold, and the receiver's CPU
        after it.  A burst pipelines: the sender blocks only for its first
        chunk's CPU, the rest overlaps (and, if CPU-bound, throttles) the
        wire, and the receiver processes frames as they arrive, so only
        the last chunk's CPU trails the stream.  Receiver CPU is charged
        with the sender's ``p``.  The packet path waits out each delta as
        one timeout and the fast paths add them in the same order, so
        both reach bit-identical event times.
        """
        cpu = p.cpu_time(size, frames, count, p.send_overhead_s)
        recv = p.cpu_time(size, frames, count, p.recv_overhead_s)
        link = self.link
        wire = link.wire_time(size, frames)
        switch = link.switch_latency_s + link.frame_time(
            min(size, link.mtu_bytes - 28))
        if count == 1:
            return cpu, wire, switch, wire, recv
        first = min(cpu, p.cpu_time(c0, f0, 1, p.send_overhead_s))
        tx_hold = max(wire, cpu - first)
        tail = min(recv, p.cpu_time(cl, fl, 1, p.recv_overhead_s))
        return first, tx_hold, switch, max(tx_hold, recv - tail), tail

    # -- transmission ----------------------------------------------------------
    def transmit(self, dgram: Datagram, params: TransportParams,
                 frames: int, leg: tuple):
        """Carry ``dgram`` (``frames`` frames costing ``leg``, see
        :meth:`leg`) once its sender's CPU is done; returns the
        transmission process.

        The process value is True if the datagram (or any chunk of a
        burst) was delivered, False if it was lost or the destination is
        down/absent.
        """
        return self.sim.process(self._transmit(dgram, params, frames, leg))

    def _transmit(self, dgram: Datagram, params: TransportParams,
                  frames: int, leg: tuple):
        src_nic = self._nics.get(dgram.src)
        if src_nic is None or src_nic.down:
            self.stats.add("tx.dropped.src_down")
            return False
        tally = self.stats.tally
        tally["tx.datagrams"] += dgram.count
        tally["tx.bytes"] += dgram.size
        tally["tx.frames"] += frames
        delivered = yield from self._transmit_tail(src_nic, dgram, params,
                                                   leg)
        return delivered

    def _transmit_tail(self, src_nic: NIC, dgram: Datagram,
                       params: TransportParams, leg: tuple):
        """Packet path from the TX-engine grant onward (also the fallback
        continuation when a fast datagram finds its TX engine busy)."""
        yield src_nic.tx.acquire()
        rx_proc = self.sim.process(self._rx_side(dgram, params, leg))
        yield self.sim.timeout(leg[1])
        src_nic.tx.release()
        delivered = yield rx_proc
        return delivered

    def _rx_side(self, dgram: Datagram, params: TransportParams,
                 leg: tuple):
        yield self.sim.timeout(leg[2])
        dst_nic = self._nics.get(dgram.dst)
        if dst_nic is None or dst_nic.down:
            self.stats.add("rx.dropped.dst_down")
            return False
        if self._partition is not None \
                and not self.reachable(dgram.src, dgram.dst):
            self.stats.add("rx.dropped.partitioned")
            return False
        delivered = yield from self._rx_finish(dst_nic, dgram, params, leg)
        return delivered

    def _rx_finish(self, dst_nic: NIC, dgram: Datagram,
                   params: TransportParams, leg: tuple):
        """Packet path from the RX-engine grant onward (also the fallback
        continuation when a fast datagram finds its RX engine busy)."""
        yield dst_nic.rx.acquire()
        yield self.sim.timeout(leg[3])
        dst_nic.rx.release()

        if params.frame_loss_prob > 0.0 or self.extra_loss_prob > 0.0:
            dgram = self._apply_loss(dgram, params)
            if dgram is None:
                return False
        yield self.sim.timeout(leg[4])
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

    def fast_transmit(self, dgram: Datagram, params: TransportParams,
                      frames: int, leg: tuple) -> Optional["Event"]:
        """Carry a single uncontended datagram with O(1) events.

        ``frames`` and ``leg`` are the datagram's cost-table entry (see
        :class:`CostTable`); bursts never come here.  Returns the send
        event — firing with ``dgram.size`` after the sender-side CPU
        overhead, exactly like ``USocket._send_proc`` — or None when the
        fast path cannot engage (switched off, a loopback, or a host pair
        :meth:`fast_clear` refuses): the caller then uses the packet path
        unchanged.
        """
        src, dst = dgram.src, dgram.dst
        sim = self.sim
        if not sim.fastpath or src == dst \
                or not self.fast_clear(params, src, dst, 0):
            return None

        # The packet path's schedule from the same deltas, added in the
        # same order:
        #   t1         sender CPU done; TX engine taken      (_send_proc)
        #   t1+tx_hold TX engine released                    (_transmit)
        #   t_arr      leading frame through the switch      (_rx_side)
        #   t_rx       RX engine released, loss point        (_rx_finish)
        #   t_dlv      receiver CPU done; datagram delivered (_rx_finish)
        size = dgram.size
        cpu, tx_hold, switch, rx_hold, tail = leg
        t1 = sim.now + cpu
        t_arr = t1 + switch
        t_rx = t_arr + rx_hold
        t_dlv = t_rx + tail

        pair = (src, dst)
        self._register(pair)
        tally = self.stats.tally
        tally["fastpath.dgrams"] += 1

        def stage_send(_evt):
            # t1: the NIC takes the datagram (packet path: _transmit entry)
            nic = self._nics.get(src)
            if nic is None or nic.down:
                self.stats.add("tx.dropped.src_down")
                self._release(pair)
                return
            tally["tx.datagrams"] += 1
            tally["tx.bytes"] += size
            tally["tx.frames"] += frames
            if not nic.tx.try_acquire():
                # the engine got busy since clearance: packet continuation
                self.stats.add("fastpath.dgram_fallbacks")
                sim.process(self._fallback(
                    self._transmit_tail(nic, dgram, params, leg), pair))
                return
            # the engine is ours without an event; release() at t1+tx_hold
            # grants it on to anyone who queued meanwhile
            sim.at(t1 + tx_hold).callbacks.append(stage_tx_done)
            sim.at(t_arr).callbacks.append(stage_arrive)

        def stage_tx_done(_evt):
            self._nics[src].tx.release()

        def stage_arrive(_evt):
            # t_arr: leading frame at the receiver (packet: _rx_side checks)
            nic = self._nics.get(dst)
            if nic is None or nic.down:
                self.stats.add("rx.dropped.dst_down")
                self._release(pair)
                return
            if self._partition is not None and not self.reachable(src, dst):
                self.stats.add("rx.dropped.partitioned")
                self._release(pair)
                return
            if not nic.rx.try_acquire():
                self.stats.add("fastpath.dgram_fallbacks")
                sim.process(self._fallback(
                    self._rx_finish(nic, dgram, params, leg), pair))
                return
            sim.at(t_rx).callbacks.append(stage_rx_done)

        def stage_rx_done(_evt):
            # t_rx: serialization complete; the loss point.  The transport
            # is lossless (fast_clear), so only a loss burst that started
            # mid-flight makes the packet path draw, and then so does this.
            self._nics[dst].rx.release()
            if self.extra_loss_prob > 0.0 \
                    and self._apply_loss(dgram, params) is None:
                self._release(pair)
                return
            sim.at(t_dlv).callbacks.append(stage_deliver)

        def stage_deliver(_evt):
            # t_dlv: receiver CPU charged; deliver() re-checks NIC state
            self._nics[dst].deliver(dgram)
            self._release(pair)

        evt = sim.at(t1, value=size)
        evt.callbacks.append(stage_send)
        return evt

    def _fallback(self, rest, pair: tuple[str, str]):
        """A fast datagram that found an engine busy after clearance
        finishes on the packet path (``rest``, its continuation from that
        engine's grant), keeping its hosts registered until delivery so
        no new fast traffic engages over them."""
        try:
            delivered = yield from rest
        finally:
            self._release(pair)
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
