"""The bulk data transfer protocol of Section 4.4.

Memory regions can be arbitrarily large and do not fit in individual
packets (~1.5 KB for U-Net, 64 KB for UDP), so Dodo runs its own blast
protocol on top of the datagram layer:

* the region is partitioned into sequence-numbered chunks of the
  transport's maximum payload;
* the sender *negotiates the amount of space available at the receiver*
  (the receive-buffer grant), then *blasts* as many chunks as fit in that
  space and waits;
* when the transfer is set up by an RPC exchange — every mread/mwrite is —
  the receiver's grant rides on that exchange (the mread client IS the
  receiver and states its buffer in the read request; the mwrite reply
  carries the imd's), so no extra negotiation round-trip is paid: pass
  ``window=`` to both ends.  The standalone offer/window handshake remains
  for transfers without a prior control exchange;
* the receiver waits for that number of chunks or a timeout; on timeout it
  identifies the missing chunks by sequence number and sends a **selective
  NACK** listing them; the sender retransmits exactly those;
* duplicate chunks are dropped by sequence number (the paper's footnote 5).

Control-message loss is handled with probe/retry: every control exchange
is retried up to ``max_attempts`` times, and a sender that misses an ACK
probes the receiver instead of re-blasting data.

Each transfer runs on a dedicated ephemeral socket pair, which is how the
runtime library and the idle memory daemons use it.

Flow-level fast path
--------------------

On the common lossless, uncontended configuration the packet-by-packet
simulation spends all its wall-clock time proving that nothing interesting
happened: no chunk is lost, no NACK fires, no engine is contended.  When a
transfer's conditions make it analytically tractable — the host pair
cleared by :meth:`~repro.net.network.Network.fast_clear` (lossless, both
NICs up and reachable, all four engines idle, no competing traffic), a
lossless receiving endpoint, and the receiver parked on its socket in
the matching wait mode — the sender computes the whole blast schedule in
closed form from the same :meth:`~repro.net.network.Network.leg` deltas
the packet path waits out, replaying the exact sequence of float
additions the event loop would perform, and completes the transfer with
O(1) simulator events instead of O(chunks).  The receiver gets one
synthetic ``bulk_fast`` datagram at the exact virtual time it would have
latched the transfer, sleeps to the exact completion time (scheduled
with :meth:`Simulator.at` so no float drift creeps in), and returns the
same bytes.

The plan *validates* itself: any blast whose arrival would not strictly
beat the receiver's NACK deadline, any ACK that would not strictly beat
the sender's probe deadline, any blast that would overflow the receive
buffer — and the planner refuses, falling back to the packet path.  Loss,
contention, a missing or mismatched receiver, or a downed NIC likewise
disengage it at engage time.  Mid-transfer host failures are caught by the
abort event armed on the transfer's :class:`~repro.net.network.BulkToken`:
a NIC going down fires it, and both ends then emulate the packet path's
retry-exhaustion failure.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from repro.net.packet import Chunk, Datagram
from repro.net.usocket import USocket
from repro.sim import AnyOf

#: wire size charged for each control message (offer/window/ack/nack/probe)
CTRL_SIZE = 64

def _next_xfer_id(sim) -> int:
    """Per-simulation transfer id (ids only need to be unique per sim;
    a process-global counter would leak run ordering into traces)."""
    counter = getattr(sim, "_bulk_xfer_ids", None)
    if counter is None:
        counter = sim._bulk_xfer_ids = itertools.count(1)
    return next(counter)


class BulkError(Exception):
    """Transfer failed after exhausting retries (peer dead or unreachable)."""


@dataclass(frozen=True)
class BulkParams:
    """Tunables for one side of a bulk transfer."""

    #: receiver wait before NACKing an incomplete blast; also the sender's
    #: ACK wait before probing
    ack_timeout_s: float = 0.05
    #: attempts per control exchange before declaring the peer dead
    max_attempts: int = 8
    #: how long the receiver lingers after completion to answer probes
    #: whose ACK was lost
    linger_s: float = 0.1


DEFAULT_BULK = BulkParams()


def _nchunks_for(size: int, chunk_size: int) -> int:
    """Chunk count for ``size`` bytes (a zero-length transfer still moves
    one empty chunk through the handshake)."""
    if size <= 0:
        return 1
    return -(-size // chunk_size)


def _partition(size: int, data: Optional[Union[bytes, memoryview]],
               chunk_size: int) -> list[Chunk]:
    """Split ``size`` bytes into sequence-numbered chunks.

    Chunk payloads are zero-copy ``memoryview`` slices of ``data``; bytes
    are only materialized at reassembly on the receiver.
    """
    chunks = []
    view = None if data is None else memoryview(data)
    seq = 0
    off = 0
    while off < size:
        n = min(chunk_size, size - off)
        payload = None if view is None else view[off:off + n]
        chunks.append(Chunk(seq=seq, size=n, data=payload))
        seq += 1
        off += n
    if not chunks:  # zero-length transfer still needs the handshake
        chunks.append(Chunk(seq=0, size=0, data=b"" if data is not None else None))
    return chunks


# ---------------------------------------------------------------------------
# Flow-level fast path: closed-form timing
# ---------------------------------------------------------------------------

class _FastPlan:
    """The precomputed timeline of one analytically-completed transfer."""

    __slots__ = ("t_latch", "t_recv_done", "t_send_done", "nchunks")

    def __init__(self, t_latch: float, t_recv_done: float,
                 t_send_done: float, nchunks: int):
        self.t_latch = t_latch
        self.t_recv_done = t_recv_done
        self.t_send_done = t_send_done
        self.nchunks = nchunks


def _fast_clearance(sock: USocket, dst: tuple[str, int],
                    window: Optional[int],
                    params: BulkParams) -> Optional[USocket]:
    """Is this transfer analytically tractable *right now*?

    Returns the receiver's socket when every engage condition holds, None
    to fall back to the packet path.  Conditions: retry budget available,
    clean socket queues on both ends, the host pair cleared by
    :meth:`~repro.net.network.Network.fast_clear` (this transfer already
    registered itself on both hosts, so it owns one registration each), a
    lossless receiving endpoint, and a receiver parked in ``recv_bulk``
    on the destination socket in the matching wait mode (pregranted
    windows must equal its recvbuf).
    """
    ep = sock.endpoint
    net = ep.network
    if params.max_attempts < 1 or sock.closed or sock._queued_bytes \
            or sock.recvbuf < CTRL_SIZE:
        return None
    if not net.fast_clear(ep.params, ep.addr, dst[0], 1):
        return None
    dst_ep = net.nic(dst[0]).endpoints.get(ep.params.name)
    if dst_ep is None or dst_ep.params.frame_loss_prob > 0.0:
        return None
    dst_sock = dst_ep.socket_for_port(dst[1])
    if dst_sock is None or dst_sock.closed or dst_sock._queued_bytes:
        return None
    mode = dst_sock._bulk_wait_mode
    if window is None:
        if mode != "handshake":
            return None
    elif mode != "pregranted" or window != dst_sock.recvbuf:
        return None
    return dst_sock


def _plan_fast(sock: USocket, dst_sock: USocket, size: int,
               window: Optional[int],
               params: BulkParams) -> Optional[_FastPlan]:
    """Compute the transfer's full timeline in closed form, or refuse.

    Walks the blast schedule blast by blast (O(blasts) float arithmetic,
    zero simulator events), accumulating absolute event times from
    ``sim.now`` with the exact additions the packet path would perform.
    Every blast but the last carries ``per_blast`` full chunks, so two
    blast shapes of the transport's
    :class:`~repro.net.network.CostTable` cover the transfer.
    Refuses (returns None) whenever the lossless packet path would *not*
    be NACK/probe-free: a blast overflowing the receive buffer, an
    arrival not strictly beating the receiver's ack deadline, an ACK not
    strictly beating the sender's, or a latch that would miss the
    receiver's ``first_timeout``.  Ties lose to timeouts in the event
    heap, hence the strict comparisons.
    """
    ep = sock.endpoint
    frames_for = ep.network.link.frames_for
    costs = ep.costs
    chunk_size = ep.params.max_payload
    nchunks = _nchunks_for(size, chunk_size)
    c_tail = size - (nchunks - 1) * chunk_size if size > 0 else 0
    f_c = frames_for(chunk_size)
    f_tail = frames_for(c_tail)
    pregranted = window is not None
    window_bytes = window if pregranted else dst_sock.recvbuf
    per_blast = max(1, window_bytes // max(chunk_size, 1))
    recvbuf = dst_sock.recvbuf
    ack_to = params.ack_timeout_s
    r_ack_to = dst_sock._bulk_ack_timeout
    if r_ack_to is None:
        return None

    # n_full blasts of per_blast full chunks, then one of k chunks
    n_full = (nchunks - 1) // per_blast
    k = nchunks - n_full * per_blast
    last_bytes = (k - 1) * chunk_size + c_tail
    if last_bytes > recvbuf or n_full and per_blast * chunk_size > recvbuf:
        return None
    last = costs[(last_bytes, (k - 1) * f_c + f_tail, k,
                  chunk_size if k > 1 else c_tail, f_c if k > 1 else f_tail,
                  c_tail, f_tail)][1]
    legs = [last]
    if n_full:
        full = costs[(per_blast * chunk_size, per_blast * f_c, per_blast,
                      chunk_size, f_c, chunk_size, f_c)][1]
        legs = [full] * n_full + legs

    #: control legs: sender-initiated (offer/probe) use the sender's
    #: transport params, receiver-initiated (window/ack) the receiver's —
    #: Network.leg charges receiver CPU with the *initiator's* params
    s_cpu, _, s_switch, s_hold, s_tail = costs[CTRL_SIZE][1]
    r_cpu, _, r_switch, r_hold, r_tail = \
        dst_sock.endpoint.costs[CTRL_SIZE][1]

    t = sock.sim.now
    t_latch = None
    r_wait_from = None  # when the receiver's current ack-timeout started
    if not pregranted:
        # offer (sender -> receiver), then window grant back
        d_send = t + s_cpu
        t_offer = ((d_send + s_switch) + s_hold) + s_tail
        t_latch = t_offer
        tr = t_offer + r_cpu
        t_win = ((tr + r_switch) + r_hold) + r_tail
        if not t_win < d_send + ack_to:
            return None
        t = t_win
        r_wait_from = tr

    tr = None
    for cpu, _, switch, rx_hold, tail in legs:
        d_send = t + cpu
        arrival = ((d_send + switch) + rx_hold) + tail
        if r_wait_from is not None and not arrival < r_wait_from + r_ack_to:
            return None
        if t_latch is None:
            t_latch = arrival
        # the receiver ACKs the completed blast and resumes after its
        # control-send CPU charge; the ACK lands back at the sender
        tr = arrival + r_cpu
        t_ack = ((tr + r_switch) + r_hold) + r_tail
        if not t_ack < d_send + ack_to:
            return None
        t = t_ack
        r_wait_from = tr

    deadline = dst_sock._bulk_wait_deadline
    if deadline is not None and not t_latch < deadline:
        return None  # receiver would have given up before we latch
    return _FastPlan(t_latch, tr, t, nchunks)


def _fast_deliver(sim, net, dst_sock: USocket, dgram: Datagram,
                  t_latch: float, abort):
    """Detached process: land the synthetic ``bulk_fast`` datagram on the
    receiver at the exact virtual time the packet path would have latched
    the transfer — unless the transfer aborted or the receiver vanished."""
    yield sim.at(t_latch)
    if abort.triggered or dst_sock.closed:
        return
    nic = net.host_nic(dgram.dst)
    if nic is None or nic.down:
        return
    dst_sock._enqueue(dgram)


def _send_bulk_fast(sock, dst, size, data, params, xfer, plan, dst_sock,
                    token):
    sim = sock.sim
    ep = sock.endpoint
    net = ep.network
    abort = net.fast_arm(token)
    net.stats.add("fastpath.transfers")
    net.stats.add("fastpath.bytes", size)
    if sim.eventlog.enabled:
        sim.eventlog.debug(sim, "net", "fastpath.engage", host=ep.addr,
                           dst=dst[0], bytes=size)
    # data-plane parity for the socket counters (control messages and
    # per-frame network counters are not simulated on the fast path)
    sock.stats.add("tx.datagrams", plan.nchunks)
    sock.stats.add("tx.bytes", size)
    dgram = Datagram(
        src=ep.addr, sport=sock.port, dst=dst[0], dport=dst[1],
        size=0, transport=ep.params.name,
        payload={"kind": "bulk_fast", "xfer": xfer, "total": size,
                 "nchunks": plan.nchunks, "t_done": plan.t_recv_done,
                 "abort": abort, "data": data})
    sim.process(_fast_deliver(sim, net, dst_sock, dgram, plan.t_latch,
                              abort))
    done = sim.at(plan.t_send_done)
    idx, _ = yield AnyOf(sim, [done, abort])
    if idx != 0:
        # A NIC on either end went down mid-flight: emulate the packet
        # path's death, which burns the retry budget probing before it
        # gives up.
        yield sim.timeout(params.max_attempts * params.ack_timeout_s)
        raise BulkError(
            f"xfer {xfer}: transfer to {dst} aborted (host down)")
    return size


def _recv_bulk_fast(sock, first: Datagram, params, close_socket, span):
    sim = sock.sim
    msg = first.payload
    xfer, total = msg["xfer"], msg["total"]
    sender = (first.src, first.sport)
    if span is not None:
        span.tag("xfer", xfer)
        span.tag("bytes", total)
        span.tag("mode", "fast")
    sock.stats.add("rx.datagrams", msg["nchunks"] - 1)
    sock.stats.add("rx.bytes", total)
    done = sim.at(msg["t_done"])
    abort = msg.get("abort")
    idx, _ = yield AnyOf(sim, [done, abort] if abort is not None else [done])
    if idx != 0:
        # Sender's host died mid-flight: the packet path would NACK into
        # the void until its retry budget ran out, then give up.
        yield sim.timeout(params.max_attempts * params.ack_timeout_s)
        return None
    sim.process(_fast_linger(sock, params, close_socket))
    raw = msg["data"]
    data = None if raw is None else \
        (raw if type(raw) is bytes else bytes(raw))
    return data, total, sender


def _fast_linger(sock: USocket, params: BulkParams, close_socket: bool):
    """Fast-path linger: nothing can arrive (the sender is analytic), so
    just hold the socket open for the linger window before closing."""
    yield sock.sim.timeout(params.linger_s)
    if close_socket:
        sock.close()


# ---------------------------------------------------------------------------
# Sender
# ---------------------------------------------------------------------------

def send_bulk(sock: USocket, dst: tuple[str, int], size: int,
              data: Optional[Union[bytes, memoryview]] = None,
              params: BulkParams = DEFAULT_BULK,
              window: Optional[int] = None):
    """Generator process: push ``size`` bytes to ``dst`` via blast protocol.

    ``data=None`` runs in metadata-only mode (timing identical, no bytes
    carried).  ``window`` is a pre-granted receiver buffer (obtained on the
    RPC that set the transfer up); when None the offer/window handshake
    negotiates it.  Returns the number of bytes transferred; raises
    :class:`BulkError` if the receiver never responds.
    """
    sim = sock.sim
    xfer = _next_xfer_id(sim)
    chunk_size = sock.endpoint.params.max_payload
    nchunks = _nchunks_for(size, chunk_size)
    tracer = sim.tracer
    span = tracer.begin(sim, "bulk.send", "net",
                        {"xfer": xfer, "bytes": size, "chunks": nchunks,
                         "dst": f"{dst[0]}:{dst[1]}"}) \
        if tracer.enabled else None
    try:
        result = yield from _send_bulk(sock, dst, size, data, params,
                                       window, xfer, chunk_size, nchunks)
        return result
    finally:
        tracer.end(sim, span)


def _send_bulk(sock, dst, size, data, params, window, xfer, chunk_size,
               nchunks):
    sim = sock.sim
    net = sock.endpoint.network
    token = net.bulk_begin(sock.endpoint.addr, dst[0])
    try:
        if sim.fastpath:
            # Zero-delay hop: lets a receiver spawned at this same instant
            # park on its socket before eligibility is judged (costs no
            # virtual time either way).
            yield sim.timeout(0.0)
            dst_sock = _fast_clearance(sock, dst, window, params)
            plan = None if dst_sock is None else \
                _plan_fast(sock, dst_sock, size, window, params)
            if plan is not None:
                result = yield from _send_bulk_fast(
                    sock, dst, size, data, params, xfer, plan, dst_sock,
                    token)
                return result
            net.stats.add("fastpath.fallbacks")
            if sim.eventlog.enabled:
                sim.eventlog.debug(sim, "net", "fastpath.fallback",
                                   host=sock.endpoint.addr, dst=dst[0],
                                   bytes=size)
        result = yield from _send_bulk_packet(
            sock, dst, size, data, params, window, xfer, chunk_size,
            nchunks)
        return result
    finally:
        net.bulk_end(token)


def _send_bulk_packet(sock, dst, size, data, params, window, xfer,
                      chunk_size, nchunks):
    sim = sock.sim
    chunks = _partition(size, data, chunk_size)
    #: transfer metadata rides on every data burst and probe so a
    #: pre-granted receiver can latch onto the transfer without an offer
    meta = {"xfer": xfer, "total": size, "nchunks": nchunks,
            "chunk_size": chunk_size}

    window_bytes = window
    if window_bytes is None:
        # -- negotiate the receiver's buffer space --------------------------
        for _ in range(params.max_attempts):
            yield sock.send(CTRL_SIZE, payload={
                "kind": "bulk_offer", **meta}, dst=dst)
            reply = yield sock.recv(timeout=params.ack_timeout_s)
            if reply is None:
                continue
            msg = reply.payload
            if isinstance(msg, dict) and msg.get("xfer") == xfer \
                    and msg.get("kind") == "bulk_window":
                window_bytes = msg["window"]
                break
        if window_bytes is None:
            raise BulkError(
                f"xfer {xfer}: receiver at {dst} granted no window")
    per_blast = max(1, window_bytes // max(chunk_size, 1))

    # -- blast loop ------------------------------------------------------------
    blast_start = 0
    while blast_start < nchunks:
        blast = chunks[blast_start:blast_start + per_blast]
        outstanding = blast
        acked = False
        for _attempt in range(params.max_attempts):
            if outstanding:
                yield sock.send(
                    sum(c.size for c in outstanding),
                    payload={"kind": "bulk_data", **meta},
                    chunks=outstanding, dst=dst)
            else:
                # Everything sent but ACK lost: probe instead of re-blasting.
                yield sock.send(CTRL_SIZE, payload={
                    "kind": "bulk_probe", "blast_start": blast_start,
                    **meta}, dst=dst)
            reply = yield sock.recv(timeout=params.ack_timeout_s)
            if reply is None:
                outstanding = []  # unknown state: probe next time
                continue
            msg = reply.payload
            if not isinstance(msg, dict) or msg.get("xfer") != xfer:
                continue
            if msg.get("kind") == "bulk_ack" \
                    and msg.get("blast_start") == blast_start:
                acked = True
                break
            if msg.get("kind") == "bulk_nack":
                missing = set(msg["missing"])
                outstanding = [c for c in blast if c.seq in missing]
        if not acked:
            raise BulkError(
                f"xfer {xfer}: no ACK for blast at {blast_start} from {dst}")
        blast_start += per_blast
    return size


# ---------------------------------------------------------------------------
# Receiver
# ---------------------------------------------------------------------------

def recv_bulk(sock: USocket, first_timeout: Optional[float] = None,
              params: BulkParams = DEFAULT_BULK, close_socket: bool = False,
              pregranted: bool = False):
    """Generator process: receive one bulk transfer on ``sock``.

    Waits up to ``first_timeout`` for the transfer to start (None =
    forever).  With ``pregranted=True`` the sender already knows this
    socket's receive buffer (it was carried on the RPC that set the
    transfer up) and blasts immediately; otherwise the offer/window
    handshake runs first.  Returns ``(data_or_None, size, (src, sport))``
    — data is assembled bytes when the sender ran in payload mode.
    Returns ``None`` if nothing arrived or the sender disappeared
    mid-transfer.

    The post-completion *linger* (answering probes whose final ACK was
    lost) runs as a detached process so the caller gets the data the
    moment it is complete; with ``close_socket=True`` the linger process
    closes the socket when it finishes.
    """
    sim = sock.sim
    tracer = sim.tracer
    span = tracer.begin(sim, "bulk.recv", "net") \
        if tracer.enabled else None
    # Advertise readiness so an eligible sender can engage the fast path.
    sock._bulk_wait_mode = "pregranted" if pregranted else "handshake"
    sock._bulk_ack_timeout = params.ack_timeout_s
    sock._bulk_wait_deadline = None if first_timeout is None \
        else sim.now + first_timeout
    try:
        result = yield from _recv_bulk(sock, first_timeout, params,
                                       close_socket, pregranted, span)
        return result
    finally:
        sock._bulk_wait_mode = None
        sock._bulk_ack_timeout = None
        sock._bulk_wait_deadline = None
        tracer.end(sim, span)


def _recv_bulk(sock, first_timeout, params, close_socket, pregranted, span):
    sim = sock.sim

    # -- latch onto a transfer ----------------------------------------------------
    first = None
    wanted = {"bulk_data", "bulk_probe", "bulk_fast"} if pregranted \
        else {"bulk_offer", "bulk_fast"}
    while first is None:
        d = yield sock.recv(timeout=first_timeout)
        if d is None:
            return None
        msg = d.payload
        if isinstance(msg, dict) and msg.get("kind") in wanted:
            first = d
    msg = first.payload
    if msg["kind"] == "bulk_fast":
        result = yield from _recv_bulk_fast(sock, first, params,
                                            close_socket, span)
        return result
    xfer = msg["xfer"]
    total, nchunks = msg["total"], msg["nchunks"]
    chunk_size = msg["chunk_size"]
    sender = (first.src, first.sport)
    if span is not None:
        span.tag("xfer", xfer)
        span.tag("bytes", total)
    window = sock.recvbuf
    per_blast = max(1, window // max(chunk_size, 1))

    def grant():
        return sock.send(CTRL_SIZE, payload={
            "kind": "bulk_window", "xfer": xfer, "window": window},
            dst=sender)

    received: dict[int, Chunk] = {}
    if pregranted:
        # the first message is already part of the data flow: process it
        if msg["kind"] == "bulk_data":
            for chunk in first.delivered_chunks():
                received.setdefault(chunk.seq, chunk)
        else:  # a probe for a blast that was lost entirely
            start = msg["blast_start"]
            exp = set(range(start, min(start + per_blast, nchunks)))
            yield sock.send(CTRL_SIZE, payload={
                "kind": "bulk_nack", "xfer": xfer,
                "missing": sorted(exp)}, dst=sender)
    else:
        yield grant()

    blast_start = 0
    while blast_start < nchunks:
        blast_end = min(blast_start + per_blast, nchunks)
        # One set difference per blast; each arriving chunk then costs a
        # single discard instead of a full issubset/key-view rebuild.
        missing = set(range(blast_start, blast_end))
        missing.difference_update(received)
        attempts = 0
        while missing:
            d = yield sock.recv(timeout=params.ack_timeout_s)
            if d is None:
                if sock.closed:
                    # the caller cancelled the transfer (closed the
                    # socket under us): drain out, don't NACK into it
                    return None
                # Timeout: selective NACK for what is still missing.
                attempts += 1
                if attempts > params.max_attempts:
                    return None
                if sim.tracer.enabled:
                    sim.tracer.instant(sim, "bulk.nack", "net",
                                       {"xfer": xfer,
                                        "missing": len(missing)})
                yield sock.send(CTRL_SIZE, payload={
                    "kind": "bulk_nack", "xfer": xfer,
                    "missing": sorted(missing)}, dst=sender)
                continue
            m = d.payload
            if not isinstance(m, dict) or m.get("xfer") != xfer:
                continue
            kind = m.get("kind")
            if kind == "bulk_offer":
                yield grant()  # our window reply was lost
            elif kind == "bulk_data":
                attempts = 0
                for chunk in d.delivered_chunks():
                    seq = chunk.seq
                    if seq not in received:  # dedup by seq
                        received[seq] = chunk
                        missing.discard(seq)
            elif kind == "bulk_probe":
                start = m["blast_start"]
                if start == blast_start:
                    still = sorted(missing)
                else:
                    exp = range(start, min(start + per_blast, nchunks))
                    still = [s for s in exp if s not in received]
                if still:
                    yield sock.send(CTRL_SIZE, payload={
                        "kind": "bulk_nack", "xfer": xfer,
                        "missing": still}, dst=sender)
                else:
                    yield sock.send(CTRL_SIZE, payload={
                        "kind": "bulk_ack", "xfer": xfer,
                        "blast_start": start}, dst=sender)
        yield sock.send(CTRL_SIZE, payload={
            "kind": "bulk_ack", "xfer": xfer,
            "blast_start": blast_start}, dst=sender)
        blast_start += per_blast

    # -- linger to answer probes whose final ACK was lost ---------------------
    sim.process(_linger(sock, xfer, sender, per_blast, nchunks,
                        params, close_socket))

    if any(c.data is None for c in received.values()):
        data = None
    else:
        data = b"".join(received[seq].data for seq in range(nchunks))
    return data, total, sender


def _linger(sock: USocket, xfer: int, sender: tuple[str, int],
            per_blast: int, nchunks: int, params: BulkParams,
            close_socket: bool):
    sim = sock.sim
    end = sim.now + params.linger_s
    while sim.now < end and not sock.closed:
        d = yield sock.recv(timeout=end - sim.now)
        if d is None:
            break
        m = d.payload
        if isinstance(m, dict) and m.get("xfer") == xfer \
                and m.get("kind") == "bulk_probe":
            yield sock.send(CTRL_SIZE, payload={
                "kind": "bulk_ack", "xfer": xfer,
                "blast_start": m["blast_start"]}, dst=sender)
    if close_socket:
        sock.close()
