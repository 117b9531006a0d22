"""``libusocket.a`` — the UDP-socket-like API of the paper (Figure 6).

The paper implemented a library giving UDP-socket semantics on top of
U-Net so the rest of Dodo is transport-agnostic.  We reproduce that:
:class:`TransportEndpoint` binds a parameter set (UDP or U-Net) to a host
NIC, and :class:`USocket` provides ``send``/``recv`` with receive-buffer
accounting, timeouts and iovec-style scatter/gather.  The paper-named
free functions (``u_socket``, ``u_send`` ...) are provided as thin wrappers
in :mod:`repro.net.api` for interface fidelity.

Semantics preserved from UDP: sends are fire-and-forget (the send event
completes when the datagram is handed to the NIC, after the sender-side
CPU overhead); a datagram that arrives to a full receive buffer or an
unbound port is silently dropped.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Sequence

from repro.metrics.recorder import Recorder
from repro.net.packet import Chunk, Datagram
from repro.net.params import TransportParams
from repro.sim import AnyOf, Event, Process, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.nic import NIC

#: first port handed out by the ephemeral allocator
EPHEMERAL_BASE = 32768


class SocketClosed(Exception):
    """Raised when operating on a closed socket."""


class TransportEndpoint:
    """One transport (UDP or U-Net) attached to one host's NIC."""

    __slots__ = ("sim", "nic", "addr", "network", "params", "costs",
                 "_ports", "_ephemeral", "sock_stats", "rpc_client_stats")

    def __init__(self, sim: Simulator, nic: "NIC", network: "Network",
                 params: TransportParams):
        self.sim = sim
        self.nic = nic
        #: the host's address (its NIC's)
        self.addr = nic.addr
        self.network = network
        self.params = params
        #: what each datagram shape costs this transport on this network
        self.costs = network.cost_table(params)
        self._ports: dict[int, "USocket"] = {}
        self._ephemeral = itertools.count(EPHEMERAL_BASE)
        #: the counters of every socket, and of every RPC client, this
        #: endpoint ever opens: made with the first of each, so a
        #: per-transfer port or a per-call client adds no recorder
        self.sock_stats: Optional[Recorder] = None
        self.rpc_client_stats: Optional[Recorder] = None
        nic.register_endpoint(self)

    def socket(self, port: Optional[int] = None, recvbuf: int = 256 * 1024,
               sendbuf: int = 256 * 1024) -> "USocket":
        """Create and bind a socket; ``port=None`` picks an ephemeral one."""
        if port is None:
            port = next(self._ephemeral)
            while port in self._ports:
                port = next(self._ephemeral)
        if port in self._ports:
            raise ValueError(f"port {port} already bound on {self.addr}")
        sock = USocket(self, port, recvbuf=recvbuf, sendbuf=sendbuf)
        self._ports[port] = sock
        return sock

    def socket_for_port(self, port: int) -> Optional["USocket"]:
        return self._ports.get(port)

    def _unbind(self, port: int) -> None:
        self._ports.pop(port, None)


class USocket:
    """A datagram socket with buffer limits, timeouts and burst sends."""

    __slots__ = ("endpoint", "sim", "port", "recvbuf", "sendbuf",
                 "default_dst", "closed", "_queue", "_queued_bytes",
                 "_pending_recvs", "_bulk_wait_mode", "_bulk_ack_timeout",
                 "_bulk_wait_deadline", "stats")

    def __init__(self, endpoint: TransportEndpoint, port: int,
                 recvbuf: int, sendbuf: int):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.port = port
        self.recvbuf = recvbuf
        self.sendbuf = sendbuf
        self.default_dst: Optional[tuple[str, int]] = None
        self.closed = False
        self._queue: Store = Store(self.sim)
        self._queued_bytes = 0
        self._pending_recvs = 0
        #: set by recv_bulk while waiting for a transfer ("pregranted" /
        #: "handshake"); lets a fast-path sender verify the receiver is
        #: parked on this socket in the matching mode before engaging
        self._bulk_wait_mode: Optional[str] = None
        #: the receiver-side ack timeout recv_bulk is running with
        self._bulk_ack_timeout: Optional[float] = None
        #: absolute time at which recv_bulk's first_timeout expires (None
        #: when it waits forever); the fast path refuses to engage if the
        #: transfer would latch after this instant
        self._bulk_wait_deadline: Optional[float] = None
        if endpoint.sock_stats is None:
            endpoint.sock_stats = Recorder(f"sock.{endpoint.addr}")
        self.stats = endpoint.sock_stats

    # -- connection-style convenience -----------------------------------------
    def connect(self, dst_addr: str, dst_port: int) -> None:
        """Set the default destination (paper: ``u_connect``)."""
        self.default_dst = (dst_addr, dst_port)

    # -- sending -----------------------------------------------------------------
    def send(self, size: int, payload=None,
             dst: Optional[tuple[str, int]] = None,
             chunks: Sequence[Chunk] = ()) -> Event:
        """Send one datagram (or one burst); see module docstring.

        Returns an event that fires — after the sender-side CPU overhead —
        with the number of payload bytes handed to the NIC.  Raises
        ``ValueError`` for payloads beyond the transport's max (except for
        bursts, whose individual chunks must each fit).
        """
        if self.closed:
            raise SocketClosed(f"send on closed socket {self.port}")
        target = dst or self.default_dst
        if target is None:
            raise ValueError("no destination: connect() first or pass dst=")
        endpoint = self.endpoint
        params = endpoint.params
        if chunks:
            for c in chunks:
                if c.size > params.max_payload:
                    raise ValueError(
                        f"chunk {c.seq} ({c.size} B) exceeds {params.name} "
                        f"max payload {params.max_payload}")
            dgram = Datagram(endpoint.addr, self.port, target[0], target[1],
                             size, params.name, payload, tuple(chunks))
            frames_for = endpoint.network.link.frames_for
            c0, cl = dgram.chunks[0].size, dgram.chunks[-1].size
            shape = (size, sum(frames_for(c.size) for c in dgram.chunks),
                     dgram.count, c0, frames_for(c0), cl, frames_for(cl))
        elif size > params.max_payload:
            raise ValueError(
                f"datagram of {size} B exceeds {params.name} max payload "
                f"{params.max_payload}")
        else:
            dgram = Datagram(endpoint.addr, self.port, target[0], target[1],
                             size, params.name, payload)
            shape = size
        tally = self.stats.tally
        tally["tx.datagrams"] += dgram.count
        tally["tx.bytes"] += size
        frames, leg = endpoint.costs[shape]
        if not chunks:
            # Single uncontended datagrams take the flow-level fast path:
            # same virtual timing, ~5 plain events instead of ~13 events
            # across three processes (see Network.fast_transmit).
            fast = endpoint.network.fast_transmit(dgram, params, frames, leg)
            if fast is not None:
                return fast
        return self.sim.process(self._send_proc(dgram, params, frames, leg))

    def send_iovec(self, iov: Sequence[bytes],
                   dst: Optional[tuple[str, int]] = None) -> Event:
        """Scatter-gather send (paper: ``u_send_iovec``): one datagram whose
        payload is the concatenation of the iovec, without an intermediate
        copy charge (the real library used sendmsg/recvmsg for this)."""
        data = b"".join(iov)
        return self.send(len(data), payload=data, dst=dst)

    def _send_proc(self, dgram: Datagram, params: TransportParams,
                   frames: int, leg: tuple):
        # packet path: the sender's CPU, then the wire
        yield self.sim.timeout(leg[0])
        self.endpoint.network.transmit(dgram, params, frames, leg)
        return dgram.size

    # -- receiving -----------------------------------------------------------------
    def recv(self, timeout: Optional[float] = None) -> Event:
        """Event yielding the next :class:`Datagram`, or ``None`` on timeout
        or socket close (paper: ``u_recv`` takes an explicit timeout)."""
        if self.closed:
            raise SocketClosed(f"recv on closed socket {self.port}")
        taken = self._queue.take()
        if taken is not None:
            # Data already queued: resolve synchronously on the already-
            # triggered get event instead of spawning a process (the
            # caller still resumes at the current instant, exactly as on
            # the process path — the get fires on the next dispatch).
            get, dgram = taken
            if dgram is not None:
                self._queued_bytes -= dgram.size
                tally = self.stats.tally
                tally["rx.datagrams"] += dgram.count
                tally["rx.bytes"] += dgram.size
            return get
        self._pending_recvs += 1
        # built directly: sim.process() would add a call to every receive
        return Process(self.sim, self._recv_proc(timeout))

    def _recv_proc(self, timeout: Optional[float]):
        get = self._queue.get()
        try:
            if timeout is None or get.triggered:
                # An already-queued datagram resolves the get immediately;
                # skip the timeout + AnyOf machinery (two events and a
                # callback fan-in) on this hot path.
                dgram = yield get
            else:
                idx, value = yield AnyOf(self.sim, [get, self.sim.timeout(timeout)])
                if idx != 0:
                    self._queue.cancel(get)
                    self.stats.add("rx.timeouts")
                    return None
                dgram = value
        finally:
            self._pending_recvs -= 1
        if dgram is None:  # close sentinel
            return None
        self._queued_bytes -= dgram.size
        tally = self.stats.tally
        tally["rx.datagrams"] += dgram.count
        tally["rx.bytes"] += dgram.size
        return dgram

    def _enqueue(self, dgram: Datagram) -> None:
        """Called by the NIC demux with an arriving datagram."""
        if self.closed:
            self.stats.add("rx.dropped.closed")
            return
        if self._queued_bytes + dgram.size > self.recvbuf:
            self.stats.add("rx.dropped.buffer_full")
            return
        self._queued_bytes += dgram.size
        self._queue.put(dgram)

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Unbind the port; pending recvs complete with ``None``."""
        if self.closed:
            return
        self.closed = True
        self.endpoint._unbind(self.port)
        for _ in range(self._pending_recvs):
            self._queue.put(None)
