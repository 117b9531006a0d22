"""Host network interface: TX/RX serialization engines and port demux.

Each workstation owns one NIC (the SMC Etherpower of the paper).  The NIC
is full duplex: independent TX and RX engines, each modeled as a
single-capacity resource held for the serialization time of a transmission.
Incoming datagrams are demultiplexed to the transport endpoint named in the
datagram, then to the socket bound to the destination port — unbound ports
silently drop, like real UDP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.metrics.recorder import Recorder
from repro.sim import Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.packet import Datagram
    from repro.net.usocket import TransportEndpoint


class NIC:
    """A host's network interface card."""

    __slots__ = ("sim", "addr", "tx", "rx", "endpoints", "_down", "network",
                 "stats")

    def __init__(self, sim: Simulator, addr: str):
        self.sim = sim
        self.addr = addr
        self.tx = Resource(sim, capacity=1)
        self.rx = Resource(sim, capacity=1)
        #: transport endpoints keyed by transport name ("udp" / "unet")
        self.endpoints: dict[str, "TransportEndpoint"] = {}
        self._down = False
        #: back-reference set by :meth:`Network.attach`
        self.network: Optional["Network"] = None
        self.stats = Recorder(f"nic.{addr}")
        if sim.telemetry.enabled:
            sim.telemetry.register(sim, "nic", addr, self)

    @property
    def quiescent(self) -> bool:
        """Both serialization engines idle with empty wait queues — the
        state the flow-level fast paths require at engage time."""
        return self.tx.idle and self.rx.idle

    @property
    def down(self) -> bool:
        """A downed NIC (crashed / powered-off host) drops all traffic."""
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        value = bool(value)
        was = self._down
        self._down = value
        if value != was and self.sim.eventlog.enabled:
            self.sim.eventlog.warn(self.sim, "nic",
                                   "nic.down" if value else "nic.up",
                                   host=self.addr)
        if value and not was and self.network is not None:
            # fast-path transfers in flight across this host must notice
            # the failure they would otherwise never observe on the wire
            self.network.notify_nic_down(self.addr)

    def register_endpoint(self, endpoint: "TransportEndpoint") -> None:
        name = endpoint.params.name
        if name in self.endpoints:
            raise ValueError(f"endpoint {name!r} already registered on {self.addr}")
        self.endpoints[name] = endpoint

    def deliver(self, dgram: "Datagram") -> None:
        """Hand a received datagram to the owning socket, if any."""
        if self._down:
            self.stats.add("rx.dropped.down")
            return
        endpoint = self.endpoints.get(dgram.transport)
        if endpoint is None:
            self.stats.add("rx.dropped.no_endpoint")
            return
        sock = endpoint.socket_for_port(dgram.dport)
        if sock is None:
            self.stats.add("rx.dropped.no_port")
            return
        tally = self.stats.tally
        tally["rx.datagrams"] += dgram.count
        tally["rx.bytes"] += dgram.size
        sock._enqueue(dgram)

    def endpoint(self, transport: str) -> "TransportEndpoint":
        ep = self.endpoints.get(transport)
        if ep is None:
            raise KeyError(f"host {self.addr} has no {transport!r} endpoint")
        return ep
