"""Datagram representation for the simulated network.

A :class:`Datagram` is what a transport hands to the switch.  Two forms
exist:

* a *single* datagram — one UDP datagram or one U-Net message;
* a *burst* — the bulk-transfer protocol's blast of consecutively numbered
  chunks, carried as one object so a 100 MB region transfer costs hundreds
  of simulator events instead of hundreds of thousands.  Timing and loss
  are computed exactly as if the chunks had been sent one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


@dataclass(slots=True)
class Chunk:
    """One protocol chunk inside a burst: a sequence number plus payload.

    ``data`` is a buffer (``bytes`` or a zero-copy ``memoryview`` slice of
    the sender's region) in functional mode or ``None`` in metadata-only
    (performance) mode; ``size`` is authoritative either way.  Receivers
    materialize ``bytes`` only at reassembly.
    """

    seq: int
    size: int
    data: Optional[bytes | memoryview] = None

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"chunk seq={self.seq}: size={self.size} but "
                f"len(data)={len(self.data)}")


@dataclass(slots=True)
class Datagram:
    """A unit of transmission between two (addr, port) endpoints."""

    src: str
    sport: int
    dst: str
    dport: int
    #: application payload byte count (sum over chunks for a burst)
    size: int
    #: name of the transport that carries this datagram ("udp" / "unet")
    transport: str = "udp"
    #: opaque payload: an RPC message, bytes, or None (metadata-only)
    payload: Any = None
    #: burst chunks; empty for a single datagram
    chunks: Sequence[Chunk] = field(default_factory=tuple)
    #: number of datagrams this object stands for (1, or len(chunks))
    count: int = 1
    #: chunk seqs lost in transit, filled in by the switch's loss model
    lost: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative datagram size {self.size}")
        if self.chunks:
            total = sum(c.size for c in self.chunks)
            if total != self.size:
                raise ValueError(
                    f"burst size {self.size} != sum of chunk sizes {total}")
            self.count = len(self.chunks)

    @property
    def is_burst(self) -> bool:
        return bool(self.chunks)

    def delivered_chunks(self) -> list[Chunk]:
        """Chunks that survived transit (all, minus the ``lost`` set)."""
        if not self.lost:
            return list(self.chunks)
        return [c for c in self.chunks if c.seq not in self.lost]
