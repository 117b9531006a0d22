"""Consistent-hash sharding of the region directory.

Every component reaches the region directory through a
:class:`ShardMap`.  The paper's single central manager is the smallest
map: one shard, no backup (:meth:`ShardMap.single`).  Larger maps split
the directory across N shard managers.  The partitioning is a classic
consistent-hash ring with virtual nodes: each shard id contributes
:data:`VNODES` points on a 64-bit ring (from a *stable* SHA-1 based
hash — never Python's process-randomized ``hash()``), and a region key
is owned by the shard whose point is the first at or clockwise-after
the key's hash.  Virtual nodes keep the spread near-uniform, and the
ring property guarantees minimal movement: adding or removing one
shard re-owns only the keys that fall in the arcs it gains or loses.

:class:`ShardMap` is the wire-level routing table — shard id →
(primary host, backup host) plus a version counter bumped on every
promotion — shipped to clients and imds, embedded in ``WRONG_SHARD``
replies so a stale caller can refresh, and serialized as stable JSON
(sorted keys) so two identically-seeded runs produce byte-identical
artifacts.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.descriptors import RegionKey

#: virtual nodes per shard on the ring; 64 keeps the max/min key-spread
#: ratio across 8 shards within ~1.4x (see tests/core/test_shard_properties)
VNODES = 64

#: ring size: points live in [0, 2**64)
RING_BITS = 64


def stable_hash(text: str) -> int:
    """A 64-bit hash that is identical across processes and Python
    versions (SHA-1 prefix; ``hash()`` is seed-randomized per process
    and would break byte-identical replay)."""
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def key_text(key: RegionKey) -> str:
    """Canonical ring-hash text for a region key."""
    return f"{key.inode}:{key.offset}:{key.client or ''}"


class HashRing:
    """A consistent-hash ring over shard ids with virtual nodes."""

    def __init__(self, shard_ids: Sequence[int], vnodes: int = VNODES):
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids in {list(shard_ids)}")
        self.vnodes = vnodes
        self.shard_ids = tuple(sorted(shard_ids))
        points: list[tuple[int, int]] = []
        for sid in self.shard_ids:
            for v in range(vnodes):
                points.append((stable_hash(f"shard:{sid}:vnode:{v}"), sid))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def owner(self, text: str) -> int:
        """Shard id owning ``text``: first ring point clockwise from its
        hash (wrapping past the top of the ring)."""
        h = stable_hash(text)
        idx = bisect.bisect_right(self._points, h)
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def owner_of_key(self, key: RegionKey) -> int:
        """Shard id owning a region key."""
        return self.owner(key_text(key))

    def with_shard(self, sid: int) -> "HashRing":
        """A new ring with ``sid`` added (for movement-bound tests)."""
        return HashRing(self.shard_ids + (sid,), vnodes=self.vnodes)

    def without_shard(self, sid: int) -> "HashRing":
        """A new ring with ``sid`` removed."""
        return HashRing(tuple(s for s in self.shard_ids if s != sid),
                        vnodes=self.vnodes)


@dataclass(frozen=True)
class ShardInfo:
    """One shard's replica set: the primary host and (optionally) the
    backup host the primary ships its mutation log to."""

    shard_id: int
    primary: str
    backup: Optional[str] = None

    def to_wire(self) -> dict:
        d = {"shard_id": self.shard_id, "primary": self.primary}
        if self.backup is not None:
            d["backup"] = self.backup
        return d

    @classmethod
    def from_wire(cls, d: dict) -> "ShardInfo":
        return cls(shard_id=int(d["shard_id"]), primary=d["primary"],
                   backup=d.get("backup"))


class ShardMap:
    """Versioned routing table: shard id -> replica set, plus the ring.

    Immutable in spirit — promotion returns a *new* map via
    :meth:`promoted` with the version bumped, so every copy a client or
    imd holds can be compared by version and replaced wholesale.
    """

    def __init__(self, shards: Sequence[ShardInfo], version: int = 1,
                 vnodes: int = VNODES):
        self.version = version
        self.shards = {s.shard_id: s for s in shards}
        if len(self.shards) != len(shards):
            raise ValueError("duplicate shard ids")
        self.ring = HashRing(sorted(self.shards), vnodes=vnodes)
        #: the only shard id of a one-shard map (owns every key, no hash)
        self._sole = shards[0].shard_id if len(shards) == 1 else None

    @classmethod
    def single(cls, host: str) -> "ShardMap":
        """The paper's single central manager: one shard on ``host``,
        no backup."""
        if not host:
            raise ValueError("the single manager needs a host")
        return cls([ShardInfo(0, host)])

    @property
    def n_shards(self) -> int:
        """Number of shards in the map."""
        return len(self.shards)

    @property
    def lone(self) -> bool:
        """True for the paper's shape: one shard and no backup."""
        return self._sole is not None \
            and self.shards[self._sole].backup is None

    def owner_of(self, key: RegionKey) -> int:
        """Shard id owning ``key`` per the ring."""
        if self._sole is not None:
            return self._sole
        return self.ring.owner_of_key(key)

    def primary(self, sid: int) -> str:
        """Primary host of shard ``sid``."""
        return self.shards[sid].primary

    def backup(self, sid: int) -> Optional[str]:
        """Backup host of shard ``sid`` (None when unreplicated)."""
        return self.shards[sid].backup

    def promoted(self, sid: int, new_primary: str,
                 new_backup: Optional[str] = None) -> "ShardMap":
        """A successor map (version+1) with shard ``sid`` re-pointed at
        ``new_primary``/``new_backup`` — what a promoted backup
        publishes so routers chase the new primary."""
        shards = [ShardInfo(sid, new_primary, new_backup)
                  if s.shard_id == sid else s
                  for s in sorted(self.shards.values(),
                                  key=lambda s: s.shard_id)]
        return ShardMap(shards, version=self.version + 1,
                        vnodes=self.ring.vnodes)

    def to_wire(self) -> dict:
        """Wire/JSON form (stable ordering by shard id)."""
        return {
            "version": self.version,
            "vnodes": self.ring.vnodes,
            "shards": [self.shards[sid].to_wire()
                       for sid in sorted(self.shards)],
        }

    @classmethod
    def from_wire(cls, d: dict) -> "ShardMap":
        return cls([ShardInfo.from_wire(s) for s in d["shards"]],
                   version=int(d["version"]),
                   vnodes=int(d.get("vnodes", VNODES)))

    def to_json(self) -> str:
        """Stable JSON text (sorted keys; byte-identical per content)."""
        return json.dumps(self.to_wire(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShardMap":
        return cls.from_wire(json.loads(text))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ShardMap)
                and self.to_wire() == other.to_wire())

    def __repr__(self) -> str:
        reps = ", ".join(
            f"{sid}:{s.primary}" + (f"+{s.backup}" if s.backup else "")
            for sid, s in sorted(self.shards.items()))
        return f"ShardMap(v{self.version}, {reps})"


def default_shard_map(n_shards: int, replication: bool = False,
                      primary_fmt: str = "mgr{:02d}",
                      backup_fmt: str = "bak{:02d}") -> ShardMap:
    """The platform's initial map: shard i on ``mgr0i`` (backup on
    ``bak0i`` when replication is on).  One shard without replication
    is the paper's single manager on host ``mgr``."""
    if n_shards == 1 and not replication:
        return ShardMap.single("mgr")
    shards = [ShardInfo(i, primary_fmt.format(i),
                        backup_fmt.format(i) if replication else None)
              for i in range(n_shards)]
    return ShardMap(shards)
