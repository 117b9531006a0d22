"""Unit tests for the consistent-hash shard ring and routing table."""

import pytest

from repro.core.descriptors import RegionKey
from repro.core.shard import (HashRing, ShardInfo, ShardMap, default_shard_map,
                              key_text, stable_hash)


def keys(n, client=None):
    return [RegionKey(inode=7, offset=i * 4096, client=client)
            for i in range(n)]


# -- stable_hash --------------------------------------------------------------

def test_stable_hash_is_cross_process_stable():
    # fixed value: sha1("shard:0:vnode:0") prefix — changing the hash
    # function silently would re-own every region in every saved artifact
    assert stable_hash("shard:0:vnode:0") == 0x435DFE8A4A293A0A
    assert stable_hash("") == int.from_bytes(
        bytes.fromhex("da39a3ee5e6b4b0d"), "big")


def test_stable_hash_is_64_bit():
    for text in ("", "a", "shard:3:vnode:9", "x" * 1000):
        assert 0 <= stable_hash(text) < 2 ** 64


def test_key_text_distinguishes_client_regions():
    shared = RegionKey(inode=1, offset=0, client=None)
    private = RegionKey(inode=1, offset=0, client="app")
    assert key_text(shared) != key_text(private)


# -- HashRing -----------------------------------------------------------------

def test_ring_owner_is_deterministic_and_in_set():
    ring = HashRing([0, 1, 2])
    for key in keys(100):
        owner = ring.owner_of_key(key)
        assert owner in (0, 1, 2)
        assert owner == ring.owner_of_key(key)


def test_single_shard_ring_owns_everything():
    ring = HashRing([0])
    assert all(ring.owner_of_key(k) == 0 for k in keys(50))


def test_ring_wraps_past_the_top():
    # a hash above the highest ring point must wrap to the lowest point
    ring = HashRing([0, 1], vnodes=4)
    top = max(ring._points)
    wrapped_owner = ring._owners[0]
    for text in (f"probe:{i}" for i in range(10000)):
        if stable_hash(text) > top:
            assert ring.owner(text) == wrapped_owner
            break
    else:  # pragma: no cover - astronomically unlikely with 8 points
        pytest.fail("found no hash above the top ring point")


def test_ring_rejects_empty_and_duplicate_shards():
    with pytest.raises(ValueError, match="at least one shard"):
        HashRing([])
    with pytest.raises(ValueError, match="duplicate"):
        HashRing([0, 1, 1])


def test_with_and_without_shard():
    ring = HashRing([0, 1])
    assert ring.with_shard(2).shard_ids == (0, 1, 2)
    assert ring.without_shard(1).shard_ids == (0,)


# -- ShardMap -----------------------------------------------------------------

def test_default_shard_map_layout():
    m = default_shard_map(2, replication=True)
    assert m.version == 1
    assert m.n_shards == 2
    assert m.primary(0) == "mgr00" and m.backup(0) == "bak00"
    assert m.primary(1) == "mgr01" and m.backup(1) == "bak01"
    assert default_shard_map(1).backup(0) is None


def test_single_map_is_the_lone_paper_manager(monkeypatch):
    m = ShardMap.single("mgr")
    assert m.lone and m.n_shards == 1 and m.primary(0) == "mgr"
    assert default_shard_map(1) == m
    assert not default_shard_map(1, replication=True).lone
    assert not default_shard_map(2).lone
    # a one-shard map owns every key without hashing it
    import repro.core.shard as shard

    def no_hashing(text):
        raise AssertionError(f"hashed {text!r}")
    monkeypatch.setattr(shard, "stable_hash", no_hashing)
    assert all(m.owner_of(k) == 0 for k in keys(50))


def test_promoted_bumps_version_and_repoints_one_shard():
    m = default_shard_map(2, replication=True)
    m2 = m.promoted(0, "bak00", None)
    assert m2.version == m.version + 1
    assert m2.primary(0) == "bak00" and m2.backup(0) is None
    # the other shard is untouched, and the original map is unchanged
    assert m2.primary(1) == "mgr01" and m2.backup(1) == "bak01"
    assert m.primary(0) == "mgr00"


def test_promotion_preserves_key_ownership():
    m = default_shard_map(4)
    m2 = m.promoted(2, "bak02")
    assert all(m.owner_of(k) == m2.owner_of(k) for k in keys(200))


def test_wire_round_trip():
    m = default_shard_map(3, replication=True).promoted(1, "bak01")
    assert ShardMap.from_wire(m.to_wire()) == m
    assert ShardMap.from_json(m.to_json()) == m
    assert m.to_json() == ShardMap.from_json(m.to_json()).to_json()


def test_shard_map_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        ShardMap([ShardInfo(0, "a"), ShardInfo(0, "b")])


def test_shard_info_wire_omits_absent_backup():
    assert "backup" not in ShardInfo(0, "mgr00").to_wire()
    assert ShardInfo.from_wire({"shard_id": 0, "primary": "m"}).backup is None
