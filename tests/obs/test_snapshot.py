"""Tests for metrics snapshots: grouping, merging, summaries, files."""

import json

import pytest

from repro.metrics.recorder import Recorder, start_collection, \
    stop_collection
from repro.obs.snapshot import (merged_snapshot, recorder_snapshot,
                                snapshot, write_snapshot)


def test_recorder_snapshot_counters_and_summaries():
    r = Recorder("x")
    r.add("ops", 3)
    for v in (1.0, 2.0, 3.0, 4.0):
        r.sample("lat", v)
    snap = recorder_snapshot(r)
    assert snap["instances"] == 1
    assert snap["counters"] == {"ops": 3}
    lat = snap["samples"]["lat"]
    assert lat["count"] == 4
    assert lat["mean"] == pytest.approx(2.5)
    assert lat["min"] == 1.0 and lat["max"] == 4.0
    assert lat["p50"] == pytest.approx(2.5)
    assert lat["p99"] == pytest.approx(3.97)


def test_merged_snapshot_sums_counters_and_pools_samples():
    a, b = Recorder("x:1"), Recorder("x:2")
    a.add("ops", 2)
    b.add("ops", 3)
    a.sample("lat", 1.0)
    b.sample("lat", 3.0)
    snap = merged_snapshot([a, b])
    assert snap["instances"] == 2
    assert snap["counters"] == {"ops": 5}
    assert snap["samples"]["lat"]["count"] == 2
    assert snap["samples"]["lat"]["mean"] == pytest.approx(2.0)


def test_snapshot_groups_live_recorders():
    collected = start_collection()
    try:
        for _ in range(3):
            Recorder("grouptest.sock").add("sent")
    finally:
        stop_collection(collected)
    snap = snapshot(meta={"k": "v"})
    assert snap["meta"] == {"k": "v"}
    group = snap["recorders"]["grouptest.sock"]
    assert group["instances"] == 3
    assert group["counters"]["sent"] == 3
    del collected


def test_collection_keeps_recorders_alive_for_snapshot():
    def make_and_drop():
        rec = Recorder("ephemeral.test")
        rec.add("hits", 7)
        del rec

    collected = start_collection()
    try:
        make_and_drop()
        snap = snapshot()
        assert snap["recorders"]["ephemeral.test"]["counters"]["hits"] == 7
    finally:
        stop_collection(collected)


def test_write_snapshot_is_sorted_json(tmp_path):
    collected = start_collection()
    try:
        Recorder("writetest").add("n", 1)
        path = tmp_path / "run.json"
        count = write_snapshot(str(path), meta={"exp": "unit"})
        text = path.read_text()
        parsed = json.loads(text)
        assert count == len(parsed["recorders"])
        assert "writetest" in parsed["recorders"]
        assert text.endswith("\n")
        assert json.dumps(parsed, sort_keys=True, indent=1) + "\n" == text
    finally:
        stop_collection(collected)
