"""Unit tests for the structured event log: filtering, export, run ids."""

import io
import json

import pytest

from repro.obs.eventlog import LEVELS, NULL_EVENTLOG, EventLog
from repro.obs.session import ObsSession, engines
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


def test_levels_filter_recording(sim):
    log = EventLog(level="warn")
    assert log.debug(sim, "imd", "noise") is None
    assert log.info(sim, "imd", "noise") is None
    assert log.warn(sim, "imd", "signal") is not None
    assert log.error(sim, "imd", "signal") is not None
    assert [e.level for e in log.events] == ["warn", "error"]
    with pytest.raises(ValueError):
        EventLog(level="loud")
    with pytest.raises(ValueError):
        log.emit(sim, "loud", "imd", "x")


def test_component_filter(sim):
    log = EventLog(level="debug", components={"manager"})
    log.info(sim, "manager", "region.placed", host="w0")
    log.info(sim, "imd", "imd.start", host="w0")
    assert [e.component for e in log.events] == ["manager"]


def test_select_and_counts(sim):
    log = EventLog(level="debug")
    log.debug(sim, "net", "fastpath.engage")
    log.debug(sim, "net", "fastpath.engage")
    log.warn(sim, "nic", "nic.down", host="w3")
    assert len(log.select(component="net")) == 2
    assert len(log.select(min_level="warn")) == 1
    assert len(log.select(event="nic.down")) == 1
    assert log.counts() == {"net/fastpath.engage": 2, "nic/nic.down": 1}


def test_query_filters_and_time_window(sim):
    log = EventLog(level="debug")
    log.info(sim, "rmd", "node.recruited", host="w0")
    sim.run(until=5.0)
    log.info(sim, "rmd", "node.reclaimed", host="w0")
    log.warn(sim, "manager", "region.stale", host="w1")
    sim.run(until=10.0)
    log.debug(sim, "net", "fastpath.engage", host="w1")

    assert [e.event for e in log.query(component="rmd")] == \
        ["node.recruited", "node.reclaimed"]
    assert [e.event for e in log.query(level="warn")] == ["region.stale"]
    assert [e.event for e in log.query(host="w1")] == \
        ["region.stale", "fastpath.engage"]
    assert [e.time for e in log.query(since=5.0)] == [5.0, 5.0, 10.0]
    # until is exclusive: events at t=5 survive since=0, until=5 drops them
    assert [e.event for e in log.query(until=5.0)] == ["node.recruited"]
    assert [e.event for e in log.query(since=5.0, until=10.0)] == \
        ["node.reclaimed", "region.stale"]
    assert [e.event for e in log.query(event="node.reclaimed")] == \
        ["node.reclaimed"]
    assert log.query(run=2) == []


def test_query_limit_keeps_the_tail(sim):
    log = EventLog(level="debug")
    for i in range(6):
        log.info(sim, "manager", "region.placed", host="w0", n=i)
    tail = log.query(limit=2)
    assert [e.fields["n"] for e in tail] == [4, 5]
    assert log.query(limit=0) == []
    assert len(log.query(limit=None)) == 6


def test_query_rejects_unknown_level(sim):
    log = EventLog(level="debug")
    with pytest.raises(ValueError):
        log.query(level="loud")


def test_jsonl_export_shape(sim):
    log = EventLog(level="info")
    log.info(sim, "rmd", "node.recruited", host="w1", epoch=3,
             pool_bytes=1024)
    buf = io.StringIO()
    assert log.dump_jsonl(buf) == 1
    record = json.loads(buf.getvalue())
    assert record["component"] == "rmd"
    assert record["event"] == "node.recruited"
    assert record["host"] == "w1"
    assert record["fields"] == {"epoch": 3, "pool_bytes": 1024}
    assert record["run"] == 1 and record["seq"] == 1
    assert record["t"] == sim.now


def test_format_text_tail(sim):
    log = EventLog(level="info")
    for i in range(5):
        log.info(sim, "manager", "region.placed", host="w0", offset=i)
    text = log.format_text(last=2)
    assert text.count("\n") == 1
    assert "offset=4" in text and "offset=0" not in text


def test_run_ids_without_telemetry_are_first_emission_order(sim):
    other = Simulator(seed=2)
    log = EventLog(level="info")
    log.info(other, "imd", "imd.start")
    log.info(sim, "imd", "imd.start")
    log.info(other, "imd", "imd.exit")
    assert [e.run for e in log.events] == [1, 2, 1]


def test_null_eventlog_is_inert(sim):
    assert NULL_EVENTLOG.enabled is False
    assert NULL_EVENTLOG.emit(sim, "info", "imd", "x") is None
    assert NULL_EVENTLOG.events == []


def test_install_restores_previous():
    with ObsSession(events="info") as obs:
        assert engines()[2] is obs.eventlog
        assert Simulator().eventlog is obs.eventlog
    assert engines()[2] is NULL_EVENTLOG
    assert Simulator().eventlog is NULL_EVENTLOG


def test_level_table_is_ordered():
    assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warn"] < LEVELS["error"]
