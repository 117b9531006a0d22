"""Unit tests for the telemetry engine, atomic writes and the dashboard."""

import os

import pytest

from repro.obs.dashboard import pick_run, render_dashboard, render_run
from repro.obs.files import atomic_write
from repro.obs.session import ObsSession, engines
from repro.obs.timeseries import (NULL_TELEMETRY, GaugeSeries, RunTelemetry,
                                  Telemetry)
from repro.sim import Simulator


# -- GaugeSeries --------------------------------------------------------------

def test_gauge_series_records_and_summarizes():
    s = GaugeSeries("imd", "w0", "pool.bytes", "bytes")
    for t, v in ((0.0, 10.0), (1.0, 30.0), (2.0, 20.0)):
        s.record(t, v)
    assert len(s) == 3
    assert s.last() == 20.0
    assert (s.minimum(), s.maximum()) == (10.0, 30.0)
    assert s.key == ("imd", "w0", "pool.bytes")


def test_gauge_series_rejects_time_travel():
    s = GaugeSeries("imd", "w0", "pool.bytes", "bytes")
    s.record(5.0, 1.0)
    with pytest.raises(ValueError):
        s.record(4.0, 2.0)


def test_window_slices_by_virtual_time():
    s = GaugeSeries("k", "n", "g", "u")
    for i in range(10):
        s.record(float(i), float(i * 10))
    assert s.window() == (s.times, s.values)
    times, values = s.window(since=3.0)
    assert times[0] == 3.0 and len(times) == 7
    times, values = s.window(until=3.0)  # until is exclusive
    assert times == [0.0, 1.0, 2.0] and values == [0.0, 10.0, 20.0]
    assert s.window(since=2.5, until=4.5) == ([3.0, 4.0], [30.0, 40.0])
    assert s.window(since=99.0) == ([], [])


def test_run_select_and_names():
    run = RunTelemetry(run_id=1, interval_s=1.0)
    run.record("imd", "w0", "pool.bytes", "bytes", 0.0, 1.0)
    run.record("imd", "w1", "pool.bytes", "bytes", 0.0, 2.0)
    run.record("imd", "w0", "up", "bool", 0.0, 1.0)
    run.record("rmd", "w0", "idle_state", "state", 0.0, 2.0)
    assert len(run.select()) == 4
    assert len(run.select(kind="imd")) == 3
    assert [s.name for s in run.select(kind="imd", gauge="pool.bytes")] == \
        ["w0", "w1"]
    assert [s.gauge for s in run.select(name="w0")] == \
        ["pool.bytes", "up", "idle_state"]
    assert run.select(kind="disk") == []
    # no component objects attached: names fall back to series keys
    assert run.names("imd") == ["w0", "w1"]
    assert run.names("rmd") == ["w0"]
    assert run.kinds() == ["imd", "rmd"]
    # with components registered, registration order wins
    run.components.append(("imd", "w9", object()))
    assert run.names("imd") == ["w9"]


def test_downsampling_bucket_averages():
    s = GaugeSeries("k", "n", "g", "u")
    for i in range(10):
        s.record(float(i), float(i))
    times, values = s.downsampled(2)
    assert times == [2.0, 7.0]  # means of 0..4 and 5..9
    assert values == [2.0, 7.0]
    assert s.downsampled(100) == (s.times, s.values)
    assert s.downsampled(None) == (s.times, s.values)
    with pytest.raises(ValueError):
        s.downsampled(0)


# -- Telemetry engine ---------------------------------------------------------

def test_telemetry_validates_parameters():
    with pytest.raises(ValueError):
        Telemetry(interval_s=0.0)
    with pytest.raises(ValueError):
        Telemetry(audit_every=0)


def test_run_ids_are_first_seen_order():
    telemetry = Telemetry()
    a, b = object(), object()
    assert telemetry.run_id(b) == 1
    assert telemetry.run_id(a) == 2
    assert telemetry.run_id(b) == 1  # stable


def test_null_telemetry_is_inert():
    assert NULL_TELEMETRY.enabled is False
    assert NULL_TELEMETRY.register(None, "imd", "w0", object()) is None
    NULL_TELEMETRY.rpc_begin(None)
    NULL_TELEMETRY.rpc_end(None)
    NULL_TELEMETRY.sample_now(None)
    assert NULL_TELEMETRY.runs() == []


def test_install_restores_previous():
    with ObsSession(telemetry=Telemetry()) as obs:
        assert engines()[1] is obs.telemetry
        assert Simulator().telemetry is obs.telemetry
    assert engines()[1] is NULL_TELEMETRY
    assert Simulator().telemetry is NULL_TELEMETRY


# -- atomic writes ------------------------------------------------------------

def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "out.csv"
    with atomic_write(str(target)) as fp:
        fp.write("first\n")
    assert target.read_text() == "first\n"
    with atomic_write(str(target)) as fp:
        fp.write("second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.csv"]  # no temp files left


def test_atomic_write_leaves_old_contents_on_error(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("intact\n")
    with pytest.raises(RuntimeError):
        with atomic_write(str(target)) as fp:
            fp.write("partial")
            raise RuntimeError("boom")
    assert target.read_text() == "intact\n"
    assert os.listdir(tmp_path) == ["out.csv"]


# -- dashboard ----------------------------------------------------------------

def make_run(run_id=1, samples=5, donated=100.0):
    run = RunTelemetry(run_id=run_id, interval_s=1.0)
    run.samples = samples
    for i in range(samples):
        t = float(i)
        run.record("cluster", "cluster", "donated_bytes", "bytes", t,
                   donated * (i + 1))
        run.record("cluster", "cluster", "hosted_bytes", "bytes", t,
                   donated * i / 2)
        run.record("cluster", "cluster", "idle_hosts", "count", t, float(i))
        run.record("rpc", "rpc", "outstanding", "count", t, 0.0)
    return run


def test_pick_run_prefers_the_richest_run():
    telemetry = Telemetry()
    sims = (object(), object())
    telemetry._runs[sims[0]] = make_run(run_id=1, samples=2)
    telemetry._runs[sims[1]] = make_run(run_id=2, samples=9)
    assert pick_run(telemetry).run_id == 2
    assert pick_run(Telemetry()) is None


def test_pick_run_prefers_donating_runs_over_longer_baselines():
    telemetry = Telemetry()
    telemetry._runs[object()] = make_run(run_id=1, samples=50, donated=0.0)
    telemetry._runs[object()] = make_run(run_id=2, samples=5, donated=100.0)
    assert pick_run(telemetry).run_id == 2


def test_render_run_shows_cluster_series():
    text = render_run(make_run(samples=6))
    assert "6 samples @ 1s" in text
    assert "cluster donated memory" in text
    assert "hosted bytes" in text
    assert "idle hosts" in text


def test_render_dashboard_with_and_without_runs():
    telemetry = Telemetry()
    empty = render_dashboard(telemetry, title="fig7")
    assert "repro top — fig7" in empty
    assert "no cluster telemetry recorded" in empty
    telemetry._runs[object()] = make_run()
    assert "cluster donated memory" in render_dashboard(telemetry)
