"""Tests for the metrics package: Recorder, TimeSeries, report helpers."""

import pytest

from repro.metrics import (Recorder, TimeSeries, format_series, format_table,
                           speedup)
from repro.metrics import recorder as recorder_module
from repro.metrics.recorder import iter_recorders
from repro.testing import collector_off


# -- Recorder ----------------------------------------------------------------

def test_recorder_counters():
    r = Recorder("x")
    r.add("ops")
    r.add("ops", 2)
    r.add("bytes", 100)
    assert r.count("ops") == 3
    assert r.count("bytes") == 100
    assert r.count("missing") == 0
    assert r.counters == {"ops": 3, "bytes": 100}


def test_recorder_samples():
    r = Recorder()
    for v in (1.0, 2.0, 3.0):
        r.sample("lat", v)
    assert r.samples("lat") == [1.0, 2.0, 3.0]
    assert r.mean("lat") == pytest.approx(2.0)
    assert r.maximum("lat") == 3.0
    assert r.mean("none") == 0.0
    assert r.maximum("none") == 0.0


def test_recorder_percentile_interpolates():
    r = Recorder()
    for v in (1.0, 2.0, 3.0, 4.0):
        r.sample("lat", v)
    assert r.percentile("lat", 0.0) == 1.0
    assert r.percentile("lat", 1.0) == 4.0
    assert r.percentile("lat", 0.5) == pytest.approx(2.5)
    assert r.percentile("lat", 0.9) == pytest.approx(3.7)
    # order of recording must not matter
    r2 = Recorder()
    for v in (4.0, 1.0, 3.0, 2.0):
        r2.sample("lat", v)
    assert r2.percentile("lat", 0.9) == pytest.approx(3.7)


def test_recorder_percentile_edge_cases():
    r = Recorder()
    assert r.percentile("missing", 0.5) == 0.0
    r.sample("one", 7.0)
    assert r.percentile("one", 0.25) == 7.0
    with pytest.raises(ValueError):
        r.percentile("one", 1.5)
    with pytest.raises(ValueError):
        r.percentile("one", -0.1)


def test_recorder_histogram_equal_width_bins():
    r = Recorder()
    for v in (0.0, 1.0, 2.0, 3.0, 4.0):
        r.sample("v", v)
    counts, edges = r.histogram("v", bins=4)
    assert edges == [0.0, 1.0, 2.0, 3.0, 4.0]
    # last bin is closed on both sides: 3.0 and 4.0 both land in it
    assert counts == [1, 1, 1, 2]
    assert sum(counts) == 5


def test_recorder_histogram_explicit_edges_and_outliers():
    r = Recorder()
    for v in (-1.0, 0.5, 1.5, 2.5, 99.0):
        r.sample("v", v)
    counts, edges = r.histogram("v", bins=[0.0, 1.0, 2.0, 3.0])
    assert counts == [1, 1, 1]  # -1 and 99 fall outside and are dropped
    assert edges == [0.0, 1.0, 2.0, 3.0]


def test_recorder_histogram_degenerate_inputs():
    r = Recorder()
    counts, edges = r.histogram("empty", bins=2)
    assert counts == [0, 0]
    assert edges == [0.0, 0.5, 1.0]
    r.sample("flat", 5.0)
    r.sample("flat", 5.0)
    counts, edges = r.histogram("flat", bins=2)
    assert sum(counts) == 2
    with pytest.raises(ValueError):
        r.histogram("flat", bins=0)
    with pytest.raises(ValueError):
        r.histogram("flat", bins=[3.0, 2.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        r.histogram("flat", bins=[1.0])  # fewer than two edges


def test_recorder_names_enumerate_in_first_use_order():
    r = Recorder()
    r.add("tx.bytes", 10)
    r.sample("latency", 0.5)
    r.add("rx.bytes")
    r.sample("latency", 0.7)  # repeat: no duplicate name
    assert r.counter_names() == ["tx.bytes", "rx.bytes"]
    assert r.sample_names() == ["latency"]
    assert r.names() == ["tx.bytes", "rx.bytes", "latency"]


def test_recorder_names_empty():
    r = Recorder()
    assert r.counter_names() == []
    assert r.sample_names() == []
    assert r.names() == []


def test_recorder_clear():
    r = Recorder()
    r.add("a")
    r.sample("b", 1.0)
    r.clear()
    assert r.count("a") == 0
    assert r.samples("b") == []


def test_recorder_registry_prunes_in_proportion_to_live_recorders():
    """Many recorders stay alive while short-lived ones come and go: the
    registry stays within twice the live count, each prune scans no more
    than twice the registrations since the last, and iteration keeps
    creation order."""
    registry = recorder_module._REGISTRY
    keep, created, scanned = [], 0, 0
    with collector_off():
        for i in range(32_000):
            before = len(registry)
            rec = Recorder(f"r{i}")
            created += 1
            if len(registry) != before + 1:  # this registration pruned
                scanned += before
            if i % 8 < 3:
                keep.append(rec)
            if i % 1000 == 999:
                live = sum(1 for _ in iter_recorders())
                assert len(registry) <= max(4096, 2 * live)
        del rec
        ours = {id(r) for r in keep}
        assert [r for r in iter_recorders() if id(r) in ours] == keep
    assert scanned <= 2 * created


# -- TimeSeries ---------------------------------------------------------------

def test_timeseries_value_at_step_function():
    ts = TimeSeries()
    ts.record(0.0, 10.0)
    ts.record(5.0, 20.0)
    ts.record(10.0, 5.0)
    assert ts.value_at(0.0) == 10.0
    assert ts.value_at(4.99) == 10.0
    assert ts.value_at(5.0) == 20.0
    assert ts.value_at(100.0) == 5.0


def test_timeseries_before_first_sample_is_error():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.value_at(4.0)


def test_timeseries_out_of_order_rejected():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 2.0)


def test_timeseries_integral_and_average():
    ts = TimeSeries()
    ts.record(0.0, 10.0)
    ts.record(10.0, 20.0)
    # [0,10): 10, [10,20]: 20 -> integral over [0,20] = 100 + 200
    assert ts.integral(0.0, 20.0) == pytest.approx(300.0)
    assert ts.average(0.0, 20.0) == pytest.approx(15.0)
    assert ts.integral(5.0, 5.0) == 0.0
    assert ts.average(5.0, 5.0) == 10.0
    with pytest.raises(ValueError):
        ts.integral(10.0, 5.0)


def test_timeseries_minmax_and_len():
    ts = TimeSeries()
    with pytest.raises(ValueError):
        ts.minimum()
    ts.record(0.0, 3.0)
    ts.record(1.0, 7.0)
    assert ts.minimum() == 3.0
    assert ts.maximum() == 7.0
    assert len(ts) == 2


def test_timeseries_aggregate():
    a, b = TimeSeries(), TimeSeries()
    for t, (va, vb) in enumerate(((1, 10), (2, 20), (3, 30))):
        a.record(float(t), va)
        b.record(float(t), vb)
    agg = TimeSeries.aggregate([a, b], [0.0, 1.0, 2.0])
    assert agg.values == [11, 22, 33]


# -- report --------------------------------------------------------------------

def test_speedup():
    assert speedup(10.0, 5.0) == 2.0
    with pytest.raises(ValueError):
        speedup(10.0, 0.0)


def test_format_table_alignment():
    out = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]],
                       title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "long-name" in lines[4]
    assert "2.500" in lines[4]  # float formatting


def test_format_series():
    out = format_series({"y1": [1.0, 2.0], "y2": [3.0, 4.0]},
                        xlabel="x", xs=[10, 20])
    lines = out.splitlines()
    assert lines[0].split() == ["x", "y1", "y2"]
    assert lines[2].split() == ["10", "1.000", "3.000"]


def test_format_series_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="'short'.*2 values.*has 3"):
        format_series({"ok": [1.0, 2.0, 3.0], "short": [1.0, 2.0]},
                      xlabel="x", xs=[1, 2, 3])
