"""Tests for the span tracer: nesting, causality, the null tracer."""

from repro.obs.session import ObsSession, engines
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import Simulator


def traced_sim(**kwargs):
    sim = Simulator()
    sim.tracer = Tracer(**kwargs)
    return sim


def test_span_records_times_and_tags():
    sim = traced_sim()

    def proc():
        span = sim.tracer.begin(sim, "work", "lib", {"a": 1})
        yield sim.timeout(2.5)
        sim.tracer.end(sim, span, {"b": 2})

    sim.run(until=sim.process(proc()))
    (span,) = sim.tracer.spans
    assert (span.start, span.end) == (0.0, 2.5)
    assert span.duration == 2.5
    assert span.tags == {"a": 1, "b": 2}
    assert span.name == "work" and span.component == "lib"


def test_same_track_spans_nest():
    sim = traced_sim()

    def proc():
        outer = sim.tracer.begin(sim, "outer", "lib")
        inner = sim.tracer.begin(sim, "inner", "lib")
        yield sim.timeout(1.0)
        sim.tracer.end(sim, inner)
        sim.tracer.end(sim, outer)

    sim.run(until=sim.process(proc()))
    outer, inner = sim.tracer.spans
    assert outer.parent_id == 0
    assert inner.parent_id == outer.span_id
    assert inner.track == outer.track


def test_spawned_process_inherits_open_span_as_parent():
    sim = traced_sim()

    def child():
        span = sim.tracer.begin(sim, "child-work", "lib")
        yield sim.timeout(1.0)
        sim.tracer.end(sim, span)

    def parent():
        span = sim.tracer.begin(sim, "parent-work", "lib")
        yield sim.process(child())
        sim.tracer.end(sim, span)

    sim.run(until=sim.process(parent()))
    parent_span, child_span = sim.tracer.spans
    assert child_span.parent_id == parent_span.span_id
    assert child_span.track != parent_span.track  # its own process


def test_sibling_processes_get_distinct_tracks():
    sim = traced_sim()
    tracks = []

    def worker():
        span = sim.tracer.begin(sim, "w", "lib")
        yield sim.timeout(0.5)
        sim.tracer.end(sim, span)
        tracks.append(span.track)

    a = sim.process(worker())
    b = sim.process(worker())
    sim.run(until=a)
    sim.run(until=b)
    assert len(set(tracks)) == 2


def test_end_is_idempotent_and_tolerates_none():
    sim = traced_sim()
    span = sim.tracer.begin(sim, "x", "lib")
    sim.tracer.end(sim, span)
    first_end = span.end
    sim.tracer.end(sim, span, {"late": True})  # no-op
    sim.tracer.end(sim, None)                  # no-op
    assert span.end == first_end
    assert not span.tags or "late" not in span.tags


def test_instant_has_zero_duration():
    sim = traced_sim()
    marker = sim.tracer.instant(sim, "mark", "kernel", {"k": 1})
    assert marker.start == marker.end == 0.0
    assert marker.duration == 0.0


def test_finished_and_components_and_clear():
    sim = traced_sim()
    sim.tracer.begin(sim, "open", "lib")
    sim.tracer.instant(sim, "done", "disk")
    assert [s.name for s in sim.tracer.finished()] == ["done"]
    assert sim.tracer.components() == {"lib", "disk"}
    sim.tracer.clear()
    assert sim.tracer.spans == []


def test_null_tracer_is_inert_and_default():
    assert engines()[0] is NULL_TRACER
    assert not NULL_TRACER.enabled
    sim = Simulator()
    assert sim.tracer is NULL_TRACER
    assert NULL_TRACER.begin(sim, "x", "lib") is None
    NULL_TRACER.end(sim, None)
    assert NULL_TRACER.instant(sim, "x", "lib") is None
    assert NULL_TRACER.spans == []


def test_install_swaps_and_restores():
    with ObsSession(trace=True) as obs:
        assert engines()[0] is obs.tracer
        assert Simulator().tracer is obs.tracer
    assert engines()[0] is NULL_TRACER
    assert Simulator().tracer is NULL_TRACER


def test_kernel_events_record_dispatch_and_wakeup():
    sim = traced_sim(kernel_events=True)

    def proc():
        yield sim.timeout(1.0)

    sim.run(until=sim.process(proc()))
    names = {s.name for s in sim.tracer.spans}
    assert "wakeup" in names
    assert "dispatch" in names


def test_kernel_events_off_by_default():
    sim = traced_sim()

    def proc():
        yield sim.timeout(1.0)

    sim.run(until=sim.process(proc()))
    assert sim.tracer.spans == []
