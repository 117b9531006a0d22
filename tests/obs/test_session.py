"""The observability session: what it builds, installs and restores.

:class:`~repro.obs.session.ObsSession` is the one place engines are
installed for the simulators of a run (the CLI, ``run_scenario`` and
``run_chaos`` all observe through it), so these tests pin its contract:
it builds only what is asked for, puts the previous engines back and
releases its recorder collection on every exit path, and nested
sessions unwind in LIFO order.
"""

import pytest

from repro.cli import main
from repro.metrics.recorder import collecting
from repro.obs.audit import AuditError, Auditor
from repro.obs.eventlog import NULL_EVENTLOG, EventLog
from repro.obs.session import ObsSession, engines, observing
from repro.obs.timeseries import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator


@pytest.fixture
def previous():
    """Run the test inside a session that installed a tracer, telemetry
    engine and event log; the null engines come back afterwards,
    whatever happens."""
    with ObsSession(trace=True, interval_s=1.0, events="info") as outer:
        yield outer.tracer, outer.telemetry, outer.eventlog


def test_nothing_asked_builds_and_installs_nothing():
    with ObsSession() as obs:
        assert engines() == (NULL_TRACER, NULL_TELEMETRY, NULL_EVENTLOG)
        assert not observing()
    assert (obs.tracer, obs.telemetry, obs.eventlog, obs.auditor,
            obs.sli, obs.slo, obs.recorders) == (None,) * 7


def test_installs_only_the_engines_asked_for():
    with ObsSession(events="info", audit="warn") as obs:
        assert engines() == (NULL_TRACER, NULL_TELEMETRY, obs.eventlog)
        assert obs.eventlog.level == "info"
        assert obs.auditor.eventlog is obs.eventlog
        assert obs.tracer is None and obs.telemetry is None
        assert not collecting()
    with ObsSession(trace=True, kernel_events=True) as obs:
        assert engines() == (obs.tracer, NULL_TELEMETRY, NULL_EVENTLOG)
        assert obs.tracer.kernel_events
        assert obs.auditor is None and obs.sli is None
    with ObsSession(collect=True) as obs:
        assert engines() == (NULL_TRACER, NULL_TELEMETRY, NULL_EVENTLOG)
        assert collecting() and observing()
    assert not collecting() and obs.recorders == []


def test_wires_telemetry_event_log_auditor_and_slo():
    obs = ObsSession(interval_s=0.5, events="debug", audit="raise",
                     sample_audit=True, slo=True, alpha=0.02)
    assert obs.telemetry.interval_s == 0.5
    assert obs.eventlog.telemetry is obs.telemetry  # shared run numbering
    assert obs.telemetry.auditor is obs.auditor
    assert obs.auditor.mode == "raise"
    assert obs.tracer.sink is obs.sli and obs.sli.alpha == 0.02
    assert obs.sli.engine is obs.slo and obs.telemetry.slo is obs.slo
    assert obs.slo.eventlog is obs.eventlog
    # without sample_audit the caller hands the auditor on (the nemesis)
    obs = ObsSession(interval_s=1.0, events="debug", audit="raise")
    assert obs.auditor is not None and obs.telemetry.auditor is None


def test_prebuilt_engines_are_installed_as_given():
    telemetry = Telemetry(interval_s=0.25)
    eventlog = EventLog(level="debug", telemetry=telemetry)
    with ObsSession(interval_s=9.0, telemetry=telemetry, events="error",
                    eventlog=eventlog) as obs:
        assert engines() == (NULL_TRACER, telemetry, eventlog)
    assert obs.telemetry is telemetry and obs.eventlog is eventlog


def test_slo_and_sample_audits_need_telemetry():
    with pytest.raises(ValueError, match="need telemetry"):
        ObsSession(events="info", slo=True)
    with pytest.raises(ValueError, match="need telemetry"):
        ObsSession(events="info", audit="warn", sample_audit=True)


def test_restores_previous_engines_on_normal_exit(previous):
    with ObsSession(trace=True, interval_s=1.0, events="info",
                    collect=True) as obs:
        assert engines() == (obs.tracer, obs.telemetry, obs.eventlog)
        assert collecting()
    assert engines() == previous
    assert not collecting()


def test_simulators_take_the_installed_engines():
    """The kernel takes all three engines from the one slot."""
    with ObsSession(trace=True, interval_s=1.0, events="info") as obs:
        sim = Simulator()
    assert (sim.tracer, sim.telemetry, sim.eventlog) == \
        (obs.tracer, obs.telemetry, obs.eventlog)
    sim = Simulator()
    assert (sim.tracer, sim.telemetry, sim.eventlog) == \
        (NULL_TRACER, NULL_TELEMETRY, NULL_EVENTLOG)


def test_restores_previous_engines_when_the_body_raises(previous):
    with pytest.raises(RuntimeError):
        with ObsSession(trace=True, interval_s=1.0, events="info",
                        collect=True):
            raise RuntimeError("boom")
    assert engines() == previous
    assert not collecting()


def test_finalizes_telemetry_only_on_normal_exit(monkeypatch):
    finalized = []
    monkeypatch.setattr(Telemetry, "finalize",
                        lambda self: finalized.append(self))
    with ObsSession(interval_s=1.0) as obs:
        pass
    assert finalized == [obs.telemetry]
    with pytest.raises(RuntimeError):
        with ObsSession(interval_s=1.0):
            raise RuntimeError("boom")
    assert finalized == [obs.telemetry]


def test_nested_sessions_restore_in_lifo_order():
    with ObsSession(trace=True, events="info") as outer:
        with ObsSession(trace=True, interval_s=1.0, collect=True) as inner:
            assert engines() == (inner.tracer, inner.telemetry,
                                    outer.eventlog)
            assert collecting()
        assert engines() == (outer.tracer, NULL_TELEMETRY,
                                outer.eventlog)
        assert not collecting()
    assert engines() == (NULL_TRACER, NULL_TELEMETRY, NULL_EVENTLOG)


# -- through the CLI ----------------------------------------------------------

def test_cli_restores_engines_after_a_cli_error(previous, tmp_path, capsys):
    """A refused fan-out is a CliError raised inside the session."""
    assert main(["fig8", "--scale", "1/1024", "--iters", "1",
                 "--jobs", "2", "--metrics-out",
                 str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith("repro: cannot fan out")
    assert engines() == previous
    assert not collecting()


def test_cli_restores_engines_after_an_audit_error(previous, tmp_path,
                                                   monkeypatch):
    def failing_audit(self, run, sim, teardown=False):
        raise AuditError("audit found 1 inconsistency")

    monkeypatch.setattr(Auditor, "audit_run", failing_audit)
    with pytest.raises(AuditError):
        main(["disk", "--audit", "raise",
              "--metrics-out", str(tmp_path / "m.json")])
    assert engines() == previous
    assert not collecting()
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv", [
    ["list"],
    ["table1", "--days", "0.25"],
    ["disk", "--trace-out", "t.json", "--metrics-out", "m.json",
     "--telemetry-out", "t.csv", "--events-out", "e.jsonl",
     "--audit", "raise"],
    ["trace", "disk"],
    ["top", "disk"],
    ["slo", "disk", "--out", "slo.json"],
    ["chaos", "fig7", "--seed", "3", "--horizon", "5"],
    ["fig8", "--scale", "1/1024", "--iters", "1", "--jobs", "2",
     "--trace-out", "t.json"],
], ids=lambda argv: "-".join(argv[:2]))
def test_main_leaves_the_null_engines_installed(argv, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) in (0, 2)
    capsys.readouterr()
    assert engines() == (NULL_TRACER, NULL_TELEMETRY, NULL_EVENTLOG)
    assert not observing()
