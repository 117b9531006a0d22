"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, _scale, build_parser, main


def test_scale_parsing():
    assert _scale("1/64") == pytest.approx(1 / 64)
    assert _scale("0.25") == 0.25
    assert _scale("1") == 1.0


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "fig8" in capsys.readouterr().out


def test_parser_accepts_all_commands():
    parser = build_parser()
    for argv in (["fig1", "--days", "1"],
                 ["fig7", "--scale-lu", "1/256"],
                 ["fig8", "--scale", "1/256", "--iters", "2"],
                 ["ablations", "--scale", "1/256"],
                 ["nondedicated", "--iters", "2"],
                 ["all", "--quick"]):
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_disk_command_runs(capsys):
    assert main(["disk"]) == 0
    out = capsys.readouterr().out
    assert "disk bandwidth" in out
    assert "seq 8K" in out


def test_table1_command_runs(capsys):
    assert main(["table1", "--days", "0.25"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_out_documents_are_canonical_json(tmp_path, capsys):
    """Every ``--out`` document is canonical JSON and a newline."""
    import json

    from repro.sweep.spec import canonical_text

    out = tmp_path / "serve.json"
    assert main(["serve-bench", "--shards", "1", "--duration", "1",
                 "--keys", "16", "--rate", "50", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == canonical_text(json.loads(text)) + "\n"
    assert f"wrote serving series to {out}" in capsys.readouterr().err


# -- observability options ----------------------------------------------------

def test_parser_accepts_observability_flags():
    parser = build_parser()
    args = parser.parse_args(["fig7", "--trace-out", "t.json",
                              "--metrics-out", "m.json", "--kernel-events"])
    assert args.trace_out == "t.json"
    assert args.metrics_out == "m.json"
    assert args.kernel_events is True
    # default: disabled
    args = parser.parse_args(["fig7"])
    assert args.trace_out is None and args.metrics_out is None
    assert args.kernel_events is False


def test_parser_accepts_trace_shorthand():
    parser = build_parser()
    args = parser.parse_args(["trace", "fig8", "--out", "f8.json"])
    assert args.command == "trace"
    assert args.experiment == "fig8"
    assert args.out == "f8.json"
    args = parser.parse_args(["trace", "disk"])
    assert args.out == "trace.json"


def test_trace_rejects_untraceable_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", "all"])  # shells out: cannot trace


def test_traced_run_writes_trace_and_metrics(tmp_path, capsys):
    import json
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.json"
    assert main(["disk",
                 "--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)]) == 0
    assert "disk bandwidth" in capsys.readouterr().out
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert any(e.get("ph") == "X" and e["name"].startswith("disk.")
               for e in events)
    metrics = json.loads(metrics_path.read_text())
    assert metrics["meta"]["command"] == "disk"
    assert metrics["recorders"]


def test_untraced_run_leaves_default_tracer(capsys):
    from repro.obs.session import engines
    from repro.obs.tracer import NULL_TRACER
    assert main(["table1", "--days", "0.25"]) == 0
    capsys.readouterr()
    assert engines()[0] is NULL_TRACER


# -- telemetry / event log / audit options ------------------------------------

def test_parser_accepts_telemetry_flags():
    parser = build_parser()
    args = parser.parse_args(["fig8", "--telemetry-out", "t.csv",
                              "--telemetry-interval", "0.5",
                              "--events-out", "e.jsonl",
                              "--events-level", "debug",
                              "--audit", "raise"])
    assert args.telemetry_out == "t.csv"
    assert args.telemetry_interval == 0.5
    assert args.events_out == "e.jsonl"
    assert args.events_level == "debug"
    assert args.audit_mode == "raise"
    # default: all disabled
    args = parser.parse_args(["fig8"])
    assert args.telemetry_out is None and args.events_out is None
    assert args.audit_mode == "off"


def test_parser_accepts_top_shorthand():
    parser = build_parser()
    args = parser.parse_args(["top", "disk"])
    assert args.command == "top"
    assert args.experiment == "disk"
    with pytest.raises(SystemExit):
        parser.parse_args(["top", "all"])  # shells out: cannot sample


def test_telemetered_run_writes_csv_events_and_audits(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    events_path = tmp_path / "e.jsonl"
    assert main(["disk", "--telemetry-out", str(csv_path),
                 "--events-out", str(events_path), "--audit", "raise"]) == 0
    err = capsys.readouterr().err
    assert "time-series rows" in err
    assert "no inconsistencies" in err
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "run,time,kind,name,gauge,unit,value"
    assert any(",disk," in line for line in lines[1:])
    assert events_path.exists()


def test_top_renders_dashboard(capsys):
    assert main(["top", "disk"]) == 0
    out = capsys.readouterr().out
    assert "samples @" in out  # the dashboard header rendered


def test_untelemetered_run_leaves_default_telemetry(capsys):
    from repro.obs.eventlog import NULL_EVENTLOG
    from repro.obs.session import engines
    from repro.obs.timeseries import NULL_TELEMETRY
    assert main(["table1", "--days", "0.25"]) == 0
    capsys.readouterr()
    assert engines()[1:] == (NULL_TELEMETRY, NULL_EVENTLOG)


# -- chaos (nemesis) command --------------------------------------------------

def test_parser_accepts_chaos_flags(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["chaos", "fig7", "--seed", "9",
                              "--plan-out", "p.json",
                              "--events-out", "e.jsonl",
                              "--audit", "warn"])
    assert args.command == "chaos"
    assert args.experiment == "fig7"
    assert args.seed == 9
    assert args.plan_out == "p.json"
    assert args.events_out == "e.jsonl"
    assert args.chaos_audit == "warn"
    # defaults: audit raise, no artifacts
    args = parser.parse_args(["chaos", "nondedicated"])
    assert args.chaos_audit == "raise"
    assert args.plan_out is None and args.plan_in is None


def test_chaos_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["chaos", "fig8"])


def test_chaos_missing_plan_in_is_one_line_error(tmp_path, capsys):
    """An unreadable --plan-in must exit non-zero with a single
    'repro: ...' line, never a traceback."""
    assert main(["chaos", "fig7",
                 "--plan-in", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: cannot read fault plan")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_chaos_corrupt_plan_in_is_one_line_error(tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json at all")
    assert main(["chaos", "fig7", "--plan-in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: cannot read fault plan")
    assert "Traceback" not in err


def test_chaos_run_exports_plan_and_replays_identically(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    events_path = tmp_path / "events.jsonl"
    assert main(["chaos", "fig7", "--seed", "3",
                 "--plan-out", str(plan_path),
                 "--events-out", str(events_path)]) == 0
    out = capsys.readouterr().out
    assert "injected" in out and "no inconsistencies" in out
    first = events_path.read_bytes()
    assert first  # chaos events were persisted, not clobbered by the CLI

    replay_path = tmp_path / "replay.jsonl"
    assert main(["chaos", "fig7", "--plan-in", str(plan_path),
                 "--events-out", str(replay_path)]) == 0
    capsys.readouterr()
    assert replay_path.read_bytes() == first


# -- sweep command ------------------------------------------------------------

def _write_selftest_spec(tmp_path, **extra):
    import json
    spec = {"name": "cli-test", "experiment": "selftest",
            "grid": {"seed": [0, 1, 2], "x": [1]}, **extra}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_parser_accepts_sweep_flags():
    parser = build_parser()
    args = parser.parse_args(["sweep", "ci-grid", "--jobs", "4",
                              "--cache-dir", "c", "--resume",
                              "--out", "r.json", "--quiet"])
    assert args.command == "sweep"
    assert args.spec == "ci-grid"
    assert args.jobs == 4
    assert args.cache_dir == "c"
    assert args.resume is True
    assert args.out == "r.json"
    assert args.quiet is True
    # defaults
    args = parser.parse_args(["sweep", "ci-grid"])
    assert args.jobs == 1 and args.resume is False
    assert args.cache_dir == ".sweep-cache"


def test_sweep_lists_in_repro_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sweep" in out
    assert "ci-grid" in out  # builtin specs advertised


def test_sweep_runs_and_resumes_from_cache(tmp_path, capsys):
    spec = _write_selftest_spec(tmp_path)
    cache = str(tmp_path / "cache")
    out = str(tmp_path / "results.json")
    assert main(["sweep", spec, "--cache-dir", cache, "--out", out,
                 "--quiet"]) == 0
    stdout = capsys.readouterr().out
    assert "3 points" in stdout and "3 ran" in stdout
    import json
    record = json.loads(open(out).read())
    assert record["summary"]["ran"] == 3

    assert main(["sweep", spec, "--cache-dir", cache, "--resume",
                 "--quiet"]) == 0
    assert "3 cached" in capsys.readouterr().out


def test_sweep_failed_point_exits_nonzero(tmp_path, capsys):
    spec = _write_selftest_spec(tmp_path,
                                overrides={"fail_seeds": [1]})
    assert main(["sweep", spec, "--cache-dir", "", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert "1 failed" in captured.out
    assert "injected failure" in captured.err


def test_sweep_unknown_builtin_is_one_line_error(capsys):
    assert main(["sweep", "no-such-sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: unknown sweep spec")
    assert "Traceback" not in err


def test_sweep_unreadable_spec_is_one_line_error(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: cannot read sweep spec")
    assert len(err.strip().splitlines()) == 1


def test_sweep_unknown_experiment_is_one_line_error(tmp_path, capsys):
    import json
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "name": "bad", "experiment": "fig99",
        "grid": {"seed": [0]}}))
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment(s) fig99" in err
    assert "Traceback" not in err


# -- observed fan-out and 'repro all' -----------------------------------------

@pytest.mark.parametrize("flags", [
    ["--trace-out", "t.json", "--metrics-out", "m.json"],
    ["--telemetry-out", "t.csv", "--events-out", "e.jsonl",
     "--audit", "raise"],
])
def test_observed_fan_out_is_a_one_line_error(flags, tmp_path, monkeypatch,
                                              capsys):
    """The engines live in this process, so an observed run must not
    fan out: its outputs would be empty and its audit would check
    nothing.  One ``repro:`` line, exit 2, no output files."""
    monkeypatch.chdir(tmp_path)
    assert main(["fig8", "--scale", "1/1024", "--iters", "1",
                 "--jobs", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: cannot fan out to 2 worker")
    assert len(captured.err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_all_runs_the_checkout_script_from_any_directory(tmp_path,
                                                         monkeypatch):
    import os
    import subprocess
    calls = []
    monkeypatch.setattr(subprocess, "call",
                        lambda cmd: calls.append(cmd) or 0)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["all", "--quick"])
    assert exc.value.code == 0
    (cmd,) = calls
    assert os.path.isfile(cmd[1])
    assert cmd[1].endswith(os.path.join("examples", "reproduce_paper.py"))
    assert cmd[2:] == ["--quick"]


def test_all_without_the_script_is_one_line_error(tmp_path, monkeypatch,
                                                  capsys):
    import subprocess

    import repro.cli as cli
    monkeypatch.setattr(cli, "__file__",
                        str(tmp_path / "src" / "repro" / "cli.py"))
    monkeypatch.setattr(subprocess, "call", lambda cmd: pytest.fail(
        f"ran {cmd} without checking the script exists"))
    assert main(["all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: ") and "reproduce_paper.py" in err
    assert len(err.strip().splitlines()) == 1
