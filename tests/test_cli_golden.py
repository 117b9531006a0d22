"""CLI identity: what ``python -m repro`` prints and writes, byte for byte.

Every result this repository reproduces goes through the CLI, so this
golden pins its surface from the outside.  Each command below runs as a
subprocess in an empty working directory; the golden stores its exit
code, its stdout, its stderr (the working directory spelled
``<tmp>``) and the sha256 of every file it leaves there:

* ``list``, ``disk`` and ``table1 --days 0.25``: plain runs;
* ``disk`` with every observability output and ``--audit raise``;
* the ``trace``, ``top`` and ``slo`` shorthands over ``disk``;
* ``fig8`` at 1/1024 scale with a trace, the one run here that prints
  the fetch-path breakdown;
* a short ``chaos fig7`` run with its plan and event log;
* a one-shard ``serve-bench`` with its ``--out`` document.

A second test pins every subcommand's arguments as ``build_parser()``
declares them: option strings, destination, default, type, choices,
``nargs``, whether it is required, metavar and help text.

Regenerate after an intentional change with::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "cli_golden.json")
SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

OBS_OUTPUTS = ["--trace-out", "t.json", "--metrics-out", "m.json",
               "--telemetry-out", "t.csv", "--events-out", "e.jsonl",
               "--audit", "raise"]

COMMANDS = {
    "list": ["list"],
    "disk": ["disk"],
    "table1-quarter-day": ["table1", "--days", "0.25"],
    "disk-observed": ["disk", *OBS_OUTPUTS],
    "trace-disk": ["trace", "disk"],
    "top-disk": ["top", "disk"],
    "slo-disk": ["slo", "disk", "--out", "slo.json"],
    "fig8-traced": ["fig8", "--scale", "1/1024", "--iters", "1",
                    "--trace-out", "t.json", "--metrics-out", "m.json"],
    "chaos-fig7-seed3": ["chaos", "fig7", "--seed", "3", "--horizon", "5",
                         "--plan-out", "plan.json",
                         "--events-out", "e.jsonl"],
    "serve-bench-one-shard": ["serve-bench", "--shards", "1",
                              "--duration", "1", "--keys", "16",
                              "--rate", "50", "--out", "serve.json"],
}


def _load() -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fp:
        return json.load(fp)


def _store(key: str, value) -> None:
    doc = _load()
    doc[key] = value
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")


def _check(key: str, got) -> None:
    if os.environ.get("REPRO_REGOLDEN"):
        _store(key, got)
    assert got == _load()[key], \
        f"{key} drifted from the CLI golden; if intentional, " \
        "regenerate with REPRO_REGOLDEN=1"


def _run(argv: list, cwd) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=str(cwd), env=env, capture_output=True,
                          text=True, timeout=600)
    files = {}
    for root, _, names in os.walk(str(cwd)):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fp:
                digest = hashlib.sha256(fp.read()).hexdigest()
            files[os.path.relpath(path, str(cwd))] = digest
    tmp = str(cwd)
    return {"argv": argv, "returncode": proc.returncode,
            "stdout": proc.stdout.replace(tmp, "<tmp>"),
            "stderr": proc.stderr.replace(tmp, "<tmp>"),
            "files": dict(sorted(files.items()))}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_cli_golden(name, tmp_path):
    _check(f"run/{name}", _run(COMMANDS[name], tmp_path))


def _action(action: argparse.Action) -> dict:
    kind = action.type
    return {"options": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "type": getattr(kind, "__name__", None),
            "choices": (list(action.choices)
                        if action.choices is not None else None),
            "nargs": action.nargs,
            "required": action.required,
            "metavar": action.metavar,
            "help": action.help}


def _parser_surface() -> dict:
    from repro.cli import build_parser
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {name: {"help": helps.get(name),
                   "args": [_action(a) for a in p._actions
                            if not isinstance(a, argparse._HelpAction)]}
            for name, p in sub.choices.items()}


def test_parser_matches_cli_golden():
    _check("parser", _parser_surface())
