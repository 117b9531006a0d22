"""The examples run end to end, each as its own process.

Every example builds a testbed through the public API, so a change to
that API must keep them working.  Each runs as its docstring says
(``python examples/<name>.py``) and must exit cleanly and print the
line that shows its point.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: example -> a line its output must contain
EXAMPLES = {
    "quickstart": "round-trip intact: True",
    "out_of_core_lu": "that is Dodo's win",
    "idle_harvesting": "virtually no delay",
    "association_mining": "top frequent itemsets",
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert EXAMPLES[name] in proc.stdout, proc.stdout
