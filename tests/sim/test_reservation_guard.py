"""Only the simulation kernel reads a Resource's internals.

The fast paths reserve NIC engines and the disk arm through
``Resource.try_acquire``/``Resource.idle``, the one definition of "free
with nobody waiting".  A module outside ``repro.sim`` that reads
``._in_use`` or ``._waiters`` would be a second, hand-kept copy of it.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PRIVATE = re.compile(r"\._(?:in_use|waiters)\b")


def test_no_module_outside_sim_reads_resource_internals():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "sim":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if PRIVATE.search(line):
                hits.append(f"{rel}:{lineno}: {line.strip()}")
    assert hits == [], "\n".join(hits)
