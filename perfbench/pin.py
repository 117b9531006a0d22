"""Pin the simulated outputs and exact counts of benchmark seeds.

    python3 perfbench/pin.py --seeds 0-19 [--workloads fig7,serve] [--jobs 2]

Runs one untraced child per workload and seed and records in
``pinned.json`` the SHA-256 of its canonical output and its per-layer
counts; ``run.py`` then fails any run of a pinned seed that differs.
Only a change meant to alter the simulation re-pins.  Children may run
in parallel here: nothing is timed.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import PINNED, WORKLOADS, output_digest, run_child


def seed_range(text: str) -> list[int]:
    """``"0-19"`` or ``"3"`` -> the seeds it names."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads: {sorted(unknown)}")
    jobs = [(w, s) for w in names for s in args.seeds]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        records = list(pool.map(lambda job: run_child(*job), jobs))
    pins = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    bad = 0
    for (workload, seed), rec in zip(jobs, records):
        if rec["violations"]:
            print(f"{workload} seed {seed}: not pinned: {rec['violations']}",
                  file=sys.stderr)
            bad += 1
            continue
        pins.setdefault(workload, {})[str(seed)] = {
            "output": output_digest(rec["output"]), "counts": rec["counts"]}
    for workload in pins:
        pins[workload] = dict(sorted(pins[workload].items(),
                                     key=lambda kv: int(kv[0])))
    PINNED.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(jobs) - bad} runs in {PINNED.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
