"""Diagnostic: where the scale driver's host time grows from 500 to 2000
hosts, layer by layer.

    python3 perfbench/scale_growth.py [--seed 1] [--hosts 500 2000]

Runs the ``scale-2k`` workload's driver at each host count, once untraced
(events, run wall, events per second, set-up) and once traced (per-layer
self time and calls, ``exp.build_s``), and prints each figure with its
growth factor, so the drop in events per second has a layer to point
at.  A diagnostic, not a workload: nothing here is gated.
"""

from __future__ import annotations

import argparse
import sys

from layertrace import LAYERS
from run import BenchError, per_layer, run_child

ROWS = ("sim.events", "events/s (normalized)", "host.run_s",
        "host.speed_factor", "host.setup_s", "exp.build_s") + tuple(
    f"{layer}.{kind}" for layer in LAYERS
    for kind in ("self_s", "share", "calls"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--hosts", type=int, nargs=2, default=(500, 2000))
    args = ap.parse_args(argv)
    table, problems = {}, []
    try:
        for hosts in args.hosts:
            base = run_child("scale-2k", args.seed, hosts=hosts)
            traced = run_child("scale-2k", args.seed, trace=True,
                               hosts=hosts)
            if base["output"] != traced["output"]:
                problems.append(f"{hosts} hosts: the traced run's outputs "
                                f"differ from the untraced run's")
            problems += [f"{hosts} hosts: {v}" for v in
                         base["violations"] + traced["violations"]]
            table[hosts] = per_layer(base, traced)
            table[hosts]["events/s (normalized)"] = (
                base["run_events"] * base["speed_run"] / base["run_s"])
    except BenchError as exc:
        print(f"scale_growth: {exc}", file=sys.stderr)
        return 1
    small, large = args.hosts
    print(f"scale driver, seed {args.seed}: {small} vs {large} hosts "
          f"(host.* untraced, per-layer figures traced)")
    print(f"  {'figure':24s}{small:>14d}{large:>14d}{'growth':>10s}")
    for label in ROWS:
        a, b = table[small][label], table[large][label]
        growth = f"{b / a:9.2f}x" if a else f"{'-':>10s}"
        print(f"  {label:24s}{a:14.6g}{b:14.6g}{growth}")
    for p in problems:
        print(f"scale_growth: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
