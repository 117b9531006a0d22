#!/usr/bin/env python
"""Where the cyclic garbage collector's time goes in one benchmark workload.

    python tools/gc_census.py fig7|serve|scale-2k [--seed N]

Runs the perfbench workload's ``repro.exp`` experiment with the inputs
``perfbench/run.py`` gives it for ``--seed`` and prints, for the build
phase (inside every ``Platform`` constructor) and the run phase (the rest
of the experiment call), the collections and seconds spent in each
generation, the objects they freed and the GC share of the phase's wall.
It then runs the experiment a second time under ``gc.DEBUG_SAVEALL`` and
prints a census, by type, of every object the collector found
unreachable: the cyclic garbage that reference counting could not free.
(The census needs its own pass because saved garbage stays tracked and
slows every later collection.)

cProfile and ``perfbench/layertrace.py`` cannot see this cost: a
collection runs inside whichever call happened to allocate, and is
charged to that frame.  The script times the build phase as perfbench's
child does, by wrapping ``Platform.__init__`` in its own process, and
changes nothing under ``src/``.  Unlike perfbench it does not keep every
``Recorder`` alive, so the experiment's short-lived objects die as they
do in any other run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

PHASES = ("build", "run")
#: census rows printed, largest first
TOP_TYPES = 15


def settle() -> None:
    """Collect until nothing is left.  Finalizing a suspended generator
    can keep its cycle alive until the next collection, so one
    ``gc.collect()`` may leave a finished platform behind."""
    while gc.collect():
        pass


class GcClock:
    """A ``gc.callbacks`` hook: per phase and generation, the number of
    collections, their seconds and the objects they freed."""

    def __init__(self):
        self.table = {p: [[0, 0.0, 0] for _ in range(3)] for p in PHASES}
        self.building = False
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
            return
        row = self.table["build" if self.building else "run"]
        cell = row[info["generation"]]
        cell[0] += 1
        cell[1] += perf_counter() - self._t0
        cell[2] += info["collected"]


def timed_pass(wl, module, params) -> tuple[GcClock, float, float]:
    """Run the experiment once with the GC clock installed and every
    ``Platform`` constructor timed; return the clock, the experiment
    call's wall and the constructors' part of it."""
    from repro.exp.platform import Platform

    clock = GcClock()
    build_s = 0.0
    build = Platform.__init__

    @functools.wraps(build)
    def timed_build(platform, *args, **kwargs):
        nonlocal build_s
        wall = perf_counter()
        clock.building = True
        try:
            build(platform, *args, **kwargs)
        finally:
            clock.building = False
            build_s += perf_counter() - wall

    settle()
    Platform.__init__ = timed_build
    gc.callbacks.append(clock)
    try:
        wall = perf_counter()
        wl.run(module, params)
        wall_s = perf_counter() - wall
    finally:
        gc.callbacks.remove(clock)
        Platform.__init__ = build
    return clock, wall_s, build_s


def census_pass(wl, module, params) -> tuple[Counter, int]:
    """Run the experiment again under ``DEBUG_SAVEALL``.  Return the
    garbage the collector found during the call, counted by type name,
    and the number of objects a final collection finds after it (the
    finished platforms, whose object graphs are cyclic by design)."""
    settle()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        wl.run(module, params)
        during = len(gc.garbage)
        settle()
    finally:
        gc.set_debug(0)
    found = Counter(type(obj).__qualname__ for obj in gc.garbage[:during])
    after = len(gc.garbage) - during
    gc.garbage.clear()
    return found, after


def report(name: str, seed: int, clock: GcClock, wall_s: float,
           build_s: float, garbage: Counter, after: int) -> None:
    walls = {"build": build_s, "run": wall_s - build_s}
    print(f"{name} seed {seed}: experiment call {wall_s:.2f} s "
          f"(build {walls['build']:.2f} s, run {walls['run']:.2f} s)")
    print(f"  {'phase':6s}{'gen':>4s}{'collections':>13s}{'gc_s':>9s}"
          f"{'freed':>11s}")
    for phase in PHASES:
        rows = clock.table[phase]
        for gen, (n, secs, freed) in enumerate(rows):
            print(f"  {phase:6s}{gen:>4d}{n:>13d}{secs:>9.3f}{freed:>11d}")
        n = sum(r[0] for r in rows)
        secs = sum(r[1] for r in rows)
        freed = sum(r[2] for r in rows)
        share = secs / walls[phase] if walls[phase] else 0.0
        print(f"  {phase:6s}{'all':>4s}{n:>13d}{secs:>9.3f}{freed:>11d}"
              f"   {share:.1%} of the {phase} phase")
    print(f"  cyclic garbage found during the call "
          f"(DEBUG_SAVEALL pass): {sum(garbage.values())} objects")
    for type_name, n in garbage.most_common(TOP_TYPES):
        print(f"  {n:>10d}  {type_name}")
    print(f"  found by a collection after the call: {after} objects")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    params = wl.params(args.seed)
    module = importlib.import_module(wl.module)
    clock, wall_s, build_s = timed_pass(wl, module, params)
    garbage, after = census_pass(wl, module, params)
    report(wl.name, args.seed, clock, wall_s, build_s, garbage, after)
    return 0


if __name__ == "__main__":
    sys.exit(main())
