"""Host-time benchmark of the ``fig7``, ``serve`` and ``scale-2k`` drivers.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--seed 1] [--seconds 30]

Every measured run is a fresh child process (``child.py``), one at a time.
With ``--trace 0`` an invocation runs ``round(seconds / child_s)``
children (at least two) and reports the end-to-end metrics over them;
with ``--trace 1`` one untraced and one traced child run, and the result
holds the per-layer metrics.  Metric names and units are those listed in
``BENCHMARK.json``; the last line of stdout is the JSON result, and each
end-to-end figure's median, range and sample count go to stderr.

Every child's simulated output is checked against the workload's
invariants, against the other children of the invocation (the traced one
included, byte for byte), and, for seeds listed in ``pinned.json``,
against the pinned output digest and counts.  A child whose output
differs counts every one of its operations as failed, and any problem
makes the command exit 1.  ``--report`` runs both modes on every workload
and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = HERE / "pinned.json"
SPEC = ROOT / "BENCHMARK.json"
#: fewest children a --trace 0 invocation measures
MIN_RUNS = 2
#: an invocation must end within 180 s; no child may run past this
DEADLINE_S = 170.0
END_TO_END = ("run_s", "run_cpu_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    """A child failed, or ran out of time."""


def output_digest(text: str) -> str:
    """SHA-256 of a child's canonical JSON output."""
    return hashlib.sha256(text.encode()).hexdigest()


def run_child(workload: str, seed: int, trace: bool = False,
              hosts: int | None = None,
              timeout: float = DEADLINE_S) -> dict:
    """Run ``child.py`` once, wait for it, and return its record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if hosts is not None:
        cmd += ["--hosts", str(hosts)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: a run took longer "
                         f"than {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} seed {seed}: a run exited with "
                         f"code {proc.returncode}")
    return json.loads(lines[-1])


def pinned(workload: str, seed: int) -> dict | None:
    """The pinned output digest and counts of a seed, if it has them."""
    if not PINNED.exists():
        return None
    return json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))


def verify(workload: str, seed: int,
           runs: list[dict]) -> tuple[list[str], int, int]:
    """Check every run's simulated outputs and counts; return the
    problems found and the operations attempted and failed."""
    pin = pinned(workload, seed)
    ref = runs[0]
    problems, attempted, failed = [], 0, 0
    for i, run in enumerate(runs, 1):
        bad = list(run["violations"])
        if pin is not None and output_digest(run["output"]) != pin["output"]:
            bad.append("simulated outputs differ from the pinned ones")
        if pin is not None and run["counts"] != pin["counts"]:
            bad.append("per-layer counts differ from the pinned ones")
        if run["output"] != ref["output"]:
            bad.append("simulated outputs differ from run 1")
        if run["counts"] != ref["counts"]:
            bad.append("per-layer counts differ from run 1")
        label = "traced run" if "trace" in run else f"run {i}"
        problems += [f"{workload} seed {seed} {label}: {b}" for b in bad]
        attempted += run["attempted"]
        failed += run["attempted"] if bad else run["failed"]
    return problems, attempted, failed


def speed_normalized(run: dict) -> dict:
    """One untraced run's end-to-end values: host seconds divided by the
    host-speed factor sampled over the same phase."""
    return {"run_s": run["run_s"] / run["speed_run"],
            "run_cpu_s": run["run_cpu_s"] / run["speed_run"],
            "setup_s": run["setup_s"] / run["speed_setup"],
            "peak_rss_mb": run["peak_rss_mb"]}


def end_to_end(runs: list[dict]) -> dict:
    """Each end-to-end metric: the median over the untraced runs."""
    values = [speed_normalized(r) for r in runs]
    return {name: statistics.median(v[name] for v in values)
            for name in END_TO_END}


def per_layer(base: dict, traced: dict) -> dict:
    """The per-layer metrics: self time from the traced run, exact
    counts from the untraced one."""
    trace, counts = traced["trace"], base["counts"]
    values = dict(counts)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["self_s"][layer]
        values[f"{layer}.share"] = trace["self_s"][layer] / trace["wall_s"]
        values[f"{layer}.calls"] = trace["calls"][layer]
    values["exp.build_s"] = trace["build_s"]
    values["host.run_s"] = base["run_s"]
    values["host.setup_s"] = base["setup_s"]
    values["host.speed_factor"] = base["speed_run"]
    values["trace.overhead_s"] = traced["run_s"] - base["run_s"]
    values["sim.host_us_per_event"] = 1e6 * base["run_s"] / base["run_events"]
    fast = counts["net.fastpath.dgrams"] + counts["net.fastpath.transfers"]
    tried = fast + counts["net.fastpath.fallbacks"]
    values["net.fastpath.engaged_ratio"] = fast / tried if tried else 0.0
    values["failed_frac"] = base["failed"] / base["attempted"]
    return values


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[dict], list[str], int, int]:
    """Run one invocation's children; return the metric values, the
    child records, the problems found and the operation totals."""
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    count = 1 if trace else max(
        MIN_RUNS, round(seconds / WORKLOADS[workload].child_s))
    runs = []
    while len(runs) < count:
        elapsed = time.monotonic() - start
        if runs and elapsed / len(runs) > left():  # the next would not fit
            raise BenchError(f"{workload} seed {seed}: {count} runs do not "
                             f"fit in {DEADLINE_S:.0f} s")
        runs.append(run_child(workload, seed, timeout=left()))
    if trace:
        runs.append(run_child(workload, seed, trace=True, timeout=left()))
        values = per_layer(runs[0], runs[1])
    else:
        values = end_to_end(runs)
    return (values, runs) + verify(workload, seed, runs)


def result(section: str, values: dict, problems: list[str],
           attempted: int, failed: int) -> dict:
    """The JSON result: every metric ``BENCHMARK.json`` lists in
    ``section``, with its unit."""
    spec = json.loads(SPEC.read_text())[section]
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in spec}}


def spread_lines(runs: list[dict]) -> list[str]:
    """Median, range and sample count of each end-to-end metric."""
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text())["end_to_end"]}
    out = []
    values = [speed_normalized(r) for r in runs]
    for name in END_TO_END:
        vals = sorted(v[name] for v in values)
        out.append(f"  {name:12s} {statistics.median(vals):10.4f} "
                   f"{units[name]:3s} range [{vals[0]:.4f}, {vals[-1]:.4f}]"
                   f" n={len(vals)}")
    return out


#: where the traced split should put the work (the reasons the workloads
#: were chosen); a claim that does not hold is reported, not hidden
CLAIMS = (
    ("storage.share on fig7 is above serve and scale-2k",
     lambda v: v["fig7"]["storage.share"] > max(
         v["serve"]["storage.share"], v["scale-2k"]["storage.share"])),
    ("core.share on scale-2k is above fig7",
     lambda v: v["scale-2k"]["core.share"] > v["fig7"]["core.share"]),
    ("obs.share is below 1% on fig7 and scale-2k",
     lambda v: max(v["fig7"]["obs.share"], v["scale-2k"]["obs.share"])
     < 0.01),
)


def report(seed: int, seconds: float) -> int:
    """Both modes on every workload, printed as tables."""
    spec = json.loads(SPEC.read_text())
    layer_values, problems = {}, []
    for name in WORKLOADS:
        _, runs, bad, attempted, failed = measure(
            name, seed, seconds, trace=False)
        problems += bad
        print(f"== {name} (seed {seed}): end to end, median over "
              f"{len(runs)} runs; failed {failed} of {attempted} "
              f"operations")
        print("\n".join(spread_lines(runs)))
        values, runs, bad, _, _ = measure(name, seed, seconds, trace=True)
        problems += bad
        layer_values[name] = values
    names = list(layer_values)
    print("\n== per layer (traced run; counts from an untraced run)")
    print(f"  {'metric':34s} {'unit':8s}" +
          "".join(f"{n:>16s}" for n in names))
    for m in spec["per_layer"]:
        cells = "".join(f"{layer_values[n][m['name']]:16.6g}" for n in names)
        print(f"  {m['name']:34s} {m['unit']:8s}{cells}")
    print("\n== where the work lands")
    for text, holds in CLAIMS:
        print(f"  {'holds' if holds(layer_values) else 'DOES NOT HOLD'}: "
              f"{text}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run both modes on every workload and print "
                         "every metric with its unit")
    args = ap.parse_args(argv)
    if args.report == (args.workload is not None):
        ap.error("give exactly one of --workload and --report")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.report:
            return report(args.seed, args.seconds)
        values, runs, problems, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        print(f"{args.workload} seed {args.seed}:", file=sys.stderr)
        print("\n".join(spread_lines(runs)), file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(result(section, values, problems, attempted, failed)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
