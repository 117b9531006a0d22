"""Fetch-path latency decomposition — the shape of the paper's Tables 3/4.

The paper's core evidence is per-primitive latency accounting: where the
time of one ``dodo_get`` (our ``mread``) or ``dodo_free`` goes across
the runtime library, the network, the daemons and the disk.  This module
reproduces that decomposition from a span trace.

For every root span (each ``mread`` by default) the window ``[start,
end]`` is swept (:func:`sweep_window`, shared with the SLI critical
path) over the elementary intervals induced by the boundaries
of the root's *causal descendants* (children via span parent links,
which cross both process spawns and the RPC wire).  Each interval is
attributed to the *innermost* active descendant — the one that started
last (ties broken toward the shorter span) — and that span's component
is mapped to one of the paper's layers.  Intervals covered by no
descendant belong to the library (the root's own code).  Because every
instant of every window is attributed to exactly one layer, the
per-layer means **sum to the end-to-end mean exactly** (up to float
rounding), which is what makes the table trustworthy: nothing is
double-counted and nothing is lost.  Restricting the sweep to causal
descendants keeps concurrent clients (or several simulations traced
into one tracer) from polluting each other's windows.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.metrics.report import format_table
from repro.obs.tracer import Span

#: component -> paper layer.  Unknown components map to themselves so
#: new instrumentation shows up in the table instead of disappearing.
COMPONENT_LAYER = {
    "lib": "library",
    "regionlib": "library",
    "kernel": "library",
    "rpc": "network",
    "net": "network",
    "manager": "manager",
    "cmd": "manager",
    "imd": "daemon",
    "rmd": "daemon",
    "disk": "disk",
    "fs": "disk",
    "pagecache": "disk",
}

#: presentation order of the known layers
LAYER_ORDER = ["library", "manager", "network", "daemon", "disk"]


def layer_of(component: str) -> str:
    """Map a tracer component name to its latency-breakdown layer."""
    return COMPONENT_LAYER.get(component, component)


def sweep_window(root, inner: list, row_of, root_row: str):
    """Attribute a root span's window over elementary intervals.

    The window ``[root.start, root.end]`` is cut at every boundary of
    the root's causal descendants ``inner`` (finished spans); each
    interval goes to the *innermost* active descendant — the one that
    started last, ties broken toward the shorter span — mapped through
    ``row_of(component)``, and uncovered time goes to ``root_row``.
    Returns ``(seconds per row, merged (t0, t1, row) segments)``; the
    seconds sum to the root's duration exactly.  Both
    :func:`fetch_breakdown` (paper layers) and the SLI collector's
    per-request critical path (:mod:`repro.obs.slo.sli`, stages) are
    this sweep.
    """
    t0, t1 = root.start, root.end
    bounds = {t0, t1}
    for s in inner:
        bounds.add(min(max(s.start, t0), t1))
        bounds.add(min(max(s.end, t0), t1))
    cuts = sorted(bounds)
    rows: dict[str, float] = {}
    segments: list[tuple[float, float, str]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        covering = [s for s in inner if s.start <= lo and s.end >= hi]
        if covering:
            pick = max(covering, key=lambda s: (s.start, s.start - s.end))
            row = row_of(pick.component)
        else:
            row = root_row
        rows[row] = rows.get(row, 0.0) + (hi - lo)
        if segments and segments[-1][2] == row \
                and segments[-1][1] == lo:
            segments[-1] = (segments[-1][0], hi, row)
        else:
            segments.append((lo, hi, row))
    return rows, segments


def fetch_breakdown(spans: Iterable[Span],
                    root_name: str = "mread") -> dict:
    """Decompose the mean latency of every ``root_name`` span by layer.

    Returns ``{"root": name, "count": n, "mean_s": end-to-end mean,
    "layers": {layer: mean seconds}}``; ``count`` is 0 when the trace
    holds no such spans (the caller should skip the report then).
    """
    finished = [s for s in spans if s.end is not None]
    children: dict[int, list[Span]] = {}
    for s in finished:
        children.setdefault(s.parent_id, []).append(s)
    roots = [s for s in finished if s.name == root_name]
    totals: dict[str, float] = {}
    whole = 0.0
    for root in roots:
        inner: list[Span] = []
        frontier = [root.span_id]
        while frontier:
            pid = frontier.pop()
            for child in children.get(pid, ()):
                frontier.append(child.span_id)
                if child.end > root.start and child.start < root.end:
                    inner.append(child)
        layers, _ = sweep_window(root, inner, layer_of,
                                 layer_of(root.component))
        for layer, secs in layers.items():
            totals[layer] = totals.get(layer, 0.0) + secs
        whole += root.duration
    n = len(roots)
    return {
        "root": root_name,
        "count": n,
        "mean_s": whole / n if n else 0.0,
        "layers": {k: v / n for k, v in totals.items()} if n else {},
    }


def format_fetch_breakdown(breakdown: dict,
                           title: Optional[str] = None) -> str:
    """Render a breakdown as the paper's per-layer latency table."""
    if title is None:
        title = (f"{breakdown['root']} latency breakdown "
                 f"({breakdown['count']} calls, Tables 3/4 shape)")
    layers = breakdown["layers"]
    order = [l for l in LAYER_ORDER if l in layers] \
        + sorted(set(layers) - set(LAYER_ORDER))
    mean = breakdown["mean_s"]
    rows = []
    for layer in order:
        secs = layers[layer]
        share = 100.0 * secs / mean if mean else 0.0
        rows.append([layer, f"{secs * 1e3:.3f}", f"{share:.1f}%"])
    rows.append(["total", f"{mean * 1e3:.3f}", "100.0%"])
    return format_table(["layer", "mean ms", "share"], rows, title=title)
