"""Donor insights: score workstations, recommend recruitment/placement.

The paper's recruitment rule is deliberately simple (idle five minutes →
donate); this module is the operator-facing layer above it, answering
the question the rule cannot: *which* donors are actually worth
trusting.  Each host is scored from the recorded telemetry and event
log on three axes:

* **idleness stability** — fraction of samples spent recruited, damped
  by how often the idle state flapped;
* **reclaim frequency** — how often the owner took the machine back
  (each reclaim evicts every hosted region);
* **refetch cost** — regions the host's churn destroyed (reclaim
  evictions, hard kills, stale directory entries), i.e. the cost it
  imposed on guests who must refetch from disk.

Scores feed deterministic, ranked recommendations (``recruit`` /
``placement`` / ``migrate`` / ``avoid``), emitted as structured
``insights/*`` event-log records and served at ``/api/insights``.  All
arithmetic is over recorded virtual-time data with rounded floats, so
the canonical-JSON document is byte-identical for identical runs — the
property the golden-file tests and the CI smoke diff assert.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.fleet.model import pick_run
from repro.obs.timeseries import RunTelemetry, Telemetry
from repro.sweep.spec import jsonify

#: recommendation kinds, most to least actionable
KINDS = ("recruit", "placement", "migrate", "avoid")

#: a donor at or above this score is considered stable
STABLE_SCORE = 0.5
#: reclaims at or above this count mark a host as churn-prone
CHURN_RECLAIMS = 2


def _round(x: float) -> float:
    return round(float(x), 6)


def _transitions(values: list[float]) -> int:
    return sum(1 for a, b in zip(values, values[1:]) if a != b)


def score_host(run: RunTelemetry, name: str, eventlog=None) -> dict:
    """One host's donor profile; every field is canonical plain data."""
    idle = run.get("rmd", name, "idle_state")
    recruited = run.get("rmd", name, "recruited")
    if recruited is None or not len(recruited):
        # dedicated platform: the imd's up series is the recruited state
        recruited = run.get("imd", name, "up")
    flaps = 0
    if idle is not None and len(idle) > 1:
        flaps = _transitions(idle.values)
    elif recruited is not None and len(recruited) > 1:
        flaps = _transitions(recruited.values)
    samples = len(recruited) if recruited is not None else 0
    frac_recruited = (sum(recruited.values) / samples
                      if recruited is not None and samples else 0.0)
    stability = 1.0 - (flaps / samples if samples else 0.0)

    reclaims = recruits = regions_lost = 0
    if eventlog is not None:
        rid = run.run_id
        reclaims = len(eventlog.query(component="rmd",
                                      event="node.reclaimed",
                                      host=name, run=rid)) \
            + len(eventlog.query(component="imd", event="imd.killed",
                                 host=name, run=rid))
        # one imd.start per daemon start; a desktop recruitment also
        # logs the rmd's node.recruited, which would count it twice
        recruits = len(eventlog.query(component="imd", event="imd.start",
                                      host=name, run=rid))
        for e in eventlog.query(component="imd", host=name, run=rid):
            regions_lost += int(e.fields.get("regions_lost", 0))
            if e.event == "imd.exit":
                regions_lost += int(e.fields.get("regions_left", 0))
        regions_lost += len(eventlog.query(component="manager",
                                           event="region.stale",
                                           host=name, run=rid))

    guest = run.get("workstation", name, "mem.guest_bytes")
    pool = run.get("imd", name, "pool.bytes")
    hosted = run.get("imd", name, "regions.hosted")
    score = frac_recruited * stability / (1.0 + reclaims + regions_lost)
    return {
        "host": name,
        "score": _round(score),
        "frac_recruited": _round(frac_recruited),
        "stability": _round(stability),
        "flaps": flaps,
        "reclaims": reclaims,
        "recruits": recruits,
        "regions_lost": regions_lost,
        "guest_peak_bytes": _round(guest.maximum())
        if guest is not None and len(guest) else 0.0,
        "pool_bytes": _round(pool.last())
        if pool is not None and len(pool) else 0.0,
        "regions_hosted": _round(hosted.last())
        if hosted is not None and len(hosted) else 0.0,
    }


def _donor_names(run: RunTelemetry) -> list[str]:
    names = list(run.names("rmd"))
    for name in run.names("imd"):
        if name not in names:
            names.append(name)
    return names


def build_insights(telemetry: Telemetry, eventlog=None,
                   run: Optional[RunTelemetry] = None) -> dict:
    """The ``/api/insights`` document: ranked donors + recommendations.

    Donors are ranked by (score desc, name) — fully deterministic.
    Recommendation rules, applied in rank order:

    * a host with ``reclaims >= 2`` or ``stability < 0.5`` is flagged
      ``avoid``; if it still hosts regions, a ``migrate`` to the best
      stable donor follows;
    * the stable donors (score >= 0.5, no churn flags) get a
      ``placement`` preference, best first;
    * a host that was quiet at the end of the run but never recruited is
      a ``recruit`` candidate.
    """
    run = run if run is not None else pick_run(telemetry)
    if run is None:
        return {"run": None, "donors": [], "recommendations": []}
    donors = [score_host(run, name, eventlog)
              for name in _donor_names(run)]
    donors.sort(key=lambda d: (-d["score"], d["host"]))

    flaky = [d for d in donors
             if d["reclaims"] >= CHURN_RECLAIMS
             or d["stability"] < STABLE_SCORE]
    flaky_names = {d["host"] for d in flaky}
    stable = [d for d in donors
              if d["host"] not in flaky_names
              and d["score"] >= STABLE_SCORE]
    recs = []
    for d in flaky:
        recs.append({
            "kind": "avoid", "host": d["host"], "score": d["score"],
            "reason": f"{d['reclaims']} reclaim(s), "
                      f"stability {d['stability']:.2f}, "
                      f"{d['regions_lost']} region(s) lost"})
        if d["regions_hosted"] > 0 and stable:
            recs.append({
                "kind": "migrate", "host": d["host"],
                "target": stable[0]["host"], "score": d["score"],
                "reason": f"{d['regions_hosted']:.0f} hosted region(s) "
                          f"at risk; best stable donor is "
                          f"{stable[0]['host']}"})
    for d in stable:
        recs.append({
            "kind": "placement", "host": d["host"], "score": d["score"],
            "reason": f"stable donor: recruited "
                      f"{d['frac_recruited']:.0%} of the run, "
                      f"{d['reclaims']} reclaim(s)"})
    for d in donors:
        if d["host"] in flaky_names or d["recruits"] > 0 \
                or d["frac_recruited"] > 0:
            continue
        idle = run.get("rmd", d["host"], "idle_state")
        if idle is not None and len(idle) and idle.last() == 1.0:
            recs.append({
                "kind": "recruit", "host": d["host"], "score": d["score"],
                "reason": "quiet at end of run but never recruited; "
                          "candidate for a shorter idle window"})
    return jsonify({"run": run.run_id, "donors": donors,
                    "recommendations": recs})


def emit_insights(eventlog, sim, doc: dict) -> int:
    """Append the insights to the structured event log (one
    ``insights/donor.scored`` per donor, one ``insights/recommendation``
    per recommendation) and return how many records were emitted.
    No-op on a disabled log."""
    if eventlog is None or not eventlog.enabled:
        return 0
    emitted = 0
    for d in doc.get("donors", []):
        if eventlog.info(sim, "insights", "donor.scored", host=d["host"],
                         score=d["score"], reclaims=d["reclaims"],
                         stability=d["stability"],
                         regions_lost=d["regions_lost"]) is not None:
            emitted += 1
    for i, r in enumerate(doc.get("recommendations", []), start=1):
        fields = {"rank": i, "kind": r["kind"], "score": r["score"],
                  "reason": r["reason"]}
        if "target" in r:
            fields["target"] = r["target"]
        if eventlog.info(sim, "insights", "recommendation",
                         host=r["host"], **fields) is not None:
            emitted += 1
    return emitted


def format_insights(doc: dict) -> str:
    """Human summary of one insights document (the CLI prints this)."""
    if not doc.get("donors"):
        return "insights: no donor telemetry recorded"
    lines = [f"donor insights (run {doc['run']}):"]
    for d in doc["donors"]:
        lines.append(
            f"  {d['host']:<8s} score {d['score']:.3f}  "
            f"recruited {d['frac_recruited']:.0%}  "
            f"stability {d['stability']:.2f}  "
            f"reclaims {d['reclaims']}  lost {d['regions_lost']}")
    if doc["recommendations"]:
        lines.append("recommendations:")
        for i, r in enumerate(doc["recommendations"], start=1):
            target = f" -> {r['target']}" if "target" in r else ""
            lines.append(f"  {i}. [{r['kind']}] {r['host']}{target}: "
                         f"{r['reason']}")
    else:
        lines.append("recommendations: none (all donors nominal)")
    return "\n".join(lines)
