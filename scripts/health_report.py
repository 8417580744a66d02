#!/usr/bin/env python3
"""Folds the telemetry sidecars of one run into a single health report.

Consumes the directory TelemetryScope fills when a bench runs with
ROIA_TELEMETRY_DIR set (metrics, SLO+protocol summary, audit, drift, flight
and trace files, named by validate_telemetry.FILES) and emits one Markdown
document and/or one JSON object answering "how healthy was this run":

  * per-protocol end-to-end latency percentiles and outcome counts,
  * SLO compliance and burn rates per (objective, key), breach totals,
  * audit event counts by action, with the slo_breach / model_drift
    records spelled out (objective, Eq.2 state, rationale),
  * per-server Eq.2/Eq.4 residual distributions (mean, CoV, quantiles),
  * flight-recorder dump inventory,
  * lint suppression debt (--lint-debt: the `suppression_debt` table from
    `roia_lint.py --format json`) — every in-source allow() with its rule,
    justification, age, and whether it still suppresses a live finding.

Stdlib only. Typical invocation (after a bench run with
ROIA_TELEMETRY_DIR=build/chaos_telemetry):

    python3 scripts/health_report.py build/chaos_telemetry \
        --out-md build/HEALTH.md --out-json build/HEALTH.json

Exit 0 on success (even an unhealthy run — the report is the product), 1 on
a missing or unusable input file.
"""

import argparse
import json
import os
import sys
from collections import Counter

from validate_telemetry import FILES, ValidationError, load_jsonl


def split_slo_file(rows):
    """slo.jsonl holds objective rows and protocol rows in one file."""
    objectives = [r for r in rows if "objective" in r]
    protocols = [r for r in rows if "protocol" in r]
    return objectives, protocols


def summarize_flight(rows):
    dumps = {}
    for row in rows:
        entry = dumps.setdefault(row["dump"], {
            "dump": row["dump"], "reason": row["reason"],
            "at_s": row["dump_t_s"], "frames": 0, "keys": set()})
        entry["frames"] += 1
        entry["keys"].add(row["key"])
    out = []
    for entry in sorted(dumps.values(), key=lambda e: e["dump"]):
        entry["keys"] = sorted(entry["keys"])
        out.append(entry)
    return out


def build_report(args):
    paths = {kind: os.path.join(args.dir, name) for kind, name in FILES.items()}
    report = {"schema": "roia-health-report/1", "inputs": paths, "status": "OK"}

    objectives, protocols = split_slo_file(load_jsonl(paths["slo"]))
    report["slo"] = objectives
    report["breach_total"] = sum(r["breaches"] for r in objectives)
    rows = load_jsonl(paths["metrics"])
    report["protocol_metrics"] = [
        r for r in rows if r.get("name", "").startswith("roia_protocol_")]
    report["metric_count"] = len(rows)
    if protocols:
        report["protocols"] = protocols
    rows = load_jsonl(paths["audit"])
    report["audit_actions"] = dict(sorted(Counter(
        r.get("action", "?") for r in rows).items()))
    report["slo_breaches"] = [
        {"t_s": r["t_s"], "objective": r["threshold"].removeprefix("slo:"),
         "eq2_state": r.get("inputs", {}), "rationale": r.get("rationale", "")}
        for r in rows if r.get("action") == "slo_breach"]
    report["drift_audits"] = [
        {"t_s": r["t_s"], "eq2_state": r.get("inputs", {}),
         "rationale": r.get("rationale", "")}
        for r in rows if r.get("action") == "model_drift"]
    report["drift"] = load_jsonl(paths["drift"])
    report["flight_dumps"] = summarize_flight(load_jsonl(paths["flight"]))
    with open(paths["trace"], encoding="utf-8") as f:
        report["trace_event_count"] = len(json.load(f)["traceEvents"])
    if args.lint_debt:
        report["inputs"]["lint"] = args.lint_debt
        with open(args.lint_debt, encoding="utf-8") as f:
            lint = json.load(f)
        if lint.get("schema") != "roia-lint/1":
            raise KeyError(f"unexpected lint schema {lint.get('schema')!r}")
        report["lint_debt"] = lint.get("suppression_debt", [])
        report["lint_findings"] = len(lint.get("findings", []))

    drift_events = sum(r.get("drift_events", 0) for r in report["drift"])
    stale_allows = sum(1 for r in report.get("lint_debt", []) if not r.get("live"))
    if (report["breach_total"] or drift_events or report["flight_dumps"]
            or report.get("lint_findings") or stale_allows):
        report["status"] = "ATTENTION"
    return report


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out) + "\n"


def render_markdown(report):
    lines = [f"# Run health report — status: {report['status']}", ""]
    lines.append("Inputs: " + ", ".join(
        f"{kind} `{os.path.basename(path)}`"
        for kind, path in report["inputs"].items()) + "\n")

    if "protocols" in report:
        lines.append("## Protocol end-to-end latency\n")
        lines.append(md_table(
            ["protocol", "count", "p50 ms", "p95 ms", "p99 ms",
             "completed", "superseded", "crashed", "deadline_expired", "open"],
            [[p["protocol"], p["count"], p["p50_ms"], p["p95_ms"], p["p99_ms"],
              p["outcomes"]["completed"], p["outcomes"]["superseded"],
              p["outcomes"]["crashed"], p["outcomes"]["deadline_expired"],
              p["open"]] for p in report["protocols"]]))

    lines.append(f"\n## SLO compliance — {report['breach_total']} breach(es)\n")
    lines.append(md_table(
        ["objective", "key", "bound", "threshold", "target", "samples",
         "compliance", "short burn", "long burn", "breaches"],
        [[r["objective"], r["key"], r["bound"], r["threshold"], r["target"],
          r["samples"], r["compliance"], r["short_burn"], r["long_burn"],
          r["breaches"]] for r in report["slo"]]))

    lines.append("\n## Audit events by action\n")
    lines.append(md_table(["action", "count"],
                          sorted(report["audit_actions"].items())))
    if report.get("slo_breaches"):
        lines.append("\n### SLO breaches (objective + Eq.2 state at breach)\n")
        for b in report["slo_breaches"]:
            eq2 = b["eq2_state"]
            lines.append(
                f"- t={b['t_s']}s **{b['objective']}** — "
                f"n={eq2.get('n')}, m={eq2.get('m')}, l={eq2.get('l')}, "
                f"predicted={eq2.get('tick_predicted_ms')}ms; {b['rationale']}")
    if report.get("drift_audits"):
        lines.append("\n### Model-drift events\n")
        for d in report["drift_audits"]:
            lines.append(f"- t={d['t_s']}s — {d['rationale']}")

    lines.append("\n## Eq.2/Eq.4 residuals per server\n")
    lines.append(md_table(
        ["key", "samples", "mean residual ms", "CoV", "|res| p50",
         "|res| p95", "|res| p99", "drift events"],
        [[r["key"], r["count"], r["mean_residual_ms"], r["cov"],
          r["abs_residual_p50_ms"], r["abs_residual_p95_ms"],
          r["abs_residual_p99_ms"], r["drift_events"]]
         for r in report["drift"]]))

    lines.append(f"\n## Flight-recorder dumps ({len(report['flight_dumps'])})\n")
    lines.append(md_table(
        ["dump", "reason", "at s", "frames", "keys"],
        [[d["dump"], d["reason"], d["at_s"], d["frames"],
          " ".join(d["keys"])] for d in report["flight_dumps"]]))

    lines.append("\n## Protocol metric instruments\n")
    lines.append(md_table(
        ["name", "labels", "value/count"],
        [[m["name"],
          " ".join(f"{k}={v}" for k, v in sorted(m.get("labels", {}).items())),
          m.get("value", m.get("count", ""))]
         for m in report["protocol_metrics"]]))

    if "lint_debt" in report:
        debt = report["lint_debt"]
        stale = sum(1 for r in debt if not r.get("live"))
        lines.append(f"\n## Lint suppression debt — {len(debt)} allow(s), "
                     f"{stale} stale\n")
        if debt:
            lines.append(md_table(
                ["file", "line", "rules", "live", "age days", "justification"],
                [[r["file"], r["line"], " ".join(r["rules"]),
                  "yes" if r.get("live") else "**STALE**",
                  r["age_days"] if r.get("age_days") is not None else "?",
                  r.get("reason") or "-"] for r in debt]))
        else:
            lines.append("No in-source suppressions: the tree carries zero "
                         "lint debt.\n")

    lines.append(f"\nTrace: {report['trace_event_count']} events.\n")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", help="telemetry directory (ROIA_TELEMETRY_DIR)")
    parser.add_argument("--lint-debt", metavar="LINT_JSON",
                        help="roia_lint.py --format json output; folds the "
                             "suppression-debt table into the report")
    parser.add_argument("--out-md", help="write the Markdown report here")
    parser.add_argument("--out-json", help="write the JSON report here")
    args = parser.parse_args()

    try:
        report = build_report(args)
    except (OSError, json.JSONDecodeError, KeyError, ValidationError) as err:
        print(f"ERROR: {type(err).__name__}: {err}", file=sys.stderr)
        return 1

    markdown = render_markdown(report)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out_json}")
    if args.out_md:
        with open(args.out_md, "w", encoding="utf-8") as f:
            f.write(markdown)
        print(f"wrote {args.out_md}")
    if not args.out_md and not args.out_json:
        print(markdown, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
