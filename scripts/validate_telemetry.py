#!/usr/bin/env python3
"""Lightweight schema checks for the telemetry sidecar files.

Validates, without any third-party dependency, the directory a bench
harness fills when run with ROIA_TELEMETRY_DIR set (bench_common.hpp's
TelemetryScope). FILES below is the one table of its fixed file names;
health_report.py imports it together with load_jsonl.

  trace.json     Chrome/Perfetto trace-event JSON: a {"traceEvents": [...]}
                 object, non-decreasing "ts", matched B/E span pairs per
                 (pid, tid), and no tick seq twice on one track (a repeat
                 means the trace merges several simulations).
  metrics.jsonl  MetricsRegistry rows: kind counter|gauge|histogram, a
                 non-empty name and string labels; a counter value is a
                 non-negative integer, a gauge value is finite, a histogram
                 has an integer count and finite statistics with
                 min <= p50 <= p95 <= p99 <= max.
  audit.jsonl    RMS/server audit records: t_s/action/strategy/threshold/
                 rationale on every record.
  slo.jsonl      SLO + protocol summary: objective rows carry
                 objective/key/bound/compliance/breaches, protocol rows carry
                 protocol/count/p50_ms/p95_ms/p99_ms/outcomes/open.
  drift.jsonl    model-drift residuals: per-key moments, CoV and quantiles,
                 all finite.
  flight.jsonl   flight-recorder frames grouped into dumps with
                 non-decreasing tick per (dump, key).

Usage:

    python3 scripts/validate_telemetry.py build/fig8_telemetry

Every file above must exist. trace, metrics, audit and slo must hold at
least one record; drift and flight may be empty (a run without model
predictions or breaches legitimately records nothing). Exit 0 clean, 1 on
any violation.
"""

import argparse
import json
import math
import os
import sys

FILES = {
    "trace": "trace.json",
    "metrics": "metrics.jsonl",
    "audit": "audit.jsonl",
    "slo": "slo.jsonl",
    "drift": "drift.jsonl",
    "flight": "flight.jsonl",
}


class ValidationError(Exception):
    pass


def fail(path, message):
    raise ValidationError(f"{path}: {message}")


def load_jsonl(path):
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                fail(path, f"line {lineno}: invalid JSON ({err})")
            if not isinstance(row, dict):
                fail(path, f"line {lineno}: expected an object, got {type(row).__name__}")
            rows.append(row)
    return rows


def require_keys(path, row, keys, what):
    missing = [k for k in keys if k not in row]
    if missing:
        fail(path, f"{what} record missing key(s) {missing}: {row}")


def require_finite(path, row, keys, what):
    for k in keys:
        v = row.get(k)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(path, f"{what} record field {k!r} is not a finite number: {v!r}")


def validate_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(path, "top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(path, "traceEvents must be a non-empty array")
    ts = [e["ts"] for e in events if "ts" in e]
    if ts != sorted(ts):
        fail(path, "trace timestamps must be non-decreasing")
    opens = {}
    ticks = set()
    for e in events:
        if "ph" not in e:
            fail(path, f"event without a phase: {e}")
        lane = (e.get("pid"), e.get("tid"))
        if e["ph"] == "B":
            opens[lane] = opens.get(lane, 0) + 1
            if e.get("name") == "tick":
                tick = lane + (e.get("args", {}).get("seq"),)
                if tick in ticks:
                    fail(path, f"track {lane} repeats tick seq {tick[2]}: "
                               "the trace merges several simulations")
                ticks.add(tick)
        elif e["ph"] == "E":
            opens[lane] = opens.get(lane, 0) - 1
            if opens[lane] < 0:
                fail(path, f"span end without begin on lane {lane}")
    unbalanced = {lane: n for lane, n in opens.items() if n != 0}
    if unbalanced:
        fail(path, f"unmatched B/E spans: {unbalanced}")
    return f"{len(events)} trace events"


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_metrics(path):
    rows = load_jsonl(path)
    if not rows:
        fail(path, "no records")
    kinds = {"counter": 0, "gauge": 0, "histogram": 0}
    for row in rows:
        require_keys(path, row, ("kind", "name", "labels"), "metric")
        kind = row["kind"]
        if kind not in kinds:
            fail(path, f"metric kind must be counter|gauge|histogram: {kind!r}")
        kinds[kind] += 1
        if not isinstance(row["name"], str) or not row["name"]:
            fail(path, f"metric name must be a non-empty string: {row}")
        labels = row["labels"]
        if not isinstance(labels, dict) or not all(
                isinstance(v, str) for v in labels.values()):
            fail(path, f"metric labels must be an object of strings: {row}")
        if kind == "counter":
            if not is_count(row.get("value")):
                fail(path, f"counter value must be a non-negative integer: {row}")
        elif kind == "gauge":
            require_finite(path, row, ("value",), "gauge")
        else:
            if not is_count(row.get("count")):
                fail(path, f"histogram count must be a non-negative integer: {row}")
            stats = ("min", "p50", "p95", "p99", "max")
            require_finite(path, row, ("sum",) + stats, "histogram")
            # LogHistogram::quantile is monotone in q and clamps to the
            # observed min and max, so this order holds by construction.
            values = [row[k] for k in stats]
            if values != sorted(values):
                fail(path, f"histogram needs min <= p50 <= p95 <= p99 <= max: {row}")
    return ", ".join(f"{n} {kind}s" for kind, n in kinds.items())


def validate_slo(path):
    rows = load_jsonl(path)
    if not rows:
        fail(path, "no records")
    objectives = protocols = 0
    for row in rows:
        if "objective" in row:
            objectives += 1
            require_keys(path, row,
                         ("objective", "key", "threshold", "bound", "target",
                          "samples", "good", "compliance", "short_burn",
                          "long_burn", "breaches"), "SLO")
            if row["bound"] not in ("upper", "lower"):
                fail(path, f"SLO bound must be upper|lower: {row['bound']!r}")
            require_finite(path, row, ("threshold", "target", "compliance",
                                       "short_burn", "long_burn"), "SLO")
            if not 0.0 <= row["compliance"] <= 1.0:
                fail(path, f"compliance out of [0,1]: {row['compliance']}")
        elif "protocol" in row:
            protocols += 1
            require_keys(path, row, ("protocol", "count", "p50_ms", "p95_ms",
                                     "p99_ms", "outcomes", "open"), "protocol")
            require_finite(path, row, ("p50_ms", "p95_ms", "p99_ms"), "protocol")
            if not isinstance(row["outcomes"], dict):
                fail(path, f"protocol outcomes must be an object: {row}")
        else:
            fail(path, f"record is neither an SLO nor a protocol row: {row}")
    if objectives == 0:
        fail(path, "no SLO objective rows")
    return f"{objectives} SLO rows, {protocols} protocol rows"


def validate_drift(path):
    rows = load_jsonl(path)
    for row in rows:
        require_keys(path, row,
                     ("key", "count", "mean_residual_ms", "mean_measured_ms",
                      "cov", "abs_residual_p50_ms", "abs_residual_p95_ms",
                      "abs_residual_p99_ms", "window_mean_abs_rel_error",
                      "drift_events"), "drift")
        require_finite(path, row, ("mean_residual_ms", "mean_measured_ms",
                                   "cov", "abs_residual_p50_ms"), "drift")
        if row["count"] < 0 or row["drift_events"] < 0:
            fail(path, f"negative counters: {row}")
    return f"{len(rows)} drift rows"


def validate_flight(path):
    rows = load_jsonl(path)
    last_tick = {}
    for row in rows:
        require_keys(path, row, ("dump", "reason", "dump_t_s", "key", "tick",
                                 "t_s", "dur_ms", "users", "avatars", "npcs",
                                 "level", "event"), "flight")
        lane = (row["dump"], row["key"])
        if lane in last_tick and row["tick"] < last_tick[lane]:
            fail(path, f"ticks must be non-decreasing within a dump ring: {row}")
        last_tick[lane] = row["tick"]
    return f"{len(rows)} flight frames in {len({r['dump'] for r in rows})} dump(s)"


def validate_audit(path):
    rows = load_jsonl(path)
    if not rows:
        fail(path, "no records")
    for row in rows:
        require_keys(path, row, ("t_s", "action", "strategy", "threshold",
                                 "rationale"), "audit")
    return f"{len(rows)} audit records"


VALIDATORS = {
    "trace": validate_trace,
    "metrics": validate_metrics,
    "slo": validate_slo,
    "drift": validate_drift,
    "flight": validate_flight,
    "audit": validate_audit,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", help="telemetry directory (ROIA_TELEMETRY_DIR)")
    args = parser.parse_args()

    failures = 0
    for kind, validate in VALIDATORS.items():
        path = os.path.join(args.dir, FILES[kind])
        try:
            summary = validate(path)
        except FileNotFoundError:
            print(f"FAIL {path}: file not found", file=sys.stderr)
            failures += 1
            continue
        except ValidationError as err:
            print(f"FAIL {err}", file=sys.stderr)
            failures += 1
            continue
        print(f"{path}: {summary}: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
