#!/usr/bin/env python3
"""Self-test for tools/lint/roia_lint.py + cpp_index.py, run as `ctest -L lint`.

Checks:
 1. The fixture suite produces exactly the expected (file, line, rule)
    findings — no more, no fewer, no line reported twice by one rule
    except where two allocations share it — and the justified suppression
    lands in the suppressed list, via the JSON output. An allow() naming
    a retired rule is a bad-suppression; a dangling `// roia-hot` is a
    transitive-hot-alloc finding.
 2. The call-graph fixture tree fires transitive-hot-alloc and
    determinism-taint once per site, with exact lines AND the exact
    source -> sink / hot-root -> callee chains across TUs.
 3. The debt fixture tree flags the stale allow(), keeps the live one,
    and the JSON debt table carries both with rule/reason/liveness.
 4. The cpp_index unit fixture parses namespaces, classes, out-of-line
    methods, overload sets, templates and ctors with init lists, with
    correct qualnames, hot flags, facts and call edges.
 5. The real tree (src/) is clean under ALL rules: exit 0, zero findings,
    and every `// roia-hot` annotation marks exactly one indexed function.
 6. --format sarif emits valid SARIF 2.1.0 with one result per finding.
 7. --list-rules and the SARIF rule metadata name exactly the rule
    catalogue; selecting a retired rule or passing a retired flag is a
    usage error.
"""

import collections
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LINT = os.path.join(REPO_ROOT, "tools", "lint", "roia_lint.py")
LINT_DIR = os.path.join(REPO_ROOT, "tests", "lint")
FIXTURES = os.path.join(LINT_DIR, "fixtures")
FIXTURES_CALLGRAPH = os.path.join(LINT_DIR, "fixtures_callgraph")
FIXTURES_DEBT = os.path.join(LINT_DIR, "fixtures_debt")
FIXTURES_INDEX = os.path.join(LINT_DIR, "fixtures_index")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools", "lint"))
import cpp_index  # noqa: E402

# Exact expectations: basename, 1-indexed line, rule id. A linter that
# drifts by one line or invents/loses a finding fails this test.
EXPECTED_FINDINGS = {
    ("determinism_bad.cpp", 9, "determinism-taint"),
    ("determinism_bad.cpp", 14, "determinism-taint"),
    ("determinism_bad.cpp", 15, "determinism-taint"),
    ("determinism_bad.cpp", 20, "determinism-taint"),
    ("determinism_bad.cpp", 24, "determinism-taint"),
    ("determinism_bad.cpp", 29, "determinism-taint"),  # file scope
    ("bounded_retry_bad.cpp", 10, "bounded-retry"),
    ("bounded_retry_bad.cpp", 17, "bounded-retry"),
    ("bounded_retry_bad.cpp", 24, "bounded-retry"),
    ("hot_alloc_bad.cpp", 7, "transitive-hot-alloc"),
    ("hot_alloc_bad.cpp", 8, "transitive-hot-alloc"),  # std::string
    ("hot_alloc_bad.cpp", 8, "transitive-hot-alloc"),  # std::to_string (dedup'd in set)
    ("hot_alloc_bad.cpp", 9, "transitive-hot-alloc"),
    ("hot_alloc_bad.cpp", 9, "bad-suppression"),       # allow() names a retired rule
    ("hot_alloc_bad.cpp", 18, "transitive-hot-alloc"),  # dangling // roia-hot
    ("ordered_iteration_bad.cpp", 10, "ordered-iteration"),
    ("suppression_missing_reason.cpp", 6, "bad-suppression"),
    ("suppression_missing_reason.cpp", 6, "determinism-taint"),
}
# The one line a rule may report twice: std::string + std::to_string.
EXPECTED_DOUBLE_HITS = {("hot_alloc_bad.cpp", 8, "transitive-hot-alloc"): 2}
EXPECTED_SUPPRESSED = {
    ("suppressed_ok.cpp", 5, "determinism-taint"),
}

# Cross-function cases: the chains below only exist in the whole-program
# call graph. ordered-iteration still fires on the unordered loop because
# its scope is the whole output-feeding file, not a source -> sink flow.
EXPECTED_CALLGRAPH_FINDINGS = {
    ("chain_helpers.cpp", 14, "transitive-hot-alloc"),
    ("taint_chain.cpp", 14, "determinism-taint"),
    ("taint_unordered.cpp", 17, "determinism-taint"),
    ("taint_unordered.cpp", 17, "ordered-iteration"),
}
EXPECTED_CHAINS = {
    "transitive-hot-alloc": "hotRoot -> midHelper -> leafAlloc",
    "determinism-taint@taint_chain.cpp": "entropy -> jitterSeed -> encodeBeacon",
    "determinism-taint@taint_unordered.cpp": "sumShares -> reportShares",
}

EXPECTED_DEBT_FINDINGS = {
    ("stale_allow.cpp", 6, "suppression-debt"),
}
EXPECTED_DEBT_SUPPRESSED = {
    ("live_allow.cpp", 7, "determinism-taint"),
}

EXPECTED_RULES = {
    "ordered-iteration", "bounded-retry", "bad-suppression",
    "transitive-hot-alloc", "determinism-taint", "suppression-debt",
}


def run_lint(*args):
    return subprocess.run([sys.executable, LINT, *args],
                          capture_output=True, text=True, cwd=REPO_ROOT)


def as_keys(entries):
    return {(os.path.basename(e["file"]), e["line"], e["rule"]) for e in entries}


def check_line_local_fixtures(failures):
    proc = run_lint("--assume-core", "--format", "json", FIXTURES)
    if proc.returncode != 1:
        failures.append(f"fixtures: expected exit 1, got {proc.returncode}\n{proc.stderr}")
        return
    report = json.loads(proc.stdout)
    if report.get("schema") != "roia-lint/1":
        failures.append(f"fixtures: unexpected schema {report.get('schema')!r}")
    got = as_keys(report["findings"])
    if got != EXPECTED_FINDINGS:
        failures.append(
            "fixtures: findings mismatch\n"
            f"  missing:    {sorted(EXPECTED_FINDINGS - got)}\n"
            f"  unexpected: {sorted(got - EXPECTED_FINDINGS)}")
    # One finding per site: only the std::string + std::to_string line may
    # repeat a (file, line, rule) key, and it must.
    counts = collections.Counter(
        (os.path.basename(f["file"]), f["line"], f["rule"]) for f in report["findings"])
    doubles = {key: n for key, n in counts.items() if n > 1}
    if doubles != EXPECTED_DOUBLE_HITS:
        failures.append(f"fixtures: repeated findings {doubles}, expected "
                        f"{EXPECTED_DOUBLE_HITS}")
    if as_keys(report["suppressed"]) != EXPECTED_SUPPRESSED:
        failures.append(f"fixtures: suppressed mismatch: {report['suppressed']}")


def check_callgraph_fixtures(failures):
    proc = run_lint("--assume-core", "--format", "json", FIXTURES_CALLGRAPH)
    if proc.returncode != 1:
        failures.append(f"callgraph: expected exit 1, got {proc.returncode}\n{proc.stderr}")
        return
    report = json.loads(proc.stdout)
    got = as_keys(report["findings"])
    if got != EXPECTED_CALLGRAPH_FINDINGS or len(report["findings"]) != len(got):
        failures.append(
            "callgraph: findings mismatch\n"
            f"  missing:    {sorted(EXPECTED_CALLGRAPH_FINDINGS - got)}\n"
            f"  unexpected: {sorted(got - EXPECTED_CALLGRAPH_FINDINGS)}\n"
            f"  reported:   {len(report['findings'])} for {len(got)} sites")
    for f in report["findings"]:
        base = os.path.basename(f["file"])
        if f["rule"] == "transitive-hot-alloc":
            want = EXPECTED_CHAINS["transitive-hot-alloc"]
        elif f["rule"] == "determinism-taint":
            want = EXPECTED_CHAINS.get(f"determinism-taint@{base}")
        else:
            continue
        if want and want not in f["message"]:
            failures.append(
                f"callgraph: {base}:{f['line']} [{f['rule']}] message lacks "
                f"chain {want!r}: {f['message']}")


def check_debt_fixtures(failures):
    proc = run_lint("--assume-core", "--format", "json", FIXTURES_DEBT)
    if proc.returncode != 1:
        failures.append(f"debt: expected exit 1, got {proc.returncode}\n{proc.stderr}")
        return
    report = json.loads(proc.stdout)
    if as_keys(report["findings"]) != EXPECTED_DEBT_FINDINGS:
        failures.append(f"debt: findings mismatch: {report['findings']}")
    if as_keys(report["suppressed"]) != EXPECTED_DEBT_SUPPRESSED:
        failures.append(f"debt: suppressed mismatch: {report['suppressed']}")
    table = {(os.path.basename(d["file"]), d["line"]): d
             for d in report["suppression_debt"]}
    if set(table) != {("live_allow.cpp", 7), ("stale_allow.cpp", 6)}:
        failures.append(f"debt: table rows mismatch: {sorted(table)}")
        return
    live = table[("live_allow.cpp", 7)]
    stale = table[("stale_allow.cpp", 6)]
    if not (live["live"] is True and stale["live"] is False):
        failures.append(f"debt: liveness wrong: {live} / {stale}")
    for row in (live, stale):
        if row["rules"] != ["determinism-taint"] or not row["reason"] or "age_days" not in row:
            failures.append(f"debt: malformed table row: {row}")


def check_indexer(failures):
    path = os.path.join(FIXTURES_INDEX, "index_fixture.cpp")
    index = cpp_index.build_index([path])
    by_qual = {}
    for fn in index.functions:
        by_qual.setdefault(fn.qualname, []).append(fn)
    must_parse = {
        "outer::inner::freeHelper",
        "outer::inner::templateAdd",
        "outer::inner::Widget::Widget",          # ctor with init list
        "outer::inner::Widget::inlineGet",       # inline method
        "outer::inner::Widget::outOfLine",       # out-of-line Cls::method
        "outer::inner::Widget::overloaded",      # overload set
        "outer::inner::hotEntry",
    }
    missing = must_parse - set(by_qual)
    if missing:
        failures.append(f"indexer: unparsed definitions: {sorted(missing)}")
        return
    if len(by_qual["outer::inner::Widget::overloaded"]) != 2:
        failures.append("indexer: overload set should index both definitions")
    hot = by_qual["outer::inner::hotEntry"][0]
    if not hot.hot:
        failures.append("indexer: hotEntry must carry the roia-hot flag")
    if any(fn.hot for q, fns in by_qual.items() for fn in fns
           if q != "outer::inner::hotEntry"):
        failures.append("indexer: only hotEntry is annotated hot")
    out_of_line = by_qual["outer::inner::Widget::outOfLine"][0]
    if not out_of_line.allocs:
        failures.append("indexer: outOfLine's std::vector alloc fact missing")
    if out_of_line.cls != "Widget":
        failures.append(f"indexer: outOfLine cls is {out_of_line.cls!r}")
    callee_names = {c.qualname for c, _line in index.callees(out_of_line)}
    if "outer::inner::freeHelper" not in callee_names:
        failures.append(f"indexer: outOfLine -> freeHelper edge missing ({callee_names})")
    hot_callees = {c.qualname for c, _line in index.callees(hot)}
    if not {"outer::inner::Widget::inlineGet", "outer::inner::freeHelper"} <= hot_callees:
        failures.append(f"indexer: hotEntry call edges wrong ({hot_callees})")


def check_real_tree(failures):
    proc = run_lint("--format", "json", "src/")
    if proc.returncode != 0:
        failures.append(f"src/: expected exit 0, got {proc.returncode}\n{proc.stdout}")
        return
    report = json.loads(proc.stdout)
    if report["findings"]:
        failures.append(f"src/: unexpected findings: {report['findings']}")
    if report["files_scanned"] < 50:
        failures.append(f"src/: suspiciously few files scanned: {report['files_scanned']}")
    if report["suppression_debt"]:
        failures.append(f"src/: unexpected suppression debt: {report['suppression_debt']}")
    # Every // roia-hot must mark exactly one indexed function: none may
    # dangle, and as each attaches to at most one, equal counts rule out a
    # function carrying two.
    src_files = [os.path.join(root, name)
                 for root, _dirs, names in os.walk(os.path.join(REPO_ROOT, "src"))
                 for name in names if name.endswith(cpp_index.CPP_EXTENSIONS)]
    index = cpp_index.build_index(src_files)
    annotations = sum(len(cpp_index.HOT_RE.findall(raw)) for raw in index.raw.values())
    hot = [fn for fn in index.functions if fn.hot]
    dangling = {path: lines for path, lines in index.stray_hot.items() if lines}
    if not hot or dangling or len(hot) != annotations:
        failures.append(f"src/: {annotations} // roia-hot annotations vs "
                        f"{len(hot)} hot functions; dangling: {dangling}")


def check_output_modes(failures):
    proc = run_lint("--assume-core", "--format", "sarif", FIXTURES)
    try:
        sarif = json.loads(proc.stdout)
    except ValueError:
        failures.append(f"sarif: output is not JSON\n{proc.stdout[:400]}")
        return
    if sarif.get("version") != "2.1.0" or "runs" not in sarif:
        failures.append(f"sarif: not a SARIF 2.1.0 document: {list(sarif)}")
        return
    run = sarif["runs"][0]
    driver = run["tool"]["driver"]
    if driver.get("name") != "roia-lint":
        failures.append(f"sarif: wrong driver name {driver.get('name')!r}")
    rule_ids = {r["id"] for r in driver["rules"]}
    if rule_ids != EXPECTED_RULES:
        failures.append(f"sarif: rules metadata {sorted(rule_ids)} != "
                        f"{sorted(EXPECTED_RULES)}")
    # +1: the hot_alloc_bad.cpp:8 double hit dedups in the expectation set.
    if len(run["results"]) != len(EXPECTED_FINDINGS) + 1:
        failures.append(
            f"sarif: {len(run['results'])} results vs "
            f"{len(EXPECTED_FINDINGS) + 1} expected findings")
    for result in run["results"]:
        loc = result["locations"][0]["physicalLocation"]
        if not loc["artifactLocation"]["uri"] or loc["region"]["startLine"] < 1:
            failures.append(f"sarif: malformed location: {result}")
            break


def check_rule_catalogue(failures):
    proc = run_lint("--list-rules")
    listed = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    if len(listed) != len(EXPECTED_RULES) or set(listed) != EXPECTED_RULES:
        failures.append(f"--list-rules lists {listed}, expected {sorted(EXPECTED_RULES)}")
    for retired in ("determinism", "hot-path-alloc", "wire-schema-drift",
                    "audit-vocabulary", "serialization-coverage"):
        proc = run_lint("--rules", retired, "src/")
        if proc.returncode != 2:
            failures.append(f"--rules {retired}: expected usage error (exit 2), "
                            f"got {proc.returncode}")
    for flag in (("--manifest", "m.json"), ("--write-manifest",), ("--changed-only",)):
        proc = run_lint(*flag, "src/")
        if proc.returncode != 2:
            failures.append(f"{flag[0]}: expected usage error (exit 2), "
                            f"got {proc.returncode}")


def main():
    failures = []
    check_line_local_fixtures(failures)
    check_callgraph_fixtures(failures)
    check_debt_fixtures(failures)
    check_indexer(failures)
    check_real_tree(failures)
    check_output_modes(failures)
    check_rule_catalogue(failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("roia-lint self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
