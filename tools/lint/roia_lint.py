#!/usr/bin/env python3
"""roia-lint: project-invariant static analysis for the ROIA codebase.

The repo's correctness story rests on source-level conventions that a
compiler cannot check: deterministic simulation (seeded RNG only, no wall
clock), stable iteration order anywhere bytes/RNG/telemetry are produced,
bounded retries, and allocation-free hot paths. This tool turns those
conventions into named, machine-checkable rules over the C++ sources, one
rule per invariant. Stdlib Python only; token/AST-lite (comments and
string literals are masked before scanning, so commented-out code never
fires a rule).

What the compiler can check stays with the compiler: audit events are an
enum (src/obs/events.hpp), every wire walker binds all members of its
message, a static_assert ties the snapshot schema to EntitySnapshot, and
WireLayoutTest pins the bytes of every frame type.

Rules (see --list-rules):

  ordered-iteration      flags range-for over std::unordered_map/set in
                         files that feed serialization, RNG draws, or
                         telemetry output — iteration order there leaks
                         into bytes/results and breaks the byte-identical
                         sweep contract.
  bounded-retry          flags retry/retransmit/poll loops in the
                         deterministic core with no structural exit
                         (while(true), for(;;), negated-flag spins) and no
                         attempt cap, deadline, or budget in sight — an
                         unreachable peer must not spin forever.
  bad-suppression        a `roia-lint: allow(...)` without a justification
                         (`-- <reason>`) or naming an unknown rule.

Whole-program rules (built on the call-graph index in cpp_index.py, the one
lexer every rule shares — every file under the scanned tree is brace-parsed
into functions, calls and per-function facts, and the rules below
propagate those facts across function and TU boundaries):

  transitive-hot-alloc   flags new / std::string / std::vector
                         construction in a function annotated
                         `// roia-hot` or in anything it can call, with
                         the hot-root -> callee chain; an annotation that
                         attaches to no function is a finding too.
  determinism-taint      bans hard nondeterminism sources (rand/srand,
                         random_device, unseeded mt19937, system_clock,
                         time()) in the deterministic core (src/{sim,rtf,
                         rms,model,game,serialize}; src/obs and bench
                         timing are exempt), and reports dataflow from
                         soft sources (monotonic clocks, unordered
                         iteration order, pointer-keyed ordered
                         containers) to observable sinks (wire writes,
                         metrics/audit/trace emission, FP accumulators);
                         flows carry the source -> sink call chain.
  suppression-debt       inventories every well-formed allow() with rule,
                         reason and git age; an allow that no longer
                         suppresses any finding is stale and fails. The
                         full debt table rides in the JSON output for the
                         health report.

Suppressions: append `// roia-lint: allow(<rule>) -- <reason>` to the
offending line, or place it on the line directly above. The reason is
mandatory; a bare allow() is itself a finding.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.

Typical invocations:

    python3 tools/lint/roia_lint.py src/
    python3 tools/lint/roia_lint.py --format json src/ | python3 -m json.tool
    python3 tools/lint/roia_lint.py --format sarif src/ > lint.sarif
    python3 tools/lint/roia_lint.py --list-rules
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpp_index  # noqa: E402  (sibling module, stdlib-only)
from cpp_index import CPP_EXTENSIONS, line_of, match_bracket  # noqa: E402

# Subsystems whose behaviour must be bit-reproducible from a seed. src/obs
# (telemetry sidecars may stamp wall-clock metadata) and the bench harnesses
# (wall-clock timing is their purpose) are deliberately outside this set.
CORE_DIRS = {"sim", "rtf", "rms", "model", "game", "serialize"}

RULES = {
    "ordered-iteration": (
        "range-for over std::unordered_map/std::unordered_set in a file "
        "that feeds serialization, RNG draws, or telemetry output — "
        "unordered iteration order leaks into bytes/results"
    ),
    "bounded-retry": (
        "retry/retransmit/poll loops in the deterministic core with no "
        "structural exit (while(true), for(;;), negated-flag spins) must "
        "carry an attempt cap, deadline, or budget — unreachable peers "
        "must not spin forever"
    ),
    "bad-suppression": (
        "roia-lint: allow(...) must name a known rule and carry a "
        "justification: // roia-lint: allow(<rule>) -- <reason>"
    ),
    "transitive-hot-alloc": (
        "no new / std::string / std::to_string / std::vector construction "
        "in a function annotated // roia-hot or in any function reachable "
        "from one through the whole-program call graph, and every "
        "// roia-hot annotation must attach to a function definition"
    ),
    "determinism-taint": (
        "rand()/srand(), std::random_device, unseeded std::mt19937, "
        "std::chrono::system_clock and time() are banned in the "
        "deterministic core — all randomness must flow through the seeded "
        "roia::Rng and all time through SimTime; softer sources (monotonic "
        "clocks, unordered iteration, pointer-keyed ordering) must not "
        "reach an observable sink (wire bytes, metrics/audit/trace "
        "emission, FP accumulators); flows are reported with the "
        "source -> sink call chain"
    ),
    "suppression-debt": (
        "every roia-lint: allow(...) must still suppress a live finding; "
        "a stale allow (the underlying line no longer trips the rule) is "
        "debt and must be deleted"
    ),
}

ALLOW_RE = re.compile(r"//\s*roia-lint:\s*allow\(([^)]*)\)(?:\s*--\s*(\S.*))?")


class Finding:
    __slots__ = ("file", "line", "rule", "message")

    def __init__(self, file, line, rule, message):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message

    def as_dict(self):
        return {"file": self.file, "line": self.line, "rule": self.rule,
                "message": self.message}


def collect_suppressions(raw_lines):
    """line -> (set of allowed rules, reason or None, raw allow() text)."""
    allows = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows[idx] = (rules, m.group(2), m.group(0))
    return allows


def suppression_findings(path, allows):
    findings = []
    for idx, (rules, reason, text) in sorted(allows.items()):
        unknown = rules - set(RULES)
        if unknown:
            findings.append(Finding(
                path, idx, "bad-suppression",
                f"allow() names unknown rule(s) {sorted(unknown)}"))
        if reason is None:
            findings.append(Finding(
                path, idx, "bad-suppression",
                "allow() without a justification; write "
                "`// roia-lint: allow(<rule>) -- <reason>`"))
    return findings


def is_suppressed(finding, allows):
    if finding.rule in ("bad-suppression", "suppression-debt"):
        return False  # a broken/stale suppression cannot suppress itself
    for line in (finding.line, finding.line - 1):
        entry = allows.get(line)
        if entry and finding.rule in entry[0] and entry[1]:
            return True
    return False


# ---------------------------------------------------------------------------
# ordered-iteration

# Signals that a file's results end up in bytes, RNG-dependent state, or
# telemetry — the contexts where iteration order becomes observable.
OUTPUT_FEED_RE = re.compile(
    r"\bRng\b|\brng_?\b|ser::|ByteWriter|encode\s*\(|Metrics|AuditLog|"
    r"Tracer|telemetry|printf|std::cout|writeVar")


def rule_ordered_iteration(path, masked, unordered_names):
    findings = []
    for offset, terminal in cpp_index.range_for_terminals(masked):
        if terminal in unordered_names:
            findings.append(Finding(
                path, line_of(masked, offset), "ordered-iteration",
                f"range-for over unordered container '{terminal}' "
                "in an output-feeding file; iterate a sorted view or use an "
                "ordered container"))
    return findings


# ---------------------------------------------------------------------------
# bounded-retry

# Identifiers that mark a loop as re-attempting delivery of something: a
# comment saying "retry" is masked away, so only code-level names count.
RETRY_SIGNAL_RE = re.compile(
    r"retry|retries|retrying|retransmit|resend|redeliver|backoff|"
    r"poll(?:ing)?|reconnect", re.IGNORECASE)
# Evidence that the loop's persistence is bounded: an attempt counter, a
# deadline/budget/limit, an expiry check, or an explicit give-up path. The
# camelCase/snake_case max* family is matched case-sensitively so that a
# plain word like "climax" cannot satisfy the bound.
RETRY_BOUND_RE = re.compile(
    r"(?i:attempts?|deadline|budget|limit|expir\w*|remaining|give_?up)"
    r"|max[A-Z_]\w*")

LOOP_KEYWORD_RE = re.compile(r"\b(while|for)\s*\(")


def unbounded_loops(masked):
    """Yields (line, header, body) for loops with no structural exit: a
    while(true)/while(1), a for(;;), or a negated-flag spin `while (!x)`.

    Negated-flag spins with comparison/logical operators or an `empty()`
    check in the condition are excluded — draining a queue until empty is
    self-limiting, and compound conditions usually encode a bound already.
    """
    for m in LOOP_KEYWORD_RE.finditer(masked):
        open_paren = masked.find("(", m.start())
        end = match_bracket(masked, open_paren, "(", ")")
        if end == -1:
            continue
        inner = masked[open_paren + 1:end - 1].strip()
        if m.group(1) == "while":
            if inner not in ("true", "1"):
                flag = inner.replace("->", ".")
                if not (flag.startswith("!")
                        and not any(ch in flag for ch in "<>=&|")
                        and "empty" not in flag.lower()):
                    continue
        else:  # for
            if re.sub(r"\s+", "", inner) != ";;":
                continue
        j = end
        while j < len(masked) and masked[j].isspace():
            j += 1
        if j < len(masked) and masked[j] == "{":
            body_end = match_bracket(masked, j, "{", "}")
            body = masked[j:body_end] if body_end != -1 else masked[j:]
        else:
            semi = masked.find(";", j)
            body = masked[j:semi + 1] if semi != -1 else masked[j:]
        yield line_of(masked, m.start()), inner, body


def rule_bounded_retry(path, masked, in_core):
    if not in_core:
        return []
    findings = []
    for line, header, body in unbounded_loops(masked):
        if not RETRY_SIGNAL_RE.search(body):
            continue
        if RETRY_BOUND_RE.search(header) or RETRY_BOUND_RE.search(body):
            continue
        findings.append(Finding(
            path, line, "bounded-retry",
            "retry/retransmit loop with no structural exit and no attempt "
            "cap, deadline, or budget in sight — bound the retries or the "
            "loop spins forever against an unreachable peer"))
    return findings


# ---------------------------------------------------------------------------
# whole-program rules (call-graph based; index built by cpp_index.py)

def rule_transitive_hot_alloc(index):
    """Allocations in a // roia-hot function or anywhere it can call.

    BFS from every hot function; the first (therefore shortest) path to
    each reachable function is recorded so the finding can print the full
    hot-root -> ... -> allocator chain (for a root's own allocations the
    chain is just the root). An annotation that attaches to no indexed
    function would switch the check off without a word, so it is a finding
    at the annotation's line.
    """
    findings = [Finding(path, line, "transitive-hot-alloc",
                        "// roia-hot annotation attaches to no function "
                        "definition; put it directly above the hot "
                        "function's definition (a declaration has no body "
                        "to check)")
                for path, lines in index.stray_hot.items() for line in lines]
    roots = [fn for fn in index.functions if fn.hot]
    parent = {id(fn): None for fn in roots}
    queue = collections.deque(roots)
    while queue:
        fn = queue.popleft()
        if fn.allocs:
            chain = []
            node = fn
            while node is not None:
                chain.append(node.qualname)
                node = parent[id(node)]
            chain_text = " -> ".join(reversed(chain))
            for line, what in fn.allocs:
                findings.append(Finding(
                    fn.file, line, "transitive-hot-alloc",
                    f"{what} in '{fn.qualname}' on a // roia-hot path "
                    f"(chain: {chain_text}); hoist the buffer out of the "
                    "hot path or make the function allocation-free"))
        for callee, _call_line in index.callees(fn):
            if id(callee) not in parent:
                parent[id(callee)] = fn
                queue.append(callee)
    return findings


def _up_bfs(index, start):
    """Caller-direction BFS: (id->dist, id->parent Function, id->Function).

    parent[x] is the node x was discovered from, i.e. one call closer to
    `start`, so walking parents from any node yields the node -> ... ->
    start path.
    """
    dist = {id(start): 0}
    parent = {}
    nodes = {id(start): start}
    queue = collections.deque([start])
    while queue:
        fn = queue.popleft()
        for caller, _line in index.callers(fn):
            if id(caller) in dist:
                continue
            dist[id(caller)] = dist[id(fn)] + 1
            parent[id(caller)] = fn
            nodes[id(caller)] = caller
            queue.append(caller)
    return dist, parent, nodes


def _meet_chain(src_bfs, sink_bfs):
    """Minimal source -> meet -> sink chain of two _up_bfs results, or None."""
    sdist, sparent, snodes = src_bfs
    kdist, kparent, knodes = sink_bfs
    best = None
    for fid, d in sdist.items():
        if fid in kdist and (best is None or d + kdist[fid] < best[1]):
            best = (fid, d + kdist[fid])
    if best is None:
        return None
    meet_to_src = []
    node = snodes[best[0]]
    while node is not None:
        meet_to_src.append(node)
        node = sparent.get(id(node))
    meet_to_sink = []
    node = knodes[best[0]]
    while node is not None:
        meet_to_sink.append(node)
        node = kparent.get(id(node))
    return list(reversed(meet_to_src)) + meet_to_sink[1:]


def _flow_text(chain, sink):
    _line, kind, what = sink.sinks[0]
    return (f"{kind} sink ({what}) in '{sink.qualname}' (flow: "
            + " -> ".join(f.qualname for f in chain) + ")")


def rule_determinism_taint(index, core_files):
    """Nondeterminism sources in the core and their flows into sinks.

    A source function's return value taints its callers (caller-direction
    BFS); a sink function is reachable from its callers the same way. Any
    function in both closures is a meet point: the nondeterministic value
    can travel up from the source to the meet and down into the sink call.

    Hard sources (cpp_index.HARD_SOURCE_PATTERNS) are banned outright:
    each is one finding at its own line, carrying the shortest chain to
    any sink when a flow exists. Soft sources matter only when they flow:
    one finding per (source function, sink function) pair, anchored at the
    function's first soft source, with the minimal chain.
    """
    ban = ("all randomness must flow through the seeded roia::Rng and all "
           "time through SimTime")
    findings = [Finding(path, line, "determinism-taint",
                        f"{kind} source ({what}) outside any function body "
                        f"in the deterministic core; {ban}")
                for path in core_files
                for line, kind, what in index.stray_sources.get(path, [])]
    sink_maps = [(fn, _up_bfs(index, fn)) for fn in index.functions if fn.sinks]
    for path in core_files:
        for src in index.by_file.get(path, []):
            if not src.sources:
                continue
            src_bfs = _up_bfs(index, src)
            flows = []
            for sink, sink_bfs in sink_maps:
                chain = _meet_chain(src_bfs, sink_bfs)
                if chain:
                    flows.append((chain, sink))
            shortest = min(flows, key=lambda flow: len(flow[0]), default=None)
            soft = []
            for line, kind, what in src.sources:
                if kind not in cpp_index.HARD_SOURCE_KINDS:
                    soft.append((line, kind, what))
                    continue
                reach = f" and can reach {_flow_text(*shortest)}" if shortest else ""
                findings.append(Finding(
                    src.file, line, "determinism-taint",
                    f"{kind} source ({what}) in '{src.qualname}' is banned "
                    f"in the deterministic core{reach}; {ban}"))
            if soft:
                line, kind, what = soft[0]
                for chain, sink in flows:
                    findings.append(Finding(
                        src.file, line, "determinism-taint",
                        f"{kind} source ({what}) in '{src.qualname}' can "
                        f"reach {_flow_text(chain, sink)}; route the value "
                        "through seeded Rng/SimTime or sort before emission"))
    return findings


# ---------------------------------------------------------------------------
# suppression-debt

def git_age_days(path, line):
    """Age in days of the line per git blame, or None outside git/on error."""
    try:
        proc = subprocess.run(
            ["git", "blame", "--porcelain", "-L", f"{line},{line}", "--",
             os.path.abspath(path)],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(path)))
        if proc.returncode != 0:
            return None
        m = re.search(r"^committer-time (\d+)$", proc.stdout, re.MULTILINE)
        if not m:
            return None
        return max(0, int((time.time() - int(m.group(1))) / 86400))
    except Exception:
        return None


def suppression_debt(allows_by_file, suppressed):
    """(debt table, stale findings) for every well-formed allow().

    An allow is *live* if it suppressed at least one finding this run
    (the allow sits on the finding's line or the line above). Malformed
    allows are bad-suppression's territory and are skipped here.
    """
    used = {(f.file, line) for f in suppressed
            for line in (f.line, f.line - 1)}
    table = []
    findings = []
    for path in sorted(allows_by_file):
        for line, (rules, reason, _text) in sorted(allows_by_file[path].items()):
            if reason is None or rules - set(RULES):
                continue
            live = (path, line) in used
            table.append({
                "file": path, "line": line, "rules": sorted(rules),
                "reason": reason.strip(), "live": live,
                "age_days": git_age_days(path, line),
            })
            if not live:
                findings.append(Finding(
                    path, line, "suppression-debt",
                    f"stale suppression: allow({', '.join(sorted(rules))}) "
                    "no longer suppresses any finding on this or the next "
                    "line — delete it"))
    return table, findings


# ---------------------------------------------------------------------------
# driver

def path_subsystem(path):
    """('src', '<subsystem>') component pair, if the path has one."""
    parts = os.path.normpath(path).split(os.sep)
    for i, part in enumerate(parts[:-1]):
        if part == "src" and i + 1 < len(parts):
            return parts[i + 1]
    return None


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if not d.startswith(("build", ".")))
                for name in sorted(names):
                    if name.endswith(CPP_EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(p)
    return files


def lint_files(files, assume_core=False):
    """(findings, suppressed, suppression-debt table) over `files`."""
    findings = []
    suppressed = []
    allows_by_file = {}
    # One lexing pass: the index masks every file, and the per-file rules
    # reuse its text.
    index = cpp_index.build_index(files)
    for path in files:
        raw = index.raw[path]
        masked = index.masked[path]
        allows = collect_suppressions(raw.splitlines())
        allows_by_file[path] = allows

        subsystem = path_subsystem(path)
        in_core = assume_core or subsystem in CORE_DIRS
        paired = [m for p, m in index.files_by_stem[os.path.splitext(path)[0]]
                  if p != path]
        # Ordered iteration matters wherever results become observable:
        # the deterministic core always qualifies; elsewhere (e.g. the
        # fault injector in src/net) a reference to RNG/serialization/
        # telemetry machinery pulls the file into scope. src/obs is exempt:
        # its own exporters sort before emitting.
        feeds_output = in_core or (
            subsystem != "obs"
            and any(OUTPUT_FEED_RE.search(t) for t in [masked] + paired))

        file_findings = suppression_findings(path, allows)
        if feeds_output:
            unordered = (
                cpp_index.declared_names(masked, cpp_index.UNORDERED_DECL_RE)
                | cpp_index.paired_decl_names(index.files_by_stem, path)[0])
            file_findings += rule_ordered_iteration(path, masked, unordered)
        file_findings += rule_bounded_retry(path, masked, in_core)

        for finding in file_findings:
            (suppressed if is_suppressed(finding, allows) else findings).append(finding)

    # Whole-program rules: the index spans every linted file.
    core_files = {p for p in files
                  if assume_core or path_subsystem(p) in CORE_DIRS}
    for finding in (rule_transitive_hot_alloc(index)
                    + rule_determinism_taint(index, core_files)):
        allows = allows_by_file.get(finding.file, {})
        (suppressed if is_suppressed(finding, allows) else findings).append(finding)

    # Suppression debt: needs the final suppressed list, so it runs last.
    debt, stale = suppression_debt(allows_by_file, suppressed)
    findings.extend(stale)

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, suppressed, debt


def sarif_report(findings):
    """Minimal SARIF 2.1.0 document (GitHub code-scanning compatible)."""
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "roia-lint",
                "informationUri": "tools/lint/roia_lint.py",
                "rules": [{
                    "id": rule,
                    "shortDescription": {"text": rule},
                    "fullDescription": {"text": description},
                    "defaultConfiguration": {"level": "error"},
                } for rule, description in sorted(RULES.items())],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {
                        "uri": os.path.relpath(f.file).replace(os.sep, "/")},
                    "region": {"startLine": f.line},
                }}],
            } for f in findings],
        }],
    }


def main():
    parser = argparse.ArgumentParser(
        description="project-invariant static analysis for the ROIA codebase")
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to report")
    parser.add_argument("--assume-core", action="store_true",
                        help="treat every scanned file as deterministic-core "
                             "(used by the fixture self-test)")
    args = parser.parse_args()

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule:24} {description}")
        return 0

    if not args.paths:
        parser.error("no paths given (try: roia_lint.py src/)")

    selected = None
    if args.rules is not None:
        selected = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = selected - set(RULES)
        if unknown:
            parser.error(f"unknown rule(s): {sorted(unknown)}")

    try:
        files = collect_files(args.paths)
    except FileNotFoundError as err:
        print(f"ERROR: no such file or directory: {err}", file=sys.stderr)
        return 2

    findings, suppressed, debt = lint_files(files, assume_core=args.assume_core)
    if selected is not None:
        findings = [f for f in findings if f.rule in selected]
        suppressed = [f for f in suppressed if f.rule in selected]

    if args.format == "json":
        print(json.dumps({
            "schema": "roia-lint/1",
            "files_scanned": len(files),
            "findings": [f.as_dict() for f in findings],
            "suppressed": [f.as_dict() for f in suppressed],
            "suppression_debt": debt,
        }, indent=2))
    elif args.format == "sarif":
        print(json.dumps(sarif_report(findings), indent=2))
    else:
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
        print(f"{len(files)} files scanned, {len(findings)} finding(s), "
              f"{len(suppressed)} suppressed", file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
