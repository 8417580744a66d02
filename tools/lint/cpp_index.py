#!/usr/bin/env python3
"""cpp_index: roia-lint's one lexer and whole-program C++ indexer.

The repo's invariants are *path* properties — "no allocation reachable
from a hot function", "no nondeterministic value flowing into an encode
path" — so this module gives the linter the comment/literal masker every
rule scans through, plus a brace-parsed index of every function and method
under the scanned tree, the calls between them (cross-TU, resolved by name
with class/qualifier narrowing), and per-function facts the rules
propagate along the call graph:

  * allocates          operator new / std::string / std::to_string /
                       std::vector construction
  * nondeterminism     hard: rand()/random_device/unseeded mt19937,
                       system_clock, time(); soft: steady and
                       high-resolution clocks, range-for over unordered
                       containers, pointer-keyed ordered containers
  * sinks              wire writes (ByteWriter / encode frames), telemetry
                       emission (audit/metrics/trace), floating-point
                       accumulators (StatAccumulator/Ewma-style .add())
  * hot                the function is annotated `// roia-hot`

Hard sources outside every indexed body and `// roia-hot` annotations that
attach to no function are kept per file, so the parser's tolerance cannot
hide a fact the rules must report.

Parsing model (stdlib regex + brace matching, no compiler): comments and
string literals are masked first, then the file is scanned as a sequence of
`{`-delimited scopes. Namespace and class scopes recurse; function bodies
and initializer/enum braces are skipped wholesale (nothing inside a body
opens a new indexed scope). The parser is deliberately tolerant: constructs
it cannot classify are skipped, never mis-indexed — the indexer unit test
(tests/lint/fixtures_index/) pins down what it must parse (namespaces,
classes, out-of-line `Cls::method` definitions, overloads, template
functions, constructors with init lists) and what it may skip (operator
overloads with exotic spellings, preprocessor-conditional bodies).

Known limitations (documented in DESIGN §17): calls are resolved by name,
so overload sets merge into one node family (a conservative
over-approximation); calls through function pointers, virtual dispatch to
out-of-index overrides, and macro-generated code are invisible; template
instantiations are indexed once at their definition.
"""

import os
import re

CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

HOT_RE = re.compile(r"//\s*roia-hot\b")


def mask_source(text):
    """Replaces comments and string/char literals with spaces.

    Newlines are preserved so offsets and line numbers survive. Handles //,
    /* */, "...", '...' with escapes, and basic raw strings R"delim(...)delim".
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            end = n if end == -1 else end
            out.append(" " * (end - i))
            i = end
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c == "R" and nxt == '"':
            close = text.find("(", i + 2)
            if close == -1:
                out.append(c)
                i += 1
                continue
            delim = text[i + 2:close]
            terminator = ")" + delim + '"'
            end = text.find(terminator, close + 1)
            end = n if end == -1 else end + len(terminator)
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_bracket(text, open_pos, open_ch, close_ch):
    """Offset just past the bracket closing text[open_pos]; -1 if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


# ---------------------------------------------------------------------------
# head classification

# Names that can immediately precede a parenthesis without being a function
# definition (control flow, casts, compiler machinery).
CONTROL_NAMES = {
    "if", "for", "while", "switch", "catch", "do", "else", "try", "return",
    "sizeof", "alignof", "alignas", "decltype", "noexcept", "static_assert",
    "assert", "defined", "throw", "new", "delete", "case", "using",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "__attribute__",
}

NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b\s*([A-Za-z_][\w:]*)?\s*$")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)\s*(?:final\b\s*)?(?::\s*[^{]*)?$")
FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_~]\w*\s*::\s*)*"
    r"(?:operator\s*(?:\(\s*\)|\[\s*\]|[^\s\w(]{1,3})|[A-Za-z_~]\w*))\s*$")


def _first_toplevel_paren_group(s):
    """(open, close) offsets of the first paren group at depth 0, or None."""
    depth = 0
    start = -1
    for i, ch in enumerate(s):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and start != -1:
                return start, i
    return None


def _has_toplevel_assign(s):
    """True if `s` contains a bare '=' outside parens/braces/brackets."""
    depth = 0
    for i, ch in enumerate(s):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            prev = s[i - 1] if i > 0 else ""
            nxt = s[i + 1] if i + 1 < len(s) else ""
            if prev not in "=!<>+-*/%&|^" and nxt != "=":
                return True
    return False


def classify_head(head):
    """('namespace'|'class'|'function'|'skip', name) for the text before '{'."""
    s = head.strip()
    if not s:
        return "skip", None
    m = NAMESPACE_HEAD_RE.search(s)
    if m:
        return "namespace", m.group(1) or "<anon>"
    if re.search(r"\benum\b", s):
        return "skip", None
    if _has_toplevel_assign(s):
        return "skip", None  # initializer: `T x = {...}` / `T arr[] = {...}`
    group = _first_toplevel_paren_group(s)
    if group is not None:
        name_match = FUNC_NAME_RE.search(s[:group[0]])
        if name_match:
            name = re.sub(r"\s+", "", name_match.group(1))
            last = name.rsplit("::", 1)[-1]
            if last not in CONTROL_NAMES:
                return "function", name
        return "skip", None
    m = CLASS_HEAD_RE.search(s)
    if m:
        return "class", m.group(1)
    return "skip", None


# ---------------------------------------------------------------------------
# per-function fact extraction

ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w:])new\b"), "operator new"),
    (re.compile(r"\bstd\s*::\s*string\b(?!_view)"), "std::string construction"),
    (re.compile(r"\bstd\s*::\s*to_string\b"), "std::to_string (allocates)"),
    (re.compile(r"\bstd\s*::\s*vector\s*<"), "std::vector construction"),
]

# Hard sources are nondeterministic wherever they appear, so each one in the
# deterministic core is a finding by itself; soft sources (the monotonic
# clocks below, unordered iteration, pointer-keyed order) only matter once
# their value can reach a sink.
HARD_SOURCE_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rng", "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "rng", "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\s+\w+\s*(?:;|\(\s*\)|\{\s*\})"
                r"|\bmt19937(?:_64)?\s*(?:\(\s*\)|\{\s*\})"),
     "rng", "unseeded std::mt19937"),
    (re.compile(r"\bsystem_clock\b"), "wall-clock", "std::chrono::system_clock"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "wall-clock", "time()"),
]
HARD_SOURCE_KINDS = {kind for _pattern, kind, _what in HARD_SOURCE_PATTERNS}
MONOTONIC_CLOCK_RE = re.compile(r"\b(?:steady|high_resolution)_clock\b")

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
PTR_KEY_DECL_RE = re.compile(
    r"\b(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")

WIRE_SINK_RE = re.compile(
    r"\bByteWriter\b|[.>]\s*write[A-Z]\w*\s*\(|[.>]\s*appendRaw\s*\(")
TELEMETRY_SINK_RE = re.compile(
    r"\baudit\w*\s*\(|\bMetricsRegistry\b|\bAuditLog\b|\bTracer\b|"
    r"[.>]\s*counter\s*\(|[.>]\s*gauge\s*\(|[.>]\s*histogram\s*\(")

# Identifier declared with an FP-accumulator type; `name.add(...)` on one of
# these is the FpSum-style sink the taint rule cares about.
FP_ACCUM_TYPES_RE = re.compile(
    r"\b(StatAccumulator|Ewma|Histogram|LogHistogram|WindowedAverage)\b")

CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(::|\.|->)\s*)?([A-Za-z_]\w*)\s*\(")

# Member-call names that are overwhelmingly std container/iterator methods.
# An unqualified `x.end()` must not resolve to a project method that happens
# to share the name (ProtocolTracker::end), so member-style calls with these
# names are dropped; qualified (`Cls::end(...)`) and free calls resolve
# normally. Cost: a real member call to a same-named project method is
# invisible to the graph — documented in DESIGN §17.
STD_METHOD_NAMES = {
    "begin", "end", "rbegin", "rend", "cbegin", "cend", "size", "empty",
    "clear", "find", "erase", "insert", "emplace", "emplace_back",
    "push_back", "pop_back", "push_front", "pop_front", "reserve", "resize",
    "front", "back", "at", "data", "count", "swap", "assign", "contains",
    "lower_bound", "upper_bound", "get", "reset", "release", "str", "c_str",
    "substr", "append", "length", "insert_or_assign", "value", "has_value",
    "value_or", "first", "second", "top", "pop", "push",
}

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def declared_names(masked, type_re):
    """Identifiers declared with a type matching `type_re` (template form)."""
    names = set()
    for m in type_re.finditer(masked):
        open_angle = masked.find("<", m.start())
        tail_start = m.end()
        if open_angle != -1 and open_angle < m.end() + 2:
            end = match_bracket(masked, open_angle, "<", ">")
            if end == -1:
                continue
            tail_start = end
        decl = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;{=,)]",
                        masked[tail_start:tail_start + 200])
        if decl:
            names.add(decl.group(1))
    return names


def range_for_terminals(body):
    """Yields (offset, terminal identifier of the range expression)."""
    for m in RANGE_FOR_RE.finditer(body):
        open_paren = body.find("(", m.start())
        end = match_bracket(body, open_paren, "(", ")")
        if end == -1:
            continue
        inner = body[open_paren + 1:end - 1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch in "(<[{":
                depth += 1
            elif ch in ")>]}":
                depth -= 1
            elif ch == ":" and depth == 0:
                if (i > 0 and inner[i - 1] == ":") or inner[i + 1:i + 2] == ":":
                    continue
                terminal = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?\s*$",
                                     inner[i + 1:])
                if terminal:
                    yield m.start(), terminal.group(1)
                break


class Function:
    """One indexed function/method definition."""

    __slots__ = ("qualname", "name", "cls", "file", "line", "end_line", "hot",
                 "calls", "allocs", "sources", "sinks")

    def __init__(self, qualname, name, cls, file, line, end_line, hot):
        self.qualname = qualname
        self.name = name          # unqualified trailing component
        self.cls = cls            # enclosing/explicit class name, or None
        self.file = file
        self.line = line          # first line of the definition head
        self.end_line = end_line
        self.hot = hot
        self.calls = []           # (callee name, qualifier or None, line)
        self.allocs = []          # (line, what)
        self.sources = []         # (line, kind, what)
        self.sinks = []           # (line, kind, what)

    def __repr__(self):
        return f"<fn {self.qualname} {self.file}:{self.line}>"


def _extract_facts(fn, body, base_offset, masked, unordered_names, accum_names):
    for pattern, what in ALLOC_PATTERNS:
        for m in pattern.finditer(body):
            fn.allocs.append((line_of(masked, base_offset + m.start()), what))
    for m in MONOTONIC_CLOCK_RE.finditer(body):
        fn.sources.append((line_of(masked, base_offset + m.start()), "clock",
                           "steady/high-resolution clock"))
    for offset, terminal in range_for_terminals(body):
        if terminal in unordered_names:
            fn.sources.append((line_of(masked, base_offset + offset),
                               "unordered-iteration",
                               f"range-for over unordered '{terminal}'"))
    for m in PTR_KEY_DECL_RE.finditer(body):
        fn.sources.append((line_of(masked, base_offset + m.start()),
                           "pointer-key-order", "pointer-keyed ordered container"))
    m = WIRE_SINK_RE.search(body)
    if m:
        fn.sinks.append((line_of(masked, base_offset + m.start()), "wire",
                         "ByteWriter / wire bytes"))
    m = TELEMETRY_SINK_RE.search(body)
    if m:
        fn.sinks.append((line_of(masked, base_offset + m.start()), "telemetry",
                         "metrics/audit/trace emission"))
    for m in re.finditer(r"([A-Za-z_]\w*)\s*[.]\s*add\s*\(", body):
        if m.group(1) in accum_names:
            fn.sinks.append((line_of(masked, base_offset + m.start()),
                             "fp-accumulate",
                             f"FP accumulator '{m.group(1)}'.add()"))
            break
    for m in CALL_RE.finditer(body):
        name = m.group(3)
        if name in CONTROL_NAMES:
            continue
        if m.group(2) in (".", "->") and name in STD_METHOD_NAMES:
            continue
        qualifier = m.group(1) if m.group(2) == "::" else None
        fn.calls.append((name, qualifier,
                         line_of(masked, base_offset + m.start())))


def parse_file(path, raw, masked, unordered_extra=frozenset(),
               accum_extra=frozenset()):
    """(functions, stray hard sources, stray hot lines) for one file.

    `*_extra` carry paired-header decls. Hard sources are matched over the
    whole file: a hit inside an indexed body is that function's fact, any
    other hit (file-scope initializer, body the parser skipped) is a stray
    (line, kind, what). Stray hot lines are `// roia-hot` annotations in no
    function definition's head.
    """
    hot_lines = {line_of(raw, m.start()) for m in HOT_RE.finditer(raw)}
    attached = set()
    hard = [(m.start(), kind, what)
            for pattern, kind, what in HARD_SOURCE_PATTERNS
            for m in pattern.finditer(masked)]
    bodies = []  # (open brace, end) of every indexed function body
    unordered_names = declared_names(masked, UNORDERED_DECL_RE) | set(unordered_extra)
    accum_names = declared_names(masked, FP_ACCUM_TYPES_RE) | set(accum_extra)

    functions = []
    scope_stack = []  # (kind, name)
    i = 0
    seg_start = 0
    n = len(masked)
    while i < n:
        ch = masked[i]
        if ch == ";":
            seg_start = i + 1
            i += 1
        elif ch == "}":
            if scope_stack:
                scope_stack.pop()
            seg_start = i + 1
            i += 1
        elif ch == "{":
            kind, name = classify_head(masked[seg_start:i])
            if kind in ("namespace", "class"):
                scope_stack.append((kind, name))
                seg_start = i + 1
                i += 1
                continue
            end = match_bracket(masked, i, "{", "}")
            if end == -1:
                break  # unbalanced (preprocessor tricks): stop, don't mis-scope
            if kind == "function":
                head_line = line_of(masked, seg_start)
                open_line = line_of(masked, i)
                annotations = hot_lines.intersection(range(head_line, open_line + 1))
                attached |= annotations
                scope_names = [s_name for s_kind, s_name in scope_stack
                               if s_name and s_name != "<anon>"]
                qualname = "::".join(scope_names + [name])
                cls = None
                if "::" in name:
                    cls = name.rsplit("::", 2)[-2]
                else:
                    for s_kind, s_name in reversed(scope_stack):
                        if s_kind == "class":
                            cls = s_name
                            break
                fn = Function(qualname, name.rsplit("::", 1)[-1], cls, path,
                              head_line, line_of(masked, end - 1),
                              bool(annotations))
                fn.sources.extend((line_of(masked, off), src_kind, what)
                                  for off, src_kind, what in hard if i <= off < end)
                bodies.append((i, end))
                _extract_facts(fn, masked[i:end], i, masked,
                               unordered_names, accum_names)
                functions.append(fn)
            i = end
            seg_start = end
        else:
            i += 1
    stray_sources = [(line_of(masked, off), kind, what)
                     for off, kind, what in hard
                     if not any(lo <= off < hi for lo, hi in bodies)]
    return functions, stray_sources, sorted(hot_lines - attached)


class Index:
    """Whole-program function index + name-resolved call graph."""

    def __init__(self):
        self.functions = []
        self.by_name = {}        # unqualified name -> [Function]
        self.by_file = {}        # path -> [Function]
        self.raw = {}            # path -> source text
        self.masked = {}         # path -> mask_source(raw)
        self.files_by_stem = {}  # path minus extension -> [(path, masked)]
        self.stray_sources = {}  # path -> [(line, kind, what)] outside bodies
        self.stray_hot = {}      # path -> [line] of unattached // roia-hot
        self._edges = None       # Function -> [(Function, line)]
        self._redges = None      # Function -> [(Function, line)] (callers)

    def resolve_call(self, caller, name, qualifier):
        """Candidate Functions for one call site (over-approximate)."""
        candidates = self.by_name.get(name)
        if not candidates:
            return []
        if qualifier:
            narrowed = [fn for fn in candidates if fn.cls == qualifier
                        or fn.qualname.endswith(f"{qualifier}::{fn.name}")]
            if narrowed:
                return narrowed
        return candidates

    def _build_edges(self):
        self._edges = {fn: [] for fn in self.functions}
        self._redges = {fn: [] for fn in self.functions}
        for fn in self.functions:
            seen = set()
            for name, qualifier, call_line in fn.calls:
                for callee in self.resolve_call(fn, name, qualifier):
                    if callee is fn or id(callee) in seen:
                        continue
                    seen.add(id(callee))
                    self._edges[fn].append((callee, call_line))
                    self._redges[callee].append((fn, call_line))

    def callees(self, fn):
        if self._edges is None:
            self._build_edges()
        return self._edges.get(fn, [])

    def callers(self, fn):
        if self._edges is None:
            self._build_edges()
        return self._redges.get(fn, [])


def paired_decl_names(files_by_stem, path):
    """(unordered, accum) names declared in same-stem sibling files."""
    stem = os.path.splitext(path)[0]
    unordered = set()
    accum = set()
    for sibling, masked in files_by_stem.get(stem, []):
        if sibling == path:
            continue
        unordered |= declared_names(masked, UNORDERED_DECL_RE)
        accum |= declared_names(masked, FP_ACCUM_TYPES_RE)
    return unordered, accum


def build_index(files):
    """Index every file in `files` (paths); unreadable files are skipped."""
    index = Index()
    for path in dict.fromkeys(files):
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except OSError:
            continue
        index.raw[path] = raw
        index.masked[path] = mask_source(raw)
        index.files_by_stem.setdefault(os.path.splitext(path)[0], []).append(
            (path, index.masked[path]))
    for path, raw in index.raw.items():
        unordered_extra, accum_extra = paired_decl_names(index.files_by_stem, path)
        functions, index.stray_sources[path], index.stray_hot[path] = parse_file(
            path, raw, index.masked[path], unordered_extra, accum_extra)
        index.by_file[path] = functions
        for fn in functions:
            index.functions.append(fn)
            index.by_name.setdefault(fn.name, []).append(fn)
    return index
