#!/usr/bin/env python3
"""starnuma-hotpath: interprocedural hot-path discipline analyzer
(DESIGN.md §13). C++-aware but clang-free: built on the shared
tokenizer/function indexer in starnuma_lint_core.py.

Rules
-----
D9  Hot-path discipline. Functions annotated ``// lint: hot-path``
    are roots of a call-graph reachability walk; no function
    reachable from a root may allocate (``new``, the malloc family,
    growing ``std::`` container methods, hash containers,
    ``std::string`` construction), throw, take a mutex, or call
    logging. ``sn_assert``/``panic``/``panicAssert``/``fatal`` are
    allowed: they are [[noreturn]] invariant failures, not part of
    the steady-state path. Escape hatch: ``// lint: cold-path`` with
    a reason — on a function's declaration it stops the walk there
    (setup/per-phase code); on a single line it exempts exactly that
    line (amortized growth edges whose capacity is reserved up
    front).

    The call graph is name-based and over-approximate: a call
    resolves to every indexed definition of that simple name
    (qualified calls ``X::f`` prefer definitions of class X; member
    calls on a receiver declared ``Cls obj`` or, for ``obj[i].f(``,
    ``std::vector<Cls> obj`` prefer definitions of Cls). Virtual
    calls therefore resolve to all same-name overriders.
    Known blind spots — documented in DESIGN.md §13 and backstopped
    by scripts/check_hotpath_syms.sh at the binary level: calls
    through function pointers, operator-overload call sites, and
    std:: methods that share a name with an indexed function.

D10 Decoder bounds discipline. In ``src/trace/`` and the
    checkpoint/trace decode paths of ``src/driver/trace_sim.cc``,
    functions whose name says they parse external bytes
    (decode/load/read/get/parse) may not do raw pointer arithmetic
    on byte buffers, ``memcpy``/``fread`` from them, or
    ``reinterpret_cast`` — all cursor movement goes through the
    checked ``ByteReader`` helpers (which are themselves exempt:
    they are the trusted kernel the rule funnels everything into).
    Escape hatch: ``// lint: raw-read`` with a reason (e.g. the one
    whole-file slurp into an owned buffer).

D11 Strong-type boundaries. Public headers under ``src/core/`` and
    ``src/mem/`` may not pass raw ``uint64_t`` where the strong
    types exist: parameters/members with page-like names
    (``page``, ``*_page``, ``*Page``) must be ``PageNum``;
    cycle-like names (``cycles``, ``*_cycles``, ``*Cycles``,
    ``latency``) must be ``Cycles``/``CycleDelta``. Addr→page
    arithmetic (``/ pageBytes``) is confined to ``sim/types.hh``
    (the geometry helpers) and ``mem/page_map``; anywhere else it
    needs a justified ``// lint: raw-unit`` annotation.

Usage
-----
    starnuma_hotpath.py [paths...]   # default: src (repo root)
    starnuma_hotpath.py --self-test  # run against scripts/lint_fixtures
    starnuma_hotpath.py --dump-reach # also list reachable functions

Exit status: 0 when clean, 1 on findings, 2 on usage errors.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import starnuma_lint_core as core  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = ("D9", "D10", "D11")

HOT_ANNOTATION = "lint: hot-path"
COLD_ANNOTATION = "lint: cold-path"
RAW_READ_ANNOTATION = "lint: raw-read"
RAW_UNIT_ANNOTATION = "lint: raw-unit"

# --- D9 vocabulary --------------------------------------------------

ALLOC_FUNCS = frozenset((
    "malloc", "calloc", "realloc", "free", "strdup", "aligned_alloc",
    "posix_memalign",
))
# Growing std:: container methods. Flagged only when the callee name
# does NOT resolve to an indexed definition: a project class that
# defines a method of the same name is traversed (its own body is
# checked) instead.
ALLOC_METHODS = frozenset((
    "push_back", "emplace_back", "resize", "reserve", "assign",
    "append", "insert", "emplace", "try_emplace", "insert_or_assign",
    "push", "emplace_front", "push_front", "shrink_to_fit", "rehash",
    "merge",
))
HASH_CONTAINERS = frozenset((
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
))
STRING_TOKENS = frozenset((
    "string", "wstring", "to_string", "stringstream",
    "ostringstream", "istringstream",
))
LOCK_TOKENS = frozenset((
    "Mutex", "MutexLock", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock", "mutex", "shared_mutex", "recursive_mutex",
    "pthread_mutex_lock", "CondVar", "condition_variable",
))
LOG_CALLS = frozenset((
    "inform", "warn", "vreport", "printf", "fprintf", "vfprintf",
    "puts", "fputs", "fwrite",
))
# [[noreturn]] invariant failures: allowed on the hot path, and the
# walk does not descend into them.
NORETURN_OK = frozenset((
    "sn_assert", "panic", "panicAssert", "fatal", "abort", "assert",
))

# --- D10 vocabulary -------------------------------------------------

D10_SCOPE_DIRS = ("src/trace/",)
D10_SCOPE_FILES = ("src/driver/trace_sim.cc",)
D10_NAME_HINTS = ("decode", "load", "read", "get", "parse")
D10_EXEMPT_QUALS = ("ByteReader",)
D10_RAW_CALLS = frozenset((
    "memcpy", "memmove", "fread", "fscanf", "fgets", "sscanf",
))
D10_PTR_DECL = re.compile(
    r"\b(?:uint8_t|byte|unsigned\s+char|char)\b\s*"
    r"(?:const\b\s*)?\*+\s*(?:const\b\s*)?([A-Za-z_]\w*)")

# --- D11 vocabulary -------------------------------------------------

D11_HEADER_DIRS = ("src/core/", "src/mem/")
D11_UINT_DECL = re.compile(
    r"(?:\bstd\s*::\s*)?\buint64_t\b\s+([A-Za-z_]\w*)\b(?!\s*\()")
D11_PAGEY = re.compile(
    r"^(?:page|pn|page_num|pagenum)$|_page$|[a-z0-9]Page$")
D11_CYCLEY = re.compile(
    r"^(?:cycle|cycles|latency)$|_cycles$|_latency$|[a-z0-9]Cycles$")
D11_PAGE_ARITH = re.compile(r"/\s*pageBytes\b")
D11_ARITH_ALLOWED = (
    "src/sim/types.hh", "src/mem/page_map.hh", "src/mem/page_map.cc",
)


# Parsed-tree plumbing and the name-based call graph now live in the
# shared core (starnuma_taint.py uses them too); keep local aliases
# for the rule code below.
SourceFile = core.SourceFile
load_tree = core.load_tree
line_annotated = core.line_annotated
func_annotated = core.func_annotated
CallGraph = core.CallGraph


# -------------------------------------------------------------------
# D9: interprocedural reachability.
# -------------------------------------------------------------------


def scan_hot_function(sf, f, graph, findings, seen_violations):
    """Scan one reachable function's body for D9 violations and
    return its outgoing call edges [(callee_def, line)]."""
    toks = sf.toks
    edges = []

    def violation(line, what):
        key = (f.qualname, sf.rel, line, what)
        if key in seen_violations:
            return
        if line_annotated(sf, line, COLD_ANNOTATION):
            return
        seen_violations.add(key)
        findings.append((sf.rel, line, what, f))

    j = f.body_start
    while j < f.body_end:
        t = toks[j].text
        line = toks[j].line
        nxt = toks[j + 1].text if j + 1 < f.body_end else ""
        prv = toks[j - 1].text if j > 0 else ""

        if t == "new":
            violation(line, "allocates ('new')")
        elif t == "throw":
            violation(line, "throws")
        elif t in HASH_CONTAINERS:
            violation(line, "uses allocating hash container "
                            "'%s'" % t)
        elif t in LOCK_TOKENS:
            violation(line, "takes a lock ('%s')" % t)
        elif t in STRING_TOKENS and prv == "::":
            violation(line, "constructs std::%s (allocates)" % t)
        elif core.is_ident(t) and nxt == "(":
            if t in NORETURN_OK:
                pass  # [[noreturn]] invariant failure: allowed
            elif t in LOG_CALLS:
                violation(line, "calls logging/stdio ('%s')" % t)
            elif t in ALLOC_FUNCS:
                violation(line, "allocates ('%s')" % t)
            else:
                targets = graph.resolve(
                    t, *core.call_context(toks, j), caller=f)
                if targets:
                    if not line_annotated(sf, line,
                                          COLD_ANNOTATION):
                        for tgt in targets:
                            edges.append((tgt, line))
                elif t in ALLOC_METHODS and prv in (".", "->"):
                    violation(line, "grows a std:: container "
                                    "('%s')" % t)
        elif core.is_ident(t) and nxt != "(" and \
                t in graph.ctor_classes:
            # A mention of an indexed class name constructs one
            # (local, member, or container element): follow its
            # constructor(s).
            if not line_annotated(sf, line, COLD_ANNOTATION):
                for tgt in graph.ctor_classes[t]:
                    edges.append((tgt, line))
        j += 1
    return edges


def check_d9(tree, findings, dump_reach=False):
    graph = CallGraph(tree)
    roots = []
    cold = set()
    for sf in tree.values():
        for f in sf.funcs:
            if func_annotated(sf, f, COLD_ANNOTATION):
                cold.add(id(f))
            elif func_annotated(sf, f, HOT_ANNOTATION):
                roots.append(f)

    parent = {}
    visited = {}
    raw = []
    seen_violations = set()
    work = []
    for r in sorted(roots, key=lambda f: (f.rel, f.name_line)):
        visited[id(r)] = r
        parent[id(r)] = None
        work.append(r)
    while work:
        f = work.pop(0)
        sf = tree[f.file_key]
        for tgt, line in scan_hot_function(sf, f, graph, raw,
                                           seen_violations):
            if id(tgt) in cold or id(tgt) in visited:
                continue
            visited[id(tgt)] = tgt
            parent[id(tgt)] = (id(f), f)
            work.append(tgt)

    for rel, line, what, f in raw:
        chain = []
        cur = parent.get(id(f))
        hop = f
        while cur is not None:
            hop = cur[1]
            chain.append(hop.qualname)
            cur = parent.get(id(hop))
        via = ""
        if chain:
            chain.reverse()
            via = " (hot via %s)" % " -> ".join(chain)
        findings.append(core.Finding(
            "D9", rel, line,
            "hot-path function '%s' %s%s; fix it, or annotate "
            "'// %s <reason>' on the line or the function"
            % (f.qualname, what, via, COLD_ANNOTATION)))

    if dump_reach:
        for f in sorted(visited.values(),
                        key=lambda f: (f.rel, f.name_line)):
            print("reach: %s (%s:%d)" % (f.qualname, f.rel,
                                         f.name_line))
    return len(roots), len(visited)


# -------------------------------------------------------------------
# D10: decoder bounds discipline.
# -------------------------------------------------------------------

def d10_in_scope(rel):
    return rel in D10_SCOPE_FILES or \
        any(rel.startswith(d) for d in D10_SCOPE_DIRS)


def check_d10(tree, findings):
    for rel in sorted(tree):
        if not d10_in_scope(rel):
            continue
        sf = tree[rel]
        for f in sf.funcs:
            lname = f.name.lower()
            if not any(h in lname for h in D10_NAME_HINTS):
                continue
            if any(f.qualname.startswith(q + "::") or
                   f.qualname == q for q in D10_EXEMPT_QUALS):
                continue
            # Byte-buffer pointer names declared in the signature or
            # body (the signature span carries the parameters).
            span = "\n".join(sf.code_lines[
                max(0, f.decl_line - 1):f.body_close_line])
            ptr_names = set(D10_PTR_DECL.findall(span))

            def flag(line, what):
                if line_annotated(sf, line, RAW_READ_ANNOTATION):
                    return
                findings.append(core.Finding(
                    "D10", rel, line,
                    "decode path '%s' %s; route reads through the "
                    "checked ByteReader helpers or annotate "
                    "'// %s <reason>'"
                    % (f.qualname, what, RAW_READ_ANNOTATION)))

            toks = sf.toks
            j = f.body_start
            while j < f.body_end:
                t = toks[j].text
                nxt = toks[j + 1].text if j + 1 < f.body_end else ""
                prv = toks[j - 1].text if j > 0 else ""
                if t in D10_RAW_CALLS and nxt == "(":
                    flag(toks[j].line,
                         "reads raw bytes via '%s'" % t)
                elif t == "reinterpret_cast":
                    flag(toks[j].line, "uses reinterpret_cast")
                elif t in ptr_names and (
                        nxt in ("[", "+", "-") or
                        prv in ("+", "-", "*")):
                    flag(toks[j].line,
                         "does raw pointer arithmetic on buffer "
                         "'%s'" % t)
                j += 1


# -------------------------------------------------------------------
# D11: strong-type boundaries.
# -------------------------------------------------------------------

def check_d11(tree, findings):
    for rel in sorted(tree):
        sf = tree[rel]
        is_header = rel.endswith((".hh", ".hpp")) and \
            any(rel.startswith(d) for d in D11_HEADER_DIRS)
        arith_applies = rel.startswith("src/") and \
            rel not in D11_ARITH_ALLOWED
        if not (is_header or arith_applies):
            continue
        for idx, code in enumerate(sf.code_lines):
            line = idx + 1
            if is_header:
                for m in D11_UINT_DECL.finditer(code):
                    name = m.group(1)
                    want = None
                    if D11_PAGEY.search(name):
                        want = "PageNum"
                    elif D11_CYCLEY.search(name):
                        want = "Cycles/CycleDelta"
                    if want and not line_annotated(
                            sf, line, RAW_UNIT_ANNOTATION):
                        findings.append(core.Finding(
                            "D11", rel, line,
                            "raw uint64_t '%s' in a public header "
                            "where %s exists; use the strong type "
                            "or annotate '// %s <reason>'"
                            % (name, want, RAW_UNIT_ANNOTATION)))
            if arith_applies and D11_PAGE_ARITH.search(code) and \
                    not line_annotated(sf, line,
                                       RAW_UNIT_ANNOTATION):
                findings.append(core.Finding(
                    "D11", rel, line,
                    "Addr->page arithmetic ('/ pageBytes') outside "
                    "sim/types.hh geometry helpers and "
                    "mem/page_map; use pageNumber()/pagesIn()/"
                    "pagesCovering()/pagesPerRegion() or annotate "
                    "'// %s <reason>'" % RAW_UNIT_ANNOTATION))


# -------------------------------------------------------------------


def analyze(paths, root, dump_reach=False):
    tree = load_tree(paths, root)
    findings = []
    nroots, nreach = check_d9(tree, findings, dump_reach)
    check_d10(tree, findings)
    check_d11(tree, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, nroots, nreach


def self_test():
    """Fixtures mark expected findings with `expect-lint: D<n>`;
    the analyzer must report exactly the expected (file, line, rule)
    set for its rules D9-D11 and nothing else."""
    fixture_dir = os.path.join(REPO_ROOT, "scripts", "lint_fixtures")
    expected = set()
    for path in core.iter_source_files([fixture_dir]):
        with open(path, encoding="utf-8") as fh:
            for idx, text in enumerate(fh):
                for rule in re.findall(r"expect-lint:\s*(D\d+)\b",
                                       text):
                    if rule in RULES:
                        expected.add(
                            (core.relpath(path, fixture_dir),
                             idx + 1, rule))
    findings, _, _ = analyze([fixture_dir], fixture_dir)
    got = {(f.path, f.line, f.rule) for f in findings}
    ok = True
    for miss in sorted(expected - got):
        print("hotpath self-test: MISSED expected finding "
              "%s:%d [%s]" % miss)
        ok = False
    for extra in sorted(got - expected):
        print("hotpath self-test: UNEXPECTED finding %s:%d [%s]"
              % extra)
        ok = False
    print("hotpath self-test: %d expected findings, %d reported, %s"
          % (len(expected), len(got), "OK" if ok else "FAIL"))
    return 0 if ok and expected else 1


def main(argv):
    if "--self-test" in argv:
        return self_test()
    dump_reach = "--dump-reach" in argv
    paths = [a for a in argv if not a.startswith("-")]
    if not paths:
        paths = [os.path.join(REPO_ROOT, "src")]
    bad = [p for p in paths if not os.path.exists(p)]
    if bad:
        print("starnuma-hotpath: no such path: %s" % ", ".join(bad),
              file=sys.stderr)
        return 2
    findings, nroots, nreach = analyze(paths, REPO_ROOT, dump_reach)
    for f in findings:
        print(f)
    print("starnuma-hotpath: D9 roots=%d reachable=%d" %
          (nroots, nreach))
    print("starnuma-hotpath: rule counts: " +
          " ".join("%s=%d" % (r, sum(1 for f in findings
                                     if f.rule == r))
                   for r in RULES))
    if nroots == 0:
        print("starnuma-hotpath: ERROR: no '// %s' roots found — "
              "the hot-path audit is vacuous (annotations deleted?)"
              % HOT_ANNOTATION, file=sys.stderr)
        return 1
    if findings:
        print("starnuma-hotpath: %d finding(s)" % len(findings))
        return 1
    print("starnuma-hotpath: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
