"""Shared lexing and indexing machinery for the starnuma static
checkers (DESIGN.md §8, §13).

Two consumers:

* ``starnuma_lint.py``  — line/regex rules D1-D8 (determinism, style,
  layering, lock discipline),
* ``starnuma_hotpath.py`` — the interprocedural analyzer behind rules
  D9-D11 (hot-path discipline, decoder bounds, strong-type
  boundaries).

This module owns everything both need: comment/string masking,
annotation lookup, the ``Finding`` record, file walking — plus the
C++ tokenizer and the function indexer (definitions, body extents,
class-qualified names, call extraction) that make a call graph
possible without a clang dependency.

The tokenizer is deliberately an approximation: it never expands
the preprocessor and treats templates structurally, not
semantically. The indexer's contract is "good enough to build an
over-approximate name-based call graph" (see DESIGN.md §13 for the
documented limitations), not "a C++ front end".
"""

import os
import re


SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (
            self.path,
            self.line,
            self.rule,
            self.message,
        )


def _is_raw_string_start(text, i):
    """True when the '\"' at @p i opens a raw string literal: it is
    preceded by an 'R' that begins the literal (possibly behind a
    u/U/L/u8 encoding prefix), not by an identifier that merely ends
    in R."""
    if i < 1 or text[i - 1] != "R":
        return False
    j = i - 2
    # Optional encoding prefix directly before the R.
    if j >= 0 and text[j] == "8" and j >= 1 and text[j - 1] == "u":
        j -= 2
    elif j >= 0 and text[j] in "uUL":
        j -= 1
    return j < 0 or not (text[j].isalnum() or text[j] == "_")


def _is_digit_separator(text, i):
    """True when the \"'\" at @p i is a C++14 digit separator: the
    token it sits in starts with a digit (so ``0xDEAD'BEEF`` and
    ``1'000'000`` pass while ``case'a'`` and ``L'x'`` do not)."""
    if i < 1 or i + 1 >= len(text):
        return False
    if text[i + 1] not in "0123456789abcdefABCDEF":
        return False
    j = i - 1
    while j >= 0 and (text[j].isalnum() or text[j] in "_.'"):
        j -= 1
    return j + 1 < i + 1 and text[j + 1].isdigit()


def _blank_span(seg):
    """@p seg with its interior blanked: the first and last chars
    (the quotes) survive, every interior char becomes a space, and
    newlines are preserved so a literal spanning physical lines (a
    backslash continuation, a raw string) cannot collapse the line
    structure."""
    if len(seg) < 2:
        return seg
    return seg[0] + "".join(
        ch if ch == "\n" else " " for ch in seg[1:-1]) + seg[-1]


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals (including raw
    strings), preserving line structure, so token scans do not fire
    inside either. Digit separators (``1'000'000``) pass through
    untouched instead of being misread as char-literal quotes."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(
                "".join(ch if ch == "\n" else " " for ch in text[i:j])
            )
            i = j
        elif c == '"' and _is_raw_string_start(text, i):
            # R"delim( ... )delim": no escapes; the terminator is the
            # exact )delim" sequence. Newlines inside are preserved.
            p = text.find("(", i + 1)
            if p < 0:
                out.append(c)
                i += 1
                continue
            delim = text[i + 1:p]
            term = ")" + delim + '"'
            j = text.find(term, p + 1)
            j = n if j < 0 else j + len(term)
            out.append(_blank_span(text[i:j]))
            i = j
        elif c == "'" and _is_digit_separator(text, i):
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(_blank_span(text[i:j]))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_preprocessor(code):
    """Blank out preprocessor directives (including backslash
    continuations) from already comment-stripped @p code, preserving
    line structure. Keeps macro bodies (e.g. the multi-line
    ``sn_assert`` definition) from confusing the token-level
    indexer; regex rules that need ``#include`` lines read the raw
    text instead."""
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while True:
                cont = lines[i].rstrip().endswith("\\")
                lines[i] = ""
                if not cont or i + 1 >= len(lines):
                    break
                i += 1
        i += 1
    return "\n".join(lines)


def mask_nested_parens(s):
    """Blank out everything inside parentheses, so only top-level
    tokens of an expression remain visible."""
    out, depth = [], 0
    for ch in s:
        if ch == "(":
            depth += 1
            out.append("(")
        elif ch == ")":
            depth = max(0, depth - 1)
            out.append(")")
        else:
            out.append(" " if depth > 0 else ch)
    return "".join(out)


def has_annotation_above(raw_lines, idx, annotation):
    """True when @p annotation appears on line @p idx or in the
    contiguous comment block directly above it."""
    if annotation in raw_lines[idx]:
        return True
    j = idx - 1
    while j >= 0:
        stripped = raw_lines[j].strip()
        if not (stripped.startswith("//") or stripped.startswith("*")
                or stripped.startswith("/*") or stripped == ""):
            break
        if annotation in raw_lines[j]:
            return True
        j -= 1
    return False


def collect_decl_names(code, decl_re):
    """Identifiers declared (anywhere in @p code, comments stripped)
    with a type matching @p decl_re: variables, members, references,
    and functions returning one."""
    names = set()
    for m in decl_re.finditer(code):
        # Match the template argument list's angle brackets.
        i = m.end() - 1
        depth = 0
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        rest = code[i + 1:]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", rest)
        if dm:
            names.add(dm.group(1))
    return names


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def file_includes(raw_lines):
    """[(line_index, include_path)] of every quoted include."""
    out = []
    for idx, line in enumerate(raw_lines):
        m = INCLUDE_RE.match(line)
        if m:
            out.append((idx, m.group(1)))
    return out


def relpath(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def iter_source_files(paths):
    """Deterministically-ordered C++ source files under @p paths
    (directories are walked recursively; bare files pass through)."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in sorted(os.walk(p)):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        elif p.endswith(SOURCE_EXTS):
            files.append(p)
    return files


def read_source(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


# ---------------------------------------------------------------
# Tokenizer + function indexer (the C++-aware half).
# ---------------------------------------------------------------

# Only '::' and '->' need to survive as units (qualification and
# member access feed name resolution); every other operator may fall
# apart into single characters without hurting the analysis. Digit
# separators ("'" between digits) stay inside the number token.
TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d(?:[\w.]|'\w)*|::|->|\S")


class Token:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):
        return "Token(%r, %d)" % (self.text, self.line)


def tokenize(code):
    """Token stream of comment/string/preprocessor-stripped C++
    @p code, each token tagged with its 1-based line."""
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        toks.append(Token(m.group(0), line))
    return toks


def is_ident(text):
    return bool(text) and (text[0].isalpha() or text[0] == "_")


# Identifier-like tokens that can precede '(' without naming a
# callable, and never start a function definition.
NON_CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "alignas", "decltype", "noexcept", "case", "do",
    "else", "new", "delete", "throw", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "static_assert", "defined",
    "typeid", "co_return", "co_await", "co_yield", "requires",
    "this", "operator", "template", "typename", "using", "typedef",
    "void", "bool", "char", "short", "int", "long", "float",
    "double", "signed", "unsigned", "auto", "const", "constexpr",
    "explicit",
))

# Tokens that may sit between a definition's ')' and its body '{'.
POST_PAREN_QUALIFIERS = frozenset((
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "&", "&&", "try",
))


class FunctionDef:
    """One function definition found in a translation unit."""

    __slots__ = ("name", "qualname", "rel", "decl_line", "name_line",
                 "body_open_line", "body_close_line", "body_start",
                 "body_end", "param_start", "param_end", "file_key")

    def __init__(self, name, qualname, rel, decl_line, name_line):
        self.name = name
        self.qualname = qualname
        self.rel = rel
        self.decl_line = decl_line
        self.name_line = name_line
        self.body_open_line = 0
        self.body_close_line = 0
        self.body_start = 0   # token index just inside '{'
        self.body_end = 0     # token index of the matching '}'
        self.param_start = 0  # token index just inside the decl '('
        self.param_end = 0    # token index of the matching ')'
        self.file_key = None  # set by the cross-file index

    def __repr__(self):
        return "FunctionDef(%s @ %s:%d)" % (
            self.qualname, self.rel, self.name_line)


def _match_paren(toks, i):
    """Index just past the ')' matching the '(' at @p i, or
    len(toks) when unbalanced."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _match_brace(toks, i):
    """Index just past the '}' matching the '{' at @p i."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _skip_template_args(toks, i):
    """Index just past the '<...>' starting at @p i (balanced angle
    count; '>>' arrives as two '>' tokens). Bails at '{'/';' so a
    stray comparison cannot eat the file."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t in ("{", ";"):
            return i
        i += 1
    return n


def _operator_name(toks, i):
    """When the tokens before the '(' at @p i spell ``operator<op>``,
    return (name, index_of_operator_token); else (None, i)."""
    j = i - 1
    syms = []
    while j >= 0 and not is_ident(toks[j].text) and \
            toks[j].text not in "(){};,":
        syms.insert(0, toks[j].text)
        j -= 1
    if j >= 0 and toks[j].text == "operator" and syms:
        return "operator" + "".join(syms), j
    return None, i


def _decl_start(toks, name_idx):
    """Token index where the declaration containing @p name_idx
    starts (just after the previous ';', '{', '}', or access
    specifier)."""
    j = name_idx - 1
    while j >= 0:
        t = toks[j].text
        if t in (";", "{", "}"):
            return j + 1
        if t == ":" and j >= 1 and toks[j - 1].text in (
                "public", "private", "protected"):
            return j + 1
        j -= 1
    return 0


def _definition_body(toks, after_paren):
    """When the token stream after a parameter list denotes a
    function definition, return the index of its body '{';
    else None."""
    i = after_paren
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "{":
            return i
        if t in POST_PAREN_QUALIFIERS:
            i += 1
            # noexcept(...) / attribute-macro(...) argument lists.
            if i < n and toks[i].text == "(":
                i = _match_paren(toks, i)
            continue
        if t == "->":
            # Trailing return type: consume up to the body or a
            # terminator, allowing nested parens/angles.
            i += 1
            while i < n and toks[i].text not in ("{", ";", "="):
                if toks[i].text == "(":
                    i = _match_paren(toks, i)
                else:
                    i += 1
            continue
        if t == ":":
            # Constructor initializer list: `member(args)` /
            # `member{args}` groups separated by ','. The first '{'
            # seen while *not* expecting a member's own init group
            # is the body.
            i += 1
            expect_member = True
            while i < n:
                t2 = toks[i].text
                if expect_member:
                    if not (is_ident(t2) or t2 == "::"):
                        return None
                    while i < n and (is_ident(toks[i].text) or
                                     toks[i].text == "::"):
                        i += 1
                    if i < n and toks[i].text == "<":
                        i = _skip_template_args(toks, i)
                    if i >= n:
                        return None
                    if toks[i].text == "(":
                        i = _match_paren(toks, i)
                    elif toks[i].text == "{":
                        i = _match_brace(toks, i)
                    else:
                        return None
                    expect_member = False
                elif t2 == ",":
                    i += 1
                    expect_member = True
                elif t2 == "{":
                    return i
                elif t2 == ".":
                    # Pack expansion `member(args)...` arrives as
                    # three '.' tokens.
                    i += 1
                else:
                    return None
            return None
        if t in (";", "=", ",", ")"):
            return None
        if is_ident(t) or t == "[" or t == "]":
            # __attribute__((...)) / [[attributes]] / macro names.
            i += 1
            if i < n and toks[i].text == "(":
                i = _match_paren(toks, i)
            continue
        return None
    return None


def index_functions(toks, rel):
    """Scan one file's token stream for function definitions.

    Returns (functions, tokens) where each FunctionDef carries its
    body extent as token indices into @p toks. The scanner tracks a
    scope stack (namespace / class / function / block) so that
    in-class method definitions pick up a ``Class::name`` qualified
    name and braces inside bodies never desynchronize the walk.
    """
    funcs = []
    # Stack entries: ('ns', name) | ('class', name) | ('fn', f) |
    # ('block', None)
    stack = []
    pending = {}  # body '{' token index -> FunctionDef
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        top = stack[-1][0] if stack else "ns"
        at_decl_scope = top in ("ns", "class")

        if t == "template" and i + 1 < n and \
                toks[i + 1].text == "<":
            i = _skip_template_args(toks, i + 1)
            continue

        if at_decl_scope and t in ("using", "typedef",
                                   "static_assert"):
            while i < n and toks[i].text != ";":
                i += 1
            i += 1
            continue

        if at_decl_scope and t == "enum":
            # enum / enum class: skip to the closing brace or ';'.
            j = i + 1
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
            if j < n and toks[j].text == "{":
                depth = 0
                while j < n:
                    if toks[j].text == "{":
                        depth += 1
                    elif toks[j].text == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
            i = j + 1
            continue

        if at_decl_scope and t == "namespace":
            j = i + 1
            name = ""
            while j < n and toks[j].text not in ("{", ";", "="):
                if is_ident(toks[j].text):
                    name = toks[j].text
                j += 1
            if j < n and toks[j].text == "{":
                stack.append(("ns", name))
                i = j + 1
            else:
                while j < n and toks[j].text != ";":
                    j += 1
                i = j + 1
            continue

        if at_decl_scope and t in ("class", "struct", "union"):
            j = i + 1
            head = []
            while j < n and toks[j].text not in ("{", ";"):
                head.append(toks[j].text)
                j += 1
            if j >= n or toks[j].text == ";":
                i = j + 1
                continue
            # Cut the base clause; '::' survives as its own token,
            # so a bare ':' is always the base-clause colon.
            if ":" in head:
                head = head[:head.index(":")]
            idents = [h for h in head
                      if is_ident(h) and h not in
                      ("final", "alignas")]
            stack.append(("class",
                          idents[-1] if idents else "<anonymous>"))
            i = j + 1
            continue

        if t == "(" and at_decl_scope and i > 0:
            name_tok = None
            name_idx = i - 1
            prev = toks[i - 1].text
            if is_ident(prev) and prev not in NON_CALL_KEYWORDS:
                name_tok = prev
                if i >= 2 and toks[i - 2].text == "~":
                    name_tok = "~" + name_tok
                    name_idx = i - 2
            else:
                op_name, op_idx = _operator_name(toks, i)
                if op_name:
                    name_tok, name_idx = op_name, op_idx
            if name_tok:
                after = _match_paren(toks, i)
                body = _definition_body(toks, after)
                if body is not None:
                    qual = None
                    if name_idx >= 2 and \
                            toks[name_idx - 1].text == "::" and \
                            is_ident(toks[name_idx - 2].text):
                        qual = toks[name_idx - 2].text
                    else:
                        for kind, sname in reversed(stack):
                            if kind == "class":
                                qual = sname
                                break
                    qualname = ("%s::%s" % (qual, name_tok)
                                if qual else name_tok)
                    decl_idx = _decl_start(toks, name_idx)
                    f = FunctionDef(
                        name_tok, qualname, rel,
                        toks[decl_idx].line if decl_idx < n
                        else toks[name_idx].line,
                        toks[name_idx].line)
                    f.param_start = i + 1
                    f.param_end = after - 1
                    f.body_open_line = toks[body].line
                    # First registration wins: a call expression in
                    # a default argument or the last member
                    # initializer of a constructor sits between the
                    # real definition's '(' and its body '{', and
                    # must not steal the body from the definition
                    # that already claimed it.
                    pending.setdefault(body, f)
            i += 1
            continue

        if t == "{":
            f = pending.pop(i, None)
            if f is not None:
                f.body_start = i + 1
                stack.append(("fn", f))
            else:
                stack.append(("block", None))
            i += 1
            continue

        if t == "}":
            if stack:
                kind, payload = stack.pop()
                if kind == "fn":
                    payload.body_end = i
                    payload.body_close_line = toks[i].line
                    funcs.append(payload)
            i += 1
            continue

        i += 1
    return funcs


# Tokens that never name a parameter (type keywords and qualifiers
# that can end a declarator).
_PARAM_NON_NAMES = frozenset((
    "const", "constexpr", "volatile", "unsigned", "signed", "void",
    "bool", "char", "short", "int", "long", "float", "double",
    "auto", "struct", "class", "enum", "typename", "mutable",
))


def param_names(toks, f):
    """Parameter names of a definition, in order; ``None`` for an
    unnamed parameter (positions are preserved so call arguments can
    be matched up). Default arguments and nested template/paren
    groups are skipped."""
    names = []
    depth = 0
    seg = []
    j = f.param_start
    while j <= f.param_end:
        at_end = j == f.param_end
        t = toks[j].text if not at_end else ","
        if t in ("(", "[", "{", "<"):
            depth += 1
        elif t in (")", "]", "}", ">"):
            depth = max(0, depth - 1)
        elif t == "," and depth == 0:
            if seg and not (len(seg) == 1 and seg[0] == "void"):
                cut = seg.index("=") if "=" in seg else len(seg)
                name = None
                for s in reversed(seg[:cut]):
                    if is_ident(s) and s not in _PARAM_NON_NAMES:
                        name = s
                        break
                names.append(name)
            seg = []
            j += 1
            continue
        if depth == 0:
            seg.append(t)
        j += 1
    return names


class SourceFile:
    """One parsed C++ file: raw lines for annotation lookup, masked
    code lines for regex rules, and the token/function index for the
    interprocedural analyzers."""

    __slots__ = ("rel", "raw_lines", "code_lines", "toks", "funcs")

    def __init__(self, rel, raw):
        self.rel = rel
        self.raw_lines = raw.splitlines()
        code = strip_comments_and_strings(raw)
        self.code_lines = code.split("\n")
        self.toks = tokenize(strip_preprocessor(code))
        self.funcs = index_functions(self.toks, rel)
        for f in self.funcs:
            f.file_key = rel


def load_tree(paths, root):
    """rel -> SourceFile for every C++ file under @p paths."""
    tree = {}
    for path in iter_source_files(paths):
        rel = relpath(path, root)
        tree[rel] = SourceFile(rel, read_source(path))
    return tree


def line_annotated(sf, line, annotation):
    """Annotation on 1-based @p line or the comment block above."""
    if line < 1 or line > len(sf.raw_lines):
        return False
    return has_annotation_above(sf.raw_lines, line - 1, annotation)


def func_annotated(sf, f, annotation):
    """Annotation anywhere on the declaration span (first decl line
    through the body-opening line) or in the comment block above."""
    lo = max(0, f.decl_line - 1)
    hi = min(f.body_open_line, len(sf.raw_lines))
    for j in range(lo, hi):
        if annotation in sf.raw_lines[j]:
            return True
    return has_annotation_above(sf.raw_lines, lo, annotation)


def class_of(f):
    """Class part of @p f's qualified name, or None for a free
    function."""
    return f.qualname.rsplit("::", 1)[0] if "::" in f.qualname \
        else None


def call_context(toks, j):
    """(qual, receiver) of the call named at token @p j: ``X::f(``
    gives ("X", None), ``obj.f(``/``obj->f(`` gives (None, "obj"),
    ``obj[i].f(`` gives (None, "obj[]") (an element of a subscripted
    container), a member call on any other expression (None, ""),
    and a bare call ``f(`` (None, None)."""
    if j < 2:
        return None, None
    prv, k, depth = toks[j - 1].text, j - 2, 0
    if prv == "::" and is_ident(toks[k].text):
        return toks[k].text, None
    if prv not in (".", "->"):
        return None, None
    if is_ident(toks[k].text):
        return None, toks[k].text
    while k > 0:  # back from ']' to its matching '['
        depth += {"]": 1, "[": -1}.get(toks[k].text, 0)
        if depth <= 0:
            break
        k -= 1
    if depth == 0 and k > 0 and toks[k].text == "[" and \
            is_ident(toks[k - 1].text):
        return None, toks[k - 1].text + "[]"
    return None, ""


# Words a declaration regex may capture that are not variable names.
_DECL_NON_NAMES = frozenset((
    "const", "constexpr", "final", "override", "operator", "public",
    "private", "protected", "return", "new",
))


class CallGraph:
    """Name-based over-approximate call resolution: a simple name
    resolves to every indexed definition of that name; a qualified
    call ``X::f`` prefers definitions of class X; ``std::f`` with no
    indexed definition resolves to nothing. A bare call ``f(`` (or
    ``this->f(``) inside a member function of class C resolves to
    C's own definitions of f when C has any, as C++ name lookup
    does. A member call narrows to the classes its receiver is
    declared with anywhere in the tree (``Cls obj``, ``Cls<T> obj``,
    and ``std::vector<Cls> obj`` for ``obj[i].f(``); a receiver of
    unknown type keeps every candidate."""

    def __init__(self, tree, extra_classes=()):
        self.tree = tree
        self.by_name = {}
        self.ctor_classes = {}
        classes = set(extra_classes)
        for sf in tree.values():
            for f in sf.funcs:
                self.by_name.setdefault(f.name, []).append(f)
                qual = f.qualname.split("::")[0]
                if f.name == qual and "::" in f.qualname:
                    self.ctor_classes.setdefault(qual, []).append(f)
                if class_of(f):
                    classes.add(class_of(f))
        self.var_classes = self._declared_classes(sorted(classes))

    def _declared_classes(self, classes):
        """Declared name -> set of the classes it is declared with
        (``name[]`` for the elements of a ``std::vector<Cls>``)."""
        out = {}
        if not classes:
            return out
        alt = "|".join(re.escape(c) for c in classes)
        decl_re = re.compile(
            r"\b(%s)\b\s*(?:<(?:[^<>;{}]|<[^<>;{}]*>)*>)?"
            r"\s*[&*]?\s*&?\s*([A-Za-z_]\w*)" % alt)
        vec_re = re.compile(r"\bvector\s*<\s*(?:[A-Za-z_]\w*\s*::\s*)*"
                            r"(%s)\s*>\s*&?\s*([A-Za-z_]\w*)" % alt)
        for sf in self.tree.values():
            code = "\n".join(sf.code_lines)
            for rx, suffix in ((decl_re, ""), (vec_re, "[]")):
                for m in rx.finditer(code):
                    name = m.group(2)
                    if name not in _DECL_NON_NAMES and \
                            name not in NON_CALL_KEYWORDS:
                        out.setdefault(name + suffix, set()).add(
                            m.group(1))
        return out

    def resolve(self, name, qual, recv=None, caller=None):
        """Definitions a call to @p name may reach; @p caller is the
        function the call is written in."""
        cands = self.by_name.get(name, [])
        if qual:
            exact = [f for f in cands
                     if f.qualname == "%s::%s" % (qual, name)]
            if exact:
                return exact
            if qual == "std":
                return []
            return cands
        own = class_of(caller) if caller else None
        if own and recv in (None, "this"):
            mine = [f for f in cands if class_of(f) == own]
            if mine:
                return mine
        owners = self.var_classes.get(recv) if recv else None
        if owners and len(cands) > 1:
            filt = [f for f in cands if class_of(f) in owners]
            if filt:
                return filt
        return cands
