#!/usr/bin/env python3
"""ssmst-lint: machine-check the substrate contract (rules R1-R5).

The KKM reproduction's correctness rests on a handful of hand-written
invariants documented in ROADMAP.md and src/util/contract.hpp: steady-state
rounds allocate nothing, protocol steps never write arena stripes, the
fork-join ThreadPool is not re-entrant, result paths are deterministic, and
register headers are trivially copyable. The runtime tests pin these on the
paths they happen to execute; this pass proves them on the program text.

Rules (catalogue with examples in tools/lint/README.md):

  R1  no-hot-alloc      No heap-allocating construct is reachable from a
                        function annotated SSMST_HOT_PATH. The call graph is
                        walked from every annotated root; SSMST_ALLOC_OK
                        prunes a function (and its callees) from the walk.
                        SSMST_HOT_PATH merges by bare name (an extra root
                        only adds checks, and virtual kernels are annotated
                        once in the interface header); SSMST_ALLOC_OK binds
                        to the annotated definition's file (or its
                        stem-paired header/.cpp) only — it never leaks to
                        same-named functions in unrelated files.
                        Growth calls (push_back/resize/...) on warm member
                        buffers (trailing-underscore bases) are reported as
                        `warm`, not violations: capacity reuse is the idiom
                        the zero-alloc tests pin at runtime.
  R2  no-step-stripe-write
                        Protocol step bodies (step, step_changed) never
                        allocate label stripes (alloc_levels/alloc_pieces)
                        and never write through mutable stripe accessors
                        (roots()/endp()/parents()/endp_cnt()/top_perm()/
                        bot_perm() subscript-assign).
  R3  no-pool-reentry   No sync_round/async_unit call lexically inside a
                        lambda submitted to the ThreadPool (run or
                        parallel_for on a pool object): the fork-join pool
                        is not re-entrant.
  R4  determinism       src/ result paths must not consult rand()/srand(),
                        std::random_device, wall clocks (time, clock,
                        gettimeofday, steady_clock & friends), or
                        iteration-order-dependent unordered_* containers.
  R5  register-header-assert
                        Every type X used as Protocol<X> must carry a
                        static_assert(std::is_trivially_copyable_v<X>) (or
                        the SSMST_REGISTER_HEADER(X) macro) somewhere in the
                        defining file's include closure.

Suppression: `// ssmst-lint: allow(Rn): <reason>` on the flagged line or in
the contiguous comment block directly above it (comment-only lines; the
first blank or code line ends the block). A suppression without a reason is
itself reported (status `bad-suppression`).

Frontends. With --compile-commands and a working libclang (python3-clang),
function extents and annotations come from the clang AST; everywhere else a
token-level frontend parses the sources directly. Both feed the same rule
engine over a per-function IR, so CI (libclang) and the bare container
(tokens) enforce the same contract. The token frontend resolves calls by
name, restricted to the root file's transitive quoted-include closure plus
paired .cpp-by-stem, and does not chase member calls on foreign objects
(e.g. pool_->run): their lambda arguments are still scanned in place, and
the callee bodies are covered when annotated as roots themselves.

Exit status: 0 when no violations (warm/allowed findings do not fail),
1 when violations or bad suppressions exist, 2 on usage error.
"""

import argparse
import os
import re
import sys
from collections import defaultdict

# --------------------------------------------------------------------------
# Rule tables
# --------------------------------------------------------------------------

ALL_RULES = ("R1", "R2", "R3", "R4", "R5")

HOT_MACRO = "SSMST_HOT_PATH"
ALLOC_OK_MACRO = "SSMST_ALLOC_OK"

# R1: unconditional allocation constructs (identifier heads of calls).
ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "to_string",
}
# R1: growth members -- allocate when capacity is exceeded.
GROWTH_MEMBERS = {
    "push_back", "emplace_back", "emplace", "push_front", "emplace_front",
    "resize", "reserve", "assign", "insert", "append",
}
# R2: protocol step entry points and the arena-mutating surface.
STEP_NAMES = {"step", "step_changed"}
ARENA_ALLOC_CALLS = {"alloc_levels", "alloc_pieces"}
STRIPE_ACCESSORS = {"roots", "endp", "parents", "endp_cnt", "top_perm",
                    "bot_perm"}
# R3: pool submission members and the banned engine entry points.
POOL_SUBMIT_MEMBERS = {"run", "parallel_for"}
ENGINE_ENTRY_POINTS = {"sync_round", "async_unit"}
# R4: nondeterminism sources.
R4_CALLS = {"rand", "srand", "time", "clock", "gettimeofday", "random"}
R4_IDENTS = {
    "random_device", "steady_clock", "system_clock",
    "high_resolution_clock", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "new", "delete", "throw", "co_await",
    "co_return", "co_yield", "typeid", "noexcept", "requires", "assert",
}

SUPPRESS_RE = re.compile(
    r"ssmst-lint:\s*allow\((R[1-5])\)\s*(?::\s*(\S.*))?")


class Finding:
    __slots__ = ("rule", "path", "line", "status", "message")

    def __init__(self, rule, path, line, status, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.status = status  # violation | warm | allowed | bad-suppression
        self.message = message


# --------------------------------------------------------------------------
# Lexing: strip comments/strings (preserving line structure), keep comment
# text per line for suppression scanning, then tokenize.
# --------------------------------------------------------------------------

def split_code_and_comments(text):
    """Returns (code, comments) where `code` has comments and string/char
    literal *contents* blanked but identical line numbering, and `comments`
    maps line -> concatenated comment text on that line."""
    out = []
    comments = defaultdict(str)
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            out.append(c)
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            comments[line] += text[i:j]
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            chunk = text[i:j]
            for k, part in enumerate(chunk.split("\n")):
                comments[line + k] += part
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j
        elif c == '"' or c == "'":
            # Raw strings: R"delim( ... )delim"
            if c == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1:i + 20])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i + 1)
                    j = n if j < 0 else j + len(close)
                    chunk = text[i:j]
                    out.append('"' +
                               "".join(ch if ch == "\n" else " "
                                       for ch in chunk[1:-1]) + '"'
                               if j < n else chunk)
                    line += chunk.count("\n")
                    i = j
                    continue
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break  # unterminated; bail at EOL
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out), comments


TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifier / keyword
    r"|\d[\w.+-]*"                  # numeric literal (loose)
    r"|::|->|\.\.\.|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|<<|>>"
    r"|[{}()\[\];,<>=.&*+\-/!?:|^%~#\"']")


def tokenize(code):
    """Returns list of (text, line)."""
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        line += code.count("\n", pos, m.start())
        pos = m.start()
        toks.append((m.group(0), line))
    return toks


def parse_suppressions(comments):
    """line -> list of (rule, reason_or_None) from comment text."""
    sup = defaultdict(list)
    for ln, text in comments.items():
        for m in SUPPRESS_RE.finditer(text):
            sup[ln].append((m.group(1), m.group(2)))
    return sup


# --------------------------------------------------------------------------
# Per-function IR
# --------------------------------------------------------------------------

class Func:
    __slots__ = ("name", "path", "start_line", "end_line", "annotations",
                 "body")  # body: token slice [(text, line)]

    def __init__(self, name, path, start_line, end_line, annotations, body):
        self.name = name
        self.path = path
        self.start_line = start_line
        self.end_line = end_line
        self.annotations = annotations
        self.body = body

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Func {self.name} {self.path}:{self.start_line}>"


class SourceFile:
    __slots__ = ("path", "code", "code_lines", "comments", "tokens",
                 "suppressions", "functions", "decl_annotations", "includes",
                 "pp_lines")

    def __init__(self, path, text):
        self.path = path
        self.code, self.comments = split_code_and_comments(text)
        self.code_lines = self.code.split("\n")
        self.tokens = tokenize(self.code)
        self.suppressions = parse_suppressions(self.comments)
        self.includes = re.findall(r'#\s*include\s*"([^"]+)"', text)
        self.pp_lines = {i + 1 for i, l in enumerate(self.code_lines)
                         if l.lstrip().startswith("#")}
        self.functions, self.decl_annotations = extract_functions(
            self.tokens, path)

    def line_is_comment_only(self, ln):
        # True when line `ln` of the original file holds a comment and
        # nothing else: blank in the stripped code, with comment text
        # recorded. A genuinely blank line is NOT comment-only — it ends a
        # suppression's comment block.
        if not 1 <= ln <= len(self.code_lines):
            return False
        return (self.code_lines[ln - 1].strip() == ""
                and self.comments.get(ln, "").strip() != "")

    def suppression_for(self, rule, line):
        """Suppression covering `line`: on the line itself or in the
        contiguous comment block directly above (the walk stops at the
        first blank or code line). Returns (found, reason)."""
        for (r, reason) in self.suppressions.get(line, []):
            if r == rule:
                return True, reason
        ln = line - 1
        while ln >= 1 and self.line_is_comment_only(ln):
            for (r, reason) in self.suppressions.get(ln, []):
                if r == rule:
                    return True, reason
            ln -= 1
        return False, None


def match_paren(tokens, i):
    """Index just past the `)` matching tokens[i] == '('."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def match_brace(tokens, i):
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_initializer_list(tokens, i):
    """tokens[i] == ':' right after a constructor's parameter list (and
    qualifiers). Skips the `name(args)` / `name{args}` initializer groups
    and returns the index of the body '{', or -1 when what follows is not
    a member-initializer list."""
    n = len(tokens)
    j = i + 1
    while True:
        if j >= n or not re.match(r"[A-Za-z_]", tokens[j][0]):
            return -1
        j += 1
        while (j + 1 < n and tokens[j][0] == "::"
               and re.match(r"[A-Za-z_]", tokens[j + 1][0])):
            j += 2
        if j < n and tokens[j][0] == "<":
            # base-class initializer with template args: Base<T>(x)
            depth = 0
            while j < n:
                u = tokens[j][0]
                if u == "<":
                    depth += 1
                elif u == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                elif u in ("(", "{", ")", ";"):
                    return -1
                j += 1
        if j >= n:
            return -1
        if tokens[j][0] == "(":
            j = match_paren(tokens, j)
        elif tokens[j][0] == "{":
            j = match_brace(tokens, j)
        else:
            return -1
        if j < n and tokens[j][0] == ",":
            j += 1
            continue
        if j < n and tokens[j][0] == "{":
            return j
        return -1


def extract_functions(tokens, path):
    """Heuristic function-definition extraction.

    Finds `name ( ... ) [qualifiers] {` sequences, records annotation
    macros appearing since the previous statement boundary, and slices the
    brace-balanced body. Declarations (`name (...) ... ;`) annotated with a
    contract macro are recorded separately so a header's SSMST_HOT_PATH
    carries over to the definition in the paired .cpp."""
    funcs = []
    decl_ann = defaultdict(set)
    n = len(tokens)
    stmt_start = 0  # token index after last ; { } or preprocessor-ish break
    i = 0
    while i < n:
        t, ln = tokens[i]
        if t in (";", "{", "}"):
            stmt_start = i + 1
            i += 1
            continue
        if t == "(" and i > 0:
            name, name_ln = tokens[i - 1]
            if (not re.match(r"[A-Za-z_]", name)
                    or name in CPP_KEYWORDS):
                i += 1
                continue
            close = match_paren(tokens, i)
            # Scan qualifiers after the parameter list up to `{`, `;`, or
            # something that disqualifies a function definition.
            j = close
            is_def = False
            while j < n:
                q = tokens[j][0]
                if q == "{":
                    is_def = True
                    break
                if q == ":":
                    # constructor member-initializer list: attribute the
                    # brace body to the constructor, not to the last
                    # initializer's name
                    body_idx = skip_initializer_list(tokens, j)
                    if body_idx >= 0:
                        j = body_idx
                        is_def = True
                    break
                if q in (";", ")", ",", "(", "}"):
                    break
                if q in ("const", "noexcept", "override", "final", "->",
                         "&", "&&", "::", "<", ">", "=", "0", "try",
                         "requires") or re.match(r"[A-Za-z_]", q):
                    j += 1
                    continue
                break
            ann = {tok for tok, _ in tokens[stmt_start:i]
                   if tok in (HOT_MACRO, ALLOC_OK_MACRO)}
            if is_def:
                # `= default`-style and control flow got filtered above; a
                # body starting right after counts as a definition.
                end = match_brace(tokens, j)
                body = tokens[j:end]
                end_line = body[-1][1] if body else name_ln
                funcs.append(Func(name, path, name_ln, end_line, ann, body))
                i = j + 1  # walk *into* the body: nested lambdas/members
                stmt_start = i
                continue
            if ann:
                decl_ann[name] |= ann
            i = close
            continue
        i += 1
    return funcs, dict(decl_ann)


# --------------------------------------------------------------------------
# Project model: files, include closure, call resolution
# --------------------------------------------------------------------------

class Project:
    def __init__(self, root, paths):
        self.root = root
        self.files = {}
        for p in paths:
            try:
                with open(p, encoding="utf-8", errors="replace") as f:
                    text = f.read()
            except OSError as e:
                print(f"ssmst-lint: cannot read {p}: {e}", file=sys.stderr)
                continue
            rel = os.path.relpath(p, root)
            self.files[rel] = SourceFile(rel, text)
        # Annotation maps. SSMST_HOT_PATH merges globally by bare name:
        # it over-approximates (an extra root only adds checks) and virtual
        # step kernels are annotated once in the interface header.
        # SSMST_ALLOC_OK *prunes* the R1 walk, so it must never leak
        # between same-named functions: it is keyed by the file it appears
        # in and binds only to definitions in that file or its stem-paired
        # header/.cpp (a header declaration annotating its out-of-line
        # definition).
        self.hot_names = set()
        self.alloc_ok_at = defaultdict(set)  # name -> {rel paths annotated}
        self.funcs_by_name = defaultdict(list)
        for rel, sf in self.files.items():
            for name, ann in sf.decl_annotations.items():
                if HOT_MACRO in ann:
                    self.hot_names.add(name)
                if ALLOC_OK_MACRO in ann:
                    self.alloc_ok_at[name].add(rel)
            for fn in sf.functions:
                self.funcs_by_name[fn.name].append(fn)
                if HOT_MACRO in fn.annotations:
                    self.hot_names.add(fn.name)
                if ALLOC_OK_MACRO in fn.annotations:
                    self.alloc_ok_at[fn.name].add(rel)
        self._closures = {}

    def resolve_include(self, inc):
        """Quoted include -> repo-relative path, mirroring the build's
        -Isrc include directory."""
        for cand in (os.path.join("src", inc), inc):
            if cand in self.files:
                return cand
        return None

    def closure(self, rel):
        """Transitive quoted-include closure of `rel` (incl. itself), plus
        the paired .cpp of every header in it: the definition home of
        anything the file can name."""
        if rel in self._closures:
            return self._closures[rel]
        seen = set()
        stack = [rel]
        while stack:
            cur = stack.pop()
            if cur in seen or cur not in self.files:
                continue
            seen.add(cur)
            for inc in self.files[cur].includes:
                nxt = self.resolve_include(inc)
                if nxt:
                    stack.append(nxt)
        for h in list(seen):
            stem, ext = os.path.splitext(h)
            if ext in (".hpp", ".h"):
                cpp = stem + ".cpp"
                if cpp in self.files:
                    seen.add(cpp)
        self._closures[rel] = seen
        return seen

    def is_hot(self, fn):
        return HOT_MACRO in fn.annotations or fn.name in self.hot_names

    def is_alloc_ok(self, fn):
        """ALLOC_OK binds to the specific definition: annotated in place,
        elsewhere in the same file, or in the stem-paired header/.cpp.
        Never merged by bare name across unrelated files — that would
        silently prune same-named hot kernels from the R1 walk."""
        if ALLOC_OK_MACRO in fn.annotations:
            return True
        stem = os.path.splitext(fn.path)[0]
        return any(os.path.splitext(p)[0] == stem
                   for p in self.alloc_ok_at.get(fn.name, ()))

    def resolve_callees(self, fn):
        """Functions plausibly called from `fn`: plain (non-member)
        `ident(` heads whose definitions live in fn's file closure."""
        closure = self.closure(fn.path)
        out = []
        body = fn.body
        for k in range(len(body) - 1):
            t, _ = body[k]
            if body[k + 1][0] != "(" or not re.match(r"[A-Za-z_]", t):
                continue
            if t in CPP_KEYWORDS or t == fn.name:
                continue
            if k > 0 and body[k - 1][0] in (".", "->"):
                continue  # member call on an object: not name-resolvable
            for cand in self.funcs_by_name.get(t, ()):
                if cand.path in closure:
                    out.append(cand)
        return out


# --------------------------------------------------------------------------
# Shared helpers for the rule engine
# --------------------------------------------------------------------------

def base_is_warm_member(body, dot_idx):
    """Classify the base expression of a member call `<base>.grow(...)`.

    Walks left over balanced `)`/`]` groups and an identifier chain; the
    base is *warm* when any identifier in it follows the trailing-underscore
    member convention (warm capacity owned by the object, reused across
    rounds -- the idiom test_alloc_free pins at runtime)."""
    i = dot_idx - 1
    idents = []
    while i >= 0:
        t = body[i][0]
        if t in (")", "]"):
            opener = "(" if t == ")" else "["
            depth = 0
            while i >= 0:
                u = body[i][0]
                if u == t:
                    depth += 1
                elif u == opener:
                    depth -= 1
                    if depth == 0:
                        break
                elif re.match(r"[A-Za-z_]", u):
                    idents.append(u)
                i -= 1
            i -= 1
        elif re.match(r"[A-Za-z_]\w*$", t):
            idents.append(t)
            i -= 1
            if i >= 0 and body[i][0] in (".", "->", "::"):
                i -= 1
            else:
                break
        else:
            break
    return any(x.endswith("_") for x in idents)


def emit(findings, sf, rule, line, status_if_live, message):
    """Route one raw hit through the suppression table."""
    found, reason = sf.suppression_for(rule, line)
    if found and reason:
        findings.append(Finding(rule, sf.path, line, "allowed",
                                f"{message} [allowed: {reason}]"))
    elif found:
        findings.append(Finding(
            rule, sf.path, line, "bad-suppression",
            f"{message} [suppression without a reason]"))
    else:
        findings.append(Finding(rule, sf.path, line, status_if_live,
                                message))


# --------------------------------------------------------------------------
# R1: no allocation reachable from SSMST_HOT_PATH roots
# --------------------------------------------------------------------------

def run_r1(project, findings):
    roots = []
    for fns in project.funcs_by_name.values():
        for fn in fns:
            if project.is_hot(fn):
                roots.append(fn)
    visited = set()
    stack = list(roots)
    while stack:
        fn = stack.pop()
        key = (fn.path, fn.name, fn.start_line)
        if key in visited:
            continue
        visited.add(key)
        if project.is_alloc_ok(fn):
            continue
        scan_r1_body(project, fn, findings)
        for callee in project.resolve_callees(fn):
            if not project.is_alloc_ok(callee):
                stack.append(callee)


def scan_r1_body(project, fn, findings):
    sf = project.files[fn.path]
    body = fn.body
    n = len(body)
    for k in range(n):
        t, ln = body[k]
        nxt = body[k + 1][0] if k + 1 < n else ""
        prv = body[k - 1][0] if k > 0 else ""
        if t == "new":
            # `new` and `::new` both heap-allocate. Genuine placement new
            # (`new (buf) T`) constructs in place and is exempt: a
            # parenthesized list right after `new` followed by a type name
            # is a placement-argument list — except std::nothrow, which is
            # a plain allocation that returns nullptr on failure.
            placement = False
            if nxt == "(":
                close = match_paren(body, k + 1)
                inner = {u for u, _ in body[k + 1:close]}
                after = body[close][0] if close < n else ""
                placement = ("nothrow" not in inner
                             and bool(re.match(r"[A-Za-z_:]", after)))
            if not placement:
                emit(findings, sf, "R1", ln, "violation",
                     f"`new` reachable from hot path (in {fn.name})")
        elif t in ALLOC_CALLS and nxt == "(" and prv not in (".", "->"):
            emit(findings, sf, "R1", ln, "violation",
                 f"allocating call {t}() reachable from hot path "
                 f"(in {fn.name})")
        elif (t == "string" and nxt == "(" and prv == "::"
              and k >= 2 and body[k - 2][0] == "std"):
            emit(findings, sf, "R1", ln, "violation",
                 f"explicit std::string construction on hot path "
                 f"(in {fn.name})")
        elif t in GROWTH_MEMBERS and nxt == "(" and prv in (".", "->"):
            warm = base_is_warm_member(body, k - 1)
            status = "warm" if warm else "violation"
            what = ("growth call on warm member buffer"
                    if warm else "growth call on non-member base")
            emit(findings, sf, "R1", ln, status,
                 f"{what}: .{t}() (in {fn.name})")


# --------------------------------------------------------------------------
# R2: step bodies never touch the arena's mutable surface
# --------------------------------------------------------------------------

def run_r2(project, findings):
    for name in STEP_NAMES:
        for fn in project.funcs_by_name.get(name, ()):
            sf = project.files[fn.path]
            body = fn.body
            n = len(body)
            for k in range(n):
                t, ln = body[k]
                nxt = body[k + 1][0] if k + 1 < n else ""
                if t in ARENA_ALLOC_CALLS and nxt == "(":
                    emit(findings, sf, "R2", ln, "violation",
                         f"stripe allocation {t}() inside {fn.name}")
                elif t in STRIPE_ACCESSORS and nxt == "(":
                    # accessor ( ) [ ... ] =   -> a stripe write
                    j = match_paren(body, k + 1)
                    if j < n and body[j][0] == "[":
                        depth = 0
                        while j < n:
                            u = body[j][0]
                            if u == "[":
                                depth += 1
                            elif u == "]":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                        if j + 1 < n and body[j + 1][0] == "=":
                            emit(findings, sf, "R2", ln, "violation",
                                 f"stripe write through {t}() inside "
                                 f"{fn.name}")


# --------------------------------------------------------------------------
# R3: no engine entry point inside a pool-submitted lambda
# --------------------------------------------------------------------------

def run_r3(project, findings):
    for fns in project.funcs_by_name.values():
        for fn in fns:
            sf = project.files[fn.path]
            body = fn.body
            n = len(body)
            for k in range(n - 2):
                t, _ = body[k]
                if (t in (".", "->") and k > 0
                        and "pool" in body[k - 1][0].lower()
                        and body[k + 1][0] in POOL_SUBMIT_MEMBERS
                        and k + 2 < n and body[k + 2][0] == "("):
                    end = match_paren(body, k + 2)
                    for j in range(k + 3, end - 1):
                        u, uln = body[j]
                        if (u in ENGINE_ENTRY_POINTS
                                and body[j + 1][0] == "("):
                            emit(findings, sf, "R3", uln, "violation",
                                 f"{u}() inside a lambda submitted to the "
                                 f"ThreadPool (in {fn.name}) — the "
                                 f"fork-join pool is not re-entrant")


# --------------------------------------------------------------------------
# R4: determinism of src/ result paths
# --------------------------------------------------------------------------

def run_r4(project, findings, all_files=False):
    for rel, sf in project.files.items():
        if not all_files and not rel.startswith("src" + os.sep):
            continue  # benches/tests may use clocks; result paths live in src/
        toks = sf.tokens
        n = len(toks)
        for k in range(n):
            t, ln = toks[k]
            if ln in sf.pp_lines:
                continue  # an #include names the header, it does not use it
            nxt = toks[k + 1][0] if k + 1 < n else ""
            prv = toks[k - 1][0] if k > 0 else ""
            if t in R4_CALLS and nxt == "(" and prv not in (".", "->"):
                # A *definition* of a same-named member (e.g. a `time()`
                # accessor over the deterministic unit counter) is not a
                # libc call: skip `name ( ... ) const|{|override...`.
                close = match_paren(toks, k + 1)
                after = toks[close][0] if close < n else ""
                if after in ("{", "const", "override", "noexcept", "final"):
                    continue
                emit(findings, sf, "R4", ln, "violation",
                     f"nondeterministic call {t}() in a src/ result path")
            elif t in R4_IDENTS:
                kind = ("iteration-order-dependent container"
                        if t.startswith("unordered_")
                        else "nondeterminism source")
                emit(findings, sf, "R4", ln, "violation",
                     f"{kind} {t} in a src/ result path")


# --------------------------------------------------------------------------
# R5: Protocol<X> requires a trivially-copyable assert for X
# --------------------------------------------------------------------------

def run_r5(project, findings):
    for rel, sf in project.files.items():
        toks = sf.tokens
        n = len(toks)
        for k in range(n - 3):
            if (toks[k][0] == "public" and toks[k + 1][0] == "Protocol"
                    and toks[k + 2][0] == "<"):
                base = toks[k + 3][0]
                if not re.match(r"[A-Za-z_]", base):
                    continue
                ln = toks[k][1]
                if r5_assert_present(project, rel, base):
                    continue
                emit(findings, sf, "R5", ln, "violation",
                     f"Protocol<{base}> without an is_trivially_copyable "
                     f"static_assert for {base} (see "
                     f"SSMST_REGISTER_HEADER in util/contract.hpp)")


def r5_assert_present(project, rel, base):
    pat_assert = re.compile(
        r"is_trivially_copyable(_v)?\s*<\s*" + re.escape(base) + r"\b")
    pat_macro = re.compile(
        r"SSMST_REGISTER_HEADER\s*\(\s*" + re.escape(base) + r"\b")
    for f in project.closure(rel):
        code = project.files[f].code
        if pat_assert.search(code) or pat_macro.search(code):
            return True
    return False


# --------------------------------------------------------------------------
# Optional libclang frontend (CI): same rule engine, AST-derived IR.
# --------------------------------------------------------------------------

def try_clang_project(root, paths, compile_commands):
    """Builds the same Project but with function extents/annotations taken
    from the clang AST. Returns None when libclang is unavailable, in which
    case the caller falls back to the token frontend."""
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
        comp_db = cindex.CompilationDatabase.fromDirectory(
            os.path.dirname(os.path.abspath(compile_commands)))
    except Exception as e:  # missing libclang.so, bad DB, ...
        print(f"ssmst-lint: libclang unavailable ({e}); "
              f"falling back to token frontend", file=sys.stderr)
        return None

    project = Project(root, paths)  # token IR as the base (bodies, tokens)
    wanted = {os.path.abspath(os.path.join(root, rel)): rel
              for rel in project.files}
    seen_tus = set()
    for cmd in comp_db.getAllCompileCommands():
        src = os.path.abspath(os.path.join(cmd.directory, cmd.filename))
        if src in seen_tus:
            continue
        seen_tus.add(src)
        # Keep the real compile flags: drop only the compiler name, `-c`,
        # `-o` together with its operand, and the source file itself —
        # whatever order the build emitted them in.
        args = []
        skip_next = False
        for a in list(cmd.arguments)[1:]:
            if skip_next:
                skip_next = False
                continue
            if a == "-o":
                skip_next = True
                continue
            if a == "-c" or a == cmd.filename:
                continue
            if os.path.abspath(os.path.join(cmd.directory, a)) == src:
                continue
            args.append(a)
        try:
            tu = index.parse(src, args=args)
        except Exception as e:
            print(f"ssmst-lint: clang parse failed for {src}: {e}",
                  file=sys.stderr)
            continue
        _harvest_annotations(tu.cursor, wanted, project)
    return project


def _harvest_annotations(cursor, wanted, project):
    from clang.cindex import CursorKind
    for cur in cursor.walk_preorder():
        if cur.kind not in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                            CursorKind.FUNCTION_TEMPLATE):
            continue
        loc = cur.location
        if loc.file is None:
            continue
        rel = wanted.get(os.path.abspath(loc.file.name))
        if rel is None:
            continue
        for ch in cur.get_children():
            if ch.kind == CursorKind.ANNOTATE_ATTR:
                if ch.spelling == "ssmst::hot_path":
                    project.hot_names.add(cur.spelling)
                elif ch.spelling == "ssmst::alloc_ok":
                    # same binding rule as the token frontend: ALLOC_OK is
                    # keyed by the file this cursor lives in
                    project.alloc_ok_at[cur.spelling].add(rel)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_paths(root, extra_files):
    if extra_files:
        return [os.path.abspath(p) for p in extra_files]
    paths = []
    for sub in ("src", "bench", "examples"):
        base = os.path.join(root, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for fname in sorted(filenames):
                if fname.endswith((".hpp", ".h", ".cpp", ".cc")):
                    paths.append(os.path.join(dirpath, fname))
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ssmst_lint",
        description="machine-check the ssmst substrate contract (R1-R5)")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--files", nargs="*", default=None,
                    help="lint only these files (fixture mode); default is "
                         "src/, bench/ and examples/ under --root")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json; enables the "
                         "libclang frontend when python3-clang is present")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help="comma-separated subset of rules to run")
    ap.add_argument("--records", action="store_true",
                    help="machine-readable output: RULE\\tFILE\\tLINE\\t"
                         "STATUS per finding (for lint_report)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    bad = [r for r in rules if r not in ALL_RULES]
    if bad:
        print(f"ssmst-lint: unknown rule(s): {', '.join(bad)}",
              file=sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    paths = collect_paths(root, args.files)
    if not paths:
        print("ssmst-lint: no input files", file=sys.stderr)
        return 2

    project = None
    if args.compile_commands:
        project = try_clang_project(root, paths, args.compile_commands)
    if project is None:
        project = Project(root, paths)

    findings = []
    if "R1" in rules:
        run_r1(project, findings)
    if "R2" in rules:
        run_r2(project, findings)
    if "R3" in rules:
        run_r3(project, findings)
    if "R4" in rules:
        # Explicit --files mode (fixtures, spot checks) lints everything it
        # was given; the tree-wide default keeps R4 to src/ result paths.
        run_r4(project, findings, all_files=args.files is not None)
    if "R5" in rules:
        run_r5(project, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    seen = set()
    deduped = []
    for f in findings:
        key = (f.rule, f.path, f.line, f.status, f.message)
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    findings = deduped

    violations = [f for f in findings
                  if f.status in ("violation", "bad-suppression")]
    if args.records:
        for f in findings:
            print(f"{f.rule}\t{f.path}\t{f.line}\t{f.status}")
    else:
        for f in findings:
            if f.status == "warm":
                tag = "warm "
            elif f.status == "allowed":
                tag = "allow"
            else:
                tag = "ERROR"
            print(f"[{tag}] {f.rule} {f.path}:{f.line}: {f.message}")
    if not args.quiet and not args.records:
        counts = defaultdict(int)
        for f in findings:
            counts[f.status] += 1
        print(f"ssmst-lint: {counts['violation']} violation(s), "
              f"{counts['bad-suppression']} bad suppression(s), "
              f"{counts['warm']} warm, {counts['allowed']} allowed "
              f"across {len(project.files)} file(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
