"""Annotation harvest: frontend-independent facts for the concurrency and
I/O-cost check families (DESIGN.md section 17).

The clang.cindex frontend synthesizes function heads from cursor spellings,
which drops annotation macros (SEGDB_REQUIRES, SEGDB_IO_BOUND argument
strings live in string literals the shared stripper blanks, ...). Rather
than teach each frontend its own harvest — and risk the two drifting —
this module always parses the *stripped source text* with the pycpp parser
and extracts every annotation-derived fact from that one parse:

  * io_bounds        SEGDB_IO_BOUND("log", "t/B") terms, keyed by line.
                     The macro call is located in the stripped text (so a
                     commented-out annotation never counts) but the term
                     strings are read from the raw text at the *same
                     offsets* — the stripper is offset-preserving by
                     construction (tools/segdb_lint.py).
  * requires         capability names from SEGDB_REQUIRES / SEGDB_ACQUIRE
                     on function heads and in-class method declarations,
                     keyed by both qualified (Class::Name) and bare name.
  * acquired edges   lock-order edges declared via SEGDB_ACQUIRED_BEFORE /
                     SEGDB_ACQUIRED_AFTER on mutex members.
  * member_types     member name -> {(candidate type, declaring file)}
                     (PascalCase), used to resolve `recv.F()` /
                     `recv->F()` calls to definitions during I/O-cost
                     derivation. Same-named members of different classes
                     keep every candidate; resolution unions over the
                     candidates that actually define the called method,
                     which stays far narrower than the bare-name union.
  * aliases          `using Alias = SomeClass<...>` type aliases.
  * loop_overrides   `// SEMA-LOOP: <class>` per-line loop classification
                     overrides (raw text — it is a comment).

Because every family that consumes these facts reads them from here, the
cindex and pycpp frontends stay check-equivalent by construction: the
statement trees they produce are already byte-identical, and the facts are
shared.
"""

from __future__ import annotations

import re

from segdb_sema import cppast

# Loop classes a `// SEMA-LOOP:` override may assert. Mirrors the shape
# classifier in checks.py; DESIGN.md section 17 documents each.
LOOP_CLASSES = frozenset({
    "const", "bounded", "height", "page", "record", "slab", "frontier",
    "capacity", "unbounded",
})

_IO_BOUND_RE = re.compile(r"\bSEGDB_IO_BOUND\s*\(")
_ACQ_RE = re.compile(
    r"(\w+)\s+SEGDB_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")
_LOOP_OVERRIDE_RE = re.compile(r"//.*\bSEMA-LOOP\s*:\s*([\w-]+)")
_STRING_RE = re.compile(r'"([^"]*)"')

# The I/O-cost term vocabulary (src/util/check.h). Anything else in an
# annotation is a spelling error worth failing loudly on.
IO_TERMS = ("1", "log", "sqrt", "t/B", "scan")


class FileFacts:
    """Per-file harvest results plus the pycpp parse they came from."""

    __slots__ = ("rel", "ast", "io_bounds", "loop_overrides", "bad_bounds")

    def __init__(self, rel: str):
        self.rel = rel
        self.ast: cppast.FileAst | None = None
        self.io_bounds: dict[int, tuple[str, ...]] = {}
        self.loop_overrides: dict[int, str] = {}
        # (line, message) pairs for malformed annotations — surfaced as
        # findings by the driver rather than silently ignored.
        self.bad_bounds: list[tuple[int, str]] = []


class Facts:
    """Whole-tree harvest: per-file facts plus the global tables."""

    def __init__(self):
        self.files: dict[str, FileFacts] = {}
        # Function name (bare and Class::Name) -> union of required caps.
        self.requires: dict[str, set[str]] = {}
        # Declared lock-order edges: (before, after, rel, line).
        self.acquired_edges: list[tuple[str, str, str, int]] = []
        # Member name -> set of candidate PascalCase type names (a global
        # union over classes: `pool_` is a BufferPool in the indexes but a
        # ThreadPool in QueryEngine, so every candidate is kept and call
        # resolution picks the ones defining the called method).
        self.member_types: dict[str, set[tuple[str, str]]] = {}
        # using Alias = SomeClass<...>;
        self.aliases: dict[str, str] = {}
        # Caches attached by call_index() / checks.blocking_quals().
        self._call_index = None
        self._blocking_quals = None

    def file(self, rel: str) -> FileFacts:
        if rel not in self.files:
            self.files[rel] = FileFacts(rel)
        return self.files[rel]

    def resolve_type(self, name: str) -> str:
        seen = set()
        while name in self.aliases and name not in seen:
            seen.add(name)
            name = self.aliases[name]
        return name


def normalize_cap(text: str) -> str:
    """Last identifier component of a capability expression:
    `shard.mu` -> `mu`, `&state.mu` -> `mu`, `serve_mu_` -> itself."""
    ids = re.findall(r"[A-Za-z_]\w*", text)
    return ids[-1] if ids else ""


def _line_of_offset(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _match_paren(text: str, open_idx: int) -> int:
    """Index of the ')' matching text[open_idx] == '(' (stripped text:
    no string/comment noise can unbalance it). -1 when unterminated."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def _harvest_io_bounds(ff: FileFacts, raw: str, stripped: str) -> None:
    for m in _IO_BOUND_RE.finditer(stripped):
        line_start = stripped.rfind("\n", 0, m.start()) + 1
        if stripped[line_start:m.start()].lstrip().startswith("#"):
            continue  # the macro's own #define in util/check.h
        open_idx = m.end() - 1
        close_idx = _match_paren(stripped, open_idx)
        line = _line_of_offset(stripped, m.start())
        if close_idx < 0:
            ff.bad_bounds.append((line, "unterminated SEGDB_IO_BOUND"))
            continue
        # The stripper blanks string *contents* but keeps offsets 1:1, so
        # the raw text at the same slice holds the term literals.
        terms = tuple(_STRING_RE.findall(raw[open_idx:close_idx + 1]))
        if not terms:
            ff.bad_bounds.append(
                (line, "SEGDB_IO_BOUND with no term strings"))
            continue
        bad = [t for t in terms if t not in IO_TERMS]
        if bad:
            ff.bad_bounds.append(
                (line, "unknown SEGDB_IO_BOUND term(s) %s; vocabulary: %s"
                 % (", ".join(repr(t) for t in bad), ", ".join(IO_TERMS))))
            continue
        ff.io_bounds[line] = terms


def _caps_from_tokens(toks, i):
    """toks[i] is SEGDB_REQUIRES/SEGDB_ACQUIRE; returns (caps, next_i)."""
    caps = []
    j = i + 1
    if j < len(toks) and toks[j].text == "(":
        depth = 0
        arg: list[str] = []
        while j < len(toks):
            t = toks[j].text
            if t == "(":
                depth += 1
                if depth == 1:
                    j += 1
                    continue
            elif t == ")":
                depth -= 1
                if depth == 0:
                    if arg:
                        caps.append(normalize_cap(" ".join(arg)))
                    j += 1
                    break
            if depth >= 1:
                if t == "," and depth == 1:
                    if arg:
                        caps.append(normalize_cap(" ".join(arg)))
                    arg = []
                else:
                    arg.append(t)
            j += 1
    return [c for c in caps if c], j


_REQUIRE_MACROS = ("SEGDB_REQUIRES", "SEGDB_ACQUIRE", "SEGDB_ACQUIRE_SHARED",
                   "SEGDB_REQUIRES_SHARED")


def _harvest_requires(facts: Facts, head_toks, name: str, ctx) -> None:
    caps: set[str] = set()
    i = 0
    while i < len(head_toks):
        if head_toks[i].text in _REQUIRE_MACROS:
            got, i = _caps_from_tokens(head_toks, i)
            caps.update(got)
            continue
        i += 1
    if not caps or not name:
        return
    facts.requires.setdefault(name, set()).update(caps)
    owner = _owner_from_ctx_or_head(head_toks, ctx)
    if owner:
        facts.requires.setdefault(f"{owner}::{name}", set()).update(caps)


def _owner_from_ctx_or_head(head_toks, ctx) -> str:
    """Class owning this function: `X :: name (` in the head (skipping a
    template argument list, so `X<T> :: name (` also resolves to X), else
    the innermost PascalCase ctx entry (in-class definition)."""
    lp = cppast._param_lparen(head_toks)
    if lp >= 3 and head_toks[lp - 2].text == "::":
        j = lp - 3
        if head_toks[j].text == ">":
            depth = 0
            while j >= 0:
                if head_toks[j].text == ">":
                    depth += 1
                elif head_toks[j].text == "<":
                    depth -= 1
                    if depth == 0:
                        j -= 1
                        break
                j -= 1
        if j >= 0 and head_toks[j].kind == "id":
            return head_toks[j].text
    for entry in reversed(tuple(ctx or ())):
        if entry and entry[0].isupper():
            return entry
    return ""


def func_qual(func: cppast.Func) -> str:
    """`Class::Name` when the owning class is identifiable, else bare."""
    owner = _owner_from_ctx_or_head(func.head, func.ctx)
    return f"{owner}::{func.name}" if owner else func.name


_PASCAL_RE = re.compile(r"^[A-Z][A-Za-z0-9]*[a-z]")


def _harvest_member_types(facts: Facts, rel: str, decl: cppast.Decl) -> None:
    toks = decl.tokens
    texts = [t.text for t in toks]
    if not texts or texts[0] in ("using", "typedef", "friend", "static_assert",
                                 "template"):
        if texts and texts[0] == "using" and "=" in texts:
            _harvest_alias(facts, texts)
        return
    if "(" in texts:  # method declaration, not a data member
        return
    # Declarator names: id tokens directly followed by , ; = { [ or end.
    enders = {",", ";", "=", "{", "["}
    declarators = []
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = texts[i + 1] if i + 1 < len(texts) else ";"
        if nxt in enders:
            declarators.append(i)
    if not declarators:
        return
    first = declarators[0]
    type_name = ""
    for i in range(first - 1, -1, -1):
        if toks[i].kind == "id" and _PASCAL_RE.match(toks[i].text):
            type_name = toks[i].text
            break
    if not type_name:
        return
    for i in declarators:
        facts.member_types.setdefault(toks[i].text, set()).add((type_name, rel))


def _harvest_alias(facts: Facts, texts: list[str]) -> None:
    # using Alias = ns::SomeClass<...>;
    try:
        eq = texts.index("=")
    except ValueError:
        return
    if eq < 2 or not texts[1][0].isalpha():
        return
    alias = texts[1]
    for t in texts[eq + 1:]:
        if _PASCAL_RE.match(t):
            facts.aliases.setdefault(alias, t)
            return


def _harvest_acquired(facts: Facts, rel: str, stripped: str) -> None:
    for m in _ACQ_RE.finditer(stripped):
        owner = normalize_cap(m.group(1))
        line = _line_of_offset(stripped, m.start())
        for arg in m.group(3).split(","):
            other = normalize_cap(arg)
            if not other:
                continue
            if m.group(2) == "BEFORE":
                facts.acquired_edges.append((owner, other, rel, line))
            else:
                facts.acquired_edges.append((other, owner, rel, line))


def _harvest_loop_overrides(ff: FileFacts, raw: str) -> None:
    for idx, line in enumerate(raw.splitlines(), start=1):
        m = _LOOP_OVERRIDE_RE.search(line)
        if not m:
            continue
        cls = m.group(1)
        if cls in LOOP_CLASSES:
            ff.loop_overrides[idx] = cls
        else:
            ff.bad_bounds.append(
                (idx, "unknown SEMA-LOOP class %r; one of: %s"
                 % (cls, ", ".join(sorted(LOOP_CLASSES)))))


def call_sites(facts: Facts, toks, rel: str = ""):
    """(index, name, receiver_types) for every `name (` call site; the
    receiver types are the candidates from the harvested member-type map
    for `member.F()` / `member->F()` (same-named members of different
    classes all contribute), and the single named type for `Type::F()`.
    Candidates declared in the call site's own header/source pair (same
    path stem) shadow same-named members of unrelated classes."""
    stem = rel.rsplit(".", 1)[0] if rel else ""
    for k in range(len(toks) - 1):
        if toks[k].kind != "id" or toks[k + 1].text != "(":
            continue
        name = toks[k].text
        recv: tuple = ()
        if k >= 2 and toks[k - 1].text in (".", "->") and \
                toks[k - 2].kind == "id":
            cands = facts.member_types.get(toks[k - 2].text, ())
            local = {t for t, r in cands
                     if stem and r.rsplit(".", 1)[0] == stem}
            recv = tuple(sorted(
                facts.resolve_type(t)
                for t in (local or {t for t, _ in cands})))
        elif k >= 2 and toks[k - 1].text == "::" and toks[k - 2].kind == "id":
            recv = (facts.resolve_type(toks[k - 2].text),)
        yield k, name, recv


class CallIndex:
    """Definition index over the harvested pycpp parses, with
    per-definition call resolution: explicit receiver first, then the
    calling class's own method (self-calls never union with same-named
    methods of unrelated classes), then the name union as the virtual-
    dispatch fallback."""

    def __init__(self, facts: Facts):
        self.facts = facts
        self.defs_by_qual: dict[str, list] = {}
        self.defs_by_name: dict[str, list] = {}
        self._quals_by_name: dict[str, frozenset] = {}
        for rel, ff in facts.files.items():
            if ff.ast is None:
                continue
            for fn in ff.ast.functions:
                if not fn.name:
                    continue
                qual = func_qual(fn)
                self.defs_by_qual.setdefault(qual, []).append((rel, fn))
                self.defs_by_name.setdefault(fn.name, []).append((rel, fn))

    def quals_for_name(self, name: str) -> frozenset:
        if name not in self._quals_by_name:
            self._quals_by_name[name] = frozenset(
                func_qual(fn) for _, fn in self.defs_by_name.get(name, ()))
        return self._quals_by_name[name]

    def resolve_quals(self, name, recv_types=(), owner="") -> frozenset:
        if recv_types:
            quals = frozenset(
                q for q in (f"{self.facts.resolve_type(t)}::{name}"
                            for t in recv_types)
                if q in self.defs_by_qual)
            if quals:
                return quals
        elif owner:
            qual = f"{owner}::{name}"
            if qual in self.defs_by_qual:
                return frozenset({qual})
        return self.quals_for_name(name)


def call_index(facts: Facts) -> CallIndex:
    if getattr(facts, "_call_index", None) is None:
        facts._call_index = CallIndex(facts)
    return facts._call_index


def harvest_file(facts: Facts, rel: str, raw: str, stripped: str) -> FileFacts:
    """Parse `stripped` with pycpp and record every annotation fact."""
    ff = facts.file(rel)
    ff.ast = cppast.parse_file(stripped)
    _harvest_io_bounds(ff, raw, stripped)
    _harvest_loop_overrides(ff, raw)
    _harvest_acquired(facts, rel, stripped)
    for func in ff.ast.functions:
        _harvest_requires(facts, func.head, func.name, func.ctx)
    for decl in ff.ast.decls:
        if decl.in_class:
            _harvest_member_types(facts, rel, decl)
        name = cppast.head_function_name(decl.tokens)
        if name:
            _harvest_requires(facts, decl.tokens, name, decl.ctx)
        elif decl.tokens and decl.tokens[0].text == "using":
            _harvest_alias(facts, [t.text for t in decl.tokens])
    return ff
