"""I/O-cost bound family: io-bound-missing / io-bound-exceeded /
io-bound-invalid (DESIGN.md section 17).

Derives, for every function, a symbolic worst-case page-access class as a
set of additive terms from the paper's bounds — "1", "log" (log_B n),
"sqrt" (sqrt(n/B)), "t/B" (output-sensitive), "scan" (n/B) — and checks
each SEGDB_IO_BOUND annotation against the derived set. Theorem 1
(two-level PST index: O(log_B n + t/B)) and Theorem 2 (interval-tree
index: O(log_B n + sqrt(n/B) + t/B)) thereby become CI-enforced: a stray
Fetch in a record-bounded loop of a "log"-annotated function derives t/B
and fails the tree scan.

Model
-----
* A direct I/O seed call (model.IO_SEEDS) contributes "1", lifted through
  the enclosing loop stack.
* Loop classes lift callee terms (innermost loop first):
    height    1 -> log, everything else unchanged (a log_B-height descent
              multiplying a log stays "log" at class granularity — the
              family targets order-of-growth regressions, not constants)
    bounded   unchanged (constant fan-out, e.g. per-boundary structures)
    slab      1/log -> sqrt (the sqrt(n/B) multislab sweep)
    frontier  1 -> {log, t/B} (a reporting DFS visits O(log + t/B) nodes)
    page/record/capacity
              1 -> t/B, log/sqrt -> scan (the quadratic-regression catch)
    unbounded everything -> scan
    const     unchanged
* Callees resolve per *definition*: `recv.F()` uses the harvested member
  type map (Class::F), `Type::F()` is direct; an annotated callee uses
  its annotation (assume-guarantee), otherwise its derived cost; an
  unresolvable name contributes nothing (documented under-derivation —
  sound for enforcement because annotations are ceilings, and callers of
  virtual interfaces fall back to the union over same-name definitions
  and annotations).
* Recursion contributes nothing on the back edge; recursive I/O must be
  annotated at the recursive function itself (e.g. RTree::QueryRecursive
  carries its own "scan").

This family runs on the shared pycpp statement trees from the annotation
harvest, so the cindex and pycpp frontends are check-equivalent on it by
construction.
"""

from __future__ import annotations

from segdb_sema import annotations, checks, cppast, model

# Public entry points that must carry a SEGDB_IO_BOUND (definitions with
# these names under the entry directories).
ENTRY_NAMES = frozenset({
    "BulkLoad", "BulkLoadWithPositions", "Insert", "Erase", "Query",
    "Query3Sided", "QuerySegment", "QueryLine", "QueryViaEndpoints",
    "Stab", "Intersect",
})
ENTRY_DIRS = ("src/core/", "src/pst/", "src/itree/", "src/segtree/",
              "src/btree/", "src/baseline/")

_TERMS = ("1", "log", "sqrt", "t/B", "scan")
# t is subsumed by a when the annotation term is an upper bound for it.
_LEQ = {
    "1": frozenset(_TERMS),
    "log": frozenset({"log", "sqrt", "scan"}),
    "sqrt": frozenset({"sqrt", "scan"}),
    "t/B": frozenset({"t/B", "scan"}),
    "scan": frozenset({"scan"}),
}


def _lift_term(term: str, cls: str) -> frozenset[str]:
    if cls == "height":
        return frozenset({"log"}) if term == "1" else frozenset({term})
    if cls == "slab":
        return frozenset({"sqrt"}) if term in ("1", "log") \
            else frozenset({term})
    if cls == "frontier":
        return frozenset({"log", "t/B"}) if term == "1" \
            else frozenset({term})
    if cls in ("page", "record", "capacity"):
        if term == "1":
            return frozenset({"t/B"})
        if term in ("log", "sqrt"):
            return frozenset({"scan"})
        return frozenset({term})
    if cls == "unbounded":
        return frozenset({"scan"})
    # const / bounded: constant trip count, identity.
    return frozenset({term})


def _lift_through(terms, loop_stack):
    for cls in reversed(loop_stack):
        out = set()
        for t in terms:
            out |= _lift_term(t, cls)
        terms = out
    return terms


def annotation_of(fn: cppast.Func, ff: annotations.FileFacts):
    """(line, terms) when fn's body opens with SEGDB_IO_BOUND, else None."""
    for stmt in fn.body.children:
        if stmt.kind == "simple" and stmt.tokens and \
                stmt.tokens[0].text == "SEGDB_IO_BOUND":
            terms = ff.io_bounds.get(stmt.line)
            if terms is not None:
                return (stmt.line, frozenset(terms))
            return (stmt.line, None)  # malformed; bad_bounds reports it
        break  # must be the first statement
    return None


class _Deriver:
    def __init__(self, facts: annotations.Facts):
        self.facts = facts
        self.index = annotations.call_index(facts)
        self.ann_by_qual: dict[str, frozenset] = {}
        self.ann_by_name: dict[str, set] = {}
        self._memo: dict[int, object] = {}  # id(fn) -> terms | None (busy)
        for rel, ff in facts.files.items():
            if ff.ast is None:
                continue
            for fn in ff.ast.functions:
                if not fn.name:
                    continue
                ann = annotation_of(fn, ff)
                if ann and ann[1] is not None:
                    qual = annotations.func_qual(fn)
                    self.ann_by_qual[qual] = ann[1]
                    self.ann_by_name.setdefault(fn.name, set()).update(ann[1])

    # -- call resolution ----------------------------------------------------

    def _resolve(self, name: str, recv_types, owner: str):
        if name in model.IO_SEEDS:
            return frozenset({"1"})
        # Explicit receiver candidates, then the calling class's own
        # method, then the name union (virtual dispatch / unknown
        # receiver). An annotated target uses its annotation
        # (assume-guarantee); with several receiver candidates (same-named
        # members of different classes) the costs of those that define the
        # method are unioned — still far narrower than the name union.
        quals = ([f"{t}::{name}" for t in recv_types] if recv_types else
                 [f"{owner}::{name}"] if owner else [])
        terms: set = set()
        hit = False
        for qual in quals:
            if qual in self.ann_by_qual:
                terms |= self.ann_by_qual[qual]
                hit = True
            elif qual in self.index.defs_by_qual:
                terms |= self._derive_all(self.index.defs_by_qual[qual])
                hit = True
        if hit:
            return frozenset(terms)
        if name in self.ann_by_name:
            return frozenset(self.ann_by_name[name])
        if name in self.index.defs_by_name:
            return self._derive_all(self.index.defs_by_name[name])
        return frozenset()

    def _derive_all(self, defs):
        terms = set()
        for rel, fn in defs:
            terms |= self.derive(rel, fn)
        return terms

    # -- per-definition derivation ------------------------------------------

    def derive(self, rel: str, fn: cppast.Func):
        key = id(fn)
        if key in self._memo:
            got = self._memo[key]
            return got if got is not None else frozenset()
        self._memo[key] = None  # recursion under-approximates to {}
        terms, _ = self.derive_with_witness(rel, fn)
        self._memo[key] = frozenset(terms)
        return self._memo[key]

    def derive_with_witness(self, rel: str, fn: cppast.Func):
        """(terms, {term: first witness line}) for fn's body."""
        ff = self.facts.files.get(rel)
        overrides = ff.loop_overrides if ff is not None else {}
        qual = annotations.func_qual(fn)
        owner = qual.rsplit("::", 1)[0] if "::" in qual else ""
        terms: set[str] = set()
        witness: dict[str, int] = {}

        def add(new_terms, line):
            for t in new_terms:
                if t not in terms:
                    terms.add(t)
                    witness[t] = line
        loop_stack: list[str] = []

        def scan_tokens(toks, line):
            for _, name, recv_types in annotations.call_sites(
                    self.facts, toks, rel):
                if name == "SEGDB_IO_BOUND":
                    continue
                if name in model.IO_SEEDS:
                    add(_lift_through({"1"}, loop_stack), line)
                else:
                    callee = self._resolve(name, recv_types, owner)
                    if callee:
                        add(_lift_through(callee, loop_stack), line)

        def visit(stmt):
            if stmt.kind == "loop":
                loop_stack.append(checks.classify_loop(stmt, overrides))
                scan_tokens(stmt.tokens, stmt.line)
                for sub in stmt.sub:
                    visit(sub)
                for child in stmt.children:
                    visit(child)
                loop_stack.pop()
                return
            if stmt.tokens:
                scan_tokens(stmt.tokens, stmt.line)
            # Lambda bodies execute where they are invoked; counting them
            # at the definition site keeps the class right (constant
            # factors are outside the model anyway).
            for sub in stmt.sub:
                visit(sub)
            for child in stmt.children:
                visit(child)

        visit(fn.body)
        return terms, witness


def derived_costs(facts: annotations.Facts) -> dict[str, frozenset]:
    """Class::Name -> derived term set for every annotated function under
    src/: the set run() checks each annotation against."""
    deriver = _Deriver(facts)
    costs = {}
    for rel, ff in facts.files.items():
        if ff.ast is None or not rel.startswith("src/"):
            continue
        for fn in ff.ast.functions:
            if annotation_of(fn, ff) is not None:
                terms, _ = deriver.derive_with_witness(rel, fn)
                costs[annotations.func_qual(fn)] = frozenset(terms)
    return costs


def _subsumed(term: str, ann_terms) -> bool:
    return bool(_LEQ[term] & ann_terms)


def run(facts: annotations.Facts):
    """Whole-tree I/O-cost findings: [(rel, line, rule, message)]."""
    findings = []
    deriver = _Deriver(facts)
    for rel, ff in sorted(facts.files.items()):
        for line, msg in ff.bad_bounds:
            findings.append((rel, line, "io-bound-invalid", msg))
        if ff.ast is None or not rel.startswith("src/"):
            continue
        in_entry_dir = any(rel.startswith(d) for d in ENTRY_DIRS)
        for fn in ff.ast.functions:
            ann = annotation_of(fn, ff)
            if ann is not None and ann[1] is not None:
                line, ann_terms = ann
                derived, witness = deriver.derive_with_witness(rel, fn)
                bad = sorted(t for t in derived if not _subsumed(t, ann_terms))
                if bad:
                    spots = ", ".join(
                        f"'{t}' (line {witness[t]})" for t in bad)
                    findings.append((
                        rel, line, "io-bound-exceeded",
                        f"{fn.name}() declares SEGDB_IO_BOUND("
                        + ", ".join(sorted(ann_terms))
                        + f") but the derived cost adds {spots}; "
                        "derived set {" + ", ".join(sorted(derived)) + "}"))
            elif (ann is None and in_entry_dir and not fn.is_lambda
                  and fn.name in ENTRY_NAMES):
                findings.append((
                    rel, fn.line, "io-bound-missing",
                    f"public entry point {fn.name}() has no SEGDB_IO_BOUND "
                    "annotation; declare its I/O-cost class as the first "
                    "body statement (DESIGN.md section 17)"))
    return findings
