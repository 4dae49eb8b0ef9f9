"""The three check families, implemented over the frontend-neutral
micro-AST (cppast.Stmt / cppast.Func).

The pin and Status/Result families share one forward path-sensitive
walker: an environment maps local variable names to abstract states
(Result ok-facts, PageRef liveness, pending-uninspected Status), branch
conditions contribute `ok()` facts to each arm, and arms are merged
conservatively (facts survive only when established on every surviving
path). The fault-atomicity family is a separate backward pass computing,
for every member-state write, whether an allocation-fallible call can
still execute afterwards on some path (including loop back-edges).

Rules
-----
pin family:       pin-raw-release, pin-use-after-invalid, pin-escape,
                  pin-across-quiesce, pin-temporary
status family:    status-unchecked-value, status-swallowed,
                  status-use-after-move, status-ioerror-to-ok
atomicity family: atomicity-early-mutation, atomicity-fallible-after-commit
blocking family:  blocking-under-lock, lock-order-cycle
deadline family:  deadline-unpolled-loop
(The I/O-cost family — io-bound-missing / io-bound-exceeded — is a
whole-tree pass and lives in iocost.py; it shares classify_loop below.)
"""

from __future__ import annotations

from dataclasses import dataclass

from segdb_sema import annotations, cppast, model

# The buffer pool implements PageRef; the pin rules would flag its own
# internals. Everything else in src/ is checked.
PIN_EXEMPT_FILES = ("src/io/buffer_pool.h", "src/io/buffer_pool.cc")

# Files that hold a util::Mutex across device I/O *by design*: the buffer
# pool writes dirty victims back and empties itself under its shard locks
# (its demand reads and FlushAll's batch run unlocked, the batch's frames
# pinned), and the file disk manager serializes its writer path —
# allocation, growth, writes, Sync and the batched scheduler — on one
# mutex (its reads take none). Everything above them must release locks
# before touching either.
BLOCKING_EXEMPT_FILES = (
    "src/io/buffer_pool.h", "src/io/buffer_pool.cc",
    "src/io/file_disk_manager.cc",
)

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}
_MUTATORS = {
    "push_back", "pop_back", "clear", "insert", "erase", "resize",
    "emplace_back", "assign", "swap", "push_front", "pop_front",
}
_PIN_USES = {"page", "MarkDirty", "page_id"}


@dataclass(frozen=True)
class RawFinding:
    line: int
    rule: str
    message: str


# ---------------------------------------------------------------------------
# Variable states
# ---------------------------------------------------------------------------

class V:
    __slots__ = ("kind", "pin", "ok", "pending", "alive", "line", "depth")

    def __init__(self, kind, pin=False, line=0, depth=0, pending=False):
        self.kind = kind          # 'result' | 'status' | 'pageref' | 'pinvec'
        self.pin = pin            # result carries a PageRef
        self.ok = False           # ok() established on this path
        self.pending = pending    # status from a call, not yet inspected
        self.alive = "valid"      # 'valid' | 'moved' | 'released' | 'maybe'
        self.line = line
        self.depth = depth

    def clone(self):
        v = V(self.kind, self.pin, self.line, self.depth, self.pending)
        v.ok = self.ok
        v.alive = self.alive
        return v


def _clone_env(env):
    return {k: v.clone() for k, v in env.items()}


def _merge_env(a, b):
    """In-place conservative merge of b into a (branch join)."""
    for name in list(a):
        if name not in b:
            del a[name]
            continue
        va, vb = a[name], b[name]
        va.ok = va.ok and vb.ok
        va.pending = va.pending or vb.pending
        if va.alive != vb.alive:
            va.alive = "maybe"
    return a


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self, rel: str, registry: model.Registry, facts=None):
        self.rel = rel
        self.reg = registry
        self.facts = facts if facts is not None else annotations.Facts()
        self.findings: list[RawFinding] = []
        # Observed nested-acquire lock-order edges: (before, after, line).
        self.lock_edges: list[tuple[str, str, int]] = []
        self._seen = set()
        self.pin_rules = rel.startswith("src/") and rel not in PIN_EXEMPT_FILES
        self.in_ioerror_if = 0
        self.loop_depth = 0

    def report(self, line, rule, message):
        # Keyed on (line, rule): path-sensitive walking revisits statements
        # once per branch, and suppression granularity is per-line anyway.
        key = (line, rule)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(RawFinding(line, rule, message))

    # -- entry points -------------------------------------------------------

    def check_file(self, ast: cppast.FileAst):
        self._check_member_decls(ast)
        mutation_names = self.reg.mutation_names()
        in_mutation_dir = any(self.rel.startswith(d)
                              for d in model.MUTATION_DIRS)
        blocking_on = (self.rel.startswith("src/")
                       and self.rel not in BLOCKING_EXEMPT_FILES)
        serve_set = self.reg.serve_reachable()
        for fn in ast.functions:
            self._check_function(fn)
            if in_mutation_dir and fn.name in mutation_names:
                self._check_atomicity(fn)
            if blocking_on:
                self._check_blocking(fn)
            if self.rel.startswith("src/") and fn.name in serve_set:
                self._check_deadline(fn)

    def _check_member_decls(self, ast):
        if not self.pin_rules:
            return
        for decl in ast.decls:
            texts = [t.text for t in decl.tokens]
            if not decl.in_class or "PageRef" not in texts:
                continue
            if "(" in texts or texts[0] in ("friend", "using", "typedef"):
                continue  # method declaration / alias, not a data member
            self.report(decl.line, "pin-escape",
                        "PageRef stored in a class member outlives the "
                        "operation that pinned it; pins must be "
                        "function-local RAII locals")

    # ------------------------------------------------------------------
    # Forward walker: pin + status families
    # ------------------------------------------------------------------

    def _check_function(self, fn: cppast.Func):
        env: dict[str, V] = {}
        self._walk(fn.body, env, 0)
        self._scope_exit(env, 0)

    def _walk(self, stmt, env, depth) -> bool:
        """Returns True when every path through stmt terminates."""
        k = stmt.kind
        if k == "block":
            inner = depth + 1
            terminated = False
            for child in stmt.children:
                if self._walk(child, env, inner):
                    terminated = True
                    break
            self._scope_exit(env, inner)
            return terminated
        if k == "simple" or k == "commit":
            self._sub_contexts(stmt)
            self._simple_stmt(stmt, env, depth)
            return False
        if k == "return":
            self._sub_contexts(stmt)
            self._scan_events(stmt.tokens, env, stmt.line)
            for v in env.values():
                if v.kind == "status" and v.pending and \
                        _mentions(stmt.tokens, env, v):
                    v.pending = False
            self._return_swallow_check(env)
            self._ioerror_ok_check(stmt.tokens, stmt.line)
            return True
        if k in ("break", "continue"):
            return True
        if k == "if":
            return self._if_stmt(stmt, env, depth)
        if k == "loop":
            return self._loop_stmt(stmt, env, depth)
        if k == "switch":
            self._scan_events(stmt.tokens, env, stmt.line)
            body_env = _clone_env(env)
            for child in stmt.children:
                self._walk(child, body_env, depth + 1)
            return False
        return False

    def _sub_contexts(self, stmt):
        """Analyzes detached brace groups (lambda bodies, brace inits) as
        independent contexts: captured variables are unknown there, but
        locals declared inside are fully checked."""
        for sub in stmt.sub:
            env: dict[str, V] = {}
            self._walk(sub, env, 0)
            self._scope_exit(env, 0)

    def _simple_stmt(self, stmt, env, depth):
        toks = stmt.tokens
        if not toks:
            return
        decl = _try_decl(toks, self.reg)
        if decl is not None:
            name, kind, pin, init = decl
            # Uses inside the initializer happen before the variable
            # exists; scan them first.
            self._scan_events(init, env, stmt.line)
            env[name] = V(kind, pin=pin, line=stmt.line, depth=depth,
                          pending=(kind == "status" and
                                   _init_is_call(init, self.reg)))
            return
        # Assignment to a tracked variable.
        if len(toks) >= 2 and toks[0].kind == "id" and toks[0].text in env \
                and toks[1].text == "=":
            v = env[toks[0].text]
            self._scan_events(toks[2:], env, stmt.line)
            if v.kind == "status":
                if v.pending:
                    self.report(stmt.line, "status-swallowed",
                                f"'{toks[0].text}' holds an uninspected "
                                "Status from a call and is overwritten "
                                "without ok()/IgnoreError()")
                v.pending = _init_is_call(toks[2:], self.reg)
                v.ok = _init_is_ok_literal(toks[2:])
            else:
                v.alive = "valid"
                v.ok = False
            self._ioerror_ok_check(toks, stmt.line)
            return
        self._scan_events(toks, env, stmt.line)
        self._ioerror_ok_check(toks, stmt.line)

    def _if_stmt(self, stmt, env, depth) -> bool:
        self._sub_contexts(stmt)
        self._scan_events(stmt.tokens, env, stmt.line)
        tf, ff = _cond_facts(stmt.tokens, env)
        is_ioerror = any(t.text == "kIoError" for t in stmt.tokens)
        env_t = _clone_env(env)
        _apply_facts(env_t, tf)
        env_f = _clone_env(env)
        _apply_facts(env_f, ff)
        if is_ioerror and self.loop_depth == 0:
            self.in_ioerror_if += 1
        t_term = self._walk(stmt.children[0], env_t, depth)
        e_term = False
        if len(stmt.children) > 1:
            e_term = self._walk(stmt.children[1], env_f, depth)
        if is_ioerror and self.loop_depth == 0:
            self.in_ioerror_if -= 1
        if t_term and e_term:
            return True
        if t_term:
            env.clear()
            env.update(env_f)
        elif e_term:
            env.clear()
            env.update(env_t)
        else:
            merged = _merge_env(env_t, env_f)
            env.clear()
            env.update(merged)
        return False

    def _loop_stmt(self, stmt, env, depth) -> bool:
        self._sub_contexts(stmt)
        # Header: range-for declarations can bind pins by reference.
        header_decl = _try_decl(stmt.tokens, self.reg)
        self._scan_events(stmt.tokens, env, stmt.line)
        body_env = _clone_env(env)
        if header_decl is not None:
            name, kind, pin, _ = header_decl
            body_env[name] = V(kind, pin=pin, line=stmt.line, depth=depth + 1)
        self.loop_depth += 1
        self._walk(stmt.children[0], body_env, depth + 1)
        self.loop_depth -= 1
        body_env.pop(header_decl[0], None) if header_decl else None
        _merge_env(env, {k: v for k, v in body_env.items() if k in env})
        # An infinite loop with no break never falls through.
        if _is_infinite(stmt) and not _has_break(stmt.children[0]):
            return True
        return False

    # -- event extraction ---------------------------------------------------

    def _scan_events(self, toks, env, line):
        n = len(toks)
        k = 0
        while k < n:
            t = toks[k]
            # std::move(NAME)[.value()] / std::move(NAME.value())
            if t.text == "std" and _texts(toks, k, 4) == \
                    ["std", "::", "move", "("]:
                inner_name, close = _move_operand(toks, k + 3)
                if inner_name and inner_name in env:
                    v = env[inner_name]
                    takes_value = (
                        _texts(toks, close, 3) == [")", ".", "value"] or
                        _texts(toks, k + 4, 2)[1:] == ["."])
                    self._use_value_check(v, inner_name, line,
                                          takes_value=takes_value)
                    v.alive = "moved"
                    k = close + 1
                    continue
            # NAME.method(...)
            if t.kind == "id" and t.text in env and k + 3 < n and \
                    toks[k + 1].text == "." and toks[k + 2].kind == "id" and \
                    toks[k + 3].text == "(" and \
                    (k == 0 or toks[k - 1].text not in (".", "->")):
                self._member_use(toks, k, env, line)
                k += 3
                continue
            # SEGDB_CHECK(NAME.ok())
            if t.text == "SEGDB_CHECK" and k + 5 < n and \
                    toks[k + 1].text == "(" and toks[k + 2].kind == "id" and \
                    _texts(toks, k + 3, 3) == [".", "ok", "("]:
                nm = toks[k + 2].text
                if nm in env:
                    env[nm].ok = True
                    env[nm].pending = False
                k += 5
                continue
            # SEGDB_RETURN_IF_ERROR(NAME) on a status variable
            if t.text == "SEGDB_RETURN_IF_ERROR" and k + 2 < n and \
                    toks[k + 1].text == "(" and toks[k + 2].kind == "id" and \
                    toks[k + 2].text in env and k + 3 < n and \
                    toks[k + 3].text == ")":
                env[toks[k + 2].text].pending = False
                k += 3
                continue
            # Quiescent-writer call with a live pin
            if self.pin_rules and t.kind == "id" and \
                    t.text in model.QUIESCE_CALLS and k + 1 < n and \
                    toks[k + 1].text == "(":
                held = [nm for nm, v in env.items()
                        if v.alive == "valid" and
                        (v.kind in ("pageref", "pinvec") or
                         (v.kind == "result" and v.pin))]
                if held:
                    self.report(line, "pin-across-quiesce",
                                f"{t.text}() requires writer quiescence but "
                                f"pin(s) {', '.join(sorted(held))} are still "
                                "live; release or scope them first")
            # Temporary Result: Call(...).value()
            if t.kind == "id" and self.reg.returns_result(t.text) and \
                    k + 1 < n and toks[k + 1].text == "(" and \
                    (k == 0 or toks[k - 1].text != "."
                     or self.reg.returns_pin(t.text)):
                close = _match_paren(toks, k + 1)
                if _texts(toks, close, 3) == [")", ".", "value"]:
                    if self.reg.returns_pin(t.text):
                        self.report(
                            line, "pin-temporary",
                            f"{t.text}(...).value() pins into a temporary "
                            "Result destroyed at end of expression; bind "
                            "the PageRef to a local")
                    else:
                        self.report(
                            line, "status-unchecked-value",
                            f"value() on the unchecked temporary Result of "
                            f"{t.text}(...); bind it and test ok() first")
            k += 1

    def _member_use(self, toks, k, env, line):
        name = toks[k].text
        meth = toks[k + 2].text
        v = env[name]
        if meth == "ok" or meth == "code":
            if v.alive == "moved":
                self._moved_use(v, name, meth, line)
            v.pending = False
            return
        if meth in ("status", "ToString", "message", "IgnoreError"):
            if v.alive == "moved":
                self._moved_use(v, name, meth, line)
            v.pending = False
            return
        if meth == "value":
            self._use_value_check(v, name, line, takes_value=True)
            # ref.value().Release() / .page() chains act on the pinned
            # PageRef inside the Result.
            close = _match_paren(toks, k + 3)
            tail = _texts(toks, close, 3)
            if tail[:2] == [")", "."] and tail[2] is not None:
                self._inner_pin_use(v, name, toks[close + 2].text, line)
            return
        if meth == "Release":
            if v.kind == "pageref" or (v.kind == "result" and v.pin):
                if self.pin_rules:
                    self.report(line, "pin-raw-release",
                                f"raw {name}.Release() outside PageRef; let "
                                "RAII scope (or move-assignment) drop the "
                                "pin")
                v.alive = "released"
            return
        if meth in _PIN_USES and v.kind == "pageref":
            if v.alive in ("moved", "released"):
                self.report(line, "pin-use-after-invalid",
                            f"{name}.{meth}() after {name} was "
                            f"{v.alive}; the pin no longer protects the "
                            "frame")
            return

    def _inner_pin_use(self, v, name, meth, line):
        if not (v.kind == "result" and v.pin):
            return
        if meth == "Release":
            if self.pin_rules:
                self.report(line, "pin-raw-release",
                            f"raw {name}.value().Release() outside PageRef; "
                            "move the pin into a scoped PageRef local "
                            "instead")
            v.alive = "released"
        elif meth in _PIN_USES and v.alive in ("moved", "released"):
            self.report(line, "pin-use-after-invalid",
                        f"{name}.value().{meth}() after the pin was "
                        f"{v.alive}")

    def _use_value_check(self, v, name, line, takes_value):
        if v.alive == "moved":
            self._moved_use(v, name, "value", line)
            return
        if takes_value and v.kind == "result" and not v.ok:
            self.report(line, "status-unchecked-value",
                        f"{name}.value() is not dominated by an ok() check "
                        "on this path")

    def _moved_use(self, v, name, meth, line):
        rule = ("pin-use-after-invalid"
                if v.kind == "pageref" or (v.kind == "result" and v.pin)
                else "status-use-after-move")
        self.report(line, rule,
                    f"{name}.{meth}() after std::move({name}); the value "
                    "has been transferred")

    def _return_swallow_check(self, env):
        for name, v in env.items():
            if v.kind == "status" and v.pending:
                self.report(v.line, "status-swallowed",
                            f"Status '{name}' from a call is never "
                            "inspected on a path returning from this "
                            "function; check ok(), return it, or "
                            "IgnoreError()")

    def _scope_exit(self, env, depth):
        for name in [n for n, v in env.items() if v.depth >= depth]:
            v = env.pop(name)
            if v.kind == "status" and v.pending:
                self.report(v.line, "status-swallowed",
                            f"Status '{name}' from a call goes out of scope "
                            "without ok()/return/IgnoreError()")

    def _ioerror_ok_check(self, toks, line):
        if self.in_ioerror_if == 0:
            return
        texts = [t.text for t in toks]
        for k in range(len(texts) - 3):
            if texts[k:k + 4] == ["Status", "::", "OK", "("]:
                self.report(line, "status-ioerror-to-ok",
                            "kIoError (a retryable fault) is converted to "
                            "OK outside a retry loop; retry the operation "
                            "or propagate the error")
                return

    # ------------------------------------------------------------------
    # Backward pass: fault-atomicity commit points
    # ------------------------------------------------------------------

    def _check_atomicity(self, fn: cppast.Func):
        committed: dict[int, bool] = {}
        self._mark_commit(fn.body, False, committed)
        self._alloc_scan(fn.body, False, committed)

    def _mark_commit(self, stmt, committed, out) -> bool:
        """Forward pass: records per-stmt committed flag; returns the flag
        state after the statement. Also flags allocation-fallible calls
        inside a committed region."""
        out[id(stmt)] = committed
        if stmt.kind == "commit":
            return True
        if stmt.kind == "block":
            c = committed
            for child in stmt.children:
                c = self._mark_commit(child, c, out)
            return c
        if committed and _alloc_in_tokens(stmt.tokens, self.reg):
            self.report(stmt.line, "atomicity-fallible-after-commit",
                        "allocation-fallible call after "
                        "SEGDB_COMMIT_POINT(); nothing may fail once the "
                        "commit point is passed")
        for child in stmt.children:
            # A commit point inside one branch commits only that branch.
            self._mark_commit(child, committed, out)
        return committed

    def _alloc_scan(self, stmt, follow, committed) -> bool:
        """Backward pass; `follow` = an allocation-fallible call may still
        run after this statement. Returns the flag for the program point
        *before* the statement."""
        k = stmt.kind
        if k == "block":
            f = follow
            for child in reversed(stmt.children):
                f = self._alloc_scan(child, f, committed)
            return f
        if k == "return":
            return _alloc_in_tokens(stmt.tokens, self.reg)
        if k in ("break", "continue", "commit"):
            return follow
        if k == "if":
            branches = [self._alloc_scan(c, follow, committed)
                        for c in stmt.children]
            cond_alloc = _alloc_in_tokens(stmt.tokens, self.reg)
            return cond_alloc or any(branches) or \
                (follow and len(stmt.children) < 2)
        if k == "loop":
            body_alloc = _alloc_in_subtree(stmt.children[0], self.reg) or \
                _alloc_in_tokens(stmt.tokens, self.reg)
            self._alloc_scan(stmt.children[0], follow or body_alloc,
                             committed)
            self._flag_writes_in_tokens(stmt, follow or body_alloc,
                                        committed)
            return follow or body_alloc
        if k == "switch":
            body = self._alloc_scan(stmt.children[0], follow, committed)
            return follow or body
        # simple
        has_alloc = _alloc_in_tokens(stmt.tokens, self.reg)
        self._flag_writes_in_tokens(stmt, follow, committed)
        return follow or has_alloc

    def _flag_writes_in_tokens(self, stmt, follow, committed):
        if not follow or committed.get(id(stmt), False):
            return
        target = _member_write_target(stmt.tokens)
        if target:
            self.report(stmt.line, "atomicity-early-mutation",
                        f"member state '{target}' is written while a later "
                        "allocation-fallible call can still fail; build "
                        "aside and commit after the last fallible call, "
                        "mark the region with SEGDB_COMMIT_POINT(), or "
                        "document the rollback with // SEMA-OK:")

    # -- blocking-under-lock family (walker below) --------------------------

    def _check_blocking(self, fn):
        qual = annotations.func_qual(fn)
        caps = (self.facts.requires.get(qual)
                or self.facts.requires.get(fn.name) or set())
        _LockWalker(self, caps).walk_function(fn)

    # -- deadline-propagation family ----------------------------------------

    def _check_deadline(self, fn):
        ff = self.facts.files.get(self.rel)
        overrides = ff.loop_overrides if ff is not None else {}
        for stmt in cppast.iter_stmts(fn.body):
            if stmt.kind != "loop":
                continue
            if classify_loop(stmt, overrides) != "unbounded":
                continue
            if _mentions_deadline(stmt):
                continue
            self.report(
                stmt.line, "deadline-unpolled-loop",
                f"unbounded loop in Serve-reachable {fn.name}() neither "
                "polls util::Deadline nor has a classifiable bound; poll "
                "the deadline, bound the loop, or assert a class with "
                "// SEMA-LOOP: (DESIGN.md section 17)")


# ---------------------------------------------------------------------------
# Token-pattern helpers
# ---------------------------------------------------------------------------

def _texts(toks, k, count):
    """Texts of toks[k:k+count], padded with None; identifiers match the
    placeholder None in callers' comparisons via explicit slots."""
    out = []
    for i in range(k, k + count):
        out.append(toks[i].text if 0 <= i < len(toks) else None)
    return out


def _match_paren(toks, k):
    """toks[k] == '('; index of its matching ')' (not past it)."""
    depth = 0
    for i in range(k, len(toks)):
        if toks[i].text == "(":
            depth += 1
        elif toks[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(toks)


def _move_operand(toks, lparen):
    """For std::move(...) with '(' at lparen: returns (name, close_index)
    when the operand is a plain NAME or NAME.value(); else (None, close)."""
    close = _match_paren(toks, lparen)
    inner = toks[lparen + 1:close]
    if len(inner) == 1 and inner[0].kind == "id":
        return inner[0].text, close
    if len(inner) == 5 and inner[0].kind == "id" and \
            [t.text for t in inner[1:]] == [".", "value", "(", ")"]:
        return inner[0].text, close
    return None, close


def _try_decl(toks, reg):
    """Declaration of a tracked local: returns (name, kind, pin,
    init_tokens) or None."""
    i = 0
    n = len(toks)
    while i < n and toks[i].text in ("static", "const", "constexpr"):
        i += 1
    if i >= n:
        return None
    is_static = any(t.text == "static" for t in toks[:i])
    if toks[i].text == "auto":
        i += 1
        while i < n and toks[i].text in ("&", "&&", "*", "const"):
            i += 1
        if i >= n or toks[i].kind != "id":
            return None
        name = toks[i].text
        if i + 1 < n and toks[i + 1].text == "=":
            init = toks[i + 2:]
            kind, pin = _classify_init(init, reg)
            if kind:
                return (name, kind, pin, init)
        return None
    # Explicit type: collect type tokens until `NAME (=|(|{}|end)`.
    type_toks = []
    while i < n:
        t = toks[i]
        if t.kind == "id" and i + 1 < n and \
                toks[i + 1].text in ("=", "(", "{}", ";", ":") and \
                not _looks_like_type_tail(toks, i):
            type_texts = [x.text for x in type_toks]
            kind, pin = _classify_type(type_texts)
            if kind is None:
                return None
            if is_static and kind in ("pageref", "pinvec"):
                # Reported by the caller via pin-escape; still track it.
                pass
            init = toks[i + 2:] if i + 1 < n and toks[i + 1].text == "=" \
                else []
            if kind == "result" and not pin:
                _, init_pin = _classify_init(init, reg)
                pin = init_pin
            return (t.text, kind, pin, init)
        if t.kind == "id" or t.text in ("::", "<", ">", "&", "*", ",",
                                        "typename", "const"):
            type_toks.append(t)
            i += 1
            continue
        return None
    return None


def _looks_like_type_tail(toks, i):
    """toks[i] is an id candidate for the declared name; reject when it is
    actually part of the type/qualified path (followed by '::' or '<')."""
    if i + 1 < len(toks) and toks[i + 1].text in ("::", "<"):
        return True
    return False


def _classify_type(texts):
    if "PageRef" in texts:
        if "vector" in texts or "deque" in texts or "array" in texts:
            return ("pinvec", True)
        return ("pageref", True)
    if "Result" in texts:
        inner_pin = "PageRef" in texts[texts.index("Result"):]
        return ("result", inner_pin)
    if "Status" in texts and "StatusCode" not in texts:
        return ("status", False)
    return (None, False)


def _classify_init(init, reg):
    """Classifies a declaration initializer: ('result'|'status'|'pageref',
    pin) or (None, False)."""
    texts = [t.text for t in init]
    # std::move(X).value() or std::move(X.value()) -> a PageRef when X came
    # from a pin source; conservatively treat any moved .value() as a pin
    # only if 'Fetch'/'NewPage' cannot be resolved — the walker re-checks
    # use sites anyway.
    if texts[:4] == ["std", "::", "move", "("]:
        if ".value" in "".join(texts) or "value" in texts:
            return ("pageref", True)
        return (None, False)
    depth = 0
    for k, t in enumerate(init):
        if t.text == "(":
            if depth == 0 and k > 0 and init[k - 1].kind == "id":
                name = init[k - 1].text
                if reg.returns_result(name):
                    return ("result", reg.returns_pin(name))
                if name in reg.status_fns:
                    return ("status", False)
            depth += 1
        elif t.text == ")":
            depth -= 1
    return (None, False)


def _init_is_call(init, reg):
    depth = 0
    for k, t in enumerate(init):
        if t.text == "(":
            if depth == 0 and k > 0 and init[k - 1].kind == "id" and \
                    reg.is_fallible(init[k - 1].text) and \
                    not _is_status_factory(init, k - 1):
                return True
            depth += 1
        elif t.text == ")":
            depth -= 1
    return False


def _is_status_factory(toks, k):
    """True for `Status::Name(...)` — a constructed error value, not a
    fallible operation whose outcome must be inspected."""
    return k >= 2 and toks[k - 1].text == "::" and \
        toks[k - 2].text == "Status"


def _init_is_ok_literal(init):
    texts = [t.text for t in init]
    return texts[:4] == ["Status", "::", "OK", "("]


def _mentions(toks, env, v):
    for t in toks:
        if t.kind == "id" and t.text in env and env[t.text] is v:
            return True
    return False


def _split_top(toks, op):
    """Splits toks on top-level occurrences of punct `op`."""
    parts = []
    cur = []
    depth = 0
    for t in toks:
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
        if depth == 0 and t.text == op:
            parts.append(cur)
            cur = []
        else:
            cur.append(t)
    parts.append(cur)
    return parts


def _ok_atom(toks):
    """Recognizes `X.ok()` / `!X.ok()`: returns (name, positive) or None."""
    texts = [t.text for t in toks]
    neg = False
    if texts and texts[0] == "!":
        neg = True
        texts = texts[1:]
        toks = toks[1:]
    if len(texts) == 5 and toks[0].kind == "id" and \
            texts[1:] == [".", "ok", "(", ")"]:
        return (texts[0], not neg)
    return None


def _cond_facts(toks, env):
    """Returns (true_facts, false_facts): dicts name -> bool(ok)."""
    true_facts = {}
    false_facts = {}
    conj = _split_top(toks, "&&")
    disj = _split_top(toks, "||")
    if len(conj) > 1 and len(disj) == 1:
        for part in conj:
            atom = _ok_atom(part)
            if atom and atom[0] in env:
                true_facts[atom[0]] = atom[1]
    elif len(disj) > 1 and len(conj) == 1:
        for part in disj:
            atom = _ok_atom(part)
            if atom and atom[0] in env:
                false_facts[atom[0]] = not atom[1]
    elif len(conj) == 1 and len(disj) == 1:
        atom = _ok_atom(toks)
        if atom and atom[0] in env:
            true_facts[atom[0]] = atom[1]
            false_facts[atom[0]] = not atom[1]
    return true_facts, false_facts


def _apply_facts(env, facts):
    for name, is_ok in facts.items():
        v = env[name]
        v.pending = False
        v.ok = is_ok


def _alloc_in_tokens(toks, reg):
    for k in range(len(toks) - 1):
        if toks[k].kind == "id" and toks[k + 1].text == "(" and \
                reg.is_alloc(toks[k].text):
            return True
    return False


def _alloc_in_subtree(stmt, reg):
    for s in cppast.iter_stmts(stmt):
        if s.sub:
            # Lambda bodies are separate contexts (rollback closures);
            # their calls do not count as main-path allocations, but
            # iter_stmts includes them — check only the stmt's own tokens.
            pass
        if _alloc_in_tokens(s.tokens, reg):
            return True
    return False


def _member_write_target(toks):
    j = 0
    n = len(toks)
    if n >= 2 and toks[0].text == "this" and toks[1].text == "->":
        j = 2
    if j >= n:
        return None
    t = toks[j]
    if t.text in ("++", "--") and j + 1 < n and toks[j + 1].kind == "id" \
            and _is_member_name(toks[j + 1].text):
        return toks[j + 1].text
    if t.kind != "id" or not _is_member_name(t.text):
        return None
    if j + 1 >= n:
        return None
    nxt = toks[j + 1].text
    if nxt in _ASSIGN_OPS or nxt in ("++", "--"):
        return t.text
    if nxt == "." and j + 3 < n and toks[j + 2].kind == "id" and \
            toks[j + 2].text in _MUTATORS and toks[j + 3].text == "(":
        return t.text
    if nxt == "[":
        depth = 0
        for k in range(j + 1, n):
            if toks[k].text == "[":
                depth += 1
            elif toks[k].text == "]":
                depth -= 1
                if depth == 0:
                    if k + 1 < n and toks[k + 1].text in _ASSIGN_OPS:
                        return t.text
                    break
    return None


def _is_member_name(text):
    return text.endswith("_") and len(text) > 1


def _is_infinite(stmt):
    if stmt.loop_kind == "while":
        return [t.text for t in stmt.tokens] == ["true"]
    if stmt.loop_kind == "for":
        parts = _split_top(stmt.tokens, ";")
        return len(parts) == 3 and not parts[1]
    return False


def _has_break(stmt):
    # Breaks inside nested loops/switches bind to those, not this loop.
    if stmt.kind == "break":
        return True
    if stmt.kind in ("loop", "switch"):
        return False
    for c in stmt.children:
        if _has_break(c):
            return True
    return False


# ---------------------------------------------------------------------------
# Loop classification (shared by the deadline and I/O-cost families)
# ---------------------------------------------------------------------------

# Identifier fragments -> loop class, checked in order: the most specific
# semantic hint wins over the generic container-size fallback. DESIGN.md
# section 17 documents each class and its cost-lifting behavior.
_LOOP_NAME_RULES = (
    ("slab", ("slab",)),
    ("page", ("page", "leaf_pages", "frame")),
    ("record", ("record", "segment", "point", "result", "match", "hit",
                "frag", "entry", "run")),
    ("bounded", ("boundar", "child", "fanout")),
    ("height", ("path", "level", "height", "depth")),
    ("frontier", ("stack", "queue", "frontier", "pending", "todo", "work",
                  "heap")),
)

_CMP_OPS = {"<", ">", "<=", ">=", "!="}


def _ids_lower(toks):
    return [t.text.lower() for t in toks if t.kind == "id"]


def _name_class(toks):
    ids = _ids_lower(toks)
    for cls, frags in _LOOP_NAME_RULES:
        for name in ids:
            if any(f in name for f in frags):
                return cls
    return None


def classify_loop(stmt, overrides=None):
    """Best-effort loop-bound class from the header shape. Classes:
    const, bounded, height, page, record, slab, frontier, capacity,
    unbounded. `overrides` maps raw lines to `// SEMA-LOOP:` assertions
    (checked on the loop's line and the line above)."""
    if overrides:
        for ln in (stmt.line, stmt.line - 1):
            if ln in overrides:
                return overrides[ln]
    if _is_infinite(stmt):
        return "unbounded"
    toks = stmt.tokens
    texts = [t.text for t in toks]
    if stmt.loop_kind == "for":
        parts = _split_top(toks, ";")
        if len(parts) == 3:
            cond = parts[1]
        else:
            # Range-for: classify the iterated expression.
            colon = _split_top(toks, ":")
            iterable = colon[1] if len(colon) == 2 else toks
            cls = _name_class(iterable)
            # A range-for is always bounded by its container.
            return cls or "capacity"
    else:
        cond = toks
    cond_texts = [t.text for t in cond]
    # Descent shapes: chasing a page/node id to a sentinel.
    if "kInvalidPageId" in cond_texts or "kInvalidNode" in cond_texts:
        return "height"
    if (len(cond) == 3 and cond[0].kind == "id"
            and cond_texts[1] == ">=" and cond_texts[2] == "0"):
        return "height"
    # Cursor iteration: `while (cur.valid() && ...)`.
    if "valid" in cond_texts:
        return "record"
    cls = _name_class(cond)
    if cls is not None:
        return cls
    if any(t in _CMP_OPS for t in cond_texts):
        return "capacity"
    # Literal retry counts: `while (--retries)` style.
    if any(t.kind == "num" for t in cond):
        return "const"
    del texts
    return "unbounded"


# ---------------------------------------------------------------------------
# Blocking-under-lock family
# ---------------------------------------------------------------------------

_CONDVAR_WAITS = {"Wait", "WaitUntil"}


def _called_sites(toks):
    """(index, name) for every `name (` call in a token list."""
    out = []
    for k in range(len(toks) - 1):
        if toks[k].kind == "id" and toks[k + 1].text == "(":
            out.append((k, toks[k].text))
    return out


def _mutexlock_cap(toks):
    """`util::MutexLock name(&expr);` -> normalized capability, else None."""
    for k, t in enumerate(toks):
        if t.text != "MutexLock":
            continue
        if k + 2 < len(toks) and toks[k + 1].kind == "id" and \
                toks[k + 2].text in ("(", "{"):
            close = _match_paren(toks, k + 2) if toks[k + 2].text == "(" \
                else len(toks)
            arg_ids = [x.text for x in toks[k + 3:close] if x.kind == "id"]
            if arg_ids:
                return arg_ids[-1]
    return None


def _manual_lock_ops(toks):
    """(op, cap) for `expr.Lock()` / `expr->Unlock()` calls."""
    ops = []
    for k, name in _called_sites(toks):
        if name not in ("Lock", "Unlock"):
            continue
        if k >= 2 and toks[k - 1].text in (".", "->") and \
                toks[k - 2].kind == "id":
            ops.append((name, toks[k - 2].text))
    return ops


def _first_arg_ids(toks, lparen):
    """Identifier texts of the first top-level argument of the call whose
    '(' sits at lparen."""
    close = _match_paren(toks, lparen)
    args = _split_top(toks[lparen + 1:close], ",")
    if not args or not args[0]:
        return []
    return [t.text for t in args[0] if t.kind == "id"]


def blocking_quals(facts) -> frozenset:
    """Qualified function names whose definitions transitively reach a
    blocking seed, computed over receiver-resolved call edges (so an
    RNG's Next() never inherits Cursor::Next()'s page fetch). Cached on
    the Facts object."""
    if facts._blocking_quals is not None:
        return facts._blocking_quals
    index = annotations.call_index(facts)
    edges: dict[str, set[str]] = {}
    blocking: set[str] = set()
    for qual, defs in index.defs_by_qual.items():
        owner = qual.rsplit("::", 1)[0] if "::" in qual else ""
        for rel, fn in defs:
            for stmt in cppast.iter_stmts(fn.body):
                for _, name, recv in annotations.call_sites(
                        facts, stmt.tokens, rel):
                    if name in model.BLOCKING_SEEDS:
                        blocking.add(qual)
                    else:
                        edges.setdefault(qual, set()).update(
                            index.resolve_quals(name, recv, owner))
    changed = True
    while changed:
        changed = False
        for qual, callees in edges.items():
            if qual not in blocking and callees & blocking:
                blocking.add(qual)
                changed = True
    facts._blocking_quals = frozenset(blocking)
    return facts._blocking_quals


class _LockWalker:
    """Scoped capability tracking: MutexLock RAII scopes, manual
    Lock/Unlock, SEGDB_REQUIRES entry capabilities. Reports any call that
    transitively reaches a blocking seed while a capability is held, and
    records nested-acquire edges for the lock-order graph."""

    def __init__(self, checker: Checker, entry_caps):
        self.c = checker
        self.index = annotations.call_index(checker.facts)
        self.blocking = blocking_quals(checker.facts)
        self.entry_caps = set(entry_caps)
        self.owner = ""

    def walk_function(self, fn):
        qual = annotations.func_qual(fn)
        self.owner = qual.rsplit("::", 1)[0] if "::" in qual else ""
        self._walk(fn.body, [set(self.entry_caps)])

    def _walk(self, stmt, scopes):
        # Lambda bodies run later, under whatever locks their caller holds
        # then — analyze them as independent contexts (entry caps empty; a
        # lambda that must run locked should be a SEGDB_REQUIRES helper).
        for sub in stmt.sub:
            self._walk(sub, [set()])
        if stmt.kind == "block":
            scopes.append(set())
            for child in stmt.children:
                self._walk(child, scopes)
            scopes.pop()
            return
        held = set().union(*scopes)
        if stmt.tokens:
            if held:
                self._scan_calls(stmt, held)
            self._apply_lock_ops(stmt, scopes, held)
        for child in stmt.children:
            scopes.append(set())
            self._walk(child, scopes)
            scopes.pop()

    def _apply_lock_ops(self, stmt, scopes, held):
        cap = _mutexlock_cap(stmt.tokens)
        ops = _manual_lock_ops(stmt.tokens)
        for op, name in ops:
            if op == "Lock":
                self._acquire(name, scopes, held, stmt.line)
            else:
                for scope in reversed(scopes):
                    if name in scope:
                        scope.discard(name)
                        break
        if cap is not None:
            self._acquire(cap, scopes, held, stmt.line)

    def _acquire(self, cap, scopes, held, line):
        for prior in held:
            if prior != cap:
                self.c.lock_edges.append((prior, cap, line))
        scopes[-1].add(cap)

    def _scan_calls(self, stmt, held):
        toks = stmt.tokens
        for k, name, recv in annotations.call_sites(
                self.c.facts, toks, self.c.rel):
            if name in _CONDVAR_WAITS:
                waited = _first_arg_ids(toks, k + 1)
                waited_cap = annotations.normalize_cap(
                    " ".join(waited)) if waited else ""
                others = held - {waited_cap}
                if others:
                    self.c.report(
                        stmt.line, "blocking-under-lock",
                        f"CondVar::{name}({waited_cap}) while also holding "
                        f"{_fmt_caps(others)}; a wait may only hold the "
                        "mutex it releases")
                continue
            if name in model.BLOCKING_SEEDS:
                self.c.report(
                    stmt.line, "blocking-under-lock",
                    f"call to {name}() can block on device I/O or a "
                    f"condition variable while holding {_fmt_caps(held)}; "
                    "release the lock first (DESIGN.md section 17)")
            elif self.index.resolve_quals(name, recv, self.owner) \
                    & self.blocking:
                self.c.report(
                    stmt.line, "blocking-under-lock",
                    f"call to {name}() transitively reaches device I/O or "
                    f"a condition-variable wait while holding "
                    f"{_fmt_caps(held)}; release the lock first "
                    "(DESIGN.md section 17)")


def _fmt_caps(caps):
    return "lock(s) " + ", ".join(sorted(caps))


# ---------------------------------------------------------------------------
# Deadline-propagation family
# ---------------------------------------------------------------------------

_DEADLINE_HINTS = ("deadline", "expired", "remaining", "WaitUntil")


def _mentions_deadline(stmt):
    for s in cppast.iter_stmts(stmt):
        for t in s.tokens:
            low = t.text.lower()
            if any(h.lower() in low for h in _DEADLINE_HINTS):
                return True
    return False


def lock_order_cycles(edges):
    """Cycle detection over lock-order edges [(before, after, where)].
    Returns one (cycle_path, where) per distinct cycle found; `where` is
    the location attached to the first edge that closes the cycle."""
    graph: dict[str, dict[str, object]] = {}
    for before, after, where in edges:
        graph.setdefault(before, {}).setdefault(after, where)
    cycles = []
    seen_cycles = set()
    state: dict[str, int] = {}  # 0 visiting, 1 done
    path: list[str] = []

    def visit(node):
        state[node] = 0
        path.append(node)
        for nxt, where in graph.get(node, {}).items():
            if state.get(nxt) == 0:
                cyc = tuple(path[path.index(nxt):]) + (nxt,)
                key = frozenset(cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append((cyc, where))
            elif nxt not in state:
                visit(nxt)
        path.pop()
        state[node] = 1

    for node in list(graph):
        if node not in state:
            visit(node)
    return cycles


def check_file(rel, ast, registry, facts=None):
    checker = Checker(rel, registry, facts)
    checker.check_file(ast)
    return checker.findings, checker.lock_edges
