"""Fallible-function registry and allocation-closure call graph.

The checks are name-based where the pycpp frontend has no type
information: a registry built from every declaration and definition in
the analyzed file set records which function names return Status or
Result<T> (and which Result<T>s carry a PageRef pin). The atomicity
family additionally needs the set of calls that can *allocate* — seeded
with BufferPool::NewPage / DiskManager::AllocatePage and closed over the
call graph, so `Insert` on a nested structure that may split pages is
recognized as allocation-fallible at its call site. FreePage is excluded
by contract: rollbacks depend on it (DESIGN.md section 13).
"""

from __future__ import annotations

from segdb_sema import cppast

# Functions whose Result carries a buffer-pool pin.
PIN_SOURCES = {"Fetch", "NewPage"}
# Allocation seeds for the atomicity closure.
ALLOC_SEEDS = {"NewPage", "AllocatePage"}
# Deliberately never allocation-fallible (rollbacks depend on them).
ALLOC_EXEMPT = {"FreePage"}
# Quiescent-writer calls a live pin must never be held across.
QUIESCE_CALLS = {"EvictAll", "FlushAll"}
# Mutation entry points the fault-atomicity family analyzes (plus their
# transitive callees that also live in the mutation directories).
MUTATION_ROOTS = {"Insert", "Erase", "BulkLoad", "BulkLoadWithPositions"}
MUTATION_DIRS = ("src/core/", "src/btree/", "src/segtree/", "src/baseline/")

# Names every analysis knows even when the declaring header is not part
# of the analyzed file set (fixtures, single-file runs).
BUILTIN_STATUS = {
    "FreePage", "FlushAll", "EvictAll", "CheckInvariants", "WritePage",
    "ReadPage", "DeletePage",
}
BUILTIN_RESULT = {
    "Fetch": "PageRef",
    "NewPage": "PageRef",
    "AllocatePage": "PageId",
}

# Seeds for the blocking closure (DESIGN.md section 17): calls that can
# suspend on device I/O, a condition variable, or admission control.
# Anything that transitively reaches one of these must not run while a
# util::Mutex capability is held (outside the documented exempt files).
BLOCKING_SEEDS = {
    # DiskManager surface (device I/O, possibly through the scheduler).
    "ReadPage", "WritePage", "PeekPage", "PeekPagesBatch",
    "WritePagePrefix", "AllocatePage", "FreePage",
    # AsyncIoEngine submission/completion and the raw pread/pwrite loops.
    "Start", "WaitOne", "ReadFullAt", "WriteFullAt",
    # BufferPool entry points (may fault in a page from the device).
    "Fetch", "Prefetch", "NewPage", "FlushAll", "EvictAll",
    # CondVar waits (allowed only on the mutex being waited on).
    "Wait", "WaitUntil",
    # Admission control parks the calling thread.
    "Serve",
    # WAL entry points: Commit group-commits (parks in the leader window,
    # then device writes + a durability barrier), Sync/Checkpoint issue the
    # barrier itself. Calling any of these while holding an unrelated lock
    # serializes every committer behind the device.
    "Sync", "Commit", "Checkpoint",
}

# Direct page-I/O seeds for the I/O-cost family: one device page access
# per call (Prefetch batches are still O(batch) accesses).
IO_SEEDS = {"Fetch", "Prefetch", "NewPage", "ReadPage", "WritePage",
            "PeekPage", "AllocatePage", "FreePage"}


class Registry:
    def __init__(self):
        self.status_fns: set[str] = set(BUILTIN_STATUS)
        self.result_fns: dict[str, str] = dict(BUILTIN_RESULT)
        self.calls: dict[str, set[str]] = {}   # definition name -> callees
        self.alloc_fns: set[str] = set(ALLOC_SEEDS)
        self._blocking: set[str] | None = None
        self._serve: set[str] | None = None

    # -- construction -------------------------------------------------------

    def add_file(self, ast: cppast.FileAst) -> None:
        for decl in ast.decls:
            self._add_head(decl.tokens)
        for fn in ast.functions:
            self._add_head(fn.head)
            if fn.name:
                callees = self.calls.setdefault(fn.name, set())
                callees.update(_called_names(fn.body))

    def _add_head(self, head) -> None:
        name = cppast.head_function_name(head)
        if not name:
            return
        returns_status, returns_result, inner = cppast.head_return_kinds(head)
        if returns_result:
            self.result_fns[name] = inner
        elif returns_status:
            self.status_fns.add(name)

    def finalize(self) -> None:
        """Closes alloc_fns over the call graph."""
        changed = True
        while changed:
            changed = False
            for name, callees in self.calls.items():
                if name in self.alloc_fns or name in ALLOC_EXEMPT:
                    continue
                if callees & self.alloc_fns:
                    self.alloc_fns.add(name)
                    changed = True

    # -- queries ------------------------------------------------------------

    def is_fallible(self, name: str) -> bool:
        return name in self.status_fns or name in self.result_fns

    def returns_result(self, name: str) -> bool:
        return name in self.result_fns

    def returns_pin(self, name: str) -> bool:
        if name in PIN_SOURCES:
            return True
        return "PageRef" in self.result_fns.get(name, "")

    def is_alloc(self, name: str) -> bool:
        return name in self.alloc_fns and name not in ALLOC_EXEMPT

    def closure(self, seeds: set[str]) -> set[str]:
        """Names that transitively *reach* a seed through the call graph
        (callers of callers, by name). Includes the seeds."""
        reached = set(seeds)
        changed = True
        while changed:
            changed = False
            for name, callees in self.calls.items():
                if name not in reached and callees & reached:
                    reached.add(name)
                    changed = True
        return reached

    def reachable_from(self, roots: set[str]) -> set[str]:
        """Names transitively *called from* the roots (callees of
        callees). Includes the roots."""
        names = set(roots)
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            for callee in self.calls.get(name, ()):
                if callee not in names:
                    names.add(callee)
                    frontier.append(callee)
        return names

    def blocking_names(self) -> set[str]:
        """BLOCKING_SEEDS plus everything that transitively reaches one."""
        if self._blocking is None:
            self._blocking = self.closure(set(BLOCKING_SEEDS))
        return self._blocking

    def serve_reachable(self) -> set[str]:
        """Function names on any call path from QueryEngine::Serve — the
        code the deadline-propagation family polices."""
        if self._serve is None:
            self._serve = self.reachable_from({"Serve"})
        return self._serve

    def mutation_names(self) -> set[str]:
        """MUTATION_ROOTS plus everything they transitively call that has
        a definition in the analyzed set (helpers like InsertRecursive,
        BuildSubtree)."""
        names = set(MUTATION_ROOTS)
        changed = True
        while changed:
            changed = False
            for name in list(names):
                for callee in self.calls.get(name, ()):
                    if callee in self.calls and callee not in names:
                        names.add(callee)
                        changed = True
        return names


def _called_names(body) -> set[str]:
    names = set()
    for stmt in cppast.iter_stmts(body):
        toks = stmt.tokens
        for k in range(len(toks) - 1):
            if toks[k].kind == "id" and toks[k + 1].text == "(":
                names.add(toks[k].text)
    return names


def build_registry(asts) -> Registry:
    reg = Registry()
    for ast in asts:
        reg.add_file(ast)
    reg.finalize()
    return reg
