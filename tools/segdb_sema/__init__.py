"""segdb_sema: AST-accurate semantic checker suite for segdb.

Six check families, enforcing the invariants the paper's I/O bounds and
the fault-atomicity contract rest on (DESIGN.md sections 14 and 17):

  pin discipline       every BufferPool::Fetch/NewPage result flows into an
                       RAII PageRef; no use after move/Release; no raw
                       Release() outside PageRef; no pin stored in a member
                       or static; no pin held across EvictAll/FlushAll.
  Status/Result flow   Result::value() dominated by an ok() test; a
                       call-produced Status is inspected, returned, or
                       IgnoreError()'d on every path; StatusCode::kIoError
                       is never converted to OK without a retry loop.
  fault atomicity      mutation methods (Insert/Erase/BulkLoad and their
                       helpers under src/{core,btree,segtree,baseline})
                       write member state only after the last
                       allocation-fallible call, after SEGDB_COMMIT_POINT(),
                       or under a `// SEMA-OK:` documented rollback.
  blocking-under-lock  no call that transitively reaches device I/O, a
                       CondVar wait, or Serve admission while a util::Mutex
                       capability is held; lock-order graph from
                       SEGDB_ACQUIRED_BEFORE declarations plus observed
                       nested acquires, with cycle detection.
  deadline propagation every loop in Serve-reachable code is classifiable
                       as bounded (height/record/... from the condition
                       shape, or an asserted `// SEMA-LOOP: <class>`) or
                       polls util::Deadline.
  I/O-cost bounds      every public query/mutation entry point declares its
                       page-access class with SEGDB_IO_BOUND("1"|"log"|
                       "sqrt"|"t/B"|"scan", ...); the checker derives each
                       function's class over the call graph (loop classes
                       lift callee terms) and flags annotations the derived
                       class exceeds — Theorems 1-2 of the paper are
                       thereby CI-enforced.

Two interchangeable frontends produce the same micro-AST:

  cindex   clang.cindex over compile_commands.json (preferred; used in CI
           where the clang python bindings are installed);
  pycpp    a built-in pure-Python C++ tokenizer + statement parser, so the
           suite runs — and is enforced — on toolchains without libclang.

`// SEMA-OK: <reason>` on the finding line or one of the two preceding
lines suppresses a finding; a SEMA-OK without a reason is itself reported
(sema-naked-suppression).

Run: python3 tools/segdb_sema [--frontend auto|pycpp|cindex] [files...]
"""

# No `from __future__ import annotations` here: it would bind a package
# attribute named `annotations` that shadows the annotations.py submodule
# in `from segdb_sema import annotations` resolution.

import os
import sys

# The stripper is shared with the architecture linter (tools/segdb_lint.py);
# both tools live in tools/, one directory above this package.
_TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

from segdb_sema.driver import (  # noqa: E402,F401  (public API)
    Finding,
    analyze_text,
    main,
    run,
)
