#!/usr/bin/env python3
"""segdb architecture linter.

Enforces repo-specific invariants that clang-tidy cannot express. Runs
everywhere (no clang needed): plain-stdlib Python over the checked-in
sources. Wired into tools/lint.sh, the CMake `segdb-lint` target, ctest
(SegdbLintTree), and CI.

Rules
-----
layering        src/ is a DAG of layers (util <- geom <- io <- {btree,
                pst, segtree} <- core <- baseline; workload sits beside
                core). A quoted #include may only point at the
                file's own layer or a layer it is allowed to depend on —
                no back-edges, ever. New top-level src/ directories must
                be added to ALLOWED_DEPS or the linter rejects them.
raw-sync        std::mutex / std::lock_guard / std::condition_variable
                and friends appear only in src/util/sync.h. Everything
                else locks through the annotated util::Mutex wrappers so
                Clang Thread Safety Analysis sees every lock site.
io-bypass       DiskManager::ReadPage / WritePage are called only from
                src/io/ (the BufferPool). Index code that talked to the
                disk directly would silently corrupt the paper's I/O
                accounting (pool misses == charged block reads).
raw-io          raw device syscalls (pread/pwrite/open families) and
                liburing calls (io_uring_*) appear only in the two I/O
                engine translation units (src/io/async_io_engine.cc,
                src/io/file_disk_manager.cc). Anything else doing its own
                syscalls dodges the AsyncIoEngine seam — EINTR and
                short-transfer retries, O_DIRECT alignment, the fault
                story — and the golden I/O accounting.
naked-suppression
                Every NO_THREAD_SAFETY_ANALYSIS use carries a
                `// SAFETY:` justification on the same or one of the two
                preceding lines.
thread-local    `thread_local` only in the audited allowlist (per-worker
                result arenas); ad-hoc thread-locals hide cross-thread
                lifetime bugs from the annotations.
header-self-containment
                every header under src/ directly includes the standard
                headers for the std types it names (curated symbol map
                below): a header must compile on its own, not by riding
                on what its includers happened to pull in first.
no-abs          no std::abs / abs / labs / llabs calls in src/. |INT64_MIN|
                is not representable, so an abs-based range test is
                undefined behaviour exactly at the adversarial inputs it
                should reject; test coordinates with geom::InDomain or a
                plain range comparison.

Comment and string-literal contents are ignored for every rule except
naked-suppression's justification search (which looks for comments).

Usage: segdb_lint.py [--root DIR] [files...]
Files default to `git ls-files` (tracked + untracked, ignoring ignored)
under src/ tests/ bench/ examples/, falling back to a directory walk when
git is unavailable. Exits non-zero iff any violation is found.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

# Allowed #include dependencies between the top-level src/ layers
# (self-includes are always allowed). This is the layering DAG; edges not
# listed here are back-edges and fail the lint.
ALLOWED_DEPS = {
    "util": set(),
    "geom": {"util"},
    "io": {"geom", "util"},
    "btree": {"io", "geom", "util"},
    "pst": {"io", "geom", "util"},
    "segtree": {"btree", "io", "geom", "util"},
    "core": {"pst", "segtree", "btree", "io", "geom", "util"},
    "baseline": {"core", "pst", "segtree", "btree", "io", "geom", "util"},
    "workload": {"geom", "util"},
}

# The only file in src/ allowed to use raw standard-library sync types.
SYNC_HEADER = "src/util/sync.h"

# Files allowed to declare thread_local state. Additions need the same
# review as a new mutex: who owns the lifetime, which threads see it.
THREAD_LOCAL_ALLOWLIST = {
    "src/geom/filter_kernel.cc",  # per-worker ResultBuffer arena
    "src/geom/decode_kernel.cc",  # per-worker column-decode scratch pool
}

SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
SOURCE_DIRS = ("src", "tests", "bench", "examples")

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any"
    r")\b")
# Raw time machinery outside src/util/: sleeps and hand-rolled
# std::chrono deadline math bypass util::Deadline (monotonic clock,
# remaining-budget propagation) and CondVar::WaitUntil. util/ itself
# implements those wrappers, so it is the one place allowed to name
# std::chrono / std::this_thread.
RAW_TIME_RE = re.compile(
    r"\bstd\s*::\s*(this_thread\s*::\s*sleep_(?:for|until)|chrono)\b")
IO_BYPASS_RE = re.compile(
    r"\b(ReadPage|WritePage|WritePagePrefix|Sync)\s*\(")
# The only translation units allowed to issue raw device syscalls or
# liburing calls; everything else goes through FileDiskManager or the
# ReadFullAt/WriteFullAt helpers.
RAW_IO_OWNERS = (
    "src/io/async_io_engine.cc",
    "src/io/file_disk_manager.cc",
)
RAW_IO_RE = re.compile(
    r"\b(io_uring_\w+|pread(?:64|v2?)?|pwrite(?:64|v2?)?|open(?:at)?"
    r"|fsync|fdatasync)"
    r"\s*\(")
# Matched on stripped lines (so commented-out includes don't count); the
# path itself is re-extracted from the raw line because the stripper
# blanks string-literal contents, include paths included.
INCLUDE_DIRECTIVE_RE = re.compile(r'^\s*#\s*include\s*"')
INCLUDE_PATH_RE = re.compile(r'#\s*include\s*"([^"]+)"')
SUPPRESSION_TOKEN = "NO_THREAD_SAFETY_ANALYSIS"

# Standard symbols a src/ header may only name after directly including
# the header that declares them. Deliberately curated: entries are added
# when a symbol is actually used in the tree, and every entry must be
# unambiguous (exactly one owning standard header).
STD_HEADER_FOR = {
    "std::vector": "vector",
    "std::string": "string",
    "std::string_view": "string_view",
    "std::span": "span",
    "std::array": "array",
    "std::deque": "deque",
    "std::unordered_map": "unordered_map",
    "std::unordered_set": "unordered_set",
    "std::map": "map",
    "std::optional": "optional",
    "std::unique_ptr": "memory",
    "std::shared_ptr": "memory",
    "std::function": "functional",
    "std::atomic": "atomic",
    "std::tuple": "tuple",
    "uint8_t": "cstdint",
    "uint16_t": "cstdint",
    "uint32_t": "cstdint",
    "uint64_t": "cstdint",
    "int8_t": "cstdint",
    "int16_t": "cstdint",
    "int32_t": "cstdint",
    "int64_t": "cstdint",
}
STD_SYMBOL_RE = re.compile(
    r"\b(std\s*::\s*[a-z_]+|u?int(?:8|16|32|64)_t)\b")
ANGLE_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<([^>]+)>")
THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")
SAFETY_COMMENT_RE = re.compile(r"//.*\bSAFETY:")

# Column-codec internals: parsing packed-region headers or (un)packing
# bit-packed lanes outside their owning layers skips the views' decode
# caching and canonical re-encode, and silently breaks when the page
# format evolves. Index layers go through ColumnarPageView /
# ConstColumnarPageView (or the strips() API feeding the filter kernels).
STRIP_ACCESS_RE = re.compile(
    r"\b(ParsePackedRegionHeader|PackedRegionLane|EncodeColumnarRegion|"
    r"DecodeColumnarRegion|PackLaneBits|UnpackLaneBits)"
    r"\s*\(")
# The layers that own the packed format: the codec itself and the decode
# kernels it dispatches to.
STRIP_ACCESS_OWNERS = ("src/io/", "src/geom/decode_kernel.")

# Integer absolute value, qualified or not (fabs and friends have no word
# boundary before "abs" and stay allowed).
ABS_CALL_RE = re.compile(r"\b(?:std\s*::\s*)?(abs|labs|llabs)\s*\(")


@dataclass(frozen=True)
class Violation:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Comment / string stripping (line structure preserved)
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, keeping newlines so
    line numbers survive. Handles //, /* */, escape sequences, and the
    simple R"( )" raw-string form."""
    out = []
    i = 0
    n = len(text)
    CODE, LINE, BLOCK, STR, CHAR, RAW = range(6)
    state = CODE
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == CODE:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal: R"delim( ... )delim"
                if i > 0 and text[i - 1] == "R" and (
                        i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^()\\ ]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = RAW
                        out.append('"')
                        i += 1
                        continue
                state = STR
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE:
            if c == "\n":
                state = CODE
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = CODE
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == STR:
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == '"':
                state = CODE
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == "'":
                state = CODE
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # RAW
            if text.startswith(raw_delim, i):
                state = CODE
                out.append(raw_delim)
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Rules (each takes the repo-relative path plus raw and stripped lines)
# --------------------------------------------------------------------------

def check_layering(rel, raw_lines, code_lines):
    if not rel.startswith("src/"):
        return
    parts = rel.split("/")
    if len(parts) < 3:  # src/CMakeLists.txt etc.
        return
    layer = parts[1]
    if layer not in ALLOWED_DEPS:
        yield Violation(rel, 1, "layering",
                        f"unknown src/ layer '{layer}'; add it to "
                        "ALLOWED_DEPS in tools/segdb_lint.py")
        return
    allowed = ALLOWED_DEPS[layer] | {layer}
    for lineno, line in enumerate(code_lines, 1):
        if not INCLUDE_DIRECTIVE_RE.match(line):
            continue
        m = INCLUDE_PATH_RE.search(raw_lines[lineno - 1])
        if not m:
            continue
        included = m.group(1)
        target = included.split("/")[0] if "/" in included else layer
        if target not in ALLOWED_DEPS:
            yield Violation(rel, lineno, "layering",
                            f'include "{included}" does not resolve to a '
                            "known src/ layer")
        elif target not in allowed:
            yield Violation(
                rel, lineno, "layering",
                f"layer '{layer}' must not include layer '{target}' "
                f"(allowed: {', '.join(sorted(allowed))})")


def check_raw_sync(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or rel == SYNC_HEADER:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = RAW_SYNC_RE.search(line)
        if m:
            yield Violation(
                rel, lineno, "raw-sync",
                f"std::{m.group(1)} outside {SYNC_HEADER}; use the "
                "annotated util::Mutex / util::MutexLock / util::CondVar")


def check_raw_time(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or rel.startswith("src/util/"):
        return
    for lineno, line in enumerate(code_lines, 1):
        m = RAW_TIME_RE.search(line)
        if m:
            what = "std::" + re.sub(r"\s+", "", m.group(1))
            yield Violation(
                rel, lineno, "raw-time",
                f"{what} outside src/util/; express timeouts through "
                "util::Deadline and waits through util::CondVar::WaitUntil "
                "so budgets propagate and clocks stay monotonic")


def check_io_bypass(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or rel.startswith("src/io/"):
        return
    for lineno, line in enumerate(code_lines, 1):
        m = IO_BYPASS_RE.search(line)
        if m:
            yield Violation(
                rel, lineno, "io-bypass",
                f"{m.group(1)}() outside src/io/ bypasses the BufferPool "
                "and breaks the paper's I/O accounting; fetch pages "
                "through io::BufferPool, and leave durability barriers "
                "(Sync) to the WriteAheadLog commit/checkpoint protocol")


def check_raw_io(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or rel in RAW_IO_OWNERS:
        return
    for lineno, line in enumerate(code_lines, 1):
        m = RAW_IO_RE.search(line)
        if m:
            yield Violation(
                rel, lineno, "raw-io",
                f"{m.group(1)}() outside the I/O engine files "
                f"({', '.join(RAW_IO_OWNERS)}) bypasses the AsyncIoEngine "
                "retry/alignment seam; go through io::FileDiskManager or "
                "io::ReadFullAt/WriteFullAt")


def check_naked_suppression(rel, raw_lines, code_lines):
    for lineno, line in enumerate(code_lines, 1):
        if SUPPRESSION_TOKEN not in line:
            continue
        if line.lstrip().startswith("#"):
            continue  # the macro's own #define / #ifdef plumbing
        window = raw_lines[max(0, lineno - 3):lineno]
        if any(SAFETY_COMMENT_RE.search(raw) for raw in window):
            continue
        yield Violation(
            rel, lineno, "naked-suppression",
            f"{SUPPRESSION_TOKEN} without a '// SAFETY:' justification on "
            "the same or one of the two preceding lines")


def check_thread_local(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or rel in THREAD_LOCAL_ALLOWLIST:
        return
    for lineno, line in enumerate(code_lines, 1):
        if THREAD_LOCAL_RE.search(line):
            yield Violation(
                rel, lineno, "thread-local",
                "thread_local outside the allowlist in tools/segdb_lint.py; "
                "per-thread state needs a lifetime review before it is "
                "exempted")


def check_header_self_containment(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or not rel.endswith(".h"):
        return
    included = set()
    for line in code_lines:
        m = ANGLE_INCLUDE_RE.match(line)
        if m:
            included.add(m.group(1))
    reported = set()
    for lineno, line in enumerate(code_lines, 1):
        if line.lstrip().startswith("#"):
            continue
        for m in STD_SYMBOL_RE.finditer(line):
            symbol = re.sub(r"\s+", "", m.group(1))
            header = STD_HEADER_FOR.get(symbol)
            if header is None or header in included or header in reported:
                continue
            reported.add(header)
            yield Violation(
                rel, lineno, "header-self-containment",
                f"'{symbol}' is used but <{header}> is not included "
                "directly; headers must include what they use")


def check_strip_access(rel, _raw_lines, code_lines):
    if not rel.startswith("src/") or rel.startswith(STRIP_ACCESS_OWNERS):
        return
    for lineno, line in enumerate(code_lines, 1):
        m = STRIP_ACCESS_RE.search(line)
        if m:
            yield Violation(
                rel, lineno, "strip-access",
                f"{m.group(1)}() outside the column-codec owners "
                "(src/io/, the decode kernels) pokes the packed page "
                "format directly; go through io::ColumnarPageView / "
                "ConstColumnarPageView")


def check_no_abs(rel, _raw_lines, code_lines):
    if not rel.startswith("src/"):
        return
    for lineno, line in enumerate(code_lines, 1):
        m = ABS_CALL_RE.search(line)
        if m:
            yield Violation(
                rel, lineno, "no-abs",
                f"{m.group(1)}() in src/: |INT64_MIN| is not representable, "
                "so an abs-based range test is undefined where it matters; "
                "use geom::InDomain or a range comparison")


RULES = (check_layering, check_raw_sync, check_raw_time, check_io_bypass,
         check_raw_io, check_naked_suppression, check_thread_local,
         check_header_self_containment, check_strip_access, check_no_abs)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_text(rel: str, text: str) -> list[Violation]:
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    # splitlines() on stripped text always matches raw line count: the
    # stripper preserves every newline.
    violations = []
    for rule in RULES:
        violations.extend(rule(rel, raw_lines, code_lines))
    return violations


def collect_files(root: str) -> list[str]:
    """Repo-relative source files: git (tracked + unignored untracked)
    when available, else a filesystem walk skipping build trees."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files", "-co", "--exclude-standard",
             "--", *SOURCE_DIRS],
            capture_output=True, text=True, check=True).stdout
        files = [f for f in out.splitlines() if f.endswith(SOURCE_EXTENSIONS)]
        if files:
            return sorted(files)
    except (OSError, subprocess.CalledProcessError):
        pass
    files = []
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if not d.startswith("build")]
            for name in filenames:
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    files.append(os.path.relpath(full, root).replace(
                        os.sep, "/"))
    return sorted(files)


def run(root: str, files: list[str] | None = None) -> list[Violation]:
    if files is None:
        files = collect_files(root)
    violations = []
    for rel in files:
        rel = rel.replace(os.sep, "/")
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8", errors="replace") as fh:
            violations.extend(lint_text(rel, fh.read()))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", dest="fmt",
                        help="output format (sarif: SARIF 2.1.0 for GitHub "
                             "code scanning)")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout "
                             "(the exit code is unchanged)")
    parser.add_argument("files", nargs="*",
                        help="repo-relative files to lint (default: all "
                             "sources under src/ tests/ bench/ examples/)")
    args = parser.parse_args(argv)

    violations = run(args.root, args.files or None)
    if args.fmt == "sarif":
        import sarif
        if args.output:
            sarif.write_file("segdb_lint", violations, args.output)
        else:
            sarif.dump("segdb_lint", violations, sys.stdout)
    else:
        out = sys.stdout
        if args.output:
            out = open(args.output, "w", encoding="utf-8")
        for v in violations:
            print(v, file=out)
        if args.output:
            out.close()
    if violations:
        print(f"segdb_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("segdb_lint: OK",
          file=sys.stderr if args.fmt == "sarif" else sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
