#!/usr/bin/env python3
"""Tests for tools/segdb_sema (the semantic checker suite).

Every rule in each of the six check families (pin discipline, Status
flow, fault atomicity, blocking-under-lock + lock order, deadline
propagation, I/O-cost bounds) is exercised with seeded-bug fixtures
that must fail and clean fixtures that must pass, mirroring
tools/test_segdb_lint.py. A meta-test runs the analyzer over the real
repository and requires it to be clean. Run directly or via ctest
(SegdbSemaSelftest / SegdbSemaTree).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import segdb_lint  # noqa: E402
from segdb_sema import analyze_text, run  # noqa: E402
from segdb_sema import annotations, cppast, iocost, model  # noqa: E402
from segdb_sema.lexer import lex  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rules_hit(findings):
    return sorted({f.rule for f in findings})


def wrap(body, rel_hint="src/core/fixture.cc", name="Demo",
         ret="Status"):
    """Wraps a function body into a minimal translation unit."""
    return (
        "namespace segdb {\n"
        f"{ret} {name}(io::BufferPool& pool) {{\n"
        f"{body}"
        "}\n"
        "}\n"
    )


# ---------------------------------------------------------------------------
# Parser / lexer sanity
# ---------------------------------------------------------------------------

class ParserTest(unittest.TestCase):
    def test_function_discovery(self):
        ast = cppast.parse_file(
            "namespace a {\nStatus F() { return Status::OK(); }\n}\n")
        self.assertEqual([f.name for f in ast.functions], ["F"])

    def test_brace_init_inside_call(self):
        # Regression: Point{...} arguments inside a call desynced the
        # statement collector into a zero-progress loop.
        ast = cppast.parse_file(
            "Segment MirrorX(const Segment& s) {\n"
            "  return Segment::Make(Point{2 * s.x1, s.y1},\n"
            "                       Point{2 * s.x2, s.y2}, s.id);\n"
            "}\n")
        self.assertEqual(len(ast.functions), 1)

    def test_lambda_is_detached_sub_block(self):
        ast = cppast.parse_file(
            "void F() {\n"
            "  auto g = [&](int x) { helper(x); };\n"
            "  g(1);\n"
            "}\n")
        stmts = ast.functions[0].body.children
        self.assertTrue(any(s.sub for s in stmts))

    def test_return_kind_classification(self):
        head = lex("Result<io::PageRef> Fetch")
        head.extend(lex("( )"))
        status, result, inner = cppast.head_return_kinds(head)
        self.assertFalse(status)
        self.assertTrue(result)
        self.assertIn("PageRef", inner)


# ---------------------------------------------------------------------------
# Family 1: pin discipline
# ---------------------------------------------------------------------------

class PinDisciplineTest(unittest.TestCase):
    def test_raw_release_on_pageref(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  io::PageRef pin = std::move(ref.value());\n"
            "  pin.Release();\n"
            "  return Status::OK();\n"))
        self.assertIn("pin-raw-release", rules_hit(findings))

    def test_raw_release_on_result_value(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  ref.value().Release();\n"
            "  return Status::OK();\n"))
        self.assertIn("pin-raw-release", rules_hit(findings))

    def test_use_after_move(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  io::PageRef pin = std::move(ref.value());\n"
            "  io::PageRef other = std::move(pin);\n"
            "  pin.page();\n"
            "  return Status::OK();\n"))
        self.assertIn("pin-use-after-invalid", rules_hit(findings))

    def test_pin_stored_in_member(self):
        findings = analyze_text(
            "src/core/holder.h",
            "namespace segdb {\n"
            "class Holder {\n"
            " private:\n"
            "  io::PageRef cached_;\n"
            "};\n"
            "}\n")
        self.assertEqual(rules_hit(findings), ["pin-escape"])

    def test_pin_held_across_quiesce(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  io::PageRef pin = std::move(ref.value());\n"
            "  SEGDB_RETURN_IF_ERROR(pool.EvictAll());\n"
            "  return Status::OK();\n"))
        self.assertIn("pin-across-quiesce", rules_hit(findings))

    def test_temporary_result_value(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  io::Page& p = pool.Fetch(1).value().page();\n"
            "  (void)p;\n"
            "  return Status::OK();\n"))
        self.assertIn("pin-temporary", rules_hit(findings))

    def test_clean_raii_flow(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  io::Page& p = ref.value().page();\n"
            "  (void)p;\n"
            "  ref.value().MarkDirty();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_clean_scoped_drop_then_fetch(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  { io::PageRef done = std::move(ref.value()); }\n"
            "  auto next = pool.Fetch(2);\n"
            "  if (!next.ok()) return next.status();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_buffer_pool_itself_is_exempt(self):
        findings = analyze_text("src/io/buffer_pool.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  ref.value().Release();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])


# ---------------------------------------------------------------------------
# Family 2: Status / Result flow
# ---------------------------------------------------------------------------

class StatusFlowTest(unittest.TestCase):
    def test_value_without_ok_check(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  io::Page& p = ref.value().page();\n"
            "  (void)p;\n"
            "  return Status::OK();\n"))
        self.assertIn("status-unchecked-value", rules_hit(findings))

    def test_value_on_wrong_branch(self):
        # The ok() fact holds only in the then-branch; using value() after
        # the merge (where the else-path did not return) is flagged.
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (ref.ok()) {\n"
            "    helper();\n"
            "  }\n"
            "  io::Page& p = ref.value().page();\n"
            "  (void)p;\n"
            "  return Status::OK();\n"))
        self.assertIn("status-unchecked-value", rules_hit(findings))

    def test_swallowed_status(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  Status s = pool.FlushAll();\n"
            "  return Status::OK();\n"))
        self.assertIn("status-swallowed", rules_hit(findings))

    def test_use_after_move(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  Status s = pool.FlushAll();\n"
            "  Status t = std::move(s);\n"
            "  if (!t.ok()) return t;\n"
            "  if (!s.ok()) return s;\n"
            "  return Status::OK();\n"))
        self.assertIn("status-use-after-move", rules_hit(findings))

    def test_ioerror_converted_to_ok(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  Status s = pool.FlushAll();\n"
            "  if (!s.ok() && s.code() == StatusCode::kIoError) {\n"
            "    return Status::OK();\n"
            "  }\n"
            "  return s;\n"))
        self.assertIn("status-ioerror-to-ok", rules_hit(findings))

    def test_ioerror_retry_loop_is_clean(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
            "    Status s = pool.FlushAll();\n"
            "    if (s.ok()) return Status::OK();\n"
            "    if (s.code() != StatusCode::kIoError) return s;\n"
            "  }\n"
            "  return Status::IoError(\"flush retries exhausted\");\n"))
        self.assertEqual(rules_hit(findings), [])

    def test_clean_early_return_guard(self):
        # The pin lives in an inner scope, so the later FlushAll (a
        # quiescent-writer call) sees no live pin.
        findings = analyze_text("src/core/f.cc", wrap(
            "  {\n"
            "    auto ref = pool.Fetch(1);\n"
            "    if (!ref.ok()) return ref.status();\n"
            "    io::Page& p = ref.value().page();\n"
            "    (void)p;\n"
            "  }\n"
            "  Status s = pool.FlushAll();\n"
            "  if (!s.ok()) return s;\n"
            "  Status ignored = pool.CheckInvariants();\n"
            "  ignored.IgnoreError();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_pin_across_flushall_is_flagged(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  Status s = pool.FlushAll();\n"
            "  return s;\n"))
        self.assertIn("pin-across-quiesce", rules_hit(findings))

    def test_status_factory_is_not_pending(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  Status removed = Status::NotFound(\"not stored\");\n"
            "  removed = Status::OK();\n"
            "  return removed;\n"))
        self.assertEqual(findings, [])

    def test_segdb_check_establishes_ok(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  auto ref = pool.Fetch(1);\n"
            "  SEGDB_CHECK(ref.ok());\n"
            "  io::Page& p = ref.value().page();\n"
            "  (void)p;\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])


# ---------------------------------------------------------------------------
# Family 3: fault-atomicity commit points
# ---------------------------------------------------------------------------

def mutation(body, name="Insert"):
    """A mutation-root method in a mutation directory. The fixture carries
    a (maximal) I/O-cost annotation so the atomicity tests stay isolated
    from the io-bound-missing entry-point rule."""
    return (
        "namespace segdb {\n"
        "class Tree {\n"
        " public:\n"
        f"  Status {name}(const Record& r);\n"
        " private:\n"
        "  uint64_t size_ = 0;\n"
        "  io::BufferPool* pool_ = nullptr;\n"
        "};\n"
        f"Status Tree::{name}(const Record& r) {{\n"
        "  SEGDB_IO_BOUND(\"scan\");\n"
        f"{body}"
        "}\n"
        "}\n"
    )


class AtomicityTest(unittest.TestCase):
    def test_member_write_before_alloc(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  ++size_;\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertIn("atomicity-early-mutation", rules_hit(findings))

    def test_member_write_before_alloc_in_loop(self):
        # The back edge makes the allocation reachable after the write.
        findings = analyze_text("src/btree/f.cc", mutation(
            "  while (r.more()) {\n"
            "    auto ref = pool_->NewPage();\n"
            "    if (!ref.ok()) return ref.status();\n"
            "    ++size_;\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertIn("atomicity-early-mutation", rules_hit(findings))

    def test_alloc_after_commit_point(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  SEGDB_COMMIT_POINT();\n"
            "  ++size_;\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertEqual(rules_hit(findings),
                         ["atomicity-fallible-after-commit"])

    def test_build_aside_then_commit_is_clean(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  SEGDB_COMMIT_POINT();\n"
            "  ++size_;\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_write_with_no_alloc_after_is_clean(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  ++size_;\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_non_mutation_dir_is_exempt(self):
        findings = analyze_text("src/geom/f.cc", mutation(
            "  ++size_;\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_free_page_is_not_allocation_fallible(self):
        # Rollbacks depend on FreePage; it must not extend the fallible
        # region (DESIGN.md section 13).
        findings = analyze_text("src/btree/f.cc", mutation(
            "  ++size_;\n"
            "  return pool_->FreePage(3);\n"))
        self.assertEqual(findings, [])

    def test_transitive_allocation_closure(self):
        # Grow() calls NewPage, Insert calls Grow: the write before Grow()
        # is inside the fallible region even though no NewPage is visible.
        text = (
            "namespace segdb {\n"
            "class Tree {\n"
            " public:\n"
            "  Status Insert(const Record& r);\n"
            " private:\n"
            "  Status Grow();\n"
            "  uint64_t size_ = 0;\n"
            "  io::BufferPool* pool_ = nullptr;\n"
            "};\n"
            "Status Tree::Grow() {\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"
            "}\n"
            "Status Tree::Insert(const Record& r) {\n"
            "  ++size_;\n"
            "  SEGDB_RETURN_IF_ERROR(Grow());\n"
            "  return Status::OK();\n"
            "}\n"
            "}\n"
        )
        findings = analyze_text("src/btree/f.cc", text)
        self.assertIn("atomicity-early-mutation", rules_hit(findings))


# ---------------------------------------------------------------------------
# Family 4: blocking-under-lock + lock order
# ---------------------------------------------------------------------------

class BlockingUnderLockTest(unittest.TestCase):
    def test_direct_blocking_call_under_lock(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  util::MutexLock lock(&mu_);\n"
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertIn("blocking-under-lock", rules_hit(findings))

    def test_transitive_blocking_call_under_lock(self):
        # Touch() never names a seed; it reaches WritePage through
        # Persist(), and the closure must carry that through.
        findings = analyze_text(
            "src/core/f.cc",
            "namespace segdb {\n"
            "class Store {\n"
            " public:\n"
            "  Status Touch();\n"
            " private:\n"
            "  Status Persist();\n"
            "  util::Mutex mu_;\n"
            "  io::DiskManager* disk_ = nullptr;\n"
            "};\n"
            "Status Store::Persist() {\n"
            "  return disk_->WritePage(1, nullptr);\n"
            "}\n"
            "Status Store::Touch() {\n"
            "  util::MutexLock lock(&mu_);\n"
            "  return Persist();\n"
            "}\n"
            "}\n")
        self.assertIn("blocking-under-lock", rules_hit(findings))

    def test_condvar_wait_holding_second_lock(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  util::MutexLock a(&mu_);\n"
            "  util::MutexLock b(&other_mu_);\n"
            "  cv_.Wait(&mu_);\n"
            "  return Status::OK();\n"))
        self.assertIn("blocking-under-lock", rules_hit(findings))

    def test_observed_lock_order_cycle(self):
        # F acquires mu_a_ then mu_b_; G the reverse: the observed-edge
        # graph has a two-node cycle.
        findings = analyze_text(
            "src/core/f.cc",
            "namespace segdb {\n"
            "void F() {\n"
            "  util::MutexLock a(&mu_a_);\n"
            "  util::MutexLock b(&mu_b_);\n"
            "}\n"
            "void G() {\n"
            "  util::MutexLock b(&mu_b_);\n"
            "  util::MutexLock a(&mu_a_);\n"
            "}\n"
            "}\n")
        self.assertIn("lock-order-cycle", rules_hit(findings))

    def test_declared_order_contradicted_by_acquire(self):
        # The header declares mu_a_ before mu_b_; the code nests them the
        # other way around.
        findings = analyze_text(
            "src/core/f.cc",
            "namespace segdb {\n"
            "util::Mutex mu_a_ SEGDB_ACQUIRED_BEFORE(mu_b_);\n"
            "util::Mutex mu_b_;\n"
            "void G() {\n"
            "  util::MutexLock b(&mu_b_);\n"
            "  util::MutexLock a(&mu_a_);\n"
            "}\n"
            "}\n")
        self.assertIn("lock-order-cycle", rules_hit(findings))

    def test_scoped_release_before_io_is_clean(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  {\n"
            "    util::MutexLock lock(&mu_);\n"
            "    ++hits_;\n"
            "  }\n"
            "  auto ref = pool.Fetch(1);\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_condvar_wait_on_own_mutex_is_clean(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  util::MutexLock lock(&mu_);\n"
            "  cv_.Wait(&mu_);\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_wal_commit_under_unrelated_lock(self):
        # Commit group-commits: it parks in the leader window and issues a
        # durability barrier. Holding an engine lock across it serializes
        # every committer behind the device.
        findings = analyze_text("src/core/f.cc", wrap(
            "  util::MutexLock lock(&engine_mu_);\n"
            "  auto lsn = wal_->Commit(images, payload);\n"
            "  if (!lsn.ok()) return lsn.status();\n"
            "  return Status::OK();\n"))
        self.assertIn("blocking-under-lock", rules_hit(findings))

    def test_wal_sync_and_checkpoint_under_lock(self):
        for call in ("wal_->Sync();\n", "wal_->Checkpoint();\n"):
            findings = analyze_text("src/core/f.cc", wrap(
                "  util::MutexLock lock(&mu_);\n"
                f"  {call}"
                "  return Status::OK();\n"))
            self.assertIn("blocking-under-lock", rules_hit(findings), call)

    def test_unlock_before_wal_commit_is_clean(self):
        findings = analyze_text("src/core/f.cc", wrap(
            "  {\n"
            "    util::MutexLock lock(&mu_);\n"
            "    ++pending_;\n"
            "  }\n"
            "  auto lsn = wal_->Commit(images, payload);\n"
            "  if (!lsn.ok()) return lsn.status();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])


# ---------------------------------------------------------------------------
# Family 5: deadline propagation
# ---------------------------------------------------------------------------

def serve_reaching(body):
    """A helper on a call path from QueryEngine-style Serve()."""
    return (
        "namespace segdb {\n"
        "class Engine {\n"
        " public:\n"
        "  Status Serve(Request& q);\n"
        " private:\n"
        "  Status Drain(Request& q);\n"
        "};\n"
        "Status Engine::Serve(Request& q) { return Drain(q); }\n"
        "Status Engine::Drain(Request& q) {\n"
        f"{body}"
        "}\n"
        "}\n"
    )


class DeadlineTest(unittest.TestCase):
    def test_unbounded_while_without_poll(self):
        findings = analyze_text("src/core/f.cc", serve_reaching(
            "  while (q.More()) {\n"
            "    q.Step();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertEqual(rules_hit(findings), ["deadline-unpolled-loop"])

    def test_infinite_for_without_poll(self):
        findings = analyze_text("src/core/f.cc", serve_reaching(
            "  for (;;) {\n"
            "    q.Step();\n"
            "  }\n"))
        self.assertIn("deadline-unpolled-loop", rules_hit(findings))

    def test_deadline_poll_is_clean(self):
        findings = analyze_text("src/core/f.cc", serve_reaching(
            "  while (q.More()) {\n"
            "    if (q.deadline().Expired()) {\n"
            "      return Status::DeadlineExceeded(\"serve budget\");\n"
            "    }\n"
            "    q.Step();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_sema_loop_class_is_clean(self):
        findings = analyze_text("src/core/f.cc", serve_reaching(
            "  // SEMA-LOOP: record (drains one bounded result batch)\n"
            "  while (q.More()) {\n"
            "    q.Step();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_same_loop_outside_serve_path_is_clean(self):
        findings = analyze_text(
            "src/core/f.cc",
            "namespace segdb {\n"
            "Status Drain(Request& q) {\n"
            "  while (q.More()) {\n"
            "    q.Step();\n"
            "  }\n"
            "  return Status::OK();\n"
            "}\n"
            "}\n")
        self.assertEqual(findings, [])


# ---------------------------------------------------------------------------
# Family 6: I/O-cost bounds
# ---------------------------------------------------------------------------

def query_entry(body):
    """A public Query entry point in an entry directory."""
    return (
        "namespace segdb {\n"
        "class Index {\n"
        " public:\n"
        "  Status Query(const Segment& q, std::vector<Segment>* out);\n"
        " private:\n"
        "  io::BufferPool* pool_ = nullptr;\n"
        "  io::PageId root_ = 0;\n"
        "};\n"
        "Status Index::Query(const Segment& q, std::vector<Segment>* out) {\n"
        f"{body}"
        "}\n"
        "}\n"
    )


class IoCostTest(unittest.TestCase):
    def test_over_budget_record_loop(self):
        # A Fetch inside a record-bounded loop derives t/B, which the
        # declared O(1) budget does not cover.
        findings = analyze_text("src/core/f.cc", query_entry(
            "  SEGDB_IO_BOUND(\"1\");\n"
            "  for (uint32_t rec = 0; rec < q.record_count; ++rec) {\n"
            "    auto ref = pool_->Fetch(root_);\n"
            "    if (!ref.ok()) return ref.status();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertIn("io-bound-exceeded", rules_hit(findings))

    def test_unbounded_loop_derives_scan(self):
        findings = analyze_text("src/core/f.cc", query_entry(
            "  SEGDB_IO_BOUND(\"log\", \"t/B\");\n"
            "  while (q.More()) {\n"
            "    auto ref = pool_->Fetch(root_);\n"
            "    if (!ref.ok()) return ref.status();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertIn("io-bound-exceeded", rules_hit(findings))

    def test_missing_annotation_on_entry_point(self):
        findings = analyze_text("src/core/f.cc", query_entry(
            "  return Status::OK();\n"))
        self.assertEqual(rules_hit(findings), ["io-bound-missing"])

    def test_unknown_term_is_invalid(self):
        findings = analyze_text("src/core/f.cc", query_entry(
            "  SEGDB_IO_BOUND(\"n^2\");\n"
            "  return Status::OK();\n"))
        self.assertIn("io-bound-invalid", rules_hit(findings))

    def test_theorem_shaped_descent_is_clean(self):
        # A height-bounded descent (log) plus a record-bounded report loop
        # (t/B) matches the Theorem 1 annotation exactly.
        findings = analyze_text("src/core/f.cc", query_entry(
            "  SEGDB_IO_BOUND(\"log\", \"t/B\");\n"
            "  io::PageId cur = root_;\n"
            "  while (cur != kInvalidPageId) {\n"
            "    auto ref = pool_->Fetch(cur);\n"
            "    if (!ref.ok()) return ref.status();\n"
            "    cur = ChildOf(ref.value());\n"
            "  }\n"
            "  for (uint32_t rec = 0; rec < q.record_count; ++rec) {\n"
            "    auto leaf = pool_->Fetch(root_);\n"
            "    if (!leaf.ok()) return leaf.status();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_sema_ok_suppresses_exceeded(self):
        findings = analyze_text("src/core/f.cc", query_entry(
            "  // SEMA-OK: rebuild path; amortized O(log_B n) per update.\n"
            "  SEGDB_IO_BOUND(\"1\");\n"
            "  for (uint32_t rec = 0; rec < q.record_count; ++rec) {\n"
            "    auto ref = pool_->Fetch(root_);\n"
            "    if (!ref.ok()) return ref.status();\n"
            "  }\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class SuppressionTest(unittest.TestCase):
    def test_sema_ok_suppresses(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  // SEMA-OK: rolled back by the caller's unwind closure.\n"
            "  ++size_;\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertEqual(findings, [])

    def test_naked_sema_ok_is_flagged(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  ++size_;  // SEMA-OK\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertIn("sema-naked-suppression", rules_hit(findings))

    def test_suppression_window_is_two_lines(self):
        findings = analyze_text("src/btree/f.cc", mutation(
            "  // SEMA-OK: reason that is too far away from the finding.\n"
            "  helper();\n"
            "  helper();\n"
            "  ++size_;\n"
            "  auto ref = pool_->NewPage();\n"
            "  if (!ref.ok()) return ref.status();\n"
            "  return Status::OK();\n"))
        self.assertIn("atomicity-early-mutation", rules_hit(findings))


# ---------------------------------------------------------------------------
# Real tree
# ---------------------------------------------------------------------------

class RealTreeTest(unittest.TestCase):
    def test_repository_is_clean(self):
        findings = run(REPO_ROOT, frontend="pycpp")
        self.assertEqual([str(f) for f in findings], [])

    def test_theorem_queries_derive_their_classes(self):
        # The SEGDB_IO_BOUND checks are only as strong as the derivation:
        # a call the checker cannot resolve contributes nothing, so a
        # refactor could leave both annotations passing while checking
        # nothing. Pin the derived sets themselves: Theorem 1 for
        # Solution A, Theorem 2 (G's sqrt included) for Solution B.
        facts = annotations.Facts()
        for rel in segdb_lint.collect_files(REPO_ROOT):
            if not rel.startswith("src/") or not rel.endswith((".h", ".cc")):
                continue
            with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
                text = f.read()
            annotations.harvest_file(
                facts, rel, text, segdb_lint.strip_comments_and_strings(text))
        costs = iocost.derived_costs(facts)
        self.assertEqual(costs.get("TwoLevelBinaryIndex::Query"),
                         frozenset({"log", "t/B"}))
        self.assertEqual(costs.get("TwoLevelIntervalIndex::Query"),
                         frozenset({"log", "sqrt", "t/B"}))

    def test_registry_knows_pool_signatures(self):
        reg = model.Registry()
        self.assertTrue(reg.returns_pin("Fetch"))
        self.assertTrue(reg.returns_pin("NewPage"))
        self.assertFalse(reg.returns_pin("AllocatePage"))
        self.assertTrue(reg.is_fallible("FlushAll"))


if __name__ == "__main__":
    unittest.main()
