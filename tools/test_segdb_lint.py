#!/usr/bin/env python3
"""Tests for tools/segdb_lint.py.

Every rule is exercised with fixture snippets in a temporary tree (no git
needed there — the collector falls back to a directory walk), plus a
meta-test that the real repository is clean. Run directly or via ctest
(SegdbLintSelftest).
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import segdb_lint  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def rules_hit(violations):
    return sorted({v.rule for v in violations})


class StripTest(unittest.TestCase):
    def test_preserves_line_structure(self):
        text = 'a; // std::mutex\n/* std::mutex\nstd::mutex */ b;\n"x"\n'
        stripped = segdb_lint.strip_comments_and_strings(text)
        self.assertEqual(len(stripped.splitlines()), len(text.splitlines()))
        self.assertNotIn("mutex", stripped)
        self.assertIn("a;", stripped)
        self.assertIn("b;", stripped)

    def test_string_and_char_contents_blanked(self):
        stripped = segdb_lint.strip_comments_and_strings(
            'auto s = "std::mutex"; char c = \'"\'; std::mutex m;')
        self.assertEqual(stripped.count("std::mutex"), 1)

    def test_raw_string(self):
        stripped = segdb_lint.strip_comments_and_strings(
            'auto s = R"(std::mutex // not a comment)"; int x;')
        self.assertNotIn("mutex", stripped)
        self.assertIn("int x;", stripped)


class LayeringTest(unittest.TestCase):
    def test_clean_downward_include(self):
        self.assertEqual(
            segdb_lint.lint_text("src/io/pool.h", '#include "util/status.h"\n'),
            [])

    def test_back_edge_rejected(self):
        violations = segdb_lint.lint_text(
            "src/util/helper.h", '#include "io/page.h"\n')
        self.assertEqual(rules_hit(violations), ["layering"])
        self.assertEqual(violations[0].line, 1)

    def test_io_must_not_reach_core(self):
        violations = segdb_lint.lint_text(
            "src/io/pool.cc",
            '#include "io/page.h"\n#include "core/query_engine.h"\n')
        self.assertEqual(rules_hit(violations), ["layering"])
        self.assertEqual(violations[0].line, 2)

    def test_unknown_layer_flagged(self):
        violations = segdb_lint.lint_text(
            "src/newdir/thing.h", '#include "util/status.h"\n')
        self.assertEqual(rules_hit(violations), ["layering"])

    def test_include_of_unknown_target_flagged(self):
        violations = segdb_lint.lint_text(
            "src/core/x.h", '#include "vendored/blob.h"\n')
        self.assertEqual(rules_hit(violations), ["layering"])

    def test_rule_ignores_tests_dir(self):
        self.assertEqual(
            segdb_lint.lint_text("tests/foo_test.cc",
                                 '#include "core/query_engine.h"\n'),
            [])


class RawSyncTest(unittest.TestCase):
    def test_raw_mutex_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/engine.cc", "static std::mutex gate;\n")
        self.assertEqual(rules_hit(violations), ["raw-sync"])

    def test_lock_guard_and_condvar_rejected(self):
        violations = segdb_lint.lint_text(
            "src/io/pool.cc",
            "std::lock_guard<std::mutex> l(mu);\n"
            "std::condition_variable cv;\n")
        self.assertEqual(rules_hit(violations), ["raw-sync"])
        self.assertEqual(len(violations), 2)

    def test_sync_header_exempt(self):
        self.assertEqual(
            segdb_lint.lint_text("src/util/sync.h",
                                 "std::mutex mu_; std::unique_lock<...> l;\n"),
            [])

    def test_comment_mention_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text("src/core/engine.cc",
                                 "// replaces std::mutex, see sync.h\n"),
            [])

    def test_util_mutex_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text("src/core/engine.cc",
                                 "util::MutexLock lock(&mu_);\n"),
            [])


class RawTimeTest(unittest.TestCase):
    def test_sleep_for_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/engine.cc",
            "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n")
        self.assertEqual(rules_hit(violations), ["raw-time"])

    def test_sleep_until_rejected(self):
        violations = segdb_lint.lint_text(
            "src/io/scheduler.cc",
            "std::this_thread::sleep_until(wake);\n")
        self.assertEqual(rules_hit(violations), ["raw-time"])

    def test_raw_chrono_deadline_math_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/engine.cc",
            "auto end = std::chrono::steady_clock::now() + budget;\n")
        self.assertEqual(rules_hit(violations), ["raw-time"])

    def test_util_itself_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/util/clock.h",
                "auto now = std::chrono::steady_clock::now();\n"),
            [])

    def test_deadline_wrapper_usage_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/core/engine.cc",
                "if (deadline.Expired()) return Status::DeadlineExceeded"
                "(\"budget\");\n"),
            [])

    def test_comment_mention_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/core/engine.cc",
                "// never std::this_thread::sleep_for here; see util/clock.h\n"),
            [])


class IoBypassTest(unittest.TestCase):
    def test_read_page_outside_io_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/engine.cc", "auto s = disk_->ReadPage(id, &page);\n")
        self.assertEqual(rules_hit(violations), ["io-bypass"])

    def test_write_page_outside_io_rejected(self):
        violations = segdb_lint.lint_text(
            "src/pst/line_pst.cc", "disk.WritePage(id, page);\n")
        self.assertEqual(rules_hit(violations), ["io-bypass"])

    def test_write_pages_outside_io_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/durable_engine.cc",
            "Status s = disk_->WritePages(writes);\n")
        self.assertEqual(rules_hit(violations), ["io-bypass"])

    def test_write_pages_in_io_layer_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/io/buffer_pool.cc",
                "const Status s = disk_->WritePages(writes);\n"),
            [])

    def test_io_layer_itself_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text("src/io/buffer_pool.cc",
                                 "disk_->ReadPage(id, &f.page);\n"),
            [])

    def test_tests_exempt(self):
        self.assertEqual(
            segdb_lint.lint_text("tests/io_test.cc",
                                 "disk.ReadPage(id.value(), &r);\n"),
            [])

    def test_sync_outside_io_rejected(self):
        # Durability barriers belong to the WAL commit/checkpoint protocol;
        # an engine- or index-level disk->Sync() bypasses group commit.
        violations = segdb_lint.lint_text(
            "src/core/durable_engine.cc", "disk_->Sync();\n")
        self.assertEqual(rules_hit(violations), ["io-bypass"])

    def test_write_page_prefix_outside_io_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/engine.cc",
            "disk->WritePagePrefix(id, page, torn_bytes);\n")
        self.assertEqual(rules_hit(violations), ["io-bypass"])

    def test_wal_tu_sync_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text("src/io/wal.cc",
                                 "SEGDB_RETURN_IF_ERROR(disk_->Sync());\n"),
            [])


class RawIoTest(unittest.TestCase):
    def test_pread_outside_engine_files_rejected(self):
        violations = segdb_lint.lint_text(
            "src/io/buffer_pool.cc",
            "const long n = ::pread(fd, buf, len, off);\n")
        self.assertEqual(rules_hit(violations), ["raw-io"])

    def test_io_uring_call_outside_engine_files_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/query_engine.cc",
            "io_uring_submit(&ring_);\n")
        self.assertEqual(rules_hit(violations), ["raw-io"])

    def test_open_and_vectored_variants_rejected(self):
        for snippet in ("int fd = open(path, O_RDONLY);\n",
                        "int fd = openat(dirfd, rel, O_RDONLY);\n",
                        "pwritev(fd, iov, 2, off);\n",
                        "pread64(fd, buf, len, off);\n"):
            violations = segdb_lint.lint_text("src/util/dump.cc", snippet)
            self.assertEqual(rules_hit(violations), ["raw-io"], snippet)

    def test_engine_files_allowed(self):
        for rel in segdb_lint.RAW_IO_OWNERS:
            self.assertEqual(
                segdb_lint.lint_text(
                    rel, "const long n = ::pread(fd, buf, len, off);\n"),
                [], rel)

    def test_fsync_variants_outside_engine_files_rejected(self):
        # fsync/fdatasync are raw barrier syscalls: only the file backend
        # may issue them (FileDiskManager::Sync), everyone else goes
        # through DiskManager::Sync via the WAL.
        for snippet in ("::fdatasync(fd_);\n",
                        "if (fsync(fd) != 0) return err;\n"):
            violations = segdb_lint.lint_text("src/io/wal.cc", snippet)
            self.assertEqual(rules_hit(violations), ["raw-io"], snippet)

    def test_fdatasync_in_file_backend_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/io/file_disk_manager.cc",
                "if (::fdatasync(fd_) != 0) {\n"),
            [])

    def test_pread_fn_seam_type_not_matched(self):
        # The PreadFn/PwriteFn typedef names must not trip the rule.
        self.assertEqual(
            segdb_lint.lint_text("src/io/async_io_engine.h",
                                 "PreadFn pread_fn(nullptr);\n"),
            [])

    def test_tests_exempt(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "tests/file_disk_manager_test.cc",
                "const long n = ::pread(fd, buf, len, off);\n"),
            [])


class SuppressionTest(unittest.TestCase):
    def test_naked_suppression_rejected(self):
        violations = segdb_lint.lint_text(
            "src/io/pool.cc",
            "void Audit() SEGDB_NO_THREAD_SAFETY_ANALYSIS {\n}\n")
        self.assertEqual(rules_hit(violations), ["naked-suppression"])

    def test_justified_suppression_allowed(self):
        text = ("// SAFETY: quiescent-only audit; no concurrent mutators by\n"
                "// contract, see header comment.\n"
                "void Audit() SEGDB_NO_THREAD_SAFETY_ANALYSIS {\n}\n")
        self.assertEqual(segdb_lint.lint_text("src/io/pool.cc", text), [])

    def test_same_line_justification_allowed(self):
        text = ("void Audit() SEGDB_NO_THREAD_SAFETY_ANALYSIS "
                "{  // SAFETY: quiescent\n}\n")
        self.assertEqual(segdb_lint.lint_text("src/io/pool.cc", text), [])

    def test_justification_too_far_rejected(self):
        text = ("// SAFETY: too far away\n"
                "\n\n\n"
                "void Audit() SEGDB_NO_THREAD_SAFETY_ANALYSIS {\n}\n")
        violations = segdb_lint.lint_text("src/io/pool.cc", text)
        self.assertEqual(rules_hit(violations), ["naked-suppression"])

    def test_define_line_exempt(self):
        text = ("#define SEGDB_NO_THREAD_SAFETY_ANALYSIS \\\n"
                "  SEGDB_THREAD_ANNOTATION_(no_thread_safety_analysis)\n")
        self.assertEqual(segdb_lint.lint_text("src/util/sync.h", text), [])

    def test_applies_to_tests_too(self):
        violations = segdb_lint.lint_text(
            "tests/foo_test.cc",
            "void Hammer() SEGDB_NO_THREAD_SAFETY_ANALYSIS {}\n")
        self.assertEqual(rules_hit(violations), ["naked-suppression"])


class ThreadLocalTest(unittest.TestCase):
    def test_thread_local_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/engine.cc", "thread_local int scratch = 0;\n")
        self.assertEqual(rules_hit(violations), ["thread-local"])

    def test_allowlisted_file_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text("src/geom/filter_kernel.cc",
                                 "thread_local ResultBuffer buffer;\n"),
            [])


class StripAccessTest(unittest.TestCase):
    def test_codec_call_outside_owners_rejected(self):
        violations = segdb_lint.lint_text(
            "src/btree/bplus_tree.h",
            "io::DecodeColumnarRegion(base, cap, lanes);\n")
        self.assertEqual(rules_hit(violations), ["strip-access"])
        self.assertIn("ColumnarPageView", violations[0].message)

    def test_header_parse_outside_owners_rejected(self):
        violations = segdb_lint.lint_text(
            "src/core/two_level_binary_index.cc",
            "auto info = io::ParsePackedRegionHeader(bytes, cap);\n")
        self.assertEqual(rules_hit(violations), ["strip-access"])

    def test_io_layer_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/io/buffer_pool.cc",
                "EncodeColumnarRegion(f.page.data(), cap, lanes);\n"),
            [])

    def test_decode_kernel_allowed(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/geom/decode_kernel.cc",
                "const uint64_t v = UnpackLaneBits(packed, i, width);\n"),
            [])

    def test_tests_and_bench_exempt(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "tests/column_codec_test.cc",
                "io::EncodeColumnarRegion(region.data(), cap, lanes);\n"),
            [])

    def test_view_usage_is_clean(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/pst/line_pst.cc",
                "io::ConstColumnarPageView view(page, off, cap);\n"
                "auto s = view.Get(3);\n"),
            [])


class NoAbsTest(unittest.TestCase):
    def test_abs_calls_rejected(self):
        for call in ("std::abs(p.x)", "abs(p.x)", "std :: llabs(v)",
                     "labs(v)"):
            violations = segdb_lint.lint_text(
                "src/pst/point_pst.cc",
                f"if ({call} > geom::kMaxCoord) return;\n")
            self.assertEqual(rules_hit(violations), ["no-abs"], call)
            self.assertIn("InDomain", violations[0].message)

    def test_range_test_and_lookalikes_clean(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/pst/point_pst.cc",
                "if (!geom::InDomain(p.x)) return;  // not std::abs(p.x)\n"
                "const double d = std::fabs(v) + my_abs(w);\n"),
            [])

    def test_tests_exempt(self):
        self.assertEqual(
            segdb_lint.lint_text("tests/geom_test.cc",
                                 "EXPECT_LE(std::abs(d), 1);\n"),
            [])


class HeaderSelfContainmentTest(unittest.TestCase):
    def test_missing_include_flagged(self):
        violations = segdb_lint.lint_text(
            "src/core/thing.h",
            "struct Thing { std::vector<int> items; };\n")
        self.assertEqual(rules_hit(violations), ["header-self-containment"])
        self.assertIn("<vector>", violations[0].message)

    def test_fixed_width_int_needs_cstdint(self):
        violations = segdb_lint.lint_text(
            "src/io/thing.h", "uint64_t Count();\n")
        self.assertEqual(rules_hit(violations), ["header-self-containment"])

    def test_direct_include_is_clean(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/core/thing.h",
                "#include <cstdint>\n#include <vector>\n"
                "struct Thing { std::vector<uint64_t> items; };\n"),
            [])

    def test_each_missing_header_reported_once(self):
        violations = segdb_lint.lint_text(
            "src/core/thing.h",
            "std::vector<int> A();\nstd::vector<int> B();\n")
        self.assertEqual(len(violations), 1)

    def test_source_files_exempt(self):
        # .cc files may lean on their own header's includes; the rule is
        # about headers being safe to include first.
        self.assertEqual(
            segdb_lint.lint_text(
                "src/core/thing.cc", "std::vector<int> v;\n"),
            [])

    def test_symbol_in_comment_ignored(self):
        self.assertEqual(
            segdb_lint.lint_text(
                "src/core/thing.h", "// holds a std::vector internally\n"),
            [])


class TreeWalkTest(unittest.TestCase):
    def test_fixture_tree_collects_and_reports(self):
        with tempfile.TemporaryDirectory() as root:
            write(root, "src/util/ok.h", '#include "util/other.h"\n')
            write(root, "src/util/bad.h", '#include "core/engine.h"\n')
            write(root, "src/core/bad.cc",
                  "std::mutex gate;\n"
                  "thread_local int x;\n"
                  "disk->WritePage(id, p);\n")
            write(root, "build/src/ignored.cc", "std::mutex m;\n")
            violations = segdb_lint.run(root)
            self.assertEqual(
                rules_hit(violations),
                ["io-bypass", "layering", "raw-sync", "thread-local"])
            self.assertTrue(
                all(not v.path.startswith("build") for v in violations))

    def test_explicit_file_list(self):
        with tempfile.TemporaryDirectory() as root:
            write(root, "src/core/bad.cc", "std::mutex gate;\n")
            write(root, "src/core/other.cc", "std::mutex gate;\n")
            violations = segdb_lint.run(root, ["src/core/bad.cc"])
            self.assertEqual(len(violations), 1)
            self.assertEqual(violations[0].path, "src/core/bad.cc")

    def test_main_exit_codes(self):
        with tempfile.TemporaryDirectory() as root:
            write(root, "src/util/ok.h", "int x;\n")
            self.assertEqual(segdb_lint.main(["--root", root]), 0)
            write(root, "src/util/bad.h", '#include "io/page.h"\n')
            self.assertEqual(segdb_lint.main(["--root", root]), 1)


class RealTreeTest(unittest.TestCase):
    def test_repository_is_clean(self):
        violations = segdb_lint.run(REPO_ROOT)
        self.assertEqual([str(v) for v in violations], [])

    def test_layering_map_is_acyclic(self):
        # A cycle in ALLOWED_DEPS would make the "DAG" claim a lie; check
        # by iteratively peeling leaves.
        deps = {k: set(v) for k, v in segdb_lint.ALLOWED_DEPS.items()}
        while deps:
            leaves = [k for k, v in deps.items() if not v]
            self.assertTrue(leaves, f"cycle among layers: {sorted(deps)}")
            for leaf in leaves:
                deps.pop(leaf)
            for v in deps.values():
                v.difference_update(leaves)


if __name__ == "__main__":
    unittest.main()
