// Randomized audit-under-churn: interleaves inserts, deletions and VS
// queries over every index structure, running CheckInvariants() (and the
// buffer pool's audit) after each batch. The workloads are deterministic
// in their seeds; failures reproduce exactly. This is the test meant to
// run under ASan/UBSan (cmake --preset asan-ubsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "baseline/full_scan_index.h"
#include "baseline/rtree_index.h"
#include "btree/bplus_tree.h"
#include "core/segment_index.h"
#include "core/sheared_index.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb {
namespace {

using geom::Segment;

std::vector<uint64_t> SortedIds(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  ids.reserve(segs.size());
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint64_t> OracleIds(const std::vector<Segment>& stored,
                                const workload::VsQuery& q) {
  std::vector<uint64_t> ids;
  for (const Segment& s : stored) {
    if (geom::IntersectsVerticalSegment(s, q.x0, q.ylo, q.yhi)) {
      ids.push_back(s.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Runs the churn protocol against one index: bulk load half the pool,
// then batches of {insert, erase, query, audit}. `check_queries` is off
// for indexes that are deliberately inexact (none here, but kept for
// clarity at call sites).
void RunChurn(core::SegmentIndex* index, io::BufferPool* pool,
              std::vector<Segment> all, uint64_t seed) {
  Rng rng(seed);
  // Deterministic shuffle of the insertion order.
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }
  std::vector<Segment> stored(all.begin(), all.begin() + all.size() / 2);
  std::vector<Segment> pending(all.begin() + all.size() / 2, all.end());
  ASSERT_TRUE(index->BulkLoad(stored).ok()) << index->name();

  const auto box = workload::ComputeBoundingBox(all);
  bool erase_supported = true;
  const int kBatches = 12;
  for (int batch = 0; batch < kBatches; ++batch) {
    // Inserts.
    for (int k = 0; k < 8 && !pending.empty(); ++k) {
      const size_t pick = rng.Uniform(pending.size());
      Segment s = pending[pick];
      pending.erase(pending.begin() + pick);
      ASSERT_TRUE(index->Insert(s).ok()) << index->name();
      stored.push_back(s);
    }
    // Erases (skipped gracefully when the structure is insert-only).
    for (int k = 0; k < 5 && erase_supported && !stored.empty(); ++k) {
      const size_t pick = rng.Uniform(stored.size());
      const Segment victim = stored[pick];
      Status st = index->Erase(victim);
      if (st.code() == StatusCode::kUnimplemented) {
        erase_supported = false;
        break;
      }
      ASSERT_TRUE(st.ok()) << index->name() << ": " << st.ToString();
      stored.erase(stored.begin() + pick);
      pending.push_back(victim);  // may be reinserted later
    }
    // Queries against the brute-force oracle.
    std::vector<workload::VsQuery> queries =
        workload::GenVsQueries(rng, 6, box, 0.4);
    for (const auto& q : queries) {
      std::vector<Segment> out;
      ASSERT_TRUE(index
                      ->Query(core::VerticalSegmentQuery::Segment(q.x0, q.ylo,
                                                                  q.yhi),
                              &out)
                      .ok())
          << index->name();
      EXPECT_EQ(SortedIds(out), OracleIds(stored, q))
          << index->name() << " batch " << batch;
    }
    // The audit, after every batch.
    Status audit = index->CheckInvariants();
    ASSERT_TRUE(audit.ok()) << index->name() << " batch " << batch << ": "
                            << audit.ToString();
    ASSERT_EQ(index->size(), stored.size()) << index->name();
    Status pool_audit = pool->CheckInvariants();
    ASSERT_TRUE(pool_audit.ok()) << pool_audit.ToString();
  }
}

std::vector<Segment> ChurnWorkload(uint64_t seed) {
  Rng rng(seed);
  return workload::GenMapLayer(rng, 400, 1 << 16);
}

TEST(AuditChurnTest, TwoLevelBinaryIndex) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  core::TwoLevelBinaryIndex index(&pool);
  RunChurn(&index, &pool, ChurnWorkload(0xA11CE), 1);
}

TEST(AuditChurnTest, TwoLevelBinaryIndexPlainPst) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  core::TwoLevelBinaryOptions options;
  options.pst_fanout = 2;   // Lemma 2 configuration
  options.leaf_capacity = 8;  // deep first level
  core::TwoLevelBinaryIndex index(&pool, options);
  RunChurn(&index, &pool, ChurnWorkload(0xB0B), 2);
}

TEST(AuditChurnTest, TwoLevelIntervalIndex) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  core::TwoLevelIntervalIndex index(&pool);
  RunChurn(&index, &pool, ChurnWorkload(0xC0FFEE), 3);
}

TEST(AuditChurnTest, TwoLevelIntervalIndexSmallFanout) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  core::TwoLevelIntervalOptions options;
  options.fanout = 4;         // deep tree, populated G structures
  options.leaf_capacity = 8;
  core::TwoLevelIntervalIndex index(&pool, options);
  RunChurn(&index, &pool, ChurnWorkload(0xDEED), 4);
}

TEST(AuditChurnTest, FullScanIndex) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  baseline::FullScanIndex index(&pool);
  RunChurn(&index, &pool, ChurnWorkload(0xF00D), 6);
}

TEST(AuditChurnTest, RTreeIndex) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  baseline::RTreeIndex index(&pool);
  RunChurn(&index, &pool, ChurnWorkload(0x5EED), 7);
}

// The shear wrapper: churn through the transformed coordinate space; its
// audit delegates to the wrapped structure.
TEST(AuditChurnTest, ShearedIndexChurn) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  core::ShearedIndex sheared(
      std::make_unique<core::TwoLevelBinaryIndex>(&pool), 1, 1);
  Rng rng(0x5EA);
  std::vector<Segment> all = workload::GenHorizontalStrips(rng, 200, 1 << 12);
  std::vector<Segment> stored(all.begin(), all.begin() + 100);
  std::vector<Segment> pending(all.begin() + 100, all.end());
  ASSERT_TRUE(sheared.BulkLoad(stored).ok());
  for (int batch = 0; batch < 10; ++batch) {
    for (int k = 0; k < 6 && !pending.empty(); ++k) {
      ASSERT_TRUE(sheared.Insert(pending.back()).ok());
      stored.push_back(pending.back());
      pending.pop_back();
    }
    for (int k = 0; k < 3 && !stored.empty(); ++k) {
      const size_t pick = rng.Uniform(stored.size());
      ASSERT_TRUE(sheared.Erase(stored[pick]).ok());
      pending.push_back(stored[pick]);
      stored.erase(stored.begin() + pick);
    }
    ASSERT_TRUE(sheared.CheckInvariants().ok()) << "batch " << batch;
    ASSERT_EQ(sheared.size(), stored.size());
    ASSERT_TRUE(pool.CheckInvariants().ok());
  }
}

// B+-tree churn with duplicate-heavy keys: inserts and lazy erases, audit
// after every batch, final contents checked against a multiset oracle.
TEST(AuditChurnTest, BPlusTreeChurn) {
  struct KV {
    int64_t key;
    uint64_t tag;
  };
  struct ByKey {
    int operator()(const KV& a, const KV& b) const {
      return a.key < b.key ? -1 : (a.key > b.key ? 1 : 0);
    }
  };
  io::SimDiskManager disk(512);  // small pages -> frequent splits
  io::BufferPool pool(&disk, 64);
  btree::BPlusTree<KV, ByKey> tree(&pool, ByKey{});
  Rng rng(0xBEE);
  std::vector<KV> oracle;
  uint64_t next_tag = 0;
  for (int batch = 0; batch < 20; ++batch) {
    for (int k = 0; k < 25; ++k) {
      const KV kv{static_cast<int64_t>(rng.Uniform(40)), next_tag++};
      ASSERT_TRUE(tree.Insert(kv).ok());
      oracle.push_back(kv);
    }
    for (int k = 0; k < 10 && !oracle.empty(); ++k) {
      const size_t pick = rng.Uniform(oracle.size());
      ASSERT_TRUE(tree.Erase(oracle[pick]).ok());
      oracle.erase(oracle.begin() + pick);
    }
    Status audit = tree.CheckInvariants();
    ASSERT_TRUE(audit.ok()) << "batch " << batch << ": " << audit.ToString();
    ASSERT_EQ(tree.size(), oracle.size());
    ASSERT_TRUE(pool.CheckInvariants().ok());
  }
  Result<std::vector<KV>> contents = tree.CollectAll();
  ASSERT_TRUE(contents.ok());
  std::vector<uint64_t> got, want;
  for (const KV& kv : contents.value()) got.push_back(kv.tag);
  for (const KV& kv : oracle) want.push_back(kv.tag);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// The pool audit actually detects the defect it is specified to catch: a
// write that skipped MarkDirty diverges a clean frame from disk.
TEST(AuditChurnTest, BufferPoolAuditCatchesMissedDirtyBit) {
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 4);
  io::PageId id;
  {
    auto ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    id = ref.value().page_id();
    ref.value().page().WriteAt<uint32_t>(0, 42);
    ref.value().MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.CheckInvariants().ok());
  {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    ref.value().page().WriteAt<uint32_t>(0, 7);  // no MarkDirty: a bug
  }
  Status audit = pool.CheckInvariants();
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace segdb
