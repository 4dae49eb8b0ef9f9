#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "baseline/endpoint_pst_index.h"
#include "baseline/full_scan_index.h"
#include "baseline/oracle.h"
#include "baseline/rtree_index.h"
#include "core/two_level_interval_index.h"
#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::baseline {
namespace {

using core::VerticalSegmentQuery;
using geom::Segment;

std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint64_t> OracleIds(const std::vector<Segment>& segs,
                                const VerticalSegmentQuery& q) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) {
    if (geom::IntersectsVerticalSegment(s, q.x0, q.ylo, q.yhi)) {
      ids.push_back(s.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : disk_(1024), pool_(&disk_, 2048) {}

  void CompareAll(core::SegmentIndex* index, const std::vector<Segment>& segs,
                  Rng& rng, int rounds) {
    auto box = workload::ComputeBoundingBox(segs);
    for (int i = 0; i < rounds; ++i) {
      VerticalSegmentQuery q;
      q.x0 = rng.UniformInt(box.xmin - 5, box.xmax + 5);
      q.ylo = rng.UniformInt(box.ymin, box.ymax);
      q.yhi = q.ylo + rng.UniformInt(0, (box.ymax - box.ymin) / 4 + 1);
      std::vector<Segment> out;
      ASSERT_TRUE(index->Query(q, &out).ok());
      EXPECT_EQ(Ids(out), OracleIds(segs, q)) << index->name();
    }
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

TEST_F(BaselineTest, FullScanMatchesOracle) {
  Rng rng(71);
  auto segs = workload::GenMapLayer(rng, 800, 80000);
  FullScanIndex index(&pool_);
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  EXPECT_EQ(index.size(), segs.size());
  CompareAll(&index, segs, rng, 40);
}

TEST_F(BaselineTest, FullScanInsert) {
  Rng rng(72);
  auto segs = workload::GenHorizontalStrips(rng, 300, 20000);
  FullScanIndex index(&pool_);
  for (const Segment& s : segs) ASSERT_TRUE(index.Insert(s).ok());
  EXPECT_EQ(index.size(), segs.size());
  CompareAll(&index, segs, rng, 30);
}

TEST_F(BaselineTest, FullScanCostsLinearIos) {
  Rng rng(73);
  auto segs = workload::GenHorizontalStrips(rng, 2000, 50000);
  FullScanIndex index(&pool_);
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());
  ASSERT_TRUE(pool_.EvictAll().ok());
  pool_.ResetStats();
  std::vector<Segment> out;
  ASSERT_TRUE(index.Query(VerticalSegmentQuery::Segment(100, 0, 10), &out).ok());
  EXPECT_EQ(pool_.stats().misses, index.page_count());
}

TEST_F(BaselineTest, RTreeMatchesOracle) {
  Rng rng(74);
  auto segs = workload::GenMapLayer(rng, 1200, 100000);
  RTreeIndex index(&pool_);
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  ASSERT_TRUE(index.CheckInvariants().ok());
  CompareAll(&index, segs, rng, 40);
}

TEST_F(BaselineTest, RTreeInsertMatchesOracle) {
  Rng rng(75);
  auto segs = workload::GenGridPerturbed(rng, 10, 10, 1024);
  RTreeIndex index(&pool_);
  for (const Segment& s : segs) ASSERT_TRUE(index.Insert(s).ok());
  ASSERT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.size(), segs.size());
  CompareAll(&index, segs, rng, 40);
}

TEST_F(BaselineTest, RTreeBulkThenInsert) {
  Rng rng(76);
  auto segs = workload::GenMapLayer(rng, 600, 60000);
  RTreeIndex index(&pool_);
  const size_t half = segs.size() / 2;
  ASSERT_TRUE(index.BulkLoad(
      std::vector<Segment>(segs.begin(), segs.begin() + half)).ok());
  for (size_t i = half; i < segs.size(); ++i) {
    ASSERT_TRUE(index.Insert(segs[i]).ok());
  }
  ASSERT_TRUE(index.CheckInvariants().ok());
  CompareAll(&index, segs, rng, 40);
}

TEST_F(BaselineTest, RTreeHeightLogarithmic) {
  Rng rng(77);
  auto segs = workload::GenHorizontalStrips(rng, 5000, 100000);
  RTreeIndex index(&pool_);
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  EXPECT_LE(index.height(), 4u);
}

TEST_F(BaselineTest, OracleIndexIsExact) {
  Rng rng(78);
  auto segs = workload::GenMapLayer(rng, 400, 40000);
  OracleIndex index;
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  CompareAll(&index, segs, rng, 30);
}

TEST_F(BaselineTest, StabFilterMatchesOracleButReadsMore) {
  Rng rng(79);
  auto segs = workload::GenMapLayer(rng, 2000, 150000);
  auto inner = std::make_unique<core::TwoLevelIntervalIndex>(&pool_);
  StabFilterIndex stab(std::move(inner));
  ASSERT_TRUE(stab.BulkLoad(segs).ok());
  CompareAll(&stab, segs, rng, 30);

  core::TwoLevelIntervalIndex direct(&pool_);
  ASSERT_TRUE(direct.BulkLoad(segs).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());

  // For a thin query the stab-and-filter pays for the whole stabbing
  // output while the direct index does not.
  auto box = workload::ComputeBoundingBox(segs);
  uint64_t stab_ios = 0, direct_ios = 0;
  for (int i = 0; i < 10; ++i) {
    VerticalSegmentQuery q;
    q.x0 = rng.UniformInt(box.xmin, box.xmax);
    q.ylo = rng.UniformInt(box.ymin, box.ymax);
    q.yhi = q.ylo + 2;
    std::vector<Segment> out;
    ASSERT_TRUE(pool_.EvictAll().ok());
    pool_.ResetStats();
    ASSERT_TRUE(stab.Query(q, &out).ok());
    stab_ios += pool_.stats().misses;
    out.clear();
    ASSERT_TRUE(pool_.EvictAll().ok());
    pool_.ResetStats();
    ASSERT_TRUE(direct.Query(q, &out).ok());
    direct_ios += pool_.stats().misses;
  }
  EXPECT_LE(direct_ios, stab_ios);
}

TEST_F(BaselineTest, EndpointPstDiverges) {
  // Figure 2: the 3-sided endpoint query is not the segment query.
  Rng rng(80);
  auto segs = workload::GenLineBasedRepaired(rng, 400, 0, 2000);
  EndpointPstIndex reduction(&pool_, 0);
  ASSERT_TRUE(reduction.BulkLoad(segs).ok());

  uint64_t false_pos = 0, false_neg = 0, agree = 0;
  for (int i = 0; i < 200; ++i) {
    const int64_t qx = rng.UniformInt(1, 2000);
    const int64_t ylo = rng.UniformInt(-500, 6000);
    const int64_t yhi = ylo + rng.UniformInt(10, 800);
    std::vector<Segment> approx;
    ASSERT_TRUE(reduction.QueryViaEndpoints(qx, ylo, yhi, &approx).ok());
    auto exact = OracleIds(segs, VerticalSegmentQuery{qx, ylo, yhi});
    auto got = Ids(approx);
    for (uint64_t id : got) {
      if (!std::binary_search(exact.begin(), exact.end(), id)) ++false_pos;
    }
    for (uint64_t id : exact) {
      if (!std::binary_search(got.begin(), got.end(), id)) ++false_neg;
    }
    agree += exact.size();
  }
  // The reduction must exhibit both error kinds on generic inputs — that
  // is the paper's argument for needing a real segment structure.
  EXPECT_GT(false_pos + false_neg, 0u);
  EXPECT_GT(agree, 0u);
}

TEST_F(BaselineTest, RejectsMalformedSegmentsUnchanged) {
  // The paged baselines guard their mutations like the two-level indexes
  // (CoreIndexTest.RejectsMalformedSegmentsUnchanged, same segments and
  // checks): a non-canonical segment or a coordinate outside +/-kMaxCoord
  // is InvalidArgument before any page is touched, and the index is left
  // as it was.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Segment> bad = {
      Segment{10, 0, 0, 0, 100},                            // x1 > x2
      Segment{5, 9, 5, 1, 101},                             // y1 > y2
      Segment::Make({0, 0}, {int64_t{1} << 40, 0}, 102),    // past the codec
      Segment::Make({-(int64_t{1} << 31), 0}, {0, 0}, 103),
      Segment::Make({0, 0}, {10, geom::kMaxCoord + 1}, 104),
      Segment::Make({kMin, 0}, {0, 0}, 105),
      Segment::Make({0, 0}, {kMax, 0}, 106),
      Segment::Make({0, kMin}, {10, 0}, 107),
  };
  const std::vector<Segment> good = {
      Segment::Make({0, 0}, {100, 0}, 1),
      Segment::Make({50, 10}, {50, 30}, 2),
      Segment::Make({20, -50}, {80, -20}, 3),
  };
  const std::vector<
      std::function<std::unique_ptr<core::SegmentIndex>(io::BufferPool*)>>
      factories = {
          [](io::BufferPool* pool) {
            return std::make_unique<FullScanIndex>(pool);
          },
          [](io::BufferPool* pool) {
            return std::make_unique<RTreeIndex>(pool);
          },
          [](io::BufferPool* pool) {
            return std::make_unique<StabFilterIndex>(
                std::make_unique<core::TwoLevelIntervalIndex>(pool));
          },
      };
  for (const auto& make : factories) {
    for (const Segment& s : bad) {
      for (const bool bulk : {true, false}) {
        auto index = make(&pool_);
        ASSERT_TRUE(index->BulkLoad(good).ok());
        const uint64_t pages = index->page_count();
        std::vector<Segment> with_bad = good;
        with_bad.push_back(s);
        const Status st = bulk ? index->BulkLoad(with_bad) : index->Insert(s);
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
            << index->name() << " id " << s.id
            << (bulk ? " via BulkLoad" : " via Insert");
        EXPECT_EQ(index->size(), good.size()) << index->name();
        EXPECT_EQ(index->page_count(), pages) << index->name();
        EXPECT_TRUE(index->CheckInvariants().ok()) << index->name();
        ASSERT_TRUE(index->Insert(Segment::Make({0, 40}, {50, 60}, 4)).ok());
        std::vector<Segment> out;
        ASSERT_TRUE(index->Query(VerticalSegmentQuery::Line(50), &out).ok());
        EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3, 4}))
            << index->name();
      }
    }
  }
}

}  // namespace
}  // namespace segdb::baseline
