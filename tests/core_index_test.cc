#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/segment_index.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::core {
namespace {

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

enum class Kind { kBinary, kBinaryPlainPst, kInterval, kIntervalNoCascade,
                  kIntervalSmallFanout };

struct CoreConfig {
  Kind kind;
  uint32_t page_size;
};

class CoreIndexTest : public ::testing::TestWithParam<CoreConfig> {
 protected:
  CoreIndexTest()
      : disk_(GetParam().page_size), pool_(&disk_, 4096) {}

  std::unique_ptr<SegmentIndex> MakeIndex() {
    switch (GetParam().kind) {
      case Kind::kBinary: {
        return std::make_unique<TwoLevelBinaryIndex>(&pool_);
      }
      case Kind::kBinaryPlainPst: {
        TwoLevelBinaryOptions o;
        o.pst_fanout = 2;
        return std::make_unique<TwoLevelBinaryIndex>(&pool_, o);
      }
      case Kind::kInterval: {
        return std::make_unique<TwoLevelIntervalIndex>(&pool_);
      }
      case Kind::kIntervalNoCascade: {
        TwoLevelIntervalOptions o;
        o.fractional_cascading = false;
        return std::make_unique<TwoLevelIntervalIndex>(&pool_, o);
      }
      case Kind::kIntervalSmallFanout: {
        TwoLevelIntervalOptions o;
        o.fanout = 4;
        o.leaf_capacity = 8;
        return std::make_unique<TwoLevelIntervalIndex>(&pool_, o);
      }
    }
    return nullptr;
  }

  Status CheckIndexInvariants(SegmentIndex* index) {
    if (auto* a = dynamic_cast<TwoLevelBinaryIndex*>(index)) {
      return a->CheckInvariants();
    }
    if (auto* b = dynamic_cast<TwoLevelIntervalIndex*>(index)) {
      return b->CheckInvariants();
    }
    return Status::Internal("unknown index type");
  }

  // Mixes query positions: random interior, exact endpoint abscissae
  // (forcing boundary/base-line hits), and off-data positions.
  void CompareWithOracle(SegmentIndex* index,
                         const std::vector<Segment>& segs, Rng& rng,
                         int rounds) {
    auto box = workload::ComputeBoundingBox(segs);
    for (int i = 0; i < rounds; ++i) {
      VerticalSegmentQuery q;
      const int mode = static_cast<int>(rng.Uniform(4));
      if (mode == 0 && !segs.empty()) {
        const Segment& s = segs[rng.Uniform(segs.size())];
        q.x0 = rng.Bernoulli(0.5) ? s.x1 : s.x2;
      } else if (mode == 1) {
        q.x0 = rng.UniformInt(box.xmin - 10, box.xmax + 10);
      } else {
        q.x0 = rng.UniformInt(box.xmin, box.xmax);
      }
      const int64_t extent = std::max<int64_t>(1, box.ymax - box.ymin);
      q.ylo = rng.UniformInt(box.ymin - extent / 10, box.ymax);
      q.yhi = q.ylo + rng.UniformInt(0, extent / 4);
      std::vector<Segment> out;
      ASSERT_TRUE(index->Query(q, &out).ok());
      EXPECT_EQ(Ids(out), OracleIds(segs, q))
          << "x0=" << q.x0 << " y=[" << q.ylo << "," << q.yhi << "]";
    }
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

TEST_P(CoreIndexTest, EmptyIndex) {
  auto index = MakeIndex();
  std::vector<Segment> out;
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::Segment(0, -5, 5), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index->size(), 0u);
  EXPECT_TRUE(CheckIndexInvariants(index.get()).ok());
}

TEST_P(CoreIndexTest, RejectsInvertedRange) {
  auto index = MakeIndex();
  std::vector<Segment> out;
  EXPECT_FALSE(index->Query(VerticalSegmentQuery{0, 5, -5}, &out).ok());
}

TEST_P(CoreIndexTest, RejectsMalformedSegmentsUnchanged) {
  // Non-canonical segments and coordinates outside +/-kMaxCoord, each
  // through BulkLoad and through Insert: InvalidArgument, the index as it
  // was, and a valid insert still lands afterwards.
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
  for (const Segment& s : bad) {
    for (const bool bulk : {true, false}) {
      auto index = MakeIndex();
      ASSERT_TRUE(index->BulkLoad(good).ok());
      const uint64_t pages = index->page_count();
      std::vector<Segment> with_bad = good;
      with_bad.push_back(s);
      const Status st = bulk ? index->BulkLoad(with_bad) : index->Insert(s);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << "id " << s.id << (bulk ? " via BulkLoad" : " via Insert");
      EXPECT_EQ(index->size(), good.size());
      EXPECT_EQ(index->page_count(), pages);
      EXPECT_TRUE(CheckIndexInvariants(index.get()).ok());
      ASSERT_TRUE(index->Insert(Segment::Make({0, 40}, {50, 60}, 4)).ok());
      std::vector<Segment> out;
      ASSERT_TRUE(index->Query(VerticalSegmentQuery::Line(50), &out).ok());
      EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3, 4}));
    }
  }
}

TEST_P(CoreIndexTest, SingleSegment) {
  auto index = MakeIndex();
  std::vector<Segment> segs = {Segment::Make({0, 0}, {10, 10}, 7)};
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  std::vector<Segment> out;
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::Segment(5, 0, 10), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7u);
  out.clear();
  ASSERT_TRUE(
      index->Query(VerticalSegmentQuery::Segment(5, 6, 10), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(CoreIndexTest, HandCraftedWithVerticalAndTouching) {
  auto index = MakeIndex();
  std::vector<Segment> segs = {
      Segment::Make({0, 0}, {100, 0}, 1),
      Segment::Make({50, 10}, {50, 30}, 2),    // vertical
      Segment::Make({0, 40}, {50, 60}, 3),     // touches x=50 at its end
      Segment::Make({50, 60}, {100, 40}, 4),   // shares endpoint with 3
      Segment::Make({20, -50}, {80, -20}, 5),
  };
  ASSERT_TRUE(geom::ValidateNct(segs).ok());
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  EXPECT_TRUE(CheckIndexInvariants(index.get()).ok());

  std::vector<Segment> out;
  // Line through x=50 hits everything.
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::Line(50), &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3, 4, 5}));

  out.clear();
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::Segment(50, 10, 30), &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{2}));

  out.clear();  // touch the shared endpoint exactly
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::Segment(50, 60, 60), &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{3, 4}));

  out.clear();
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::UpRay(30, 20), &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{3}));

  out.clear();
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::DownRay(30, -30), &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{5}));
}

TEST_P(CoreIndexTest, MapLayerMatchesOracle) {
  Rng rng(51);
  auto segs = workload::GenMapLayer(rng, 1500, 200000);
  auto index = MakeIndex();
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  EXPECT_EQ(index->size(), segs.size());
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 60);
}

TEST_P(CoreIndexTest, GridMapMatchesOracle) {
  Rng rng(52);
  auto segs = workload::GenGridPerturbed(rng, 16, 16, 1024);
  ASSERT_TRUE(geom::ValidateNct(segs).ok());
  auto index = MakeIndex();
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 60);
}

TEST_P(CoreIndexTest, StripsAndVerticalsMatchOracle) {
  Rng rng(53);
  auto segs = workload::GenHorizontalStrips(rng, 700, 50000);
  // A column of collinear vertical segments in a disjoint y-band, at an
  // x shared with many strip endpoints.
  auto verts = workload::GenCollinearVertical(rng, 120, 25000, 20000, 10000);
  for (Segment& v : verts) {
    v.y1 += 10000;
    v.y2 += 10000;
    segs.push_back(v);
  }
  ASSERT_TRUE(geom::ValidateNct(segs).ok());
  auto index = MakeIndex();
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 50);
  // Query exactly on the vertical column.
  std::vector<Segment> out;
  ASSERT_TRUE(
      index->Query(VerticalSegmentQuery::Line(25000), &out).ok());
  EXPECT_EQ(Ids(out), OracleIds(segs, VerticalSegmentQuery::Line(25000)));
}

TEST_P(CoreIndexTest, NestedSpansMatchOracle) {
  Rng rng(54);
  auto segs = workload::GenNestedSpans(rng, 800, 100000);
  auto index = MakeIndex();
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 50);
}

TEST_P(CoreIndexTest, InsertOnlyMatchesOracle) {
  Rng rng(55);
  auto segs = workload::GenMapLayer(rng, 900, 100000);
  auto index = MakeIndex();
  for (const Segment& s : segs) ASSERT_TRUE(index->Insert(s).ok());
  EXPECT_EQ(index->size(), segs.size());
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 50);
}

TEST_P(CoreIndexTest, BulkThenInsertMatchesOracle) {
  Rng rng(56);
  auto segs = workload::GenGridPerturbed(rng, 14, 14, 1024);
  auto index = MakeIndex();
  const size_t half = segs.size() / 2;
  ASSERT_TRUE(index->BulkLoad(
      std::vector<Segment>(segs.begin(), segs.begin() + half)).ok());
  for (size_t i = half; i < segs.size(); ++i) {
    ASSERT_TRUE(index->Insert(segs[i]).ok());
  }
  EXPECT_EQ(index->size(), segs.size());
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 50);
}

TEST_P(CoreIndexTest, RebuildKeepsAnswersUnderSkew) {
  // Ascending x insertions exercise the partial-rebuild paths heavily.
  Rng rng(57);
  auto index = MakeIndex();
  std::vector<Segment> segs;
  for (int i = 0; i < 600; ++i) {
    const int64_t x = i * 50;
    const int64_t y = i * 3;
    segs.push_back(
        Segment::Make({x, y}, {x + 40 + rng.UniformInt(0, 30), y},
                      static_cast<uint64_t>(i)));
    ASSERT_TRUE(index->Insert(segs.back()).ok());
  }
  ASSERT_TRUE(CheckIndexInvariants(index.get()).ok());
  CompareWithOracle(index.get(), segs, rng, 40);
}

TEST_P(CoreIndexTest, BulkLoadReplacesContents) {
  Rng rng(58);
  auto a = workload::GenHorizontalStrips(rng, 200, 10000);
  auto b = workload::GenHorizontalStrips(rng, 150, 10000, /*first_id=*/1000);
  auto index = MakeIndex();
  ASSERT_TRUE(index->BulkLoad(a).ok());
  ASSERT_TRUE(index->BulkLoad(b).ok());
  EXPECT_EQ(index->size(), b.size());
  std::vector<Segment> out;
  ASSERT_TRUE(index->Query(VerticalSegmentQuery::Line(5000), &out).ok());
  for (const Segment& s : out) EXPECT_GE(s.id, 1000u);
}

TEST_P(CoreIndexTest, DestructionReleasesAllPages) {
  Rng rng(59);
  const uint64_t before = disk_.pages_in_use();
  {
    auto index = MakeIndex();
    auto segs = workload::GenMapLayer(rng, 600, 50000);
    ASSERT_TRUE(index->BulkLoad(segs).ok());
    EXPECT_GT(disk_.pages_in_use(), before);
  }
  EXPECT_EQ(disk_.pages_in_use(), before);
}

TEST_P(CoreIndexTest, PageCountScalesReasonably) {
  Rng rng(60);
  auto segs = workload::GenMapLayer(rng, 3000, 300000);
  auto index = MakeIndex();
  ASSERT_TRUE(index->BulkLoad(segs).ok());
  const uint64_t min_pages =
      1 + segs.size() * sizeof(Segment) / GetParam().page_size;
  EXPECT_GE(index->page_count(), min_pages / 4);
  // Generous linearity cap (the interval variant carries the log2 B
  // factor plus directory overhead).
  EXPECT_LE(index->page_count(), 60 * min_pages + 200);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CoreIndexTest,
    ::testing::Values(CoreConfig{Kind::kBinary, 1024},
                      CoreConfig{Kind::kBinary, 4096},
                      CoreConfig{Kind::kBinaryPlainPst, 1024},
                      CoreConfig{Kind::kInterval, 1024},
                      CoreConfig{Kind::kInterval, 4096},
                      CoreConfig{Kind::kIntervalNoCascade, 1024},
                      CoreConfig{Kind::kIntervalSmallFanout, 512}),
    [](const auto& info) {
      std::string kind = "unknown";
      if (info.param.kind == Kind::kBinary) kind = "binary";
      if (info.param.kind == Kind::kBinaryPlainPst) kind = "binaryPlainPst";
      if (info.param.kind == Kind::kInterval) kind = "interval";
      if (info.param.kind == Kind::kIntervalNoCascade) kind = "intervalNoCascade";
      if (info.param.kind == Kind::kIntervalSmallFanout) kind = "intervalSmallFanout";
      return kind + "_page" + std::to_string(info.param.page_size);
    });

}  // namespace
}  // namespace segdb::core
