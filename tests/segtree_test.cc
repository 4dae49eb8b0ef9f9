#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "segtree/multislab_segment_tree.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::segtree {
namespace {

using geom::Segment;

std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Oracle matching the structure's contract: report segments whose
// fully-spanned boundary range [s_first, s_last] contains x0 and whose
// y-value at x0 lies in [ylo, yhi].
std::vector<uint64_t> OracleIds(const std::vector<Segment>& segs,
                                const std::vector<int64_t>& bounds,
                                int64_t x0, int64_t ylo, int64_t yhi) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) {
    auto lo = std::lower_bound(bounds.begin(), bounds.end(), s.x1);
    auto hi = std::upper_bound(bounds.begin(), bounds.end(), s.x2);
    if (lo >= hi || hi - lo < 2) continue;
    const int64_t s_first = *lo;
    const int64_t s_last = *(hi - 1);
    if (x0 < s_first || x0 > s_last) continue;
    if (geom::IntersectsVerticalSegment(s, x0, ylo, yhi)) ids.push_back(s.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Keeps only segments with a long part w.r.t. the boundaries.
std::vector<Segment> FilterLong(const std::vector<Segment>& segs,
                                const std::vector<int64_t>& bounds) {
  std::vector<Segment> out;
  for (const Segment& s : segs) {
    auto lo = std::lower_bound(bounds.begin(), bounds.end(), s.x1);
    auto hi = std::upper_bound(bounds.begin(), bounds.end(), s.x2);
    if (lo < hi && hi - lo >= 2) out.push_back(s);
  }
  return out;
}

// gtest prints a parameter without operator<< as its raw bytes, and that
// text is part of the test's listed name. A full word for the flag leaves
// the struct with no padding, so the name never carries uninitialised bytes.
struct GConfig {
  uint32_t cascading;  // 0 or 1
  uint32_t bridge_d;
  uint32_t page_size;
};

class SegtreeTest : public ::testing::TestWithParam<GConfig> {
 protected:
  SegtreeTest() : disk_(GetParam().page_size), pool_(&disk_, 1024) {}

  MultislabOptions Opts() const {
    MultislabOptions o;
    o.fractional_cascading = GetParam().cascading != 0;
    o.bridge_d = GetParam().bridge_d;
    return o;
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

std::vector<int64_t> MakeBoundaries(int64_t lo, int64_t hi, uint32_t count) {
  std::vector<int64_t> b;
  for (uint32_t i = 0; i < count; ++i) {
    b.push_back(lo + (hi - lo) * static_cast<int64_t>(i) /
                         static_cast<int64_t>(count - 1));
  }
  return b;
}

TEST_P(SegtreeTest, EmptyStructure) {
  MultislabSegmentTree g(&pool_, MakeBoundaries(0, 100, 6), Opts());
  std::vector<Segment> out;
  ASSERT_TRUE(g.Query(50, -10, 10, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(g.CheckInvariants().ok());
}

TEST_P(SegtreeTest, RejectsShortSegments) {
  MultislabSegmentTree g(&pool_, MakeBoundaries(0, 100, 6), Opts());
  // Fits strictly inside one slab: crosses no boundary.
  EXPECT_FALSE(g.Insert(Segment::Make({1, 0}, {19, 0}, 1)).ok());
  // Crosses exactly one boundary: still no long part.
  EXPECT_FALSE(g.Insert(Segment::Make({15, 0}, {25, 0}, 2)).ok());
  // Crosses two boundaries: accepted.
  EXPECT_TRUE(g.Insert(Segment::Make({15, 0}, {45, 0}, 3)).ok());
}

TEST_P(SegtreeTest, HandQueries) {
  const auto bounds = MakeBoundaries(0, 100, 6);  // 0,20,40,60,80,100
  MultislabSegmentTree g(&pool_, bounds, Opts());
  std::vector<Segment> segs = {
      Segment::Make({0, 10}, {100, 10}, 1),   // spans everything
      Segment::Make({10, 20}, {70, 20}, 2),   // covers boundaries 20..60
      Segment::Make({35, 30}, {85, 30}, 3),   // covers boundaries 40..80
      Segment::Make({0, 40}, {45, 40}, 4),    // covers boundaries 0..40
  };
  ASSERT_TRUE(g.Build(segs).ok());
  ASSERT_TRUE(g.CheckInvariants().ok());

  std::vector<Segment> out;
  ASSERT_TRUE(g.Query(50, 0, 50, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3}));

  out.clear();
  ASSERT_TRUE(g.Query(30, 0, 50, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 4}));

  out.clear();  // on a boundary
  ASSERT_TRUE(g.Query(40, 0, 50, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3, 4}));

  out.clear();  // y-filter
  ASSERT_TRUE(g.Query(50, 15, 25, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{2}));

  out.clear();  // outside every long span's coverage at x=5
  ASSERT_TRUE(g.Query(5, 0, 50, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 4}));
}

TEST_P(SegtreeTest, MatchesOracleOnStrips) {
  Rng rng(31);
  const auto bounds = MakeBoundaries(0, 100000, 18);
  auto raw = workload::GenHorizontalStrips(rng, 600, 100000);
  auto segs = FilterLong(raw, bounds);
  ASSERT_GT(segs.size(), 100u);
  MultislabSegmentTree g(&pool_, bounds, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  ASSERT_TRUE(g.CheckInvariants().ok());
  for (int q = 0; q < 60; ++q) {
    const int64_t x0 = rng.UniformInt(0, 100000);
    const int64_t ylo = rng.UniformInt(-100, 2500);
    const int64_t yhi = ylo + rng.UniformInt(0, 400);
    std::vector<Segment> out;
    ASSERT_TRUE(g.Query(x0, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, bounds, x0, ylo, yhi)) << "x0=" << x0;
  }
}

TEST_P(SegtreeTest, MatchesOracleOnChains) {
  Rng rng(32);
  const auto bounds = MakeBoundaries(0, 120000, 30);
  auto raw = workload::GenMonotoneChains(rng, 40, 24, 120000);
  auto segs = FilterLong(raw, bounds);
  ASSERT_GT(segs.size(), 60u);
  MultislabSegmentTree g(&pool_, bounds, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  ASSERT_TRUE(g.CheckInvariants().ok());
  for (int q = 0; q < 60; ++q) {
    const int64_t x0 = rng.UniformInt(0, 120000);
    const int64_t ylo = rng.UniformInt(-500, 26000);
    const int64_t yhi = ylo + rng.UniformInt(0, 4000);
    std::vector<Segment> out;
    ASSERT_TRUE(g.Query(x0, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, bounds, x0, ylo, yhi)) << "x0=" << x0;
  }
}

TEST_P(SegtreeTest, BoundaryQueriesExact) {
  Rng rng(33);
  const auto bounds = MakeBoundaries(0, 80000, 12);
  auto segs = FilterLong(workload::GenNestedSpans(rng, 400, 40000), bounds);
  ASSERT_GT(segs.size(), 50u);
  MultislabSegmentTree g(&pool_, bounds, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  for (int64_t b : bounds) {
    std::vector<Segment> out;
    ASSERT_TRUE(g.Query(b, -1000000, 1000000, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, bounds, b, -1000000, 1000000))
        << "boundary " << b;
  }
}

TEST_P(SegtreeTest, TouchingStarAtSplit) {
  // Long segments all sharing the endpoint (400, 0) on an internal
  // boundary, fanning left and right with varied slopes: a maximal tie
  // group at the reference boundary (touching, never crossing, since any
  // two only meet at the shared endpoint).
  const auto bounds = MakeBoundaries(0, 800, 9);  // split lines inside
  std::vector<Segment> segs;
  uint64_t id = 1;
  for (int i = 0; i < 5; ++i) {
    const int64_t slope = i - 2;
    segs.push_back(
        Segment::Make({0, -400 * slope}, {400, 0}, id++));  // left fan
    segs.push_back(
        Segment::Make({400, 0}, {800, 400 * slope}, id++));  // right fan
  }
  ASSERT_TRUE(geom::ValidateNct(segs).ok());
  MultislabSegmentTree g(&pool_, bounds, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  ASSERT_TRUE(g.CheckInvariants().ok());
  Rng rng(34);
  for (int q = 0; q < 80; ++q) {
    const int64_t x0 = rng.UniformInt(0, 800);
    const int64_t ylo = rng.UniformInt(-1700, 1700);
    const int64_t yhi = ylo + rng.UniformInt(0, 900);
    std::vector<Segment> out;
    ASSERT_TRUE(g.Query(x0, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, bounds, x0, ylo, yhi))
        << "x0=" << x0 << " y=[" << ylo << "," << yhi << "]";
  }
  // Exactly at the star point: every fan segment touches it.
  std::vector<Segment> out;
  ASSERT_TRUE(g.Query(400, 0, 0, &out).ok());
  EXPECT_EQ(Ids(out), OracleIds(segs, bounds, 400, 0, 0));
  EXPECT_EQ(out.size(), 10u);
}

TEST_P(SegtreeTest, InsertThenQuery) {
  Rng rng(35);
  const auto bounds = MakeBoundaries(0, 60000, 10);
  auto segs = FilterLong(workload::GenHorizontalStrips(rng, 500, 60000), bounds);
  ASSERT_GT(segs.size(), 80u);
  MultislabSegmentTree g(&pool_, bounds, Opts());
  const size_t half = segs.size() / 2;
  std::vector<Segment> first(segs.begin(), segs.begin() + half);
  ASSERT_TRUE(g.Build(first).ok());
  for (size_t i = half; i < segs.size(); ++i) {
    ASSERT_TRUE(g.Insert(segs[i]).ok());
    if (g.NeedsRebuild()) {
      ASSERT_TRUE(g.Rebuild().ok());
    }
  }
  EXPECT_EQ(g.size(), segs.size());
  for (int q = 0; q < 40; ++q) {
    const int64_t x0 = rng.UniformInt(0, 60000);
    const int64_t ylo = rng.UniformInt(-100, 2100);
    const int64_t yhi = ylo + rng.UniformInt(0, 300);
    std::vector<Segment> out;
    ASSERT_TRUE(g.Query(x0, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, bounds, x0, ylo, yhi));
  }
}

TEST_P(SegtreeTest, CollectAllReturnsOriginals) {
  Rng rng(36);
  const auto bounds = MakeBoundaries(0, 50000, 8);
  auto segs = FilterLong(workload::GenHorizontalStrips(rng, 300, 50000), bounds);
  MultislabSegmentTree g(&pool_, bounds, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  std::vector<Segment> all;
  ASSERT_TRUE(g.CollectAll(&all).ok());
  EXPECT_EQ(Ids(all), Ids(segs));
}

TEST_P(SegtreeTest, ClearReleasesPages) {
  Rng rng(37);
  const uint64_t before = disk_.pages_in_use();
  const auto bounds = MakeBoundaries(0, 50000, 8);
  auto segs = FilterLong(workload::GenHorizontalStrips(rng, 400, 50000), bounds);
  MultislabSegmentTree g(&pool_, bounds, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  EXPECT_GT(disk_.pages_in_use(), before);
  ASSERT_TRUE(g.Clear().ok());
  EXPECT_EQ(disk_.pages_in_use(), before);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SegtreeTest,
    ::testing::Values(GConfig{0, 2, 1024}, GConfig{1, 2, 1024},
                      GConfig{1, 4, 1024}, GConfig{1, 2, 4096},
                      GConfig{0, 2, 4096}),
    [](const auto& info) {
      return std::string(info.param.cascading != 0 ? "casc" : "plain") + "_d" +
             std::to_string(info.param.bridge_d) + "_page" +
             std::to_string(info.param.page_size);
    });

}  // namespace
}  // namespace segdb::segtree
