// ShearedIndex: generalized query segments with a fixed (rational)
// direction — the paper's footnote 1 / concluding generalization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "baseline/oracle.h"
#include "core/sheared_index.h"
#include "core/two_level_interval_index.h"
#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::core {
namespace {

using geom::Point;
using geom::Segment;

std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Exact oracle: does segment s intersect the query segment from `a`
// along direction (dx, dy) for `steps` units?
bool HitsDirected(const Segment& s, Point a, int64_t dx, int64_t dy,
                  int64_t steps) {
  const Segment q = Segment::Make(
      a, Point{a.x + steps * dx, a.y + steps * dy}, 0);
  if (q.is_point()) return geom::OnSegment(s, q.lo());
  return geom::SegmentsIntersect(s, q);
}

struct Direction {
  int64_t dx, dy;
};

class ShearedTest : public ::testing::TestWithParam<Direction> {
 protected:
  ShearedTest() : disk_(1024), pool_(&disk_, 2048) {}
  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

TEST_P(ShearedTest, MatchesDirectedOracle) {
  const auto [dx, dy] = GetParam();
  Rng rng(101);
  auto segs = workload::GenMapLayer(rng, 600, 60000);
  ASSERT_TRUE(geom::ValidateNct(segs).ok());

  ShearedIndex index(std::make_unique<TwoLevelIntervalIndex>(&pool_), dx, dy);
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  EXPECT_EQ(index.size(), segs.size());

  for (int q = 0; q < 60; ++q) {
    const Point anchor{rng.UniformInt(0, 60000),
                       rng.UniformInt(0, 60000)};
    const int64_t steps = rng.UniformInt(0, 3000);
    std::vector<Segment> out;
    ASSERT_TRUE(index.QuerySegment(anchor, steps, &out).ok());
    std::vector<uint64_t> expect;
    for (const Segment& s : segs) {
      if (HitsDirected(s, anchor, dx, dy, steps)) expect.push_back(s.id);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(Ids(out), expect)
        << "anchor=(" << anchor.x << "," << anchor.y << ") steps=" << steps;
  }
}

TEST_P(ShearedTest, ReportsOriginalCoordinates) {
  const auto [dx, dy] = GetParam();
  ShearedIndex index(std::make_unique<TwoLevelIntervalIndex>(&pool_), dx, dy);
  const Segment s = Segment::Make({100, 200}, {300, 250}, 42);
  ASSERT_TRUE(index.Insert(s).ok());
  std::vector<Segment> out;
  // Anchor the query line on a point of the segment: a line through a
  // point of s intersects s in every direction.
  ASSERT_TRUE(index.QueryLine({100, 200}, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], s);  // exact round-trip through the shear
}

TEST_P(ShearedTest, EraseWorksThroughTheShear) {
  const auto [dx, dy] = GetParam();
  ShearedIndex index(std::make_unique<TwoLevelIntervalIndex>(&pool_), dx, dy);
  const Segment s = Segment::Make({10, 10}, {50, 30}, 7);
  ASSERT_TRUE(index.Insert(s).ok());
  ASSERT_TRUE(index.Erase(s).ok());
  std::vector<Segment> out;
  ASSERT_TRUE(index.QueryLine({20, 0}, &out).ok());
  EXPECT_TRUE(out.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Directions, ShearedTest,
    ::testing::Values(Direction{0, 1},    // vertical: the base case
                      Direction{1, 0},    // horizontal: the transpose path
                      Direction{1, 1},    // diagonal
                      Direction{2, -3},   // generic rational slope
                      Direction{-5, 2}),  // negative components
    [](const auto& info) {
      auto n = [](int64_t v) {
        return v < 0 ? "m" + std::to_string(-v) : std::to_string(v);
      };
      return "d" + n(info.param.dx) + "_" + n(info.param.dy);
    });

TEST(ShearedBoundsTest, RejectsOversizedInput) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 64);
  ShearedIndex index(std::make_unique<baseline::OracleIndex>(), 3, 5);
  const int64_t big = geom::kMaxCoord / 4;
  EXPECT_FALSE(
      index.Insert(Segment::Make({big, big}, {big + 10, big}, 1)).ok());
}

TEST(ShearedBoundsTest, RejectsInt64Extremes) {
  // Range comparisons against the budget: no abs of INT64_MIN.
  ShearedIndex index(std::make_unique<baseline::OracleIndex>(), 2, -3);
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(index.Insert(Segment::Make({v, 0}, {0, 0}, 1)).code(),
              StatusCode::kInvalidArgument)
        << v;
    EXPECT_EQ(index.Insert(Segment::Make({0, 0}, {1, v}, 2)).code(),
              StatusCode::kInvalidArgument)
        << v;
  }
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
}  // namespace segdb::core
