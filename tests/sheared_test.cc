// ShearedIndex: generalized query segments with a fixed (rational)
// direction — the paper's footnote 1 / concluding generalization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
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
      // Appends rather than `"m" + std::to_string(...)`: GCC 12 reports a
      // -Wrestrict false positive on that concatenation in Release builds.
      auto append = [](std::string* out, int64_t v) {
        if (v < 0) out->push_back('m');
        out->append(std::to_string(v < 0 ? -v : v));
      };
      std::string name = "d";
      append(&name, info.param.dx);
      name.push_back('_');
      append(&name, info.param.dy);
      return name;
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

TEST(ShearedBoundsTest, RejectsZeroDirection) {
  // (0, 0) names no line: every call is InvalidArgument (no division by
  // |dx| + |dy| = 0), and the wrapped index keeps what it held.
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 256);
  auto inner = std::make_unique<TwoLevelIntervalIndex>(&pool);
  const std::vector<Segment> held = {Segment::Make({0, 0}, {10, 5}, 1),
                                     Segment::Make({2, 8}, {6, 9}, 2)};
  ASSERT_TRUE(inner->BulkLoad(held).ok());
  ShearedIndex index(std::move(inner), 0, 0);
  const Segment s = Segment::Make({1, 1}, {4, 2}, 3);
  EXPECT_EQ(index.BulkLoad(std::vector<Segment>{s}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.BulkLoad({}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Insert(s).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Erase(held[0]).code(), StatusCode::kInvalidArgument);
  std::vector<Segment> out;
  EXPECT_EQ(index.QuerySegment({1, 0}, 3, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.QueryLine({1, 0}, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.size(), held.size());
  EXPECT_TRUE(index.CheckInvariants().ok());
}

}  // namespace
}  // namespace segdb::core
