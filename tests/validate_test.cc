#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/validate.h"
#include "geom/segment.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::core {
namespace {

using geom::Point;
using geom::Segment;

TEST(ValidateTest, AcceptsGeneratorOutput) {
  Rng rng(131);
  EXPECT_TRUE(
      ValidateForIndexing(workload::GenMapLayer(rng, 3000, 200000)).ok());
  EXPECT_TRUE(
      ValidateForIndexing(workload::GenGridPerturbed(rng, 10, 10, 512)).ok());
}

TEST(ValidateTest, RejectsNonCanonical) {
  // Hand-built, bypassing Segment::Make.
  std::vector<Segment> bad = {Segment{10, 0, 0, 0, 1}};  // x1 > x2
  EXPECT_FALSE(ValidateForIndexing(bad).ok());
  std::vector<Segment> bad_vertical = {
      Segment{0, 9, 0, 1, 2}};  // vertical with y1 > y2
  EXPECT_FALSE(ValidateForIndexing(bad_vertical).ok());
}

TEST(ValidateTest, RejectsOutOfBounds) {
  std::vector<Segment> big = {
      Segment::Make(Point{0, 0}, Point{geom::kMaxCoord + 1, 0}, 1)};
  EXPECT_FALSE(ValidateForIndexing(big).ok());
}

TEST(ValidateTest, RejectsDuplicateIds) {
  std::vector<Segment> segs = {Segment::Make({0, 0}, {1, 1}, 7),
                               Segment::Make({3, 3}, {4, 4}, 7)};
  EXPECT_FALSE(ValidateForIndexing(segs).ok());
}

TEST(ValidateTest, RejectsCrossings) {
  std::vector<Segment> segs = {Segment::Make({0, 0}, {10, 10}, 1),
                               Segment::Make({0, 10}, {10, 0}, 2)};
  const Status s = ValidateForIndexing(segs);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("properly cross"), std::string::npos);
}

TEST(ValidateTest, AcceptsTouching) {
  std::vector<Segment> segs = {
      Segment::Make({0, 0}, {5, 5}, 1),
      Segment::Make({5, 5}, {10, 0}, 2),
      Segment::Make({2, 2}, {2, 9}, 3),  // endpoint on segment 1's interior
  };
  EXPECT_TRUE(ValidateForIndexing(segs).ok());
}

TEST(ValidateTest, AcceptsTouchingFanAndTJunctions) {
  // A fan sharing one endpoint plus T-junctions from both sides: touching
  // in every configuration the NCT definition allows, never crossing.
  std::vector<Segment> segs = {
      Segment::Make({0, 0}, {10, 10}, 1),
      Segment::Make({0, 0}, {10, -10}, 2),
      Segment::Make({0, 0}, {10, 0}, 3),
      Segment::Make({5, 0}, {5, -4}, 4),    // T: endpoint on 3's interior
      Segment::Make({-8, 4}, {4, 4}, 5),    // T: right endpoint on 1
      Segment::Make({6, 6}, {20, 6}, 6),    // T: left endpoint on 1
  };
  EXPECT_TRUE(ValidateForIndexing(segs).ok());
}

TEST(ValidateTest, DuplicateIdDetectedAmongManyValid) {
  Rng rng(7);
  std::vector<Segment> segs = workload::GenHorizontalStrips(rng, 64, 1000);
  segs.push_back(Segment::Make({-900, -900}, {-800, -900}, segs[40].id));
  const Status s = ValidateForIndexing(segs);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos);
}

TEST(ValidateTest, AcceptsCoordinatesExactlyAtBound) {
  // |coord| == kMaxCoord is legal; one past it is not.
  std::vector<Segment> at_bound = {
      Segment::Make({-geom::kMaxCoord, -geom::kMaxCoord},
                    {geom::kMaxCoord, geom::kMaxCoord}, 1),
      Segment::Make({geom::kMaxCoord, -geom::kMaxCoord},
                    {geom::kMaxCoord, geom::kMaxCoord - 1}, 2),
  };
  EXPECT_TRUE(ValidateForIndexing(at_bound).ok());
  std::vector<Segment> past = {
      Segment::Make({0, -(geom::kMaxCoord + 1)}, {0, 0}, 3)};
  EXPECT_FALSE(ValidateForIndexing(past).ok());
}

TEST(ValidateTest, RejectsInt64Extremes) {
  // The bound is a range comparison: |INT64_MIN| is not representable, so
  // an abs-based check is undefined behaviour there.
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    const std::vector<Segment> on_x = {Segment::Make({v, 0}, {0, 0}, 1)};
    EXPECT_EQ(ValidateForIndexing(on_x).code(), StatusCode::kInvalidArgument)
        << v;
    EXPECT_EQ(ValidateSegment(Segment::Make({0, v}, {1, 0}, 2)).code(),
              StatusCode::kInvalidArgument)
        << v;
  }
  EXPECT_TRUE(ValidateSegment(Segment::Make({0, 0}, {1, 1}, 3)).ok());
}

TEST(ValidateTest, AcceptsZeroLengthSegments) {
  // Degenerate point-segments are canonical (x1 == x2, y1 == y2) and
  // cannot properly cross anything, even sitting on another's interior.
  std::vector<Segment> segs = {
      Segment::Make({5, 5}, {5, 5}, 1),
      Segment::Make({0, 0}, {10, 0}, 2),
      Segment::Make({5, 0}, {5, 0}, 3),  // point on segment 2's interior
  };
  EXPECT_TRUE(ValidateForIndexing(segs).ok());
}

}  // namespace
}  // namespace segdb::core
