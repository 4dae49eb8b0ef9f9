#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/nct.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::geom {
namespace {

Segment Seg(int64_t x1, int64_t y1, int64_t x2, int64_t y2, uint64_t id = 0) {
  return Segment::Make(Point{x1, y1}, Point{x2, y2}, id);
}

TEST(SegmentTest, MakeCanonicalizes) {
  Segment s = Seg(5, 1, 2, 3);
  EXPECT_EQ(s.x1, 2);
  EXPECT_EQ(s.y1, 3);
  EXPECT_EQ(s.x2, 5);
  EXPECT_EQ(s.y2, 1);
}

TEST(SegmentTest, VerticalCanonicalOrdersY) {
  Segment s = Seg(4, 9, 4, -2);
  EXPECT_TRUE(s.is_vertical());
  EXPECT_EQ(s.y1, -2);
  EXPECT_EQ(s.y2, 9);
}

TEST(SegmentTest, MinMaxY) {
  Segment s = Seg(0, 7, 10, -3);
  EXPECT_EQ(s.min_y(), -3);
  EXPECT_EQ(s.max_y(), 7);
}

TEST(SegmentTest, MirrorXPreservesShape) {
  Segment s = Seg(2, 1, 6, 5, 9);
  Segment m = MirrorX(s, 10);
  EXPECT_EQ(m.id, 9u);
  EXPECT_EQ(m.x1, 14);  // 2*10-6
  EXPECT_EQ(m.x2, 18);  // 2*10-2
  // Mirroring twice is the identity.
  EXPECT_EQ(MirrorX(m, 10), s);
}

TEST(SegmentTest, TransposeSwapsAxes) {
  Segment s = Seg(1, 2, 3, 4);
  Segment t = Transpose(s);
  EXPECT_EQ(t.x1, 2);
  EXPECT_EQ(t.y1, 1);
  EXPECT_EQ(Transpose(t), s);
}

TEST(PredicatesTest, OrientationSigns) {
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {0, 1}), 1);   // ccw
  EXPECT_EQ(Orientation({0, 0}, {0, 1}, {1, 0}), -1);  // cw
  EXPECT_EQ(Orientation({0, 0}, {1, 1}, {2, 2}), 0);   // collinear
}

TEST(PredicatesTest, OrientationExactAtCoordinateBound) {
  const int64_t m = kMaxCoord;
  // Nearly-collinear points that double arithmetic would misclassify.
  EXPECT_EQ(Orientation({-m, -m}, {m, m}, {m - 1, m}), 1);
  EXPECT_EQ(Orientation({-m, -m}, {m, m}, {m, m - 1}), -1);
  EXPECT_EQ(Orientation({-m, -m}, {0, 0}, {m, m}), 0);
}

TEST(PredicatesTest, OnSegment) {
  Segment s = Seg(0, 0, 10, 10);
  EXPECT_TRUE(OnSegment(s, {5, 5}));
  EXPECT_TRUE(OnSegment(s, {0, 0}));
  EXPECT_TRUE(OnSegment(s, {10, 10}));
  EXPECT_FALSE(OnSegment(s, {5, 6}));
  EXPECT_FALSE(OnSegment(s, {11, 11}));
}

TEST(PredicatesTest, ProperCrossDetected) {
  EXPECT_TRUE(SegmentsProperlyCross(Seg(0, 0, 10, 10), Seg(0, 10, 10, 0)));
}

TEST(PredicatesTest, TouchingIsNotProperCross) {
  // Shared endpoint.
  EXPECT_FALSE(SegmentsProperlyCross(Seg(0, 0, 5, 5), Seg(5, 5, 10, 0)));
  // Endpoint on interior (T-junction).
  EXPECT_FALSE(SegmentsProperlyCross(Seg(0, 0, 10, 0), Seg(5, 0, 5, 7)));
  // Collinear overlap.
  EXPECT_FALSE(SegmentsProperlyCross(Seg(0, 0, 6, 0), Seg(3, 0, 9, 0)));
  // Disjoint.
  EXPECT_FALSE(SegmentsProperlyCross(Seg(0, 0, 1, 1), Seg(5, 5, 6, 6)));
}

TEST(PredicatesTest, SegmentsIntersectIncludesTouching) {
  EXPECT_TRUE(SegmentsIntersect(Seg(0, 0, 5, 5), Seg(5, 5, 10, 0)));
  EXPECT_TRUE(SegmentsIntersect(Seg(0, 0, 10, 0), Seg(5, 0, 5, 7)));
  EXPECT_TRUE(SegmentsIntersect(Seg(0, 0, 10, 10), Seg(0, 10, 10, 0)));
  EXPECT_FALSE(SegmentsIntersect(Seg(0, 0, 1, 1), Seg(5, 5, 6, 6)));
}

TEST(PredicatesTest, CompareYAtXExactRational) {
  // y(x) of (0,0)-(3,1) at x=1 is 1/3: strictly above 0, below 1.
  Segment s = Seg(0, 0, 3, 1);
  EXPECT_EQ(CompareYAtX(s, 1, 0), 1);
  EXPECT_EQ(CompareYAtX(s, 1, 1), -1);
  EXPECT_EQ(CompareYAtX(s, 3, 1), 0);
  EXPECT_EQ(CompareYAtX(s, 0, 0), 0);
}

TEST(PredicatesTest, CompareSegmentsAtX) {
  Segment a = Seg(0, 0, 10, 10);
  Segment b = Seg(0, 10, 10, 0);
  EXPECT_EQ(CompareSegmentsAtX(a, b, 0), -1);
  EXPECT_EQ(CompareSegmentsAtX(a, b, 5), 0);
  EXPECT_EQ(CompareSegmentsAtX(a, b, 10), 1);
  EXPECT_EQ(CompareSegmentsAtX(b, a, 10), -1);
}

TEST(PredicatesTest, VerticalSegmentQueryBasic) {
  Segment s = Seg(0, 0, 10, 10);
  EXPECT_TRUE(IntersectsVerticalSegment(s, 5, 0, 10));
  EXPECT_TRUE(IntersectsVerticalSegment(s, 5, 5, 5));   // touch exactly
  EXPECT_FALSE(IntersectsVerticalSegment(s, 5, 6, 10));  // passes below
  EXPECT_FALSE(IntersectsVerticalSegment(s, 5, 0, 4));   // passes above
  EXPECT_FALSE(IntersectsVerticalSegment(s, 11, -100, 100));  // x out
}

TEST(PredicatesTest, VerticalSegmentQueryOnVerticalSegment) {
  Segment s = Seg(4, 2, 4, 8);
  EXPECT_TRUE(IntersectsVerticalSegment(s, 4, 0, 3));
  EXPECT_TRUE(IntersectsVerticalSegment(s, 4, 8, 12));
  EXPECT_FALSE(IntersectsVerticalSegment(s, 4, 9, 12));
  EXPECT_FALSE(IntersectsVerticalSegment(s, 5, 0, 10));
}

TEST(PredicatesTest, VerticalSegmentQueryEndpointTouch) {
  Segment s = Seg(2, 3, 9, 6);
  EXPECT_TRUE(IntersectsVerticalSegment(s, 2, 3, 3));
  EXPECT_TRUE(IntersectsVerticalSegment(s, 9, 0, 6));
  EXPECT_FALSE(IntersectsVerticalSegment(s, 9, 0, 5));
}

TEST(PredicatesTest, VerticalLineStabbing) {
  Segment s = Seg(2, 0, 7, 5);
  EXPECT_TRUE(IntersectsVerticalLine(s, 2));
  EXPECT_TRUE(IntersectsVerticalLine(s, 7));
  EXPECT_TRUE(IntersectsVerticalLine(s, 4));
  EXPECT_FALSE(IntersectsVerticalLine(s, 1));
  EXPECT_FALSE(IntersectsVerticalLine(s, 8));
}

TEST(PredicatesTest, VerticalQueryAgainstFloatFooler) {
  // A slope so shallow that double evaluation of y(x) rounds incorrectly.
  const int64_t m = kMaxCoord;
  Segment s = Seg(0, 0, m, 1);
  // y(m-1) = (m-1)/m, strictly below 1.
  EXPECT_FALSE(IntersectsVerticalSegment(s, m - 1, 1, 2));
  EXPECT_TRUE(IntersectsVerticalSegment(s, m, 1, 2));
}

TEST(NctTest, ValidSetPasses) {
  std::vector<Segment> set = {
      Seg(0, 0, 10, 0, 1),
      Seg(0, 5, 10, 5, 2),
      Seg(10, 0, 20, 5, 3),  // touches 1 at (10,0)
  };
  EXPECT_TRUE(ValidateNct(set).ok());
}

TEST(NctTest, CrossingSetRejected) {
  std::vector<Segment> set = {Seg(0, 0, 10, 10, 1), Seg(0, 10, 10, 0, 2)};
  EXPECT_FALSE(ValidateNct(set).ok());
  EXPECT_EQ(CountProperCrossings(set), 1u);
}

TEST(NctTest, DuplicateIdsRejected) {
  std::vector<Segment> set = {Seg(0, 0, 1, 1, 7), Seg(2, 2, 3, 3, 7)};
  EXPECT_FALSE(ValidateNct(set).ok());
}

TEST(NctTest, OutOfBoundsCoordinateRejected) {
  std::vector<Segment> set = {Seg(0, 0, kMaxCoord + 1, 0, 1)};
  EXPECT_FALSE(ValidateNct(set).ok());
}

TEST(NctTest, Int64ExtremesRejected) {
  // |INT64_MIN| is not representable: the domain test must be a range
  // comparison at every coordinate, not an absolute value.
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    for (const Segment& s : {Seg(v, 0, 0, 0, 1), Seg(0, 0, v, 0, 1),
                             Seg(0, v, 1, 0, 1), Seg(0, 0, 1, v, 1)}) {
      const std::vector<Segment> set = {s};
      EXPECT_EQ(ValidateNct(set).code(), StatusCode::kInvalidArgument)
          << s.x1 << "," << s.y1 << " " << s.x2 << "," << s.y2;
    }
  }
  EXPECT_TRUE(InDomain(-kMaxCoord) && InDomain(kMaxCoord));
  EXPECT_FALSE(InDomain(-kMaxCoord - 1) || InDomain(kMaxCoord + 1));
}

TEST(CompareCrossingOrderTest, TotalOrderOnSamples) {
  // Antisymmetry, transitivity, and consistency-with-y sampled over a
  // random NCT family based on a common line.
  Rng rng(314);
  auto segs = workload::GenLineBasedRepaired(rng, 60, 0, 250);
  ASSERT_TRUE(ValidateNct(segs).ok());
  const int64_t cx = 0;
  for (const Segment& a : segs) {
    EXPECT_EQ(CompareCrossingOrder(a, a, cx), 0);
    for (const Segment& b : segs) {
      const int ab = CompareCrossingOrder(a, b, cx);
      const int ba = CompareCrossingOrder(b, a, cx);
      EXPECT_EQ(ab, -ba);
      if (ab < 0) {
        // Weak consistency with the y-order at any abscissa both span.
        const int64_t common = std::min(a.x2, b.x2);
        EXPECT_LE(CompareSegmentsAtX(a, b, common), 0);
      }
    }
  }
  // Transitivity on random triples.
  for (int t = 0; t < 500; ++t) {
    const Segment& a = segs[rng.Uniform(segs.size())];
    const Segment& b = segs[rng.Uniform(segs.size())];
    const Segment& c = segs[rng.Uniform(segs.size())];
    if (CompareCrossingOrder(a, b, cx) <= 0 &&
        CompareCrossingOrder(b, c, cx) <= 0) {
      EXPECT_LE(CompareCrossingOrder(a, c, cx), 0);
    }
  }
}

TEST(CompareCrossingOrderTest, TouchingBundleOrderedBySlope) {
  // Segments sharing the point (0, 0): order at cx=0 must fall back to
  // the order just right of it, i.e. ascending slope.
  std::vector<Segment> fan;
  for (int i = 0; i < 9; ++i) {
    fan.push_back(Segment::Make(Point{0, 0}, Point{100, (i - 4) * 10},
                                static_cast<uint64_t>(i)));
  }
  for (size_t i = 0; i + 1 < fan.size(); ++i) {
    EXPECT_LT(CompareCrossingOrder(fan[i], fan[i + 1], 0), 0);
  }
}

TEST(NctTest, BruteForceQueryMatchesPredicate) {
  Rng rng(99);
  std::vector<Segment> set;
  for (uint64_t i = 0; i < 200; ++i) {
    // Horizontal strips never cross.
    int64_t y = static_cast<int64_t>(i) * 10;
    int64_t x = rng.UniformInt(0, 1000);
    set.push_back(Seg(x, y, x + rng.UniformInt(1, 500), y, i));
  }
  ASSERT_TRUE(ValidateNct(set).ok());
  auto out = BruteForceVerticalSegmentQuery(set, 400, 100, 900);
  for (const Segment& s : out) {
    EXPECT_TRUE(IntersectsVerticalSegment(s, 400, 100, 900));
  }
  size_t expected = 0;
  for (const Segment& s : set) {
    expected += IntersectsVerticalSegment(s, 400, 100, 900);
  }
  EXPECT_EQ(out.size(), expected);
}

}  // namespace
}  // namespace segdb::geom
