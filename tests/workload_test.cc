#include <gtest/gtest.h>

#include "geom/nct.h"
#include "geom/predicates.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::workload {
namespace {

using geom::Segment;
using geom::ValidateNct;

TEST(GeneratorsTest, LineBasedSortedIsNctAndLineBased) {
  Rng rng(1);
  auto segs = GenLineBasedSorted(rng, 300, 100, 5000);
  ASSERT_EQ(segs.size(), 300u);
  EXPECT_TRUE(ValidateNct(segs).ok());
  for (const Segment& s : segs) {
    EXPECT_EQ(s.x1, 100);
    EXPECT_GT(s.x2, 100);
  }
}

TEST(GeneratorsTest, LineBasedFanTouchesAtBase) {
  Rng rng(2);
  auto segs = GenLineBasedFan(rng, 200, 0, 3000, /*bundle=*/8);
  ASSERT_EQ(segs.size(), 200u);
  EXPECT_TRUE(ValidateNct(segs).ok());
  // Bundles share base points: at least one pair with equal base ordinate.
  bool found_shared = false;
  for (size_t i = 1; i < segs.size() && !found_shared; ++i) {
    found_shared = (segs[i].x1 == segs[i - 1].x1 && segs[i].y1 == segs[i - 1].y1);
  }
  EXPECT_TRUE(found_shared);
}

TEST(GeneratorsTest, LineBasedRepairedIsNct) {
  Rng rng(3);
  auto segs = GenLineBasedRepaired(rng, 250, -50, 4000);
  ASSERT_EQ(segs.size(), 250u);
  EXPECT_TRUE(ValidateNct(segs).ok()) << "repair left a crossing";
  for (const Segment& s : segs) EXPECT_EQ(s.x1, -50);
}

TEST(GeneratorsTest, HorizontalStripsAreNct) {
  Rng rng(4);
  auto segs = GenHorizontalStrips(rng, 400, 100000);
  EXPECT_TRUE(ValidateNct(segs).ok());
}

TEST(GeneratorsTest, MonotoneChainsAreNct) {
  Rng rng(5);
  auto segs = GenMonotoneChains(rng, 10, 40, 100000);
  ASSERT_EQ(segs.size(), 10u * 39u);
  EXPECT_TRUE(ValidateNct(segs).ok());
}

TEST(GeneratorsTest, GridPerturbedIsNct) {
  Rng rng(6);
  auto segs = GenGridPerturbed(rng, 8, 8, 1024);
  EXPECT_GT(segs.size(), 100u);
  EXPECT_TRUE(ValidateNct(segs).ok());
}

TEST(GeneratorsTest, GridPerturbedManySeedsStayNct) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    Rng rng(seed);
    auto segs = GenGridPerturbed(rng, 6, 6, 512, /*diagonal_prob=*/1.0);
    EXPECT_TRUE(ValidateNct(segs).ok()) << "seed " << seed;
  }
}

TEST(GeneratorsTest, NestedSpansAreNct) {
  Rng rng(7);
  auto segs = GenNestedSpans(rng, 300, 100000);
  EXPECT_TRUE(ValidateNct(segs).ok());
}

TEST(GeneratorsTest, CollinearVerticalOnLine) {
  Rng rng(8);
  auto segs = GenCollinearVertical(rng, 100, 77, 10000);
  EXPECT_TRUE(ValidateNct(segs).ok());
  for (const Segment& s : segs) {
    EXPECT_TRUE(s.is_vertical());
    EXPECT_EQ(s.x1, 77);
  }
}

TEST(GeneratorsTest, MapLayerIsNctWithRequestedSize) {
  Rng rng(9);
  auto segs = GenMapLayer(rng, 800, 100000);
  EXPECT_EQ(segs.size(), 800u);
  EXPECT_TRUE(ValidateNct(segs).ok());
  // Small n too, where one 63-segment chain alone is more than n.
  for (uint64_t n = 1; n <= 200; ++n) {
    Rng small_rng(n);
    segs = GenMapLayer(small_rng, n, 100000, /*first_id=*/7);
    ASSERT_EQ(segs.size(), n);
    for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(segs[i].id, 7 + i) << n;
    EXPECT_TRUE(ValidateNct(segs).ok()) << "n " << n;
  }
}

TEST(GeneratorsTest, IdsAreDistinctAndOffset) {
  Rng rng(10);
  auto segs = GenHorizontalStrips(rng, 50, 1000, /*first_id=*/1000);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].id, 1000u + i);
  }
}

TEST(QueriesTest, BoundingBoxCoversAll) {
  Rng rng(11);
  auto segs = GenMapLayer(rng, 300, 50000);
  auto box = ComputeBoundingBox(segs);
  for (const Segment& s : segs) {
    EXPECT_GE(s.x1, box.xmin);
    EXPECT_LE(s.x2, box.xmax);
    EXPECT_GE(s.min_y(), box.ymin);
    EXPECT_LE(s.max_y(), box.ymax);
  }
}

TEST(QueriesTest, VsQueriesInsideBox) {
  Rng rng(12);
  BoundingBox box{0, 1000, -500, 500};
  auto qs = GenVsQueries(rng, 100, box, 0.1);
  for (const auto& q : qs) {
    EXPECT_GE(q.x0, box.xmin);
    EXPECT_LE(q.x0, box.xmax);
    EXPECT_LE(q.ylo, q.yhi);
    EXPECT_EQ(q.yhi - q.ylo, 100);  // 10% of y-extent 1000
  }
}

TEST(QueriesTest, LineQueriesSpanFullHeight) {
  Rng rng(13);
  BoundingBox box{0, 1000, -500, 500};
  auto qs = GenLineQueries(rng, 10, box);
  for (const auto& q : qs) {
    EXPECT_LT(q.ylo, box.ymin);
    EXPECT_GT(q.yhi, box.ymax);
  }
}

TEST(QueriesTest, RayQueriesReachAboveData) {
  Rng rng(14);
  BoundingBox box{0, 1000, -500, 500};
  auto qs = GenRayQueries(rng, 10, box);
  for (const auto& q : qs) EXPECT_GT(q.yhi, box.ymax);
}

}  // namespace
}  // namespace segdb::workload
