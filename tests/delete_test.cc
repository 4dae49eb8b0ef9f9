// Deletion paths across the stack: LinePst, PointPst, the multislab tree
// (both modes), both two-level indexes and the baselines. Property: after
// any interleaving of deletions, queries match a brute-force oracle over
// the surviving set, and invariants hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baseline/full_scan_index.h"
#include "baseline/oracle.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "pst/line_pst.h"
#include "pst/point_pst.h"
#include "segtree/multislab_segment_tree.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb {
namespace {

using core::VerticalSegmentQuery;
using geom::Segment;

std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint64_t> OracleIds(const std::vector<Segment>& segs, int64_t x0,
                                int64_t ylo, int64_t yhi) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) {
    if (geom::IntersectsVerticalSegment(s, x0, ylo, yhi)) ids.push_back(s.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LinePstDeleteTest, DeleteHalfMatchesOracle) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 512);
  Rng rng(91);
  auto segs = workload::GenLineBasedRepaired(rng, 400, 0, 2000);
  pst::LinePst pst(&pool, 0, pst::Direction::kRight);
  ASSERT_TRUE(pst.BulkLoad(segs).ok());

  // Delete every other segment.
  std::vector<Segment> alive;
  for (size_t i = 0; i < segs.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(pst.Erase(segs[i]).ok()) << "i=" << i;
    } else {
      alive.push_back(segs[i]);
    }
  }
  EXPECT_EQ(pst.size(), alive.size());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 60; ++q) {
    const int64_t qx = rng.UniformInt(0, 2100);
    const int64_t ylo = rng.UniformInt(-500, 6000);
    const int64_t yhi = ylo + rng.UniformInt(0, 800);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(alive, qx, ylo, yhi));
  }
}

TEST(LinePstDeleteTest, DeleteMissingIsNotFound) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 512);
  pst::LinePst pst(&pool, 0, pst::Direction::kRight);
  Segment s = Segment::Make({0, 5}, {10, 7}, 1);
  EXPECT_EQ(pst.Erase(s).code(), StatusCode::kNotFound);
  ASSERT_TRUE(pst.Insert(s).ok());
  ASSERT_TRUE(pst.Erase(s).ok());
  EXPECT_EQ(pst.Erase(s).code(), StatusCode::kNotFound);
  EXPECT_EQ(pst.size(), 0u);
}

TEST(LinePstDeleteTest, DeleteEverythingRepacksPages) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 512);
  Rng rng(92);
  auto segs = workload::GenLineBasedSorted(rng, 600, 0, 3000);
  const uint64_t before = disk.pages_in_use();
  pst::LinePst pst(&pool, 0, pst::Direction::kRight);
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  for (const Segment& s : segs) ASSERT_TRUE(pst.Erase(s).ok());
  EXPECT_EQ(pst.size(), 0u);
  // Half-empty repacking reclaims pages; at zero everything is free.
  EXPECT_EQ(disk.pages_in_use(), before);
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(100, -100000, 100000, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(LinePstDeleteTest, InterleavedInsertDelete) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 512);
  Rng rng(93);
  auto segs = workload::GenLineBasedRepaired(rng, 500, 0, 1500);
  pst::LinePst pst(&pool, 0, pst::Direction::kRight);
  std::vector<Segment> alive;
  for (size_t i = 0; i < segs.size(); ++i) {
    ASSERT_TRUE(pst.Insert(segs[i]).ok());
    alive.push_back(segs[i]);
    if (i % 3 == 2) {
      const size_t victim = rng.Uniform(alive.size());
      ASSERT_TRUE(pst.Erase(alive[victim]).ok());
      alive.erase(alive.begin() + victim);
    }
  }
  ASSERT_TRUE(pst.CheckInvariants().ok());
  EXPECT_EQ(pst.size(), alive.size());
  for (int q = 0; q < 40; ++q) {
    const int64_t qx = rng.UniformInt(0, 1600);
    const int64_t ylo = rng.UniformInt(-500, 8000);
    const int64_t yhi = ylo + rng.UniformInt(0, 900);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(alive, qx, ylo, yhi));
  }
}

TEST(PointPstDeleteTest, EraseByRecord) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 256);
  pst::PointPst pst(&pool);
  std::vector<pst::PointRecord> pts;
  for (uint64_t i = 0; i < 300; ++i) {
    pts.push_back(pst::PointRecord{int64_t(i % 37), int64_t(i % 53), i});
  }
  ASSERT_TRUE(pst.BulkLoad(pts).ok());
  for (uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(pst.Erase(pts[i]).ok());
  }
  EXPECT_EQ(pst.size(), 150u);
  std::vector<pst::PointRecord> out;
  ASSERT_TRUE(pst.Query3Sided(INT64_MIN / 4, INT64_MAX / 4, INT64_MIN / 4,
                              &out).ok());
  EXPECT_EQ(out.size(), 150u);
  for (const auto& p : out) EXPECT_EQ(p.id % 2, 1u);
}

class SegtreeDeleteTest : public ::testing::TestWithParam<bool> {
 protected:
  SegtreeDeleteTest() : disk_(1024), pool_(&disk_, 1024) {
    for (int i = 0; i < 12; ++i) bounds_.push_back(i * 5000);
  }

  // Long segments (crossing at least two boundaries) of a strip map.
  std::vector<Segment> LongStrips(Rng* rng) const {
    std::vector<Segment> segs;
    for (const auto& s : workload::GenHorizontalStrips(*rng, 500, 55000)) {
      auto lo = std::lower_bound(bounds_.begin(), bounds_.end(), s.x1);
      auto hi = std::upper_bound(bounds_.begin(), bounds_.end(), s.x2);
      if (lo < hi && hi - lo >= 2) segs.push_back(s);
    }
    return segs;
  }

  // Expected ids under G's long-span contract.
  std::vector<uint64_t> Expect(const std::vector<Segment>& alive, int64_t x0,
                               int64_t ylo, int64_t yhi) const {
    std::vector<uint64_t> expect;
    for (const Segment& s : alive) {
      auto lo = std::lower_bound(bounds_.begin(), bounds_.end(), s.x1);
      auto hi = std::upper_bound(bounds_.begin(), bounds_.end(), s.x2);
      if (lo < hi && hi - lo >= 2 && *lo <= x0 && x0 <= *(hi - 1) &&
          geom::IntersectsVerticalSegment(s, x0, ylo, yhi)) {
        expect.push_back(s.id);
      }
    }
    std::sort(expect.begin(), expect.end());
    return expect;
  }

  segtree::MultislabOptions Opts() const {
    segtree::MultislabOptions opts;
    opts.fractional_cascading = GetParam();
    return opts;
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
  std::vector<int64_t> bounds_;
};

TEST_P(SegtreeDeleteTest, DeleteMatchesOracle) {
  Rng rng(94);
  const std::vector<Segment> segs = LongStrips(&rng);
  ASSERT_GT(segs.size(), 100u);
  segtree::MultislabSegmentTree g(&pool_, bounds_, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  // G rebuilds itself once its delta holds more than max(32, size/8)
  // records; half the segments are erased, well past that trigger.
  ASSERT_GT(segs.size() / 2, 2 * std::max<size_t>(32, segs.size() / 8));

  std::vector<Segment> alive(segs.begin(), segs.end());
  for (size_t i = 0; i < segs.size(); i += 2) {
    ASSERT_TRUE(g.Erase(segs[i]).ok());
    alive.erase(std::find(alive.begin(), alive.end(), segs[i]));
    if ((i / 2) % 16 != 15 && i + 2 < segs.size()) continue;
    EXPECT_EQ(g.size(), alive.size());
    ASSERT_TRUE(g.CheckInvariants().ok());
    for (int q = 0; q < 10; ++q) {
      const int64_t x0 = rng.UniformInt(0, 55000);
      const int64_t ylo = rng.UniformInt(-100, 2100);
      const int64_t yhi = ylo + rng.UniformInt(0, 300);
      std::vector<Segment> out;
      ASSERT_TRUE(g.Query(x0, ylo, yhi, &out).ok());
      EXPECT_EQ(Ids(out), Expect(alive, x0, ylo, yhi))
          << "after " << (i / 2 + 1) << " erases, x0=" << x0;
    }
  }
}

TEST_P(SegtreeDeleteTest, EraseOfAbsentSegmentIsNotFoundAndChangesNothing) {
  Rng rng(95);
  const std::vector<Segment> segs = LongStrips(&rng);
  ASSERT_GT(segs.size(), 100u);
  segtree::MultislabSegmentTree g(&pool_, bounds_, Opts());
  ASSERT_TRUE(g.Build(segs).ok());
  // One erased segment stays tombstoned in the delta.
  ASSERT_TRUE(g.Erase(segs[0]).ok());
  const std::vector<Segment> alive(segs.begin() + 1, segs.end());

  struct Probe {
    int64_t x0, ylo, yhi;
  };
  std::vector<Probe> probes;
  for (int q = 0; q < 40; ++q) {
    const int64_t ylo = rng.UniformInt(-100, 2100);
    probes.push_back({rng.UniformInt(0, 55000), ylo,
                      ylo + rng.UniformInt(0, 300)});
  }
  for (int64_t b : bounds_) probes.push_back({b, -100, 2400});
  auto answers = [&]() {
    std::vector<std::vector<uint64_t>> all;
    for (const Probe& p : probes) {
      std::vector<Segment> out;
      EXPECT_TRUE(g.Query(p.x0, p.ylo, p.yhi, &out).ok());
      all.push_back(Ids(out));
    }
    return all;
  };
  const auto before = answers();
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(before[i], Expect(alive, probes[i].x0, probes[i].ylo,
                                probes[i].yhi));
  }

  // Never stored: a fresh id over stored geometry, and a fresh long
  // segment; then the already-erased one.
  Segment fresh_id = segs[1];
  fresh_id.id = 1u << 30;
  const Segment fresh = Segment::Make({1, -50}, {54000, -50}, (1u << 30) + 1);
  EXPECT_EQ(g.Erase(fresh_id).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.Erase(fresh).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.Erase(segs[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.size(), alive.size());
  ASSERT_TRUE(g.CheckInvariants().ok());
  EXPECT_EQ(answers(), before);
}

INSTANTIATE_TEST_SUITE_P(Modes, SegtreeDeleteTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "cascaded" : "plain";
                         });

template <typename Index>
void RunIndexDeleteTest(uint64_t seed) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 4096);
  Rng rng(seed);
  auto segs = workload::GenMapLayer(rng, 900, 100000);
  Index index(&pool);
  ASSERT_TRUE(index.BulkLoad(segs).ok());

  std::vector<Segment> alive;
  for (size_t i = 0; i < segs.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(index.Erase(segs[i]).ok()) << "i=" << i;
    } else {
      alive.push_back(segs[i]);
    }
  }
  EXPECT_EQ(index.size(), alive.size());
  // Deleting again must fail and change nothing.
  EXPECT_EQ(index.Erase(segs[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.size(), alive.size());

  auto box = workload::ComputeBoundingBox(segs);
  for (int q = 0; q < 50; ++q) {
    const int64_t x0 = rng.UniformInt(box.xmin, box.xmax);
    const int64_t ylo = rng.UniformInt(box.ymin, box.ymax);
    const int64_t yhi = ylo + rng.UniformInt(0, (box.ymax - box.ymin) / 4);
    std::vector<Segment> out;
    ASSERT_TRUE(index.Query(VerticalSegmentQuery{x0, ylo, yhi}, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(alive, x0, ylo, yhi)) << "x0=" << x0;
  }

  // Re-insert the deleted half: back to the full set.
  for (size_t i = 0; i < segs.size(); i += 2) {
    ASSERT_TRUE(index.Insert(segs[i]).ok());
  }
  EXPECT_EQ(index.size(), segs.size());
  std::vector<Segment> out;
  ASSERT_TRUE(index.Query(VerticalSegmentQuery::Line((box.xmin + box.xmax) / 2),
                          &out).ok());
  EXPECT_EQ(Ids(out),
            OracleIds(segs, (box.xmin + box.xmax) / 2,
                      -(geom::kMaxCoord + 1), geom::kMaxCoord + 1));
}

TEST(IndexDeleteTest, SolutionA) {
  RunIndexDeleteTest<core::TwoLevelBinaryIndex>(95);
}

TEST(IndexDeleteTest, SolutionB) {
  RunIndexDeleteTest<core::TwoLevelIntervalIndex>(96);
}

TEST(IndexDeleteTest, FullScan) {
  RunIndexDeleteTest<baseline::FullScanIndex>(97);
}

TEST(IndexDeleteTest, Oracle) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 16);
  baseline::OracleIndex index;
  Segment s = Segment::Make({0, 0}, {5, 5}, 1);
  ASSERT_TRUE(index.Insert(s).ok());
  ASSERT_TRUE(index.Erase(s).ok());
  EXPECT_EQ(index.Erase(s).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace segdb
