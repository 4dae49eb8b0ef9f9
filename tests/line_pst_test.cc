#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "geom/nct.h"
#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "pst/line_pst.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::pst {
namespace {

using geom::Segment;

// Sorted (id) view for order-insensitive comparison.
std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  ids.reserve(segs.size());
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Oracle: brute-force filter restricted to the stored half-plane geometry.
std::vector<uint64_t> OracleIds(const std::vector<Segment>& segs, int64_t qx,
                                int64_t ylo, int64_t yhi) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) {
    if (geom::IntersectsVerticalSegment(s, qx, ylo, yhi)) ids.push_back(s.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct PstConfig {
  uint32_t page_size;
  uint32_t fanout;  // 0 = auto packed
};

class LinePstTest : public ::testing::TestWithParam<PstConfig> {
 protected:
  LinePstTest()
      : disk_(GetParam().page_size), pool_(&disk_, 512) {}

  LinePstOptions Opts() const {
    LinePstOptions o;
    o.fanout = GetParam().fanout;
    return o;
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

TEST_P(LinePstTest, EmptyTreeQueries) {
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(10, -5, 5, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(pst.CheckInvariants().ok());
}

TEST_P(LinePstTest, RejectsWrongHalfPlaneQuery) {
  LinePst pst(&pool_, 100, Direction::kRight, Opts());
  std::vector<Segment> out;
  EXPECT_FALSE(pst.Query(99, 0, 1, &out).ok());
  LinePst left(&pool_, 100, Direction::kLeft, Opts());
  EXPECT_FALSE(left.Query(101, 0, 1, &out).ok());
}

TEST_P(LinePstTest, RejectsNonCrossingInput) {
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  // Entirely right of the base line: does not touch it.
  EXPECT_FALSE(pst.Insert(Segment::Make({5, 0}, {10, 3}, 1)).ok());
  // Vertical on the base line belongs to a C structure, not the PST.
  EXPECT_FALSE(pst.Insert(Segment::Make({0, 0}, {0, 5}, 2)).ok());
  // Extends the wrong way.
  EXPECT_FALSE(pst.Insert(Segment::Make({-9, 0}, {0, 1}, 3)).ok());
}

TEST_P(LinePstTest, SmallHandQueries) {
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  std::vector<Segment> segs = {
      Segment::Make({0, 0}, {100, 0}, 1),    // flat long
      Segment::Make({0, 10}, {50, 60}, 2),   // rising mid
      Segment::Make({0, 20}, {10, 20}, 3),   // flat short
      Segment::Make({0, -10}, {80, -90}, 4)  // falling long
  };
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());

  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(5, -5, 25, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3}));

  out.clear();
  ASSERT_TRUE(pst.Query(60, -100, 100, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 4}));

  out.clear();
  ASSERT_TRUE(pst.Query(100, 0, 0, &out).ok());  // exact endpoint touch
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1}));

  out.clear();
  ASSERT_TRUE(pst.Query(5, 100, 200, &out).ok());  // above everything
  EXPECT_TRUE(out.empty());
}

TEST_P(LinePstTest, BulkLoadMatchesOracleOnRandomSets) {
  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    auto segs = workload::GenLineBasedRepaired(rng, 400, 0, 2000);
    ASSERT_TRUE(geom::ValidateNct(segs).ok());
    LinePst pst(&pool_, 0, Direction::kRight, Opts());
    ASSERT_TRUE(pst.BulkLoad(segs).ok());
    ASSERT_TRUE(pst.CheckInvariants().ok());
    EXPECT_EQ(pst.size(), segs.size());
    for (int q = 0; q < 50; ++q) {
      const int64_t qx = rng.UniformInt(0, 2100);
      const int64_t ylo = rng.UniformInt(-500, 6000);
      const int64_t yhi = ylo + rng.UniformInt(0, 800);
      std::vector<Segment> out;
      ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
      EXPECT_EQ(Ids(out), OracleIds(segs, qx, ylo, yhi))
          << "round " << round << " qx=" << qx << " y=[" << ylo << ","
          << yhi << "]";
    }
  }
}

TEST_P(LinePstTest, FanWorkloadTieBreaksCorrectly) {
  Rng rng(5);
  auto segs = workload::GenLineBasedFan(rng, 300, 10, 1500);
  LinePst pst(&pool_, 10, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 40; ++q) {
    const int64_t qx = 10 + rng.UniformInt(0, 1600);
    const int64_t ylo = rng.UniformInt(-2000, 8000);
    const int64_t yhi = ylo + rng.UniformInt(0, 2000);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, qx, ylo, yhi));
  }
}

TEST_P(LinePstTest, LeftDirectionMirrors) {
  Rng rng(6);
  // Build a right-extending set, mirror it into a left-extending one.
  auto right = workload::GenLineBasedRepaired(rng, 200, 0, 1000);
  std::vector<Segment> left;
  for (const Segment& s : right) left.push_back(geom::MirrorX(s, 0));
  LinePst pst(&pool_, 0, Direction::kLeft, Opts());
  ASSERT_TRUE(pst.BulkLoad(left).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 40; ++q) {
    const int64_t qx = -rng.UniformInt(0, 1100);
    const int64_t ylo = rng.UniformInt(-500, 4000);
    const int64_t yhi = ylo + rng.UniformInt(0, 700);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(left, qx, ylo, yhi));
    // Reported segments must be the originals, not mirror images.
    for (const Segment& s : out) {
      EXPECT_TRUE(geom::IntersectsVerticalSegment(s, qx, ylo, yhi));
    }
  }
}

TEST_P(LinePstTest, QueryOnBaseLine) {
  Rng rng(7);
  auto segs = workload::GenLineBasedSorted(rng, 150, 42, 900);
  LinePst pst(&pool_, 42, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(42, -10000, 10000, &out).ok());
  EXPECT_EQ(out.size(), segs.size());  // every segment touches its base
}

TEST_P(LinePstTest, InsertOnlyMatchesOracle) {
  Rng rng(8);
  auto segs = workload::GenLineBasedRepaired(rng, 300, 0, 1500);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  for (const Segment& s : segs) ASSERT_TRUE(pst.Insert(s).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  EXPECT_EQ(pst.size(), segs.size());
  std::vector<Segment> all;
  ASSERT_TRUE(pst.CollectAll(&all).ok());
  EXPECT_EQ(Ids(all).size(), segs.size());
  for (int q = 0; q < 60; ++q) {
    const int64_t qx = rng.UniformInt(0, 1600);
    const int64_t ylo = rng.UniformInt(-500, 5000);
    const int64_t yhi = ylo + rng.UniformInt(0, 600);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(segs, qx, ylo, yhi)) << "q " << q;
  }
}

TEST_P(LinePstTest, MixedBulkThenInsert) {
  Rng rng(9);
  // One NCT family, half bulk-loaded and half inserted (a mixture of two
  // independently generated families could cross between families).
  auto all = workload::GenLineBasedRepaired(rng, 350, 0, 1200);
  ASSERT_TRUE(geom::ValidateNct(all).ok());
  std::vector<Segment> initial(all.begin(), all.begin() + 200);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(initial).ok());
  for (size_t i = 200; i < all.size(); ++i) {
    ASSERT_TRUE(pst.Insert(all[i]).ok());
  }
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 50; ++q) {
    const int64_t qx = rng.UniformInt(0, 1300);
    const int64_t ylo = rng.UniformInt(-1000, 9000);
    const int64_t yhi = ylo + rng.UniformInt(0, 1500);
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(all, qx, ylo, yhi));
  }
}

TEST_P(LinePstTest, ClearReleasesPages) {
  Rng rng(10);
  const uint64_t before = disk_.pages_in_use();
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  auto segs = workload::GenLineBasedSorted(rng, 500, 0, 800);
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  EXPECT_GT(disk_.pages_in_use(), before);
  ASSERT_TRUE(pst.Clear().ok());
  EXPECT_EQ(disk_.pages_in_use(), before);
  EXPECT_EQ(pst.size(), 0u);
  EXPECT_EQ(pst.page_count(), 0u);
}

TEST_P(LinePstTest, SpaceIsLinear) {
  Rng rng(11);
  auto segs = workload::GenLineBasedSorted(rng, 3000, 0, 5000);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  // Packed build: pages <= ~2x the information-theoretic minimum plus the
  // directory overhead.
  const uint64_t min_pages = 1 + 3000 / pst.node_capacity();
  EXPECT_LE(pst.page_count(), 3 * min_pages + 2);
}

TEST_P(LinePstTest, RayAndLineQueries) {
  Rng rng(12);
  auto segs = workload::GenLineBasedRepaired(rng, 250, 0, 1000);
  LinePst pst(&pool_, 0, Direction::kRight, Opts());
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  // Line query: everything reaching qx.
  const int64_t qx = 400;
  std::vector<Segment> out;
  ASSERT_TRUE(pst.Query(qx, INT64_MIN / 4, INT64_MAX / 4, &out).ok());
  EXPECT_EQ(Ids(out), OracleIds(segs, qx, INT64_MIN / 4, INT64_MAX / 4));
  // Ray query (unbounded above).
  out.clear();
  ASSERT_TRUE(pst.Query(qx, 100, INT64_MAX / 4, &out).ok());
  EXPECT_EQ(Ids(out), OracleIds(segs, qx, 100, INT64_MAX / 4));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LinePstTest,
    ::testing::Values(PstConfig{512, 2}, PstConfig{512, 0},
                      PstConfig{4096, 2}, PstConfig{4096, 0},
                      PstConfig{1024, 4}),
    [](const auto& info) {
      return "page" + std::to_string(info.param.page_size) + "_fan" +
             std::to_string(info.param.fanout);
    });

// --- I/O-complexity shape checks (Lemma 2 / Lemma 3) ----------------------

TEST(LinePstIoTest, QueryIosLogarithmicForSmallOutput) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 4096);
  Rng rng(13);
  auto segs = workload::GenLineBasedSorted(rng, 60000, 0, 100000);
  LinePstOptions opts;
  opts.fanout = 2;
  LinePst pst(&pool, 0, Direction::kRight, opts);
  ASSERT_TRUE(pst.BulkLoad(segs).ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  uint64_t total_misses = 0, total_out = 0;
  const int kQueries = 30;
  for (int q = 0; q < kQueries; ++q) {
    const int64_t qx = rng.UniformInt(1, 100000);
    const int64_t ylo = rng.UniformInt(-100000, 100000);
    ASSERT_TRUE(pool.EvictAll().ok());
    pool.ResetStats();
    std::vector<Segment> out;
    ASSERT_TRUE(pst.Query(qx, ylo, ylo + 50, &out).ok());
    total_misses += pool.stats().misses;
    total_out += out.size();
  }
  const double avg = static_cast<double>(total_misses) / kQueries;
  // Binary PST: height ~ log2(60000/cap) ~ 10..11. The fence-pruned search
  // should stay within a small multiple of the height plus output pages.
  const double bound =
      4.0 * (std::log2(60000.0 / pst.node_capacity()) + 2) +
      static_cast<double>(total_out) / kQueries / pst.node_capacity() + 4;
  EXPECT_LT(avg, bound) << "avg misses " << avg << " out " << total_out;
}

TEST(LinePstIoTest, PackedFanoutBeatsBinary) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 8192);
  Rng rng(14);
  auto segs = workload::GenLineBasedSorted(rng, 120000, 0, 100000);

  auto measure = [&](uint32_t fanout) {
    LinePstOptions opts;
    opts.fanout = fanout;
    LinePst pst(&pool, 0, Direction::kRight, opts);
    EXPECT_TRUE(pst.BulkLoad(segs).ok());
    EXPECT_TRUE(pool.FlushAll().ok());
    Rng qrng(15);
    uint64_t misses = 0;
    for (int q = 0; q < 30; ++q) {
      const int64_t qx = qrng.UniformInt(1, 100000);
      const int64_t ylo = qrng.UniformInt(-100000, 100000);
      EXPECT_TRUE(pool.EvictAll().ok());
      pool.ResetStats();
      std::vector<Segment> out;
      EXPECT_TRUE(pst.Query(qx, ylo, ylo + 10, &out).ok());
      misses += pool.stats().misses;
    }
    return misses;
  };

  const uint64_t binary = measure(2);
  const uint64_t packed = measure(0);
  EXPECT_LT(packed, binary);
}

// The answer *sequence* and the fetch count of every query, pinned. Set-
// based checks above accept any order and any number of page visits; this
// digest fixes both, per direction and fanout, over a churned tree (bulk
// load, inserts, erases) and a query mix of 1%-height segments, rays,
// lines and queries on the base line itself. A CRC-32 is chained over each
// query's output segments in output order, then over its Fetch delta. The
// constants come from a query that classified a node again at every
// visit, so reusing a walk's scan must change neither order nor fetches.
TEST(LinePstIoTest, QueryOrderAndFetchesMatchPinnedDigest) {
  constexpr int64_t kBaseX = 1000;
  constexpr int64_t kMaxReach = 100000;
  constexpr int64_t kInf = geom::kMaxCoord + 1;
  // Slopes span [-32, 32], so the set's y-extent is about 64 * kMaxReach.
  constexpr int64_t kHeight = 64 * kMaxReach / 100;
  struct Case {
    Direction direction;
    uint32_t fanout;
    uint32_t digest;
  };
  const Case cases[] = {{Direction::kRight, 2, 0x00BA153Cu},
                        {Direction::kRight, 0, 0xF1DE0AD5u},
                        {Direction::kLeft, 2, 0x7D2EC96Eu},
                        {Direction::kLeft, 0, 0xC156722Du}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.direction == Direction::kRight ? "kRight"
                                                               : "kLeft") +
                 " fanout " + std::to_string(c.fanout));
    io::SimDiskManager disk(4096);
    io::BufferPool pool(&disk, 4096);  // every page stays resident
    Rng rng(27);
    // Canonical (right-extending) NCT set; kLeft stores its mirror image.
    const std::vector<Segment> canon =
        workload::GenLineBasedSorted(rng, 21000, kBaseX, kMaxReach);
    const auto stored = [&](const Segment& s) {
      return c.direction == Direction::kRight ? s : geom::MirrorX(s, kBaseX);
    };
    std::vector<uint32_t> order(canon.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (uint32_t i = static_cast<uint32_t>(order.size()) - 1; i > 0; --i) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
    std::vector<Segment> loaded;
    for (uint32_t i = 0; i < 20000; ++i) {
      loaded.push_back(stored(canon[order[i]]));
    }
    LinePstOptions opts;
    opts.fanout = c.fanout;
    LinePst pst(&pool, kBaseX, c.direction, opts);
    ASSERT_TRUE(pst.BulkLoad(loaded).ok());
    for (uint32_t i = 20000; i < 21000; ++i) {
      ASSERT_TRUE(pst.Insert(stored(canon[order[i]])).ok());
    }
    for (uint32_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(pst.Erase(loaded[i]).ok());
    }
    ASSERT_TRUE(pst.CheckInvariants().ok());
    ASSERT_EQ(pst.size(), 20500u);

    uint32_t digest = 0;
    uint64_t results = 0;
    Rng qrng(28);
    for (int q = 0; q < 256; ++q) {
      // Center the query on a random segment where it reaches, so the
      // 1%-height queries report something; every 16th sits on the base.
      const Segment& s = canon[qrng.Uniform(canon.size())];
      const int64_t d = q % 16 == 0 ? 0 : qrng.UniformInt(0, s.x2 - kBaseX);
      const int64_t y = s.y1 + (s.y2 - s.y1) * d / (s.x2 - s.x1);
      int64_t ylo = y - kHeight / 2, yhi = y + kHeight / 2;
      switch (q % 8) {
        case 5: yhi = kInf; break;   // upward ray
        case 6: ylo = -kInf; break;  // downward ray
        case 7: ylo = -kInf, yhi = kInf; break;  // line
        default: break;
      }
      const int64_t qx =
          c.direction == Direction::kRight ? kBaseX + d : kBaseX - d;
      const uint64_t before = pool.stats().fetches;
      std::vector<Segment> out;
      ASSERT_TRUE(pst.Query(qx, ylo, yhi, &out).ok());
      const uint64_t fetches = pool.stats().fetches - before;
      results += out.size();
      digest = util::Crc32(out.data(), out.size() * sizeof(Segment), digest);
      digest = util::Crc32(&fetches, sizeof(fetches), digest);
    }
    EXPECT_GT(results, 0u);
    EXPECT_EQ(digest, c.digest)
        << "got 0x" << std::hex << digest << std::dec << " over " << results
        << " results";
  }
}

}  // namespace
}  // namespace segdb::pst
