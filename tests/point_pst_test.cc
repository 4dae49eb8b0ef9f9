#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "pst/point_pst.h"
#include "util/random.h"

namespace segdb::pst {
namespace {

std::vector<uint64_t> Ids(const std::vector<PointRecord>& pts) {
  std::vector<uint64_t> ids;
  for (const auto& p : pts) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint64_t> OracleIds(const std::vector<PointRecord>& pts,
                                int64_t xlo, int64_t xhi, int64_t ylo) {
  std::vector<uint64_t> ids;
  for (const auto& p : pts) {
    if (xlo <= p.x && p.x <= xhi && p.y >= ylo) ids.push_back(p.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

class PointPstTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  PointPstTest() : disk_(1024), pool_(&disk_, 256) {}

  LinePstOptions Opts() const {
    LinePstOptions o;
    o.fanout = GetParam();
    return o;
  }

  io::SimDiskManager disk_;
  io::BufferPool pool_;
};

TEST_P(PointPstTest, EmptyQuery) {
  PointPst pst(&pool_, Opts());
  std::vector<PointRecord> out;
  ASSERT_TRUE(pst.Query3Sided(-10, 10, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(PointPstTest, HandCases) {
  PointPst pst(&pool_, Opts());
  std::vector<PointRecord> pts = {
      {0, 10, 1}, {5, 5, 2}, {-5, 20, 3}, {10, 0, 4}, {0, 0, 5}};
  ASSERT_TRUE(pst.BulkLoad(pts).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  std::vector<PointRecord> out;
  ASSERT_TRUE(pst.Query3Sided(-5, 5, 5, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 2, 3}));
  out.clear();
  ASSERT_TRUE(pst.Query3Sided(0, 0, 0, &out).ok());
  EXPECT_EQ(Ids(out), (std::vector<uint64_t>{1, 5}));
  out.clear();
  ASSERT_TRUE(pst.Query3Sided(-100, 100, 21, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(PointPstTest, MatchesOracleOnRandomPoints) {
  Rng rng(21);
  std::vector<PointRecord> pts;
  for (uint64_t i = 0; i < 1000; ++i) {
    pts.push_back(PointRecord{rng.UniformInt(-5000, 5000),
                              rng.UniformInt(-5000, 5000), i});
  }
  PointPst pst(&pool_, Opts());
  ASSERT_TRUE(pst.BulkLoad(pts).ok());
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 80; ++q) {
    const int64_t xlo = rng.UniformInt(-6000, 6000);
    const int64_t xhi = xlo + rng.UniformInt(0, 3000);
    const int64_t ylo = rng.UniformInt(-6000, 6000);
    std::vector<PointRecord> out;
    ASSERT_TRUE(pst.Query3Sided(xlo, xhi, ylo, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(pts, xlo, xhi, ylo));
  }
  // The C_i structures' shape: intervals [x, y] meeting [a, b] are the
  // points with x <= b and y >= a, so xlo lies below every key.
  constexpr int64_t kNoXlo = -(geom::kMaxCoord + 1);
  for (int q = 0; q < 80; ++q) {
    const int64_t a = rng.UniformInt(-6000, 6000);
    const int64_t b = a + rng.UniformInt(0, 3000);
    std::vector<PointRecord> out;
    ASSERT_TRUE(pst.Query3Sided(kNoXlo, b, a, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(pts, kNoXlo, b, a));
  }
}

TEST_P(PointPstTest, DuplicateCoordinatesAllReported) {
  PointPst pst(&pool_, Opts());
  std::vector<PointRecord> pts;
  for (uint64_t i = 0; i < 60; ++i) pts.push_back(PointRecord{7, 7, i});
  ASSERT_TRUE(pst.BulkLoad(pts).ok());
  std::vector<PointRecord> out;
  ASSERT_TRUE(pst.Query3Sided(7, 7, 7, &out).ok());
  EXPECT_EQ(out.size(), 60u);
}

TEST_P(PointPstTest, InsertMatchesOracle) {
  Rng rng(22);
  std::vector<PointRecord> pts;
  PointPst pst(&pool_, Opts());
  for (uint64_t i = 0; i < 500; ++i) {
    PointRecord p{rng.UniformInt(-2000, 2000), rng.UniformInt(-2000, 2000), i};
    pts.push_back(p);
    ASSERT_TRUE(pst.Insert(p).ok());
  }
  ASSERT_TRUE(pst.CheckInvariants().ok());
  for (int q = 0; q < 50; ++q) {
    const int64_t xlo = rng.UniformInt(-2500, 2500);
    const int64_t xhi = xlo + rng.UniformInt(0, 1500);
    const int64_t ylo = rng.UniformInt(-2500, 2500);
    std::vector<PointRecord> out;
    ASSERT_TRUE(pst.Query3Sided(xlo, xhi, ylo, &out).ok());
    EXPECT_EQ(Ids(out), OracleIds(pts, xlo, xhi, ylo));
  }
}

TEST_P(PointPstTest, UnboundedYlo) {
  PointPst pst(&pool_, Opts());
  std::vector<PointRecord> pts = {{1, -100, 1}, {2, 100, 2}};
  ASSERT_TRUE(pst.BulkLoad(pts).ok());
  std::vector<PointRecord> out;
  // A 2-sided query: ylo far below any stored key.
  ASSERT_TRUE(pst.Query3Sided(0, 5, INT64_MIN / 2, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST_P(PointPstTest, RejectsOutOfBoundsKeys) {
  PointPst pst(&pool_, Opts());
  EXPECT_FALSE(pst.Insert(PointRecord{geom::kMaxCoord + 1, 0, 1}).ok());
  EXPECT_FALSE(pst.Insert(PointRecord{0, geom::kMaxCoord + 1, 2}).ok());
}

TEST_P(PointPstTest, RejectsInt64ExtremeKeys) {
  PointPst pst(&pool_, Opts());
  std::vector<PointRecord> pts;
  for (uint64_t i = 0; i < 50; ++i) {
    pts.push_back(PointRecord{int64_t(i % 7), int64_t(i % 11), i});
  }
  ASSERT_TRUE(pst.BulkLoad(pts).ok());
  auto answer = [&]() {
    std::vector<PointRecord> out;
    EXPECT_TRUE(pst.Query3Sided(-geom::kMaxCoord, geom::kMaxCoord,
                                -geom::kMaxCoord, &out)
                    .ok());
    return Ids(out);
  };
  const std::vector<uint64_t> before = answer();
  ASSERT_EQ(before.size(), pts.size());

  uint64_t id = 1000;
  for (int64_t v : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    for (const PointRecord& bad :
         {PointRecord{v, 0, id++}, PointRecord{0, v, id++}}) {
      EXPECT_EQ(pst.Insert(bad).code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(pst.Erase(bad).code(), StatusCode::kNotFound);
      // A rejected BulkLoad leaves the loaded contents in place.
      std::vector<PointRecord> with_bad = pts;
      with_bad.push_back(bad);
      EXPECT_EQ(pst.BulkLoad(with_bad).code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_EQ(pst.size(), pts.size());
  EXPECT_TRUE(pst.CheckInvariants().ok());
  EXPECT_EQ(answer(), before);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, PointPstTest, ::testing::Values(2u, 0u),
                         [](const auto& info) {
                           return "fan" + std::to_string(info.param);
                         });

// Stabbing 40,000 short intervals, stored as points (lo, hi) and queried
// as x <= q, y >= q with the packed default fan-out, must stay a handful
// of cold pages per query. This pins LinePst::Query's fence walks: without
// them the fences of this one-sided query are found too late and the
// report traversal may touch O(n) nodes.
TEST(PointPstIoTest, StabbingIoLogarithmic) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 512);
  PointPst pst(&pool);
  Rng rng(123);
  std::vector<PointRecord> ivs;
  for (uint64_t i = 0; i < 40000; ++i) {
    const int64_t lo = rng.UniformInt(0, 1 << 20);
    ivs.push_back(PointRecord{lo, lo + rng.UniformInt(0, 100), i});
  }
  ASSERT_TRUE(pst.BulkLoad(ivs).ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  uint64_t total = 0;
  const int kQ = 25;
  for (int q = 0; q < kQ; ++q) {
    ASSERT_TRUE(pool.EvictAll().ok());
    pool.ResetStats();
    const int64_t p = rng.UniformInt(0, 1 << 20);
    std::vector<PointRecord> out;
    ASSERT_TRUE(pst.Query3Sided(-(geom::kMaxCoord + 1), p, p, &out).ok());
    total += pool.stats().misses + out.size() / 16;
  }
  EXPECT_LT(static_cast<double>(total) / kQ, 25.0);
}

}  // namespace
}  // namespace segdb::pst
