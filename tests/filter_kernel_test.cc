// Equivalence of the branchless in-page filter kernels against the exact
// __int128 predicates in geom/predicates.h, under randomized workloads and
// the adversarial query ordinates the tree actually produces (sentinel
// rays/lines and unbounded INT64/4-style ranges). Both the scalar core and
// the runtime-dispatched SIMD kernel (when the host CPU supports it) are
// checked against the same oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geom/decode_kernel.h"
#include "geom/filter_kernel.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "io/columnar_page_view.h"
#include "io/page.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::geom {
namespace {

// Strips backed by a real page region, like every production call site:
// written through a mutable view, then served by a read-only view over the
// page's decode slot.
struct StripFixture {
  explicit StripFixture(const std::vector<Segment>& segs, uint32_t base = 8)
      : page(base + static_cast<uint32_t>(io::ColumnarRegionBytes(
                        static_cast<uint32_t>(segs.size())))),
        count(static_cast<uint32_t>(segs.size())) {
    io::ColumnarPageView(&page, base, count).WriteRange(0, segs.data(), count);
    view = std::make_unique<io::ConstColumnarPageView>(page, base, count);
    strips = view->strips();
  }

  io::Page page;
  uint32_t count;
  std::unique_ptr<io::ConstColumnarPageView> view;
  SegmentStrips strips;
};

std::vector<const FilterKernel*> KernelsUnderTest() {
  std::vector<const FilterKernel*> kernels = {&ScalarFilterKernel()};
  if (SimdFilterKernel() != nullptr) kernels.push_back(SimdFilterKernel());
  return kernels;
}

// The three class masks of a lane run, one word per 64 lanes.
struct Masks {
  explicit Masks(uint32_t count)
      : below(LaneMaskWords(count)),
        in_range(LaneMaskWords(count)),
        above(LaneMaskWords(count)) {}
  LaneMasks out() {
    return LaneMasks{below.data(), in_range.data(), above.data()};
  }
  bool operator==(const Masks&) const = default;

  std::vector<uint64_t> below, in_range, above;
};

// The __int128 oracle's classes as masks: an outside lane sets no bit.
Masks OracleMasks(const std::vector<Segment>& segs, int64_t qx, int64_t ylo,
                  int64_t yhi) {
  Masks m(static_cast<uint32_t>(segs.size()));
  for (uint32_t i = 0; i < segs.size(); ++i) {
    const Segment& s = segs[i];
    if (qx < s.x1 || qx > s.x2) continue;
    std::vector<uint64_t>* mask = &m.in_range;
    if (s.is_vertical()) {
      if (s.y2 < ylo) {
        mask = &m.below;
      } else if (s.y1 > yhi) {
        mask = &m.above;
      }
    } else if (CompareYAtX(s, qx, ylo) < 0) {
      mask = &m.below;
    } else if (CompareYAtX(s, qx, yhi) > 0) {
      mask = &m.above;
    }
    (*mask)[i / 64] |= uint64_t{1} << (i % 64);
  }
  return m;
}

// Prefilled with ones, so a word the kernel leaves unwritten shows.
Masks KernelMasks(const FilterKernel& k, const StripFixture& fix, int64_t qx,
                  int64_t ylo, int64_t yhi) {
  Masks m(fix.count);
  for (auto* v : {&m.below, &m.in_range, &m.above}) {
    std::fill(v->begin(), v->end(), ~uint64_t{0});
  }
  k.classify_vs(fix.strips, fix.count, qx, ylo, yhi, m.out());
  return m;
}

void CheckAllKernels(const std::vector<Segment>& segs, int64_t qx,
                     int64_t ylo, int64_t yhi) {
  const StripFixture fix(segs);
  std::vector<uint32_t> expect_vs;
  for (uint32_t i = 0; i < segs.size(); ++i) {
    if (IntersectsVerticalSegment(segs[i], qx, ylo, yhi)) {
      expect_vs.push_back(i);
    }
  }
  const Masks expect_masks = OracleMasks(segs, qx, ylo, yhi);
  for (const FilterKernel* k : KernelsUnderTest()) {
    SCOPED_TRACE(std::string("kernel=") + k->name + " qx=" +
                 std::to_string(qx) + " ylo=" + std::to_string(ylo) +
                 " yhi=" + std::to_string(yhi));
    std::vector<uint32_t> idx(segs.size());
    const uint32_t vs_hits =
        k->filter_vs(fix.strips, fix.count, qx, ylo, yhi, idx.data());
    idx.resize(vs_hits);
    EXPECT_EQ(idx, expect_vs);
    EXPECT_TRUE(KernelMasks(*k, fix, qx, ylo, yhi) == expect_masks);
  }
}

TEST(FilterKernelTest, ZeroCount) {
  const StripFixture fix(std::vector<Segment>{});
  for (const FilterKernel* k : KernelsUnderTest()) {
    uint32_t sink = 0xdead;
    EXPECT_EQ(k->filter_vs(fix.strips, 0, 0, -1, 1, &sink), 0u);
    k->classify_vs(fix.strips, 0, 0, -1, 1, LaneMasks{});
  }
}

TEST(FilterKernelTest, RandomizedMapLayerWorkload) {
  Rng rng(123);
  const std::vector<Segment> segs =
      workload::GenMapLayer(rng, 257, int64_t{1} << 20);
  const workload::BoundingBox box = workload::ComputeBoundingBox(segs);
  Rng qrng(321);
  for (const workload::VsQuery& q :
       workload::GenVsQueries(qrng, 40, box, 0.05)) {
    CheckAllKernels(segs, q.x0, q.ylo, q.yhi);
  }
}

TEST(FilterKernelTest, VerticalAndDegenerateSegments) {
  Rng rng(77);
  std::vector<Segment> segs =
      workload::GenCollinearVertical(rng, 64, /*x0=*/100, /*height=*/5000);
  segs.push_back(Segment::Make({100, 40}, {100, 40}, 900));  // point
  segs.push_back(Segment::Make({-50, 7}, {300, 7}, 901));    // horizontal
  for (int64_t qx : {int64_t{99}, int64_t{100}, int64_t{101}, int64_t{-50}}) {
    CheckAllKernels(segs, qx, -200, 200);
    CheckAllKernels(segs, qx, 40, 40);  // degenerate query range
  }
}

TEST(FilterKernelTest, SentinelAndUnboundedQueryOrdinates) {
  Rng rng(5);
  std::vector<Segment> segs =
      workload::GenMapLayer(rng, 130, int64_t{1} << 18);
  segs.push_back(Segment::Make({-kMaxCoord, -kMaxCoord},
                               {kMaxCoord, kMaxCoord}, 7777));
  const workload::BoundingBox box = workload::ComputeBoundingBox(segs);
  Rng qrng(6);
  for (const workload::VsQuery& q :
       workload::GenVsQueries(qrng, 10, box, 0.01)) {
    // SegmentIndex ray/line sentinels.
    CheckAllKernels(segs, q.x0, -(kMaxCoord + 1), q.yhi);
    CheckAllKernels(segs, q.x0, q.ylo, kMaxCoord + 1);
    CheckAllKernels(segs, q.x0, -(kMaxCoord + 1), kMaxCoord + 1);
    // LinePst callers pass unclamped rays; the kernels must not overflow.
    constexpr int64_t kHuge = std::numeric_limits<int64_t>::max() / 4;
    CheckAllKernels(segs, q.x0, -kHuge, kHuge);
    CheckAllKernels(segs, q.x0, q.ylo, kHuge);
    CheckAllKernels(segs, q.x0, -kHuge, q.yhi);
  }
}

TEST(FilterKernelTest, MirroredCoordinatesStayExact) {
  // Leftward LinePst stores MirrorX'd segments: x magnitudes up to ~2 * the
  // original bound, the worst case for the int64 product argument.
  Rng rng(9);
  std::vector<Segment> segs =
      workload::GenMapLayer(rng, 100, int64_t{1} << 20);
  for (Segment& s : segs) s = MirrorX(s, -(int64_t{1} << 29));
  const workload::BoundingBox box = workload::ComputeBoundingBox(segs);
  Rng qrng(10);
  for (const workload::VsQuery& q :
       workload::GenVsQueries(qrng, 20, box, 0.1)) {
    CheckAllKernels(segs, q.x0, q.ylo, q.yhi);
  }
}

// Every lane count from 0 to 200, so runs that are not multiples of 4
// (the AVX2 step) or 64 (a mask word) are covered, under finite, sentinel
// and INT64/4-scale query ordinates, and over mirrored lanes too.
TEST(FilterKernelTest, MasksMatchOracleAtEveryCount) {
  Rng rng(2024);
  std::vector<Segment> pool =
      workload::GenMapLayer(rng, 200, int64_t{1} << 20);
  ASSERT_GE(pool.size(), 200u);
  pool.resize(200);
  const workload::BoundingBox box = workload::ComputeBoundingBox(pool);
  Rng qrng(2025);
  const std::vector<workload::VsQuery> queries =
      workload::GenVsQueries(qrng, 3, box, 0.2);
  constexpr int64_t kHuge = std::numeric_limits<int64_t>::max() / 4;
  for (bool mirrored : {false, true}) {
    std::vector<Segment> segs = pool;
    if (mirrored) {
      for (Segment& s : segs) s = MirrorX(s, -(int64_t{1} << 29));
    }
    for (uint32_t count = 0; count <= 200; ++count) {
      const std::vector<Segment> run(segs.begin(), segs.begin() + count);
      for (const workload::VsQuery& q : queries) {
        // Mirrored lanes are queried at the mirrored abscissa.
        const int64_t qx =
            mirrored ? 2 * -(int64_t{1} << 29) - q.x0 : q.x0;
        CheckAllKernels(run, qx, q.ylo, q.yhi);
        CheckAllKernels(run, qx, -(kMaxCoord + 1), q.yhi);
        CheckAllKernels(run, qx, q.ylo, kMaxCoord + 1);
        CheckAllKernels(run, qx, -kHuge, kHuge);
      }
      if (HasFailure()) return;
    }
  }
}

// The AVX2 kernel is the scalar core's exact twin: equal masks, bit for
// bit, on every count and every query shape above.
TEST(FilterKernelTest, SimdMasksEqualScalarBitForBit) {
  const FilterKernel* simd = SimdFilterKernel();
  if (simd == nullptr) GTEST_SKIP() << "no SIMD kernel on this CPU";
  Rng rng(31);
  std::vector<Segment> pool =
      workload::GenMapLayer(rng, 200, int64_t{1} << 20);
  ASSERT_GE(pool.size(), 200u);
  pool.resize(200);
  pool[7] = Segment::Make({100, 40}, {100, 40}, 900);  // point
  pool[70] = Segment::Make({-50, 7}, {300, 7}, 901);   // horizontal
  const workload::BoundingBox box = workload::ComputeBoundingBox(pool);
  Rng qrng(32);
  constexpr int64_t kHuge = std::numeric_limits<int64_t>::max() / 4;
  for (uint32_t count = 0; count <= 200; ++count) {
    const StripFixture fix(
        std::vector<Segment>(pool.begin(), pool.begin() + count));
    for (const workload::VsQuery& q :
         workload::GenVsQueries(qrng, 4, box, 0.3)) {
      for (const auto& [ylo, yhi] :
           {std::pair{q.ylo, q.yhi}, std::pair{-kHuge, q.yhi},
            std::pair{q.ylo, kMaxCoord + 1}}) {
        EXPECT_TRUE(KernelMasks(*simd, fix, q.x0, ylo, yhi) ==
                    KernelMasks(ScalarFilterKernel(), fix, q.x0, ylo, yhi))
            << "count " << count << " qx " << q.x0;
      }
    }
  }
}

TEST(FilterKernelTest, ResultBufferReuseGrowsMonotonically) {
  ResultBuffer buf;
  uint32_t* a = buf.ReserveIndices(16);
  ASSERT_NE(a, nullptr);
  a[15] = 1;
  const LaneMasks m = buf.ReserveMasks(1024);
  ASSERT_NE(m.below, nullptr);
  EXPECT_EQ(m.in_range, m.below + LaneMaskWords(1024));
  EXPECT_EQ(m.above, m.in_range + LaneMaskWords(1024));
  m.above[LaneMaskWords(1024) - 1] = 1;
  // Shrinking requests reuse the same arena; no reallocation is observable
  // through the returned pointers' validity.
  uint32_t* b = buf.ReserveIndices(8);
  b[7] = 2;
  EXPECT_EQ(b[7], 2u);
}

TEST(FilterKernelTest, ActiveKernelMatchesDispatch) {
  const FilterKernel& active = ActiveFilterKernel();
  if (SimdFilterKernel() != nullptr) {
    EXPECT_EQ(&active, SimdFilterKernel());
  } else {
    EXPECT_EQ(&active, &ScalarFilterKernel());
  }
  EXPECT_NE(active.name, nullptr);
  // The explicit kernels are compiled into every build, so only the CPU
  // decides: on x86-64 they exist exactly when it has AVX2.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2");
  EXPECT_EQ(SimdFilterKernel() != nullptr, avx2);
  EXPECT_EQ(SimdUnpackAdd() != nullptr, avx2);
#endif
}

}  // namespace
}  // namespace segdb::geom
