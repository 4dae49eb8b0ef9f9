// Equivalence of the branchless in-page filter kernels against the exact
// __int128 predicates in geom/predicates.h, under randomized workloads and
// the adversarial query ordinates the tree actually produces (sentinel
// rays/lines and unbounded INT64/4-style ranges). Both the scalar core and
// the runtime-dispatched SIMD kernel (when the host CPU supports it) are
// checked against the same oracles.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
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

// Strips backed by a real page region, like every production call site.
struct StripFixture {
  explicit StripFixture(const std::vector<Segment>& segs, uint32_t base = 8)
      : page(base + static_cast<uint32_t>(segs.size()) *
                        io::ConstColumnarPageView::kBytesPerRecord),
        count(static_cast<uint32_t>(segs.size())) {
    io::ColumnarPageView view(&page, base, count);
    view.WriteRange(0, segs.data(), count);
    strips = view.strips();
  }

  io::Page page;
  uint32_t count;
  SegmentStrips strips;
};

std::vector<const FilterKernel*> KernelsUnderTest() {
  std::vector<const FilterKernel*> kernels = {&ScalarFilterKernel()};
  if (SimdFilterKernel() != nullptr) kernels.push_back(SimdFilterKernel());
  return kernels;
}

uint8_t OracleClass(const Segment& s, int64_t qx, int64_t ylo, int64_t yhi) {
  if (qx < s.x1 || qx > s.x2) return kLaneOutside;
  if (s.is_vertical()) {
    if (s.y2 < ylo) return kLaneBelow;
    if (s.y1 > yhi) return kLaneAbove;
    return kLaneInRange;
  }
  if (CompareYAtX(s, qx, ylo) < 0) return kLaneBelow;
  if (CompareYAtX(s, qx, yhi) > 0) return kLaneAbove;
  return kLaneInRange;
}

void CheckAllKernels(const std::vector<Segment>& segs, int64_t qx,
                     int64_t ylo, int64_t yhi) {
  const StripFixture fix(segs);
  std::vector<uint32_t> expect_vs;
  std::vector<uint8_t> expect_cls;
  for (uint32_t i = 0; i < segs.size(); ++i) {
    if (IntersectsVerticalSegment(segs[i], qx, ylo, yhi)) {
      expect_vs.push_back(i);
    }
    expect_cls.push_back(OracleClass(segs[i], qx, ylo, yhi));
  }
  for (const FilterKernel* k : KernelsUnderTest()) {
    SCOPED_TRACE(std::string("kernel=") + k->name + " qx=" +
                 std::to_string(qx) + " ylo=" + std::to_string(ylo) +
                 " yhi=" + std::to_string(yhi));
    std::vector<uint32_t> idx(segs.size());
    const uint32_t vs_hits =
        k->filter_vs(fix.strips, fix.count, qx, ylo, yhi, idx.data());
    idx.resize(vs_hits);
    EXPECT_EQ(idx, expect_vs);

    std::vector<uint8_t> cls(segs.size());
    k->classify_vs(fix.strips, fix.count, qx, ylo, yhi, cls.data());
    EXPECT_EQ(cls, expect_cls);
  }
}

TEST(FilterKernelTest, ZeroCount) {
  const StripFixture fix(std::vector<Segment>{});
  for (const FilterKernel* k : KernelsUnderTest()) {
    uint32_t sink = 0xdead;
    EXPECT_EQ(k->filter_vs(fix.strips, 0, 0, -1, 1, &sink), 0u);
    k->classify_vs(fix.strips, 0, 0, -1, 1, nullptr);
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

TEST(FilterKernelTest, ResultBufferReuseGrowsMonotonically) {
  ResultBuffer buf;
  uint32_t* a = buf.ReserveIndices(16);
  ASSERT_NE(a, nullptr);
  a[15] = 1;
  uint8_t* c = buf.ReserveClasses(1024);
  ASSERT_NE(c, nullptr);
  c[1023] = kLaneAbove;
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
