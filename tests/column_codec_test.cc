// Unit coverage for io/column_codec.h: packed-region encode/decode (the
// on-page format every segment leaf now uses), the capacity/footprint laws
// the leaf builders rely on, and the unpack kernels (scalar against the
// active one). The adversarial-input sweeps live in
// differential_fuzz_test.cc; this file pins the deterministic contracts.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "geom/decode_kernel.h"
#include "geom/segment.h"
#include "io/column_codec.h"
#include "util/random.h"

namespace segdb::io {
namespace {

// Lane layout helpers: column-major blocks of `cap` int64s.
std::vector<int64_t> MakeLanes(uint32_t cap) {
  return std::vector<int64_t>(size_t{kColumnarColumns} * cap);
}

void RoundTrip(const std::vector<int64_t>& lanes, uint32_t cap) {
  std::vector<uint8_t> region(ColumnarRegionBytes(cap), 0xAB);
  EncodeColumnarRegion(region.data(), cap, lanes.data());
  auto decoded = MakeLanes(cap);
  DecodeColumnarRegion(region.data(), cap, decoded.data());
  ASSERT_EQ(decoded, lanes);
  // O(1) random access off the parsed header agrees with the bulk decode.
  const PackedRegionInfo info = ParsePackedRegionHeader(region.data(), cap);
  for (uint32_t c = 0; c < kColumnarColumns; ++c) {
    for (uint32_t i = 0; i < cap; ++i) {
      ASSERT_EQ(PackedRegionLane(region.data(), info, c, i),
                lanes[size_t{c} * cap + i])
          << "column " << c << " lane " << i;
    }
  }
  // Canonical encoding: re-encoding the decoded lanes reproduces the
  // region byte-for-byte (the buffer pool's clean-frame audit needs this).
  std::vector<uint8_t> again(ColumnarRegionBytes(cap), 0xCD);
  EncodeColumnarRegion(again.data(), cap, decoded.data());
  ASSERT_EQ(std::memcmp(region.data(), again.data(), region.size()), 0);
}

TEST(ColumnCodecTest, RegionRoundTripRandomCoordinates) {
  Rng rng(7001);
  for (uint32_t cap : {4u, 5u, 17u, 38u, 102u, 161u}) {
    auto lanes = MakeLanes(cap);
    for (uint32_t i = 0; i < cap; ++i) {
      // Full stored-coordinate domain, including the mirrored bound
      // (MirrorX can push lanes to ~3 * kMaxCoord).
      for (uint32_t c = 0; c < 4; ++c) {
        lanes[size_t{c} * cap + i] =
            rng.UniformInt(-3 * geom::kMaxCoord, 3 * geom::kMaxCoord);
      }
      lanes[size_t{4} * cap + i] = static_cast<int64_t>(rng.Next());
    }
    RoundTrip(lanes, cap);
  }
}

TEST(ColumnCodecTest, RegionConstantAndClusteredColumnsPack) {
  constexpr uint32_t kCap = 100;
  auto lanes = MakeLanes(kCap);
  for (uint32_t i = 0; i < kCap; ++i) {
    lanes[size_t{0} * kCap + i] = 123456;            // constant -> kConst
    lanes[size_t{1} * kCap + i] = 123456 + i;        // 7-bit FOR
    lanes[size_t{2} * kCap + i] = -5000 + 3 * i;     // small FOR, negative ref
    lanes[size_t{3} * kCap + i] = 5000 + 3 * i;
    lanes[size_t{4} * kCap + i] = 900000 + i;        // clustered ids pack too
  }
  ResetGlobalCodecStats();
  RoundTrip(lanes, kCap);
  const CodecStats stats = GlobalCodecStats();
  ASSERT_GE(stats.regions, 1u);
  EXPECT_EQ(stats.raw_bytes % (kLegacyBytesPerRecord * kCap), 0u);
  // Clustered data beats the 1.3x acceptance floor by a wide margin.
  EXPECT_GE(static_cast<double>(stats.raw_bytes),
            1.3 * static_cast<double>(stats.encoded_bytes));
}

TEST(ColumnCodecTest, RegionWideIdsFallBackToRaw64) {
  constexpr uint32_t kCap = 16;
  auto lanes = MakeLanes(kCap);
  for (uint32_t i = 0; i < kCap; ++i) {
    lanes[size_t{4} * kCap + i] =
        (i % 2 == 0) ? std::numeric_limits<int64_t>::min() + i
                     : std::numeric_limits<int64_t>::max() - i;
  }
  std::vector<uint8_t> region(ColumnarRegionBytes(kCap));
  EncodeColumnarRegion(region.data(), kCap, lanes.data());
  const PackedRegionInfo info = ParsePackedRegionHeader(region.data(), kCap);
  EXPECT_EQ(static_cast<ColumnTag>(info.tag[4]), ColumnTag::kRaw64);
  RoundTrip(lanes, kCap);
}

TEST(ColumnCodecTest, FreshZeroedRegionDecodesToZeroLanes) {
  constexpr uint32_t kCap = 50;
  std::vector<uint8_t> region(ColumnarRegionBytes(kCap), 0);
  auto decoded = MakeLanes(kCap);
  for (auto& v : decoded) v = -1;
  DecodeColumnarRegion(region.data(), kCap, decoded.data());
  for (int64_t v : decoded) ASSERT_EQ(v, 0);
}

TEST(ColumnCodecTest, CapacityAndFootprintLaws) {
  uint32_t prev_cap = 0;
  for (uint64_t bytes = 0; bytes <= 8192; bytes += 7) {
    const uint32_t cap = ColumnarRegionCapacity(bytes);
    ASSERT_LE(ColumnarRegionBytes(cap), bytes) << bytes;
    if (cap + 1 <= 65535) {
      ASSERT_GT(ColumnarRegionBytes(cap + 1), bytes) << bytes;  // maximal
    }
    if (bytes >= 132) {  // dominates row-major from 3 records up
      ASSERT_GE(cap, bytes / kLegacyBytesPerRecord) << bytes;
    }
    ASSERT_GE(cap, prev_cap);  // monotone in the budget
    prev_cap = cap;
  }
}

TEST(ColumnCodecTest, UnpackKernelsAgreeScalarVsActive) {
  // The AVX2 gather path (when the CPU supports it) must match the
  // scalar extraction bit-for-bit across widths, including the remainder
  // lanes after the last full SIMD step.
  Rng rng(7004);
  for (uint32_t width = 0; width <= geom::kMaxUnpackWidth; ++width) {
    constexpr uint32_t kCount = 67;  // odd: exercises the scalar tail
    std::vector<uint8_t> packed((size_t{kCount} * width + 7) / 8 + 8, 0);
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << width) - 1);
    std::vector<int64_t> expect(kCount);
    const int64_t ref = -123456789;
    for (uint32_t i = 0; i < kCount; ++i) {
      const uint64_t v = rng.Next() & mask;
      if (width > 0) geom::PackLaneBits(packed.data(), i, width, v);
      expect[i] =
          static_cast<int64_t>(static_cast<uint64_t>(ref) + (width ? v : 0));
    }
    std::vector<int64_t> scalar(kCount), active(kCount);
    geom::ScalarUnpackAdd()(packed.data(), kCount, width, ref, scalar.data());
    geom::ActiveUnpackAdd()(packed.data(), kCount, width, ref, active.data());
    ASSERT_EQ(scalar, expect) << "width " << width;
    ASSERT_EQ(active, expect) << "width " << width;
  }
}

}  // namespace
}  // namespace segdb::io
