#include "io/column_codec.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace segdb::io {

namespace {

// Minimal unsigned width for a frame-of-reference column, from its value
// range computed in uint64 (lossless for any int64 min/max pair).
uint32_t ForWidth(int64_t min_v, int64_t max_v) {
  const uint64_t range =
      static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  return static_cast<uint32_t>(std::bit_width(range));
}

struct ColumnPlan {
  int64_t ref = 0;
  uint32_t width = 0;
  ColumnTag tag = ColumnTag::kConst;
};

// Canonical per-column choice: kConst for a constant column, kFor at the
// minimal width while it fits the single-word extractor, kRaw64 beyond.
ColumnPlan PlanColumn(const int64_t* v, uint32_t n) {
  ColumnPlan plan;
  if (n == 0) return plan;
  int64_t min_v = v[0];
  int64_t max_v = v[0];
  for (uint32_t i = 1; i < n; ++i) {
    min_v = std::min(min_v, v[i]);
    max_v = std::max(max_v, v[i]);
  }
  if (min_v == max_v) {
    plan.ref = min_v;
    plan.tag = ColumnTag::kConst;
    return plan;
  }
  plan.width = ForWidth(min_v, max_v);
  if (plan.width > geom::kMaxUnpackWidth) {
    plan.tag = ColumnTag::kRaw64;
    plan.width = 64;
    plan.ref = 0;
    return plan;
  }
  plan.ref = min_v;
  plan.tag = ColumnTag::kFor;
  return plan;
}

// Packs n offsets (v[i] - ref as uint64) at `width` bits into `out`, which
// must be zeroed and have the 7-byte tail slack PackLaneBits needs.
void PackForPayload(const int64_t* v, uint32_t n, int64_t ref, uint32_t width,
                    uint8_t* out) {
  for (uint32_t i = 0; i < n; ++i) {
    geom::PackLaneBits(out, i, width,
                       static_cast<uint64_t>(v[i]) -
                           static_cast<uint64_t>(ref));
  }
}

std::atomic<uint64_t> g_codec_regions{0};
std::atomic<uint64_t> g_codec_raw_bytes{0};
std::atomic<uint64_t> g_codec_encoded_bytes{0};
std::atomic<uint64_t> g_codec_footprint_bytes{0};

}  // namespace

uint32_t ColumnarRegionCapacity(uint64_t bytes) {
  // ColumnarRegionBytes(C) >= 25 * C, so C <= bytes / 25 + 3 bounds
  // the answer; walk down (a handful of steps at most).
  uint32_t c = static_cast<uint32_t>(
      std::min<uint64_t>(bytes / 25 + 3, uint64_t{65535}));
  while (c > 0 && ColumnarRegionBytes(c) > bytes) --c;
  return c;
}

PackedRegionInfo ParsePackedRegionHeader(const uint8_t* region,
                                         uint32_t capacity) {
  PackedRegionInfo info;
  std::memcpy(&info.stored_capacity, region, 2);
  // stored_capacity 0 is a never-encoded (zeroed) region; any other value
  // must equal the capacity the caller derived from its page layout.
  SEGDB_DCHECK(info.stored_capacity == 0 || info.stored_capacity == capacity)
      << "packed region capacity mismatch";
  uint32_t off = kColumnarHeaderBytes;
  for (uint32_t c = 0; c < kColumnarColumns; ++c) {
    const uint8_t* h = region + 4 + c * 10;
    std::memcpy(&info.ref[c], h, 8);
    info.width[c] = h[8];
    info.tag[c] = h[9];
    info.slot_off[c] = off;
    off += static_cast<uint32_t>(
        (uint64_t{info.width[c]} * capacity + 7) / 8);
  }
  return info;
}

void EncodeColumnarRegion(uint8_t* region, uint32_t capacity,
                          const int64_t* lanes) {
  SEGDB_CHECK(capacity <= 65535) << "packed region capacity exceeds u16";
  const uint64_t region_bytes = ColumnarRegionBytes(capacity);
  std::memset(region, 0, region_bytes);
  const uint16_t cap16 = static_cast<uint16_t>(capacity);
  std::memcpy(region, &cap16, 2);
  // flags (bytes 2..3) stay zero.
  uint32_t off = kColumnarHeaderBytes;
  for (uint32_t c = 0; c < kColumnarColumns; ++c) {
    const int64_t* v = lanes + uint64_t{c} * capacity;
    ColumnPlan plan = PlanColumn(v, capacity);
    if (c < 4) {
      // Coordinate columns: the 34-bit slot is the domain's worst case
      // (see the header comment); exceeding it means a caller stored an
      // out-of-domain coordinate.
      SEGDB_CHECK(plan.tag != ColumnTag::kRaw64 &&
                  plan.width <= kCoordSlotBits)
          << "coordinate column exceeds the packed width bound";
    }
    uint8_t* h = region + 4 + c * 10;
    std::memcpy(h, &plan.ref, 8);
    h[8] = static_cast<uint8_t>(plan.width);
    h[9] = static_cast<uint8_t>(plan.tag);
    uint8_t* slot = region + off;
    switch (plan.tag) {
      case ColumnTag::kConst:
        break;
      case ColumnTag::kRaw64:
        std::memcpy(slot, v, uint64_t{8} * capacity);
        break;
      default:
        PackForPayload(v, capacity, plan.ref, plan.width, slot);
        break;
    }
    off += static_cast<uint32_t>((uint64_t{plan.width} * capacity + 7) / 8);
  }
  SEGDB_DCHECK(off <= region_bytes);
  g_codec_regions.fetch_add(1, std::memory_order_relaxed);
  g_codec_raw_bytes.fetch_add(uint64_t{kLegacyBytesPerRecord} * capacity,
                              std::memory_order_relaxed);
  g_codec_encoded_bytes.fetch_add(off, std::memory_order_relaxed);
  g_codec_footprint_bytes.fetch_add(region_bytes, std::memory_order_relaxed);
}

void DecodeColumnarRegion(const uint8_t* region, uint32_t capacity,
                          int64_t* lanes) {
  const PackedRegionInfo info = ParsePackedRegionHeader(region, capacity);
  for (uint32_t c = 0; c < kColumnarColumns; ++c) {
    int64_t* out = lanes + uint64_t{c} * capacity;
    switch (static_cast<ColumnTag>(info.tag[c])) {
      case ColumnTag::kConst:
        std::fill(out, out + capacity, info.ref[c]);
        break;
      case ColumnTag::kRaw64:
        std::memcpy(out, region + info.slot_off[c], uint64_t{8} * capacity);
        break;
      default:
        geom::ActiveUnpackAdd()(region + info.slot_off[c], capacity,
                                info.width[c], info.ref[c], out);
        break;
    }
  }
}

CodecStats GlobalCodecStats() {
  CodecStats s;
  s.regions = g_codec_regions.load(std::memory_order_relaxed);
  s.raw_bytes = g_codec_raw_bytes.load(std::memory_order_relaxed);
  s.encoded_bytes = g_codec_encoded_bytes.load(std::memory_order_relaxed);
  s.footprint_bytes =
      g_codec_footprint_bytes.load(std::memory_order_relaxed);
  return s;
}

void ResetGlobalCodecStats() {
  g_codec_regions.store(0, std::memory_order_relaxed);
  g_codec_raw_bytes.store(0, std::memory_order_relaxed);
  g_codec_encoded_bytes.store(0, std::memory_order_relaxed);
  g_codec_footprint_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace segdb::io
