#include "io/column_codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

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
  // PackedColumnarRegionBytes(C) >= 25 * C, so C <= bytes / 25 + 3 bounds
  // the answer; walk down (a handful of steps at most).
  uint32_t c = static_cast<uint32_t>(
      std::min<uint64_t>(bytes / 25 + 3, uint64_t{65535}));
  while (c > 0 && ColumnarRegionBytes(c) > bytes) --c;
  return c;
}

PackedRegionInfo ParsePackedRegionHeader(const uint8_t* region,
                                         uint32_t capacity) {
  SEGDB_DCHECK(ColumnarRegionIsPacked(capacity));
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
  SEGDB_DCHECK(ColumnarRegionIsPacked(capacity));
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

namespace {

// Zig-zag mapping for delta lanes: small signed deltas become small
// unsigned offsets without needing a second reference field.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t u) {
  return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
}

// Packs n pre-computed unsigned offsets at `width` bits into `payload`.
// ColumnMaxBytes reserves 8n payload bytes, which covers the packer's
// 7-byte RMW tail whenever payload_bytes + 7 <= 8n; tiny columns take a
// padded detour instead of widening the public contract.
void PackOffsets(const uint64_t* offsets, uint32_t n, uint32_t width,
                 uint8_t* payload, size_t payload_bytes) {
  if (payload_bytes + 7 <= uint64_t{8} * n) {
    std::memset(payload, 0, payload_bytes);
    for (uint32_t i = 0; i < n; ++i) {
      geom::PackLaneBits(payload, i, width, offsets[i]);
    }
  } else {
    std::vector<uint8_t> tmp(payload_bytes + 8, 0);
    for (uint32_t i = 0; i < n; ++i) {
      geom::PackLaneBits(tmp.data(), i, width, offsets[i]);
    }
    std::memcpy(payload, tmp.data(), payload_bytes);
  }
}

}  // namespace

size_t EncodeColumn(const int64_t* values, uint32_t n, bool allow_delta,
                    uint8_t* out) {
  ColumnPlan plan = PlanColumn(values, n);
  std::vector<uint64_t> offsets(n);
  if (plan.tag == ColumnTag::kFor) {
    for (uint32_t i = 0; i < n; ++i) {
      offsets[i] = static_cast<uint64_t>(values[i]) -
                   static_cast<uint64_t>(plan.ref);
    }
  }
  // Delta-then-FOR: zig-zagged consecutive differences, anchor (lane 0's
  // absolute value) in the header ref, lane 0 packed as zero. Wins on
  // sorted or clustered columns where deltas span a strictly narrower
  // range than the values.
  if (allow_delta && n >= 2 && plan.tag == ColumnTag::kFor) {
    uint64_t max_zz = 0;
    for (uint32_t i = 1; i < n; ++i) {
      const int64_t d =
          static_cast<int64_t>(static_cast<uint64_t>(values[i]) -
                               static_cast<uint64_t>(values[i - 1]));
      max_zz = std::max(max_zz, ZigZag(d));
    }
    const uint32_t zz_width =
        static_cast<uint32_t>(std::bit_width(max_zz));
    if (zz_width >= 1 && zz_width < plan.width &&
        zz_width <= geom::kMaxUnpackWidth) {
      plan.tag = ColumnTag::kDelta;
      plan.width = zz_width;
      plan.ref = values[0];
      offsets[0] = 0;
      for (uint32_t i = 1; i < n; ++i) {
        offsets[i] = ZigZag(
            static_cast<int64_t>(static_cast<uint64_t>(values[i]) -
                                 static_cast<uint64_t>(values[i - 1])));
      }
    }
  }
  std::memcpy(out, &plan.ref, 8);
  out[8] = static_cast<uint8_t>(plan.width);
  out[9] = static_cast<uint8_t>(plan.tag);
  uint8_t* payload = out + 10;
  size_t payload_bytes = 0;
  switch (plan.tag) {
    case ColumnTag::kConst:
      break;
    case ColumnTag::kRaw64:
      payload_bytes = uint64_t{8} * n;
      std::memcpy(payload, values, payload_bytes);
      break;
    default:  // kFor / kDelta share the packed-offset payload
      payload_bytes = (uint64_t{plan.width} * n + 7) / 8;
      PackOffsets(offsets.data(), n, plan.width, payload, payload_bytes);
      break;
  }
  return 10 + payload_bytes;
}

void DecodeColumn(const uint8_t* in, size_t in_bytes, uint32_t n,
                  int64_t* out) {
  SEGDB_CHECK(in_bytes >= 10) << "column too short for its header";
  if (n == 0) return;
  int64_t ref;
  std::memcpy(&ref, in, 8);
  const uint32_t width = in[8];
  const ColumnTag tag = static_cast<ColumnTag>(in[9]);
  const uint8_t* payload = in + 10;
  const size_t payload_bytes = in_bytes - 10;
  switch (tag) {
    case ColumnTag::kConst:
      std::fill(out, out + n, ref);
      return;
    case ColumnTag::kRaw64:
      SEGDB_CHECK(payload_bytes >= uint64_t{8} * n);
      std::memcpy(out, payload, uint64_t{8} * n);
      return;
    default:
      break;
  }
  SEGDB_CHECK(width >= 1 && width <= geom::kMaxUnpackWidth);
  SEGDB_CHECK(payload_bytes >= (uint64_t{width} * n + 7) / 8);
  // Fast path for every lane whose 8-byte extraction window stays inside
  // the payload; exact tail assembly for the rest.
  uint32_t safe = 0;
  if (payload_bytes >= 8) {
    const uint64_t safe_bits = (payload_bytes - 8) * 8 + 1;
    safe = static_cast<uint32_t>(
        std::min<uint64_t>(n, safe_bits / width));
  }
  if (tag == ColumnTag::kFor) {
    for (uint32_t i = 0; i < safe; ++i) {
      out[i] = static_cast<int64_t>(
          static_cast<uint64_t>(ref) +
          geom::UnpackLaneBits(payload, i, width));
    }
    for (uint32_t i = safe; i < n; ++i) {
      out[i] = static_cast<int64_t>(
          static_cast<uint64_t>(ref) +
          geom::UnpackLaneBitsTail(payload, payload_bytes, i, width));
    }
    return;
  }
  SEGDB_CHECK(tag == ColumnTag::kDelta);
  // Lane 0 is the anchor (header ref, packed offset 0); lanes 1.. are
  // zig-zagged deltas reconstructed by prefix summation.
  int64_t prev = ref;
  out[0] = prev;
  for (uint32_t i = 1; i < n; ++i) {
    const uint64_t zz =
        i < safe ? geom::UnpackLaneBits(payload, i, width)
                 : geom::UnpackLaneBitsTail(payload, payload_bytes, i, width);
    prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                static_cast<uint64_t>(UnZigZag(zz)));
    out[i] = prev;
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
