// Per-page column codec: frame-of-reference bit-packed coordinate columns.
//
// == Packed region format (DESIGN.md section 15) ==
//
// A columnar segment region of capacity C >= 1 is stored as
//
//   [ header: 56 bytes                                                   ]
//   [ x1 column ][ x2 column ][ y1 column ][ y2 column ][ id column ]
//
//   header:  u16 stored_capacity | u16 flags (0) |
//            5 x { i64 ref, u8 width, u8 tag }  (50 bytes) | 2 bytes zero
//
// Each column is bit-packed at its *minimal* width (offsets v - ref as
// unsigned, little-endian, bit-contiguous; see geom/decode_kernel.h), but
// the region's byte budget reserves the *worst-case* width — kCoordSlotBits
// (34) per coordinate lane plus 8 raw bytes per id lane — so any valid lane
// values fit, random access is O(1) off the parsed header, and the 7-byte
// extraction overrun of every column lands inside the region.
//
// Why 34 bits is a worst case, not a fallback: stored coordinates are
// bounded by ~3 * 2^30 (|x|,|y| <= kMaxCoord = 2^30 before encoding;
// MirrorX maps x to 2*axis - x and Transpose swaps axes, so a stored lane
// never exceeds 3 * kMaxCoord + 1). Any column's (max - min) is therefore
// < 2^33 and its minimal FOR width is <= 33 < kCoordSlotBits. The encoder
// CHECK-enforces the bound; out-of-domain coordinates are a caller bug.
// Id lanes carry application ids with no domain bound, so their slot stays
// 8 bytes and widths above geom::kMaxUnpackWidth degrade to tag kRaw64
// (plain 8-byte lanes).
//
// == Capacity law ==
//
// Every region of capacity C >= 1 uses this one format (a region of
// capacity 0 is empty and occupies no bytes). At C >= 4 the budget,
// ColumnarRegionBytes(C), is at most the row-major footprint 40 * C, so
// ColumnarRegionCapacity(bytes) dominates the old bytes/40 capacity for
// every budget of 132 bytes or more. Regions below capacity 4 pay more than
// 40 bytes per record for the header. No index writes one: at the page
// sizes indexes are built with (512 bytes and up) and the fan-outs they
// use, every index region holds 8 or more records.
//
// == Determinism ==
//
// EncodeColumnarRegion is a pure function of (lanes, capacity): the region
// is zeroed first, widths and references are the canonical minima, and
// slack bytes stay zero. Re-encoding unchanged lanes reproduces the region
// byte-for-byte — BufferPool::CheckInvariants' clean-frame-vs-disk compare
// depends on this.
#ifndef SEGDB_IO_COLUMN_CODEC_H_
#define SEGDB_IO_COLUMN_CODEC_H_

#include <cstdint>
#include <cstring>

#include "geom/decode_kernel.h"
#include "util/check.h"

namespace segdb::io {

// --- Packed columnar region ----------------------------------------------

inline constexpr uint32_t kColumnarHeaderBytes = 56;
inline constexpr uint32_t kCoordSlotBits = 34;
inline constexpr uint32_t kColumnarColumns = 5;  // x1 x2 y1 y2 id
// The row-major footprint of one record, sizeof(geom::Segment): the raw
// baseline the codec statistics compare against.
inline constexpr uint32_t kLegacyBytesPerRecord = 40;

// Per-column encodings. kConst and kFor are the only coordinate tags a
// packed region produces; kRaw64 appears for id columns wider than
// geom::kMaxUnpackWidth.
enum class ColumnTag : uint8_t {
  kConst = 0,  // width 0: every lane equals ref
  kFor = 1,    // frame-of-reference bit-packed offsets from ref
  kRaw64 = 2,  // plain 8-byte lanes (ref 0, width 64)
};

// Bytes a region of `capacity` records occupies: the header, a 34-bit
// slot per coordinate lane and 8 bytes per id lane. Monotonic in capacity,
// and <= 40 * capacity from capacity 4 up.
constexpr uint64_t ColumnarRegionBytes(uint32_t capacity) {
  if (capacity == 0) return 0;
  return kColumnarHeaderBytes +
         4 * ((uint64_t{kCoordSlotBits} * capacity + 7) / 8) +
         uint64_t{8} * capacity;
}

// Largest capacity whose region fits in `bytes` — the fan-out every leaf
// builder derives from its page budget. Dominates bytes/40 from 132 bytes.
uint32_t ColumnarRegionCapacity(uint64_t bytes);

// Parsed packed-region header: everything O(1) lane access needs.
struct PackedRegionInfo {
  int64_t ref[kColumnarColumns] = {};
  uint8_t width[kColumnarColumns] = {};
  uint8_t tag[kColumnarColumns] = {};
  // Byte offset of each column's packed data from the region base.
  uint32_t slot_off[kColumnarColumns] = {};
  uint16_t stored_capacity = 0;
};

// Parses the 56-byte header and derives column offsets from the stored
// widths. An all-zero header (a fresh zeroed page) parses as five kConst
// columns with ref 0 — every lane decodes to zero.
PackedRegionInfo ParsePackedRegionHeader(const uint8_t* region,
                                         uint32_t capacity);

// O(1) random access to one lane of a parsed packed region.
inline int64_t PackedRegionLane(const uint8_t* region,
                                const PackedRegionInfo& info, uint32_t column,
                                uint32_t i) {
  switch (static_cast<ColumnTag>(info.tag[column])) {
    case ColumnTag::kConst:
      return info.ref[column];
    case ColumnTag::kRaw64: {
      int64_t v;
      std::memcpy(&v, region + info.slot_off[column] + uint64_t{i} * 8, 8);
      return v;
    }
    default:
      return static_cast<int64_t>(
          static_cast<uint64_t>(info.ref[column]) +
          geom::UnpackLaneBits(region + info.slot_off[column], i,
                               info.width[column]));
  }
}

// Encodes `capacity` records from column-major lanes (kColumnarColumns
// blocks of `capacity` int64s: x1, x2, y1, y2, id) into a packed region.
// Zeroes all ColumnarRegionBytes(capacity) bytes first (canonical slack).
// CHECK-fails if a coordinate column needs more than kCoordSlotBits.
void EncodeColumnarRegion(uint8_t* region, uint32_t capacity,
                          const int64_t* lanes);

// Decodes a packed region into column-major lanes (same layout as above).
void DecodeColumnarRegion(const uint8_t* region, uint32_t capacity,
                          int64_t* lanes);

// --- Codec telemetry ------------------------------------------------------

// Process-wide region-encode counters (relaxed atomics; cheap enough for
// the hot path). raw_bytes counts the row-major footprint (40 * capacity),
// encoded_bytes the bytes the encode actually produced (header + minimal-
// width payloads) — their ratio is the per-page compression the benches
// report. footprint_bytes is the reserved region size (worst-case slots),
// whose ratio to raw_bytes is the structural fan-out gain.
struct CodecStats {
  uint64_t regions = 0;
  uint64_t raw_bytes = 0;
  uint64_t encoded_bytes = 0;
  uint64_t footprint_bytes = 0;
};

CodecStats GlobalCodecStats();
void ResetGlobalCodecStats();

}  // namespace segdb::io

#endif  // SEGDB_IO_COLUMN_CODEC_H_
