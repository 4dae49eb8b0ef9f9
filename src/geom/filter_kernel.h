// Branchless in-page filter kernels over columnar segment strips.
//
// Data pages store segment records as struct-of-arrays strips (see
// io/columnar_page_view.h): five contiguous lanes x1[] x2[] y1[] y2[] id[]
// of 8-byte little-endian values. The kernels here evaluate a geometric
// predicate across a whole strip at once and emit the *indices* of matching
// lanes as a dense run — callers then gather the matching records in one
// bulk append instead of testing and push_back-ing one Segment at a time.
//
// Exactness. geom::CompareYAtX computes sign(y1*dx + (y2-y1)*(x0-x1) - y*dx)
// in __int128. For a lane with a = xc-x1 >= 0, b = x2-xc >= 0 (xc the query
// abscissa clamped into [x1,x2]) the same sign is
//     sign((y1 - y)*b + (y2 - y)*a),
// and |(y1-y)*b + (y2-y)*a| <= max|y1-y| * dx. Coordinates are bounded by
// kMaxCoord = 2^30; query ordinates use sentinels up to kMaxCoord+1, and
// mirrored (leftward PST) or transposed (point-PST) encodings push single
// coordinates to ~3*2^30 — but dx = x2-x1 is invariant under MirrorX and
// bounded by ~2^31, so |result| < (2^31+2)*(2^31+1) < 2^63: plain int64
// arithmetic is exact for every caller in the tree. No __int128 in the hot
// loop, which is what lets the scalar core auto-vectorize.
//
// The clamp xc = min(max(qx, x1), x2) keeps out-of-span lanes overflow-free
// so every lane can be evaluated unconditionally; the in-span mask is
// computed from the *unclamped* qx. Vertical lanes (x1 == x2 => a = b = 0)
// would vacuously pass the sign test and are instead selected to the exact
// interval check y1 <= yhi && ylo <= y2.
//
// Dispatch. The scalar core compiles everywhere and auto-vectorizes at the
// target baseline (SSE2 on x86-64, NEON on aarch64). Every build on x86-64
// under GCC or Clang also compiles explicit AVX2 paths (per-function target
// attributes, no global -mavx2), selected at run time via
// __builtin_cpu_supports; no build option turns them off. Other platforms
// run the scalar core. Benches compare rows vs scalar-columnar vs SIMD
// through ScalarFilterKernel() / SimdFilterKernel().
#ifndef SEGDB_GEOM_FILTER_KERNEL_H_
#define SEGDB_GEOM_FILTER_KERNEL_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace segdb::geom {

// Raw strip bases. Byte pointers, not int64_t*: strip regions start at
// arbitrary in-page offsets (a line-PST node with odd fanout places them at
// 4 mod 8), so lanes are loaded with memcpy / unaligned vector loads.
struct SegmentStrips {
  const uint8_t* x1 = nullptr;
  const uint8_t* x2 = nullptr;
  const uint8_t* y1 = nullptr;
  const uint8_t* y2 = nullptr;
};

inline int64_t StripLane(const uint8_t* strip, uint32_t i) {
  int64_t v;
  std::memcpy(&v, strip + static_cast<size_t>(i) * 8, sizeof(v));
  return v;
}

// Lane classes produced by the classify kernel, mirroring the line-PST
// report loop, as three bitmasks: bit i of word i / 64 is set in `below`,
// `in_range` or `above` when lane i passes below, crosses or passes above
// the query range [ylo, yhi] at qx, and in none of them when qx misses
// [x1, x2]. (Vertical lanes: below when y2 < ylo, above when y1 > yhi.)
// Each array holds LaneMaskWords(count) words; bits at and past `count`
// are zero.
struct LaneMasks {
  uint64_t* below = nullptr;
  uint64_t* in_range = nullptr;
  uint64_t* above = nullptr;
};

inline constexpr uint32_t LaneMaskWords(uint32_t count) {
  return (count + 63) / 64;
}

// Lanes intersecting the vertical query segment x = qx, ylo <= y <= yhi
// (exactly geom::IntersectsVerticalSegment). Writes matching lane indices
// to out_idx (caller guarantees room for `count`) and returns how many.
using FilterVsFn = uint32_t (*)(const SegmentStrips& s, uint32_t count,
                                int64_t qx, int64_t ylo, int64_t yhi,
                                uint32_t* out_idx);

// The class masks of `count` lanes at (qx, [ylo, yhi]), written to `out`.
using ClassifyVsFn = void (*)(const SegmentStrips& s, uint32_t count,
                              int64_t qx, int64_t ylo, int64_t yhi,
                              const LaneMasks& out);

struct FilterKernel {
  FilterVsFn filter_vs = nullptr;
  ClassifyVsFn classify_vs = nullptr;
  const char* name = "";
};

// Portable auto-vectorizable core; always available.
const FilterKernel& ScalarFilterKernel();

// Explicit SIMD (AVX2) implementation, or nullptr when the platform has
// none or the host CPU lacks AVX2 (checked once at first call).
const FilterKernel* SimdFilterKernel();

// SIMD when available, scalar otherwise. Resolved once.
const FilterKernel& ActiveFilterKernel();

// Reusable scratch arena for kernel output: match-index runs and class
// masks grow monotonically and are recycled across queries, so steady-
// state scans allocate nothing. One arena per thread (see
// GetThreadFilterScratch), which is what makes QueryEngine's fan-out reuse
// it safely: each worker amortizes a single arena over its whole batch.
class ResultBuffer {
 public:
  uint32_t* ReserveIndices(uint32_t count) {
    if (idx_.size() < count) idx_.resize(count);
    return idx_.data();
  }

  // Room for the three class masks of `count` lanes.
  LaneMasks ReserveMasks(uint32_t count) {
    const size_t words = LaneMaskWords(count);
    if (masks_.size() < 3 * words) masks_.resize(3 * words);
    return LaneMasks{masks_.data(), masks_.data() + words,
                     masks_.data() + 2 * words};
  }

 private:
  std::vector<uint32_t> idx_;
  std::vector<uint64_t> masks_;
};

// Thread-local arena used by the in-page scan sites.
ResultBuffer& GetThreadFilterScratch();

}  // namespace segdb::geom

#endif  // SEGDB_GEOM_FILTER_KERNEL_H_
