#include "geom/filter_kernel.h"

#include <algorithm>

#include "geom/segment.h"

// The AVX2 path needs GCC or Clang: the target("avx2") attribute and
// __builtin_cpu_supports, which picks it at run time, are theirs.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEGDB_SIMD_X86 1
#include <immintrin.h>
#endif

namespace segdb::geom {
namespace {

// Stored ordinates are bounded by kMaxCoord (+1 for the PointPst base-line
// encoding), so any query ordinate beyond +/-(kMaxCoord + 2) behaves as an
// infinity: clamping it there preserves the sign of every lane predicate
// while keeping all products inside int64 even for unbounded ray/line
// queries (LinePst callers legitimately pass INT64_MIN/4-style ordinates).
// With the clamp, |y - y_q| <= 2^31 + 3 and dx <= 2^31 + 2, so
// |(y1 - y_q) * b + (y2 - y_q) * a| <= (2^31 + 3) * dx < 2^63.
constexpr int64_t kYInfinity = kMaxCoord + 2;

inline int64_t ClampQueryY(int64_t y) {
  return y < -kYInfinity ? -kYInfinity : (y > kYInfinity ? kYInfinity : y);
}

// --- Shared per-lane predicates (scalar core and SIMD remainder loops) ---

// Branchless lane evaluation of geom::IntersectsVerticalSegment; see the
// header comment for the clamp trick and the int64 exactness argument.
inline bool VsHitLane(const SegmentStrips& s, uint32_t i, int64_t qx,
                      int64_t ylo, int64_t yhi) {
  const int64_t x1 = StripLane(s.x1, i);
  const int64_t x2 = StripLane(s.x2, i);
  const int64_t y1 = StripLane(s.y1, i);
  const int64_t y2 = StripLane(s.y2, i);
  const bool in_x = (x1 <= qx) & (qx <= x2);
  int64_t xc = qx < x1 ? x1 : qx;
  xc = xc > x2 ? x2 : xc;
  const int64_t a = xc - x1;
  const int64_t b = x2 - xc;
  const int64_t lo = (y1 - ylo) * b + (y2 - ylo) * a;
  const int64_t hi = (y1 - yhi) * b + (y2 - yhi) * a;
  const bool nv_hit = (lo >= 0) & (hi <= 0);
  const bool v_hit = (y1 <= yhi) & (ylo <= y2);
  return in_x & (x1 == x2 ? v_hit : nv_hit);
}

// One lane's class as the three mask bits it sets; an outside lane sets
// none.
struct LaneClass {
  bool below, in_range, above;
};

inline LaneClass ClassifyLane(const SegmentStrips& s, uint32_t i, int64_t qx,
                              int64_t ylo, int64_t yhi) {
  const int64_t x1 = StripLane(s.x1, i);
  const int64_t x2 = StripLane(s.x2, i);
  const int64_t y1 = StripLane(s.y1, i);
  const int64_t y2 = StripLane(s.y2, i);
  const bool in_x = (x1 <= qx) & (qx <= x2);
  int64_t xc = qx < x1 ? x1 : qx;
  xc = xc > x2 ? x2 : xc;
  const int64_t a = xc - x1;
  const int64_t b = x2 - xc;
  const int64_t lo = (y1 - ylo) * b + (y2 - ylo) * a;
  const int64_t hi = (y1 - yhi) * b + (y2 - yhi) * a;
  const bool vert = x1 == x2;
  const bool below = vert ? (y2 < ylo) : (lo < 0);
  const bool above = !below & (vert ? (y1 > yhi) : (hi > 0));
  return LaneClass{in_x && below, in_x && !below && !above, in_x && above};
}

// Lanes [first, first + n) of one mask word, n <= 64, classified one at a
// time from bit `from` on; the caller has set the bits below it.
inline void ClassifyTail(const SegmentStrips& s, uint32_t first, uint32_t n,
                         uint32_t from, int64_t qx, int64_t ylo, int64_t yhi,
                         uint64_t* below, uint64_t* in_range,
                         uint64_t* above) {
  for (uint32_t j = from; j < n; ++j) {
    const LaneClass c = ClassifyLane(s, first + j, qx, ylo, yhi);
    *below |= uint64_t{c.below} << j;
    *in_range |= uint64_t{c.in_range} << j;
    *above |= uint64_t{c.above} << j;
  }
}

// --- Scalar kernels ------------------------------------------------------

// Branchless emission: the index is written unconditionally and the cursor
// advances by the predicate, so the loop has no data-dependent branches and
// the compiler is free to vectorize the predicate evaluation.
uint32_t FilterVsScalar(const SegmentStrips& s, uint32_t count, int64_t qx,
                        int64_t ylo, int64_t yhi, uint32_t* out_idx) {
  ylo = ClampQueryY(ylo);
  yhi = ClampQueryY(yhi);
  uint32_t n = 0;
  for (uint32_t i = 0; i < count; ++i) {
    out_idx[n] = i;
    n += VsHitLane(s, i, qx, ylo, yhi) ? 1u : 0u;
  }
  return n;
}

void ClassifyVsScalar(const SegmentStrips& s, uint32_t count, int64_t qx,
                      int64_t ylo, int64_t yhi, const LaneMasks& out) {
  ylo = ClampQueryY(ylo);
  yhi = ClampQueryY(yhi);
  for (uint32_t w = 0; w < LaneMaskWords(count); ++w) {
    const uint32_t first = w * 64;
    uint64_t below = 0, in_range = 0, above = 0;
    ClassifyTail(s, first, std::min(count - first, 64u), 0, qx, ylo, yhi,
                 &below, &in_range, &above);
    out.below[w] = below;
    out.in_range[w] = in_range;
    out.above[w] = above;
  }
}

constexpr FilterKernel kScalarKernel{FilterVsScalar, ClassifyVsScalar,
                                     "scalar"};

// --- AVX2 ---------------------------------------------------------------

#ifdef SEGDB_SIMD_X86

#define SEGDB_AVX2 __attribute__((target("avx2")))

// Low 64 bits of the lane-wise signed product: AVX2 has no 64-bit mullo
// below AVX-512DQ, so assemble it from 32x32 partial products (signedness
// is irrelevant mod 2^64).
SEGDB_AVX2 inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i low = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32));
}

SEGDB_AVX2 inline __m256i Load4(const uint8_t* strip, uint32_t i) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(strip + static_cast<size_t>(i) * 8));
}

// Per-lane miss mask (all-ones = miss) for the VS-intersection predicate,
// plus the raw lane loads the caller may reuse.
struct VsLanes {
  __m256i x1, x2, y1, y2;
  __m256i out_x;  // qx outside [x1, x2]
  __m256i miss;   // full predicate miss
};

SEGDB_AVX2 inline VsLanes EvalVsLanes(const SegmentStrips& s, uint32_t i,
                                      __m256i vqx, __m256i vylo,
                                      __m256i vyhi) {
  VsLanes lanes;
  lanes.x1 = Load4(s.x1, i);
  lanes.x2 = Load4(s.x2, i);
  lanes.y1 = Load4(s.y1, i);
  lanes.y2 = Load4(s.y2, i);
  const __m256i x1_gt_qx = _mm256_cmpgt_epi64(lanes.x1, vqx);
  lanes.out_x =
      _mm256_or_si256(x1_gt_qx, _mm256_cmpgt_epi64(vqx, lanes.x2));
  __m256i xc = _mm256_blendv_epi8(vqx, lanes.x1, x1_gt_qx);
  xc = _mm256_blendv_epi8(xc, lanes.x2,
                          _mm256_cmpgt_epi64(xc, lanes.x2));
  const __m256i a = _mm256_sub_epi64(xc, lanes.x1);
  const __m256i b = _mm256_sub_epi64(lanes.x2, xc);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lo =
      _mm256_add_epi64(Mul64(_mm256_sub_epi64(lanes.y1, vylo), b),
                       Mul64(_mm256_sub_epi64(lanes.y2, vylo), a));
  const __m256i hi =
      _mm256_add_epi64(Mul64(_mm256_sub_epi64(lanes.y1, vyhi), b),
                       Mul64(_mm256_sub_epi64(lanes.y2, vyhi), a));
  const __m256i nv_miss = _mm256_or_si256(_mm256_cmpgt_epi64(zero, lo),
                                          _mm256_cmpgt_epi64(hi, zero));
  const __m256i v_miss =
      _mm256_or_si256(_mm256_cmpgt_epi64(lanes.y1, vyhi),
                      _mm256_cmpgt_epi64(vylo, lanes.y2));
  const __m256i vert = _mm256_cmpeq_epi64(lanes.x1, lanes.x2);
  lanes.miss = _mm256_or_si256(lanes.out_x,
                               _mm256_blendv_epi8(nv_miss, v_miss, vert));
  return lanes;
}

SEGDB_AVX2 uint32_t FilterVsAvx2(const SegmentStrips& s, uint32_t count,
                                 int64_t qx, int64_t ylo, int64_t yhi,
                                 uint32_t* out_idx) {
  ylo = ClampQueryY(ylo);
  yhi = ClampQueryY(yhi);
  const __m256i vqx = _mm256_set1_epi64x(qx);
  const __m256i vylo = _mm256_set1_epi64x(ylo);
  const __m256i vyhi = _mm256_set1_epi64x(yhi);
  uint32_t n = 0;
  uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const VsLanes lanes = EvalVsLanes(s, i, vqx, vylo, vyhi);
    unsigned hits =
        ~static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(lanes.miss))) &
        0xfu;
    while (hits != 0) {
      out_idx[n++] = i + static_cast<uint32_t>(__builtin_ctz(hits));
      hits &= hits - 1;
    }
  }
  for (; i < count; ++i) {
    out_idx[n] = i;
    n += VsHitLane(s, i, qx, ylo, yhi) ? 1u : 0u;
  }
  return n;
}

// The sign bit of each 64-bit lane: a compare vector's four mask bits.
SEGDB_AVX2 inline uint64_t LaneBits(__m256i v) {
  return static_cast<uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(v)));
}

// Four lanes per step, each class's bits taken from its compare vector.
SEGDB_AVX2 void ClassifyVsAvx2(const SegmentStrips& s, uint32_t count,
                               int64_t qx, int64_t ylo, int64_t yhi,
                               const LaneMasks& out) {
  ylo = ClampQueryY(ylo);
  yhi = ClampQueryY(yhi);
  const __m256i vqx = _mm256_set1_epi64x(qx);
  const __m256i vylo = _mm256_set1_epi64x(ylo);
  const __m256i vyhi = _mm256_set1_epi64x(yhi);
  const __m256i zero = _mm256_setzero_si256();
  for (uint32_t w = 0; w < LaneMaskWords(count); ++w) {
    const uint32_t first = w * 64;
    const uint32_t n = std::min(count - first, 64u);
    uint64_t below_word = 0, in_word = 0, above_word = 0;
    uint32_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const uint32_t i = first + j;
      const __m256i x1 = Load4(s.x1, i);
      const __m256i x2 = Load4(s.x2, i);
      const __m256i y1 = Load4(s.y1, i);
      const __m256i y2 = Load4(s.y2, i);
      const __m256i x1_gt_qx = _mm256_cmpgt_epi64(x1, vqx);
      const __m256i out_x =
          _mm256_or_si256(x1_gt_qx, _mm256_cmpgt_epi64(vqx, x2));
      __m256i xc = _mm256_blendv_epi8(vqx, x1, x1_gt_qx);
      xc = _mm256_blendv_epi8(xc, x2, _mm256_cmpgt_epi64(xc, x2));
      const __m256i a = _mm256_sub_epi64(xc, x1);
      const __m256i b = _mm256_sub_epi64(x2, xc);
      const __m256i lo =
          _mm256_add_epi64(Mul64(_mm256_sub_epi64(y1, vylo), b),
                           Mul64(_mm256_sub_epi64(y2, vylo), a));
      const __m256i hi =
          _mm256_add_epi64(Mul64(_mm256_sub_epi64(y1, vyhi), b),
                           Mul64(_mm256_sub_epi64(y2, vyhi), a));
      const __m256i vert = _mm256_cmpeq_epi64(x1, x2);
      const __m256i below =
          _mm256_blendv_epi8(_mm256_cmpgt_epi64(zero, lo),
                             _mm256_cmpgt_epi64(vylo, y2), vert);
      const __m256i above = _mm256_andnot_si256(
          below, _mm256_blendv_epi8(_mm256_cmpgt_epi64(hi, zero),
                                    _mm256_cmpgt_epi64(y1, vyhi), vert));
      const uint64_t outside = LaneBits(out_x);
      const uint64_t b_bits = LaneBits(below) & ~outside;
      const uint64_t a_bits = LaneBits(above) & ~outside;
      below_word |= b_bits << j;
      above_word |= a_bits << j;
      in_word |= (~(outside | b_bits | a_bits) & 0xfu) << j;
    }
    ClassifyTail(s, first, n, j, qx, ylo, yhi, &below_word, &in_word,
                 &above_word);
    out.below[w] = below_word;
    out.in_range[w] = in_word;
    out.above[w] = above_word;
  }
}

constexpr FilterKernel kAvx2Kernel{FilterVsAvx2, ClassifyVsAvx2, "avx2"};

#endif  // SEGDB_SIMD_X86

}  // namespace

const FilterKernel& ScalarFilterKernel() { return kScalarKernel; }

const FilterKernel* SimdFilterKernel() {
#if defined(SEGDB_SIMD_X86)
  static const FilterKernel* kernel =
      __builtin_cpu_supports("avx2") ? &kAvx2Kernel : nullptr;
  return kernel;
#else
  return nullptr;
#endif
}

const FilterKernel& ActiveFilterKernel() {
  static const FilterKernel& kernel =
      SimdFilterKernel() != nullptr ? *SimdFilterKernel()
                                    : ScalarFilterKernel();
  return kernel;
}

ResultBuffer& GetThreadFilterScratch() {
  thread_local ResultBuffer buffer;
  return buffer;
}

}  // namespace segdb::geom
