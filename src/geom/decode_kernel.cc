#include "geom/decode_kernel.h"

#include <memory>
#include <vector>

#include "util/check.h"

// Same platform rule as filter_kernel.cc: AVX2 on x86-64 under GCC or
// Clang, chosen at run time by __builtin_cpu_supports.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEGDB_SIMD_X86 1
#include <immintrin.h>
#endif

namespace segdb::geom {
namespace {

void UnpackAddScalar(const uint8_t* packed, uint32_t count, uint32_t width,
                     int64_t ref, int64_t* out) {
  if (width == 0) {
    for (uint32_t i = 0; i < count; ++i) out[i] = ref;
    return;
  }
  SEGDB_DCHECK(width <= kMaxUnpackWidth);
  for (uint32_t i = 0; i < count; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref) +
                                  UnpackLaneBits(packed, i, width));
  }
}

#ifdef SEGDB_SIMD_X86

#define SEGDB_AVX2 __attribute__((target("avx2")))

// Four lanes per step: gather the four unaligned uint64 words that contain
// each lane's bits (scale-1 gather on byte offsets), shift each by its
// sub-byte bit position, mask to `width`, add the reference. The gather
// reads obey the same 7-byte tail-slack contract as UnpackLaneBits.
SEGDB_AVX2 void UnpackAddAvx2(const uint8_t* packed, uint32_t count,
                              uint32_t width, int64_t ref, int64_t* out) {
  if (width == 0) {
    for (uint32_t i = 0; i < count; ++i) out[i] = ref;
    return;
  }
  SEGDB_DCHECK(width <= kMaxUnpackWidth);
  const __m256i vmask =
      _mm256_set1_epi64x(static_cast<long long>((uint64_t{1} << width) - 1));
  const __m256i vref = _mm256_set1_epi64x(ref);
  uint32_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const uint64_t b0 = uint64_t{i} * width;
    const uint64_t b1 = b0 + width;
    const uint64_t b2 = b1 + width;
    const uint64_t b3 = b2 + width;
    const __m256i byte_off =
        _mm256_set_epi64x(static_cast<long long>(b3 >> 3),
                          static_cast<long long>(b2 >> 3),
                          static_cast<long long>(b1 >> 3),
                          static_cast<long long>(b0 >> 3));
    const __m256i shift =
        _mm256_set_epi64x(static_cast<long long>(b3 & 7),
                          static_cast<long long>(b2 & 7),
                          static_cast<long long>(b1 & 7),
                          static_cast<long long>(b0 & 7));
    __m256i words = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(packed), byte_off, 1);
    words = _mm256_srlv_epi64(words, shift);
    words = _mm256_and_si256(words, vmask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(words, vref));
  }
  for (; i < count; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref) +
                                  UnpackLaneBits(packed, i, width));
  }
}

#endif  // SEGDB_SIMD_X86

// Per-thread free list of decode buffers. Buffers only ever grow, so a few
// hot capacities stabilize quickly and steady-state decodes allocate
// nothing. The list is bounded implicitly by the maximum simultaneous
// checkout depth (nested live views), which is small everywhere in the tree.
using ScratchBuf = std::vector<int64_t>;

// The pool owns parked buffers, so whatever is checked in when the thread
// exits is freed with the pool itself; only buffers still checked out at
// that point would escape, and views never outlive their calling frame.
std::vector<std::unique_ptr<ScratchBuf>>& ThreadScratchPool() {
  thread_local std::vector<std::unique_ptr<ScratchBuf>> pool;
  return pool;
}

ScratchBuf* CheckoutScratch(size_t lanes) {
  auto& pool = ThreadScratchPool();
  ScratchBuf* buf;
  if (!pool.empty()) {
    buf = pool.back().release();
    pool.pop_back();
  } else {
    buf = new ScratchBuf();
  }
  if (buf->size() < lanes) buf->resize(lanes);
  return buf;
}

void CheckinScratch(ScratchBuf* buf) {
  // A buffer returned on a different thread than it was checked out on
  // would need synchronization; every view in the tree is a function-local
  // object, so checkout and checkin share a thread by construction.
  ThreadScratchPool().emplace_back(buf);
}

}  // namespace

UnpackAddFn ScalarUnpackAdd() { return &UnpackAddScalar; }

UnpackAddFn SimdUnpackAdd() {
#ifdef SEGDB_SIMD_X86
  static UnpackAddFn fn =
      __builtin_cpu_supports("avx2") ? &UnpackAddAvx2 : nullptr;
  return fn;
#else
  return nullptr;
#endif
}

UnpackAddFn ActiveUnpackAdd() {
  static UnpackAddFn fn =
      SimdUnpackAdd() != nullptr ? SimdUnpackAdd() : ScalarUnpackAdd();
  return fn;
}

ColumnScratch::ColumnScratch(size_t lanes) : buf_(CheckoutScratch(lanes)) {}

ColumnScratch& ColumnScratch::operator=(ColumnScratch&& other) noexcept {
  if (this != &other) {
    if (buf_ != nullptr) CheckinScratch(static_cast<ScratchBuf*>(buf_));
    buf_ = other.buf_;
    other.buf_ = nullptr;
  }
  return *this;
}

ColumnScratch::~ColumnScratch() {
  if (buf_ != nullptr) CheckinScratch(static_cast<ScratchBuf*>(buf_));
}

int64_t* ColumnScratch::data() {
  SEGDB_DCHECK(buf_ != nullptr);
  return static_cast<ScratchBuf*>(buf_)->data();
}

const int64_t* ColumnScratch::data() const {
  SEGDB_DCHECK(buf_ != nullptr);
  return static_cast<const ScratchBuf*>(buf_)->data();
}

}  // namespace segdb::geom
