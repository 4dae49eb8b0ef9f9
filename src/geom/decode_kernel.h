// Bit-unpack kernels for frame-of-reference encoded coordinate columns.
//
// A packed column stores `count` unsigned offsets of `width` bits each,
// little-endian, bit-contiguous: lane i occupies bits [i*width, (i+1)*width)
// of the buffer. Decoding adds the column's reference value back, producing
// the int64 lane array the filter kernels in geom/filter_kernel.h consume.
// The io layer (io/column_codec.h) owns the on-page format — headers, slot
// offsets, fallback tags; this file is the pure compute underneath it, so
// the layering DAG stays util <- geom <- io.
//
// Extraction contract. UnpackLaneBits reads one unaligned uint64 at byte
// (i*width)>>3 and shifts by (i*width)&7 — valid for width <= kMaxUnpackWidth
// (56), because shift + width <= 7 + 56 <= 63. The load may touch up to 7
// bytes past the lane's last data byte; callers must guarantee those bytes
// are readable (in-page packed regions reserve worst-case slot space, so the
// tail of any column lands inside the region — see io/column_codec.h).
//
// Dispatch mirrors geom/filter_kernel.cc: a portable scalar core everywhere,
// and an explicit AVX2 gather+variable-shift path compiled into every
// x86-64 GCC or Clang build (per-function target attribute, no global
// -mavx2) and selected once at run time via __builtin_cpu_supports.
#ifndef SEGDB_GEOM_DECODE_KERNEL_H_
#define SEGDB_GEOM_DECODE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace segdb::geom {

// Widest column the single-uint64 extraction handles; wider columns must be
// stored as raw 8-byte lanes.
inline constexpr uint32_t kMaxUnpackWidth = 56;

// Extracts lane i of a packed column (width in [1, kMaxUnpackWidth]). May
// read up to 7 bytes past the lane's data; see the contract above.
inline uint64_t UnpackLaneBits(const uint8_t* packed, uint32_t i,
                               uint32_t width) {
  const uint64_t bit = uint64_t{i} * width;
  uint64_t word;
  std::memcpy(&word, packed + (bit >> 3), sizeof(word));
  word >>= (bit & 7);
  return word & ((uint64_t{1} << width) - 1);
}

// Writes lane i of a packed column via read-modify-write of one unaligned
// uint64 (same addressing as UnpackLaneBits, same tail-slack contract).
// Target bits must currently be zero — packers zero the buffer first.
inline void PackLaneBits(uint8_t* packed, uint32_t i, uint32_t width,
                         uint64_t value) {
  const uint64_t bit = uint64_t{i} * width;
  uint64_t word;
  std::memcpy(&word, packed + (bit >> 3), sizeof(word));
  word |= value << (bit & 7);
  std::memcpy(packed + (bit >> 3), &word, sizeof(word));
}

// Unpacks `count` lanes of `width` bits and adds `ref` to each (wrapping
// two's-complement add, so any frame-of-reference offset round-trips).
// width == 0 broadcasts ref. Requires width <= kMaxUnpackWidth.
using UnpackAddFn = void (*)(const uint8_t* packed, uint32_t count,
                             uint32_t width, int64_t ref, int64_t* out);

// Portable core; always available.
UnpackAddFn ScalarUnpackAdd();

// Explicit AVX2 gather path, or nullptr off x86-64 or when the host CPU
// lacks AVX2 (checked once at first call).
UnpackAddFn SimdUnpackAdd();

// SIMD when available, scalar otherwise. Resolved once.
UnpackAddFn ActiveUnpackAdd();

// Checked-out decode scratch: a recycled int64 lane buffer from a
// thread-local free list, so steady-state scans of packed pages allocate
// nothing. RAII — the buffer returns to the calling thread's pool on
// destruction. Nested live checkouts (a view constructed while another is
// decoded) each hold distinct buffers.
class ColumnScratch {
 public:
  ColumnScratch() = default;
  // Checks out a buffer and grows it to at least `lanes` int64 slots.
  explicit ColumnScratch(size_t lanes);
  ColumnScratch(const ColumnScratch&) = delete;
  ColumnScratch& operator=(const ColumnScratch&) = delete;
  ColumnScratch(ColumnScratch&& other) noexcept : buf_(other.buf_) {
    other.buf_ = nullptr;
  }
  ColumnScratch& operator=(ColumnScratch&& other) noexcept;
  ~ColumnScratch();

  bool empty() const { return buf_ == nullptr; }
  int64_t* data();
  const int64_t* data() const;

 private:
  // Opaque pool node (defined in decode_kernel.cc).
  void* buf_ = nullptr;
};

}  // namespace segdb::geom

#endif  // SEGDB_GEOM_DECODE_KERNEL_H_
