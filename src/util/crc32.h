// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum the
// write-ahead log stamps on every page header and record payload. Header-only
// with constexpr-generated tables so the WAL TU pays no init-order cost; the
// incremental form (seed = previous crc) lets callers checksum scattered
// buffers without concatenating them.
//
// Slice-by-8: eight 256-entry tables fold eight input bytes per step, where
// table k advances a byte's contribution by k further zero bytes. The
// bytewise loop over table 0 finishes the last n % 8 bytes. Loads are
// assembled byte by byte, so the result does not depend on the host's
// endianness or on the buffer's alignment.
#ifndef SEGDB_UTIL_CRC32_H_
#define SEGDB_UTIL_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace segdb::util {

namespace internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace internal

// Checksums `n` bytes. Chain calls by passing the previous return value as
// `seed` (the pre/post-conditioning composes correctly across calls):
//   Crc32(b, nb, Crc32(a, na)) == Crc32(concat(a, b), na + nb).
inline uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0) {
  const auto& t = internal::kCrc32Tables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = internal::LoadLe32(p) ^ c;
    const uint32_t hi = internal::LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

}  // namespace segdb::util

#endif  // SEGDB_UTIL_CRC32_H_
