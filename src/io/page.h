// A disk page: a raw byte buffer of the DiskManager's configured size.
// Index structures lay out typed records inside pages with the ReadAt /
// WriteAt helpers (memcpy-based, so layouts stay trivially serializable).
//
// Decode slot. A page also carries one pointer to a slot, allocated on
// first use, that caches the decoded lanes of one columnar region of its
// bytes (io/columnar_page_view.h fills and reads it), so every reader of a
// resident page shares one decode. The slot's state word is empty, filling
// or ready. A reader that finds it empty may win a CAS to filling, decode
// into the slot's lane buffer and publish it ready with a release store; a
// reader that loses that race, or finds another region cached, decodes
// privately, so no reader ever waits. The lane buffer is allocated on the
// first fill, grows when a later region needs more lanes, and lives as long
// as the Page: a buffer pool frame keeps it across residencies.
//
// Every non-const access drops the slot back to empty: data(), WriteAt,
// WriteArray, Zero and both assignments. So any write of the bytes — a
// device read into a frame, a spill refill, recovery, an index writer —
// also invalidates the lanes, and a copied or moved-to Page starts with no
// decode. The drop is a plain store: it must run under the page's single-
// writer contract (no reader holds the page), or on a buffer-pool frame
// taken at zero pins, and a reader must never call a non-const accessor on
// a shared page.
#ifndef SEGDB_IO_PAGE_H_
#define SEGDB_IO_PAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace segdb::io {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

class Page {
 public:
  explicit Page(uint32_t size_bytes) : data_(size_bytes) {}

  // Copies and moves take the bytes, never the source's decode.
  Page(const Page& other) : data_(other.data_) {}
  Page(Page&& other) noexcept : data_(std::move(other.data_)) {}
  Page& operator=(const Page& other) {
    if (this != &other) {
      data_ = other.data_;
      DropDecoded();
    }
    return *this;
  }
  Page& operator=(Page&& other) noexcept {
    if (this != &other) {
      data_ = std::move(other.data_);
      DropDecoded();
    }
    return *this;
  }
  ~Page() { delete slot_.load(std::memory_order_relaxed); }

  uint32_t size() const { return static_cast<uint32_t>(data_.size()); }
  uint8_t* data() {
    DropDecoded();
    return data_.data();
  }
  const uint8_t* data() const { return data_.data(); }

  void Zero() {
    DropDecoded();
    std::memset(data_.data(), 0, data_.size());
  }

  // Reads a trivially-copyable T stored at byte offset `off`.
  // Bounds checks are evaluated in uint64_t: `off + sizeof(T) * count` in
  // the operand types could wrap before the compare (uint32_t count, and
  // size_t is only guaranteed 32 bits) and accept an out-of-page access.
  template <typename T>
  T ReadAt(uint32_t off) const {
    static_assert(std::is_trivially_copyable_v<T>);
    SEGDB_DCHECK(uint64_t{off} + sizeof(T) <= data_.size());
    T value;
    std::memcpy(&value, data_.data() + off, sizeof(T));
    return value;
  }

  // Writes a trivially-copyable T at byte offset `off`.
  template <typename T>
  void WriteAt(uint32_t off, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    SEGDB_DCHECK(uint64_t{off} + sizeof(T) <= data_.size());
    DropDecoded();
    std::memcpy(data_.data() + off, &value, sizeof(T));
  }

  // Reads `count` consecutive T records starting at byte offset `off`.
  // count == 0 is legal even with out == nullptr (an empty vector's data()).
  template <typename T>
  void ReadArray(uint32_t off, T* out, uint32_t count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    SEGDB_DCHECK(uint64_t{off} + sizeof(T) * uint64_t{count} <=
                 data_.size());
    if (count == 0) return;
    std::memcpy(out, data_.data() + off, sizeof(T) * count);
  }

  // Writes `count` consecutive T records starting at byte offset `off`.
  // count == 0 is legal even with values == nullptr.
  template <typename T>
  void WriteArray(uint32_t off, const T* values, uint32_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    SEGDB_DCHECK(uint64_t{off} + sizeof(T) * uint64_t{count} <=
                 data_.size());
    DropDecoded();
    if (count == 0) return;
    std::memcpy(data_.data() + off, values, sizeof(T) * count);
  }

  // The ready decode: region offset, capacity and lanes, or lanes ==
  // nullptr when the slot is empty or being filled.
  struct DecodedRegion {
    uint32_t off = 0;
    uint32_t capacity = 0;
    const int64_t* lanes = nullptr;
  };
  DecodedRegion decoded() const {
    const DecodeSlot* slot = slot_.load(std::memory_order_acquire);
    if (slot == nullptr ||
        slot->state.load(std::memory_order_acquire) != kReady) {
      return {};
    }
    return DecodedRegion{slot->off, slot->capacity, slot->lanes.get()};
  }

  // The shared decode of the region (off, capacity), `lane_count` int64
  // lanes: the slot's ready lanes if they hold that region, else, if this
  // reader wins the empty slot, the lanes `decode(int64_t* out)` writes
  // into its buffer, published ready. nullptr when another region is
  // cached or another reader is filling: the caller decodes privately.
  template <typename Decode>
  const int64_t* SharedDecode(uint32_t off, uint32_t capacity,
                              size_t lane_count, Decode&& decode) const {
    DecodeSlot* slot = Slot();
    uint32_t state = slot->state.load(std::memory_order_acquire);
    if (state == kReady) {
      return slot->off == off && slot->capacity == capacity
                 ? slot->lanes.get()
                 : nullptr;
    }
    if (state != kEmpty ||
        !slot->state.compare_exchange_strong(state, kFilling,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
      return nullptr;
    }
    if (slot->room < lane_count) {
      slot->lanes = std::make_unique<int64_t[]>(lane_count);
      slot->room = lane_count;
    }
    decode(slot->lanes.get());
    slot->off = off;
    slot->capacity = capacity;
    slot->state.store(kReady, std::memory_order_release);
    return slot->lanes.get();
  }

 private:
  // Tests only: makes a ready decode stale without a drop.
  friend class PagePeer;

  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kFilling = 1;
  static constexpr uint32_t kReady = 2;

  struct DecodeSlot {
    std::atomic<uint32_t> state{kEmpty};
    // The ready region; written by the filler before its release store.
    uint32_t off = 0;
    uint32_t capacity = 0;
    size_t room = 0;  // lanes the buffer holds
    std::unique_ptr<int64_t[]> lanes;
  };

  // The slot, allocated by the first reader that needs it; a reader that
  // loses the install race frees its own and takes the winner's.
  DecodeSlot* Slot() const {
    DecodeSlot* slot = slot_.load(std::memory_order_acquire);
    if (slot != nullptr) return slot;
    auto fresh = std::make_unique<DecodeSlot>();
    if (slot_.compare_exchange_strong(slot, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return fresh.release();
    }
    return slot;
  }

  void DropDecoded() {
    DecodeSlot* slot = slot_.load(std::memory_order_relaxed);
    if (slot != nullptr) slot->state.store(kEmpty, std::memory_order_relaxed);
  }

  std::vector<uint8_t> data_;
  mutable std::atomic<DecodeSlot*> slot_{nullptr};
};

}  // namespace segdb::io

#endif  // SEGDB_IO_PAGE_H_
