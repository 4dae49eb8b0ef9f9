#include "io/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "geom/decode_kernel.h"
#include "io/column_codec.h"
#include "util/check.h"

namespace segdb::io {

namespace {

// One shard per 64 frames, at most 16: a 1,024-frame pool gets 16 shards,
// and every pool under 128 frames keeps one. A query's cold misses fit in
// one shard's frames, so cold-cache counts do not depend on the split.
constexpr size_t kMaxShards = 16;
constexpr size_t kMinFramesPerShard = 64;

// A lock-free pin retries its CAS this often while other pins and unpins
// of the frame keep changing the count, then takes the locked path.
constexpr int kPinAttempts = 8;

size_t PickShardCount(size_t frame_count) {
  const size_t by_size = frame_count / kMinFramesPerShard;
  return std::max<size_t>(1, std::min(kMaxShards, by_size));
}

// The high half of a frame's pin word and of a page-table word: id + 1, so
// that 0 means "no page" (kInvalidPageId + 1 wraps to 0).
uint64_t Tag(PageId id) {
  return uint64_t{static_cast<uint32_t>(id + 1)} << 32;
}
constexpr uint64_t kLowHalf = 0xffffffffULL;
uint32_t Pins(uint64_t word) { return static_cast<uint32_t>(word); }

// Fibonacci hashing: the top bits of id * 2^64/phi pick the home slot.
size_t HomeSlot(PageId id, int shift) {
  return static_cast<size_t>((uint64_t{id} * 0x9e3779b97f4a7c15ULL) >> shift);
}

// Whether a page's ready decode equals its bytes decoded afresh. A write
// that skipped the slot's drop may have left anything at the region, so
// the header is checked first and the region is decoded from a padded
// copy: a malformed region reads as a mismatch, never out of bounds.
bool DecodeMatchesBytes(const Page& page, const Page::DecodedRegion& d) {
  const uint64_t bytes = ColumnarRegionBytes(d.capacity);
  if (d.capacity == 0 || uint64_t{d.off} + bytes > page.size()) return false;
  // The padding covers the unpack kernels' 8-byte loads past a lane.
  std::vector<uint8_t> region(bytes + 8);
  std::memcpy(region.data(), page.data() + d.off, bytes);
  uint16_t stored = 0;
  std::memcpy(&stored, region.data(), sizeof(stored));
  if (stored != 0 && stored != d.capacity) return false;
  const PackedRegionInfo info =
      ParsePackedRegionHeader(region.data(), d.capacity);
  for (uint32_t c = 0; c < kColumnarColumns; ++c) {
    const uint32_t width = info.width[c];
    bool known = false;
    switch (static_cast<ColumnTag>(info.tag[c])) {
      case ColumnTag::kConst:
        known = width == 0;
        break;
      case ColumnTag::kFor:
        known = width >= 1 && width <= geom::kMaxUnpackWidth;
        break;
      case ColumnTag::kRaw64:
        known = width == 64;
        break;
    }
    if (!known || info.slot_off[c] + (uint64_t{width} * d.capacity + 7) / 8 >
                      bytes) {
      return false;
    }
  }
  std::vector<int64_t> fresh(uint64_t{kColumnarColumns} * d.capacity);
  DecodeColumnarRegion(region.data(), d.capacity, fresh.data());
  return std::memcmp(fresh.data(), d.lanes,
                     fresh.size() * sizeof(int64_t)) == 0;
}

}  // namespace

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }
  return *this;
}

Page& PageRef::page() {
  SEGDB_DCHECK(valid());
  return pool_->frames_[frame_].page;
}

const Page& PageRef::page() const {
  SEGDB_DCHECK(valid());
  return pool_->frames_[frame_].page;
}

void PageRef::MarkDirty() {
  SEGDB_DCHECK(valid());
  // The unpin's release-decrement orders this (and any raw page writes)
  // before a future evictor's acquire of the pin word.
  if (pool_->frames_[frame_].dirty.exchange(true, std::memory_order_relaxed)) {
    return;  // already dirty, so already listed
  }
  // The clean->dirty edge: list the frame for the commit path. The pin
  // keeps the frame on this page, so the page id names its shard.
  BufferPool::Shard& shard = pool_->ShardFor(page_id_);
  util::MutexLock lock(&shard.mu);
  pool_->ListDirty(shard, frame_);
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t frame_count,
                       BufferPoolOptions /*options*/)
    : disk_(disk), page_size_(disk->page_size()) {
  SEGDB_DCHECK(frame_count > 0 && frame_count < kLowHalf);
  for (size_t i = 0; i < frame_count; ++i) {
    frames_.emplace_back(page_size_);
  }
  shards_ = std::vector<Shard>(PickShardCount(frame_count));
  // Contiguous frame ranges per shard; the remainder goes to the front
  // shards so every shard's capacity differs by at most one frame.
  const size_t per = frame_count / shards_.size();
  const size_t extra = frame_count % shards_.size();
  size_t next = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const size_t take = per + (s < extra ? 1 : 0);
    shard.frames.reserve(take);
    for (size_t i = 0; i < take; ++i) shard.frames.push_back(next++);
    const size_t slots = std::bit_ceil(2 * take);
    shard.table = std::make_unique<std::atomic<uint64_t>[]>(slots);
    shard.table_mask = slots - 1;
    shard.table_shift = 64 - std::countr_zero(slots);
    util::MutexLock lock(&shard.mu);
    ResetFrames(shard);
  }
  SEGDB_DCHECK(next == frame_count);
}

size_t BufferPool::Lookup(const Shard& shard, PageId id) const {
  const uint64_t tag = Tag(id);
  size_t slot = HomeSlot(id, shard.table_shift);
  for (size_t step = 0; step <= shard.table_mask; ++step) {
    const uint64_t word = shard.table[slot].load(std::memory_order_relaxed);
    if (word == 0) break;
    if ((word & ~kLowHalf) == tag) return static_cast<size_t>(word & kLowHalf);
    slot = (slot + 1) & shard.table_mask;
  }
  return kNoFrame;
}

void BufferPool::MapPage(Shard& shard, PageId id, size_t frame) {
  SEGDB_DCHECK(Lookup(shard, id) == kNoFrame);
  size_t slot = HomeSlot(id, shard.table_shift);
  // The table is at most half full, so the run ends well inside one lap.
  for (size_t step = 0; step <= shard.table_mask; ++step) {
    if (shard.table[slot].load(std::memory_order_relaxed) == 0) break;
    slot = (slot + 1) & shard.table_mask;
  }
  shard.table[slot].store(Tag(id) | frame, std::memory_order_relaxed);
}

void BufferPool::UnmapPage(Shard& shard, PageId id) {
  const uint64_t tag = Tag(id);
  const size_t mask = shard.table_mask;
  size_t hole = HomeSlot(id, shard.table_shift);
  for (size_t step = 0; step <= mask; ++step) {
    if ((shard.table[hole].load(std::memory_order_relaxed) & ~kLowHalf) ==
        tag) {
      break;
    }
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: every later entry of the run whose home is at
  // or before the hole moves into it, so each entry stays reachable from
  // its home with no empty slot between. A probe racing the shift may miss
  // the entry being moved; that is a false miss, which the locked path
  // absorbs.
  size_t next = hole;
  for (size_t step = 0; step < mask; ++step) {
    next = (next + 1) & mask;
    const uint64_t word = shard.table[next].load(std::memory_order_relaxed);
    if (word == 0) break;
    const size_t home =
        HomeSlot(static_cast<PageId>((word >> 32) - 1), shard.table_shift);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      shard.table[hole].store(word, std::memory_order_relaxed);
      hole = next;
    }
  }
  shard.table[hole].store(0, std::memory_order_relaxed);
}

bool BufferPool::TryPin(Frame& f, PageId id) {
  const uint64_t tag = Tag(id);
  uint64_t word = f.pin_word.load(std::memory_order_relaxed);
  for (int attempt = 0; attempt < kPinAttempts; ++attempt) {
    if ((word & ~kLowHalf) != tag) return false;
    // Acquire pairs with the install's release (the page bytes) and with
    // earlier unpins' releases (writes made through their pins).
    if (f.pin_word.compare_exchange_weak(word, word + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      f.referenced.store(true, std::memory_order_relaxed);
      f.hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void BufferPool::PinMapped(Shard& /*shard*/, Frame& f) {
  uint64_t add = 1;
  if (f.prefetched) {
    f.prefetched = false;
    add += Tag(f.id);
  }
  f.pin_word.fetch_add(add, std::memory_order_acquire);
  f.referenced.store(true, std::memory_order_relaxed);
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  // Reference first: after the release-decrement the frame may be evicted
  // and reused, and this pin must not touch it again.
  f.referenced.store(true, std::memory_order_relaxed);
  const uint64_t prev = f.pin_word.fetch_sub(1, std::memory_order_release);
  SEGDB_DCHECK(Pins(prev) > 0);
}

bool BufferPool::TakeFrame(Frame& f) {
  uint64_t word = f.pin_word.load(std::memory_order_relaxed);
  if (Pins(word) != 0) return false;
  // Only a pin can change the word now (its page changes under the shard
  // mutex, which the caller holds), so a failed CAS means a pin won. The
  // acquire pairs with the last unpin's release: the taker sees every
  // write made through the frame's former pins.
  return f.pin_word.compare_exchange_strong(word, 0, std::memory_order_acquire,
                                            std::memory_order_relaxed);
}

void BufferPool::Claim(Frame& f, PageId id) {
  f.id = id;
  // The claimer adds its own pin: the pin word only ever changes by
  // read-modify-writes.
  const uint64_t prev = f.pin_word.fetch_add(1, std::memory_order_relaxed);
  SEGDB_DCHECK(prev == 0);
  f.dirty.store(false, std::memory_order_relaxed);
  f.referenced.store(false, std::memory_order_relaxed);
  f.prefetched = false;
  f.staging = true;
}

void BufferPool::Install(Shard& shard, size_t frame) {
  Frame& f = frames_[frame];
  f.staging = false;
  f.referenced.store(true, std::memory_order_relaxed);
  // Release: a lock-free hit that pins the frame sees its bytes.
  const uint64_t prev =
      f.pin_word.fetch_add(Tag(f.id), std::memory_order_release);
  SEGDB_DCHECK(prev == 1);
  MapPage(shard, f.id, frame);
}

void BufferPool::ReleaseClaim(Shard& shard, size_t frame) {
  const uint64_t prev =
      frames_[frame].pin_word.fetch_sub(1, std::memory_order_relaxed);
  SEGDB_DCHECK(prev == 1);
  FreeFrame(shard, frame);
}

bool BufferPool::Claimed(const Shard& shard, PageId id) const {
  for (size_t idx : shard.frames) {
    const Frame& f = frames_[idx];
    if (f.staging && f.id == id) return true;
  }
  return false;
}

void BufferPool::FreeFrame(Shard& shard, size_t frame) {
  Frame& f = frames_[frame];
  SEGDB_DCHECK(f.pin_word.load(std::memory_order_relaxed) == 0);
  f.id = kInvalidPageId;
  f.dirty.store(false, std::memory_order_relaxed);
  f.prefetched = false;
  f.staging = false;
  shard.free_frames.push_back(frame);
}

void BufferPool::ResetFrames(Shard& shard) {
  shard.free_frames.assign(shard.frames.rbegin(), shard.frames.rend());
  shard.hand = 0;
  for (size_t idx : shard.dirty_frames) frames_[idx].listed = false;
  shard.dirty_frames.clear();
}

void BufferPool::ListDirty(Shard& shard, size_t frame) {
  Frame& f = frames_[frame];
  if (f.listed) return;
  f.listed = true;
  shard.dirty_frames.push_back(frame);
}

Result<size_t> BufferPool::GrabFrame(Shard& shard) {
  size_t victim = frames_.size();
  while (victim == frames_.size()) {
    if (!shard.free_frames.empty()) {
      const size_t idx = shard.free_frames.back();
      shard.free_frames.pop_back();
      return idx;
    }
    // CLOCK sweep from the hand: on the first turn an unpinned frame with
    // its reference bit set gets a second chance (the bit is cleared), and
    // the first one without is the victim; on the second turn the first
    // unpinned frame is. Lock-free hits may pin or re-reference a frame
    // between the turns, and a frame is taken only by a CAS from zero pins,
    // so two turns find a victim unless every frame was pinned (or
    // claimed) when the second turn passed it. A serial run never pins
    // during a sweep, so there the second turn meets only cleared bits and
    // the order is plain CLOCK's.
    const size_t n = shard.frames.size();
    for (size_t step = 0; step < 2 * n; ++step) {
      const size_t idx = shard.frames[shard.hand];
      shard.hand = shard.hand + 1 == n ? 0 : shard.hand + 1;
      Frame& f = frames_[idx];
      if (Pins(f.pin_word.load(std::memory_order_relaxed)) != 0) continue;
      if (step < n && f.referenced.exchange(false, std::memory_order_relaxed)) {
        continue;
      }
      if (!TakeFrame(f)) continue;  // a lock-free hit pinned it first
      victim = idx;
      break;
    }
    if (victim != frames_.size()) break;
    if (!shard.flushing) {
      return Status::ResourceExhausted("buffer pool: all frames pinned");
    }
    // Some pins are FlushAll's, and its batch releases them when it lands.
    shard.flushed.Wait(shard.mu);
  }
  Frame& f = frames_[victim];
  SEGDB_DCHECK(f.id != kInvalidPageId && !f.staging);
  if (f.dirty.load(std::memory_order_relaxed)) {
    if (sink_ != nullptr) {
      // NO-STEAL: an uncommitted dirty page never reaches the device. The
      // sink keeps the bytes in RAM until commit-time writeback (a crash
      // before then correctly discards them).
      sink_->CaptureEviction(f.id, f.page);
      ++shard.stats.spills;
    } else {
      // The frame is unreadable while its bytes go out, so no lock-free
      // hit pins it and no writer changes it meanwhile.
      const Status written = disk_->WritePage(f.id, f.page);
      if (!written.ok()) {
        // Still resident and dirty: readable again (a dirty frame is never
        // a staged one).
        f.pin_word.fetch_add(Tag(f.id), std::memory_order_release);
        return written;
      }
      ++shard.stats.writebacks;
    }
  }
  UnmapPage(shard, f.id);
  f.id = kInvalidPageId;
  f.dirty.store(false, std::memory_order_relaxed);
  f.prefetched = false;
  return victim;
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  // The hit path: probe the table and pin the frame, with no lock.
  const size_t probed = Lookup(shard, id);
  if (probed != kNoFrame && TryPin(frames_[probed], id)) {
    return PageRef(this, probed, id);
  }
  size_t claimed;
  {
    util::MutexLock lock(&shard.mu);
    ++shard.stats.fetches;
    const size_t mapped = Lookup(shard, id);
    if (mapped != kNoFrame) {
      Frame& f = frames_[mapped];
      // First demand fetch of a staged page: charge the miss the paper's
      // model counts for this page, without a second physical read. Any
      // other frame here is a hit whose lock-free pin lost a race.
      if (f.prefetched) {
        ++shard.stats.misses;
      } else {
        ++shard.stats.hits;
      }
      PinMapped(shard, f);
      return PageRef(this, mapped, id);
    }
    ++shard.stats.misses;
    Result<size_t> frame = GrabFrame(shard);
    if (!frame.ok()) return frame.status();
    claimed = frame.value();
    Frame& f = frames_[claimed];
    Claim(f, id);
    if (sink_ != nullptr && sink_->TakeSpilled(id, &f.page)) {
      // A spilled dirty page rejoins the pool. The miss above stays charged
      // — without the sink these bytes would have been written back on
      // eviction and demand-read here, so cold I/O counts are
      // sink-invariant. The frame is dirty: the device copy is stale until
      // commit writeback.
      f.dirty.store(true, std::memory_order_relaxed);
      ListDirty(shard, claimed);
      Install(shard, claimed);
      return PageRef(this, claimed, id);
    }
  }
  // Fill with no lock held. The claim's pin keeps the hand away, and the
  // frame is unreadable and in no page table, so no other thread reads or
  // writes its bytes.
  const Status read = disk_->ReadPage(id, &frames_[claimed].page);
  util::MutexLock lock(&shard.mu);
  if (!read.ok()) {
    // Failed demand read: the claimed frame goes back to the free list with
    // no page-table entry, so a retry of the same Fetch starts from a clean
    // slate. The miss stays counted — the device was asked.
    ReleaseClaim(shard, claimed);
    return read;
  }
  const size_t winner = Lookup(shard, id);
  if (winner != kNoFrame) {
    // Another thread installed the page while we read it: release the
    // claim and pin its frame. Our read stays charged, as it was a device
    // read; a staged frame's first-demand miss is the one we just charged.
    ReleaseClaim(shard, claimed);
    PinMapped(shard, frames_[winner]);
    return PageRef(this, winner, id);
  }
  Install(shard, claimed);
  return PageRef(this, claimed, id);
}

Result<PageRef> BufferPool::NewPage() {
  Result<PageId> id = disk_->AllocatePage();
  if (!id.ok()) return id.status();
  Shard& shard = ShardFor(id.value());
  util::MutexLock lock(&shard.mu);
  Result<size_t> frame = GrabFrame(shard);
  if (!frame.ok()) {
    // Return the just-allocated disk page or it leaks: the id is in no
    // page table and no caller ever learns it. FreePage is a reliable
    // metadata op (never fault-injected), but free of a page we no longer
    // track is best-effort by nature.
    disk_->FreePage(id.value()).IgnoreError();
    return frame.status();
  }
  Frame& f = frames_[frame.value()];
  Claim(f, id.value());
  f.page.Zero();
  f.dirty.store(true, std::memory_order_relaxed);
  ListDirty(shard, frame.value());
  Install(shard, frame.value());
  return PageRef(this, frame.value(), id.value());
}

Status BufferPool::FreePage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    util::MutexLock lock(&shard.mu);
    const size_t frame = Lookup(shard, id);
    if (frame != kNoFrame) {
      if (!TakeFrame(frames_[frame])) {
        return Status::FailedPrecondition("FreePage: page is pinned");
      }
      UnmapPage(shard, id);
      FreeFrame(shard, frame);
    }
  }
  if (sink_ != nullptr) {
    // Defer the device-level free to the commit that owns this mutation:
    // until it is applied, the device still counts the page as live, so the
    // free list stays a function of committed state only (the recovery
    // bit-identity argument leans on this).
    sink_->DeferFree(id);
    return Status::OK();
  }
  return disk_->FreePage(id);
}

void BufferPool::Prefetch(std::span<const PageId> ids) {
  disk_->PrefetchPages(ids);

  // Phase 1 — claim a free frame per stageable page, under its shard's
  // lock. A claimed frame carries the page id and the stager's pin but no
  // page-table entry, so demand fetches neither see it nor evict it; the
  // `staging` flag tells the audit what state it is in.
  struct Staged {
    PageId id;
    size_t frame;
  };
  std::vector<Staged> claims;
  claims.reserve(ids.size());
  for (PageId id : ids) {
    if (id == kInvalidPageId) continue;
    Shard& shard = ShardFor(id);
    util::MutexLock lock(&shard.mu);
    // Free frames only: read-ahead must never displace demand-resident
    // pages, or it would perturb the measured hit/miss pattern.
    if (shard.free_frames.empty()) continue;
    if (Lookup(shard, id) != kNoFrame) continue;
    // Spilled pages must not be staged either: the device bytes are stale
    // (the fresh bytes live in the sink until commit-time writeback).
    if (sink_ != nullptr && sink_->Contains(id)) continue;
    // A page already being filled — earlier in this batch, by another
    // stager or by a demand miss — is not read twice.
    if (Claimed(shard, id)) continue;
    const size_t frame = shard.free_frames.back();
    shard.free_frames.pop_back();
    Claim(frames_[frame], id);
    claims.push_back(Staged{id, frame});
  }
  if (claims.empty()) return;

  // Phase 2 — one uncounted bulk read for the whole batch, outside every
  // shard lock. The file backend turns this span into deduped, merged,
  // queue-depth-bounded async submissions; the sim backend memcpys. Either
  // way no demand read is charged — each page's miss lands at its first
  // Fetch, which keeps cold I/O counts bit-identical across backends.
  std::vector<PageFill> fills;
  fills.reserve(claims.size());
  for (const Staged& c : claims) {
    fills.push_back(PageFill{c.id, &frames_[c.frame].page, Status::OK()});
  }
  disk_->PeekPagesBatch(fills);

  // Phase 3 — install or release, re-locking each shard. On a failed read
  // (e.g. an injected fault) the frame goes back to FREE — unmapped,
  // unpinned, clean — so the stage is a no-op and the partial bytes are
  // unreachable; the fault-injection suite pins this down. A page that
  // became resident meanwhile (demand fetch raced the fill) also releases
  // the claim: the table entry wins. A staged page enters unreferenced, so
  // the hand takes it first if no demand fetch comes for it, and
  // unreadable, so its first fetch takes the locked path that charges the
  // miss.
  for (size_t i = 0; i < claims.size(); ++i) {
    const Staged& c = claims[i];
    Shard& shard = ShardFor(c.id);
    util::MutexLock lock(&shard.mu);
    if (!fills[i].status.ok() || Lookup(shard, c.id) != kNoFrame) {
      ReleaseClaim(shard, c.frame);
      continue;
    }
    Frame& f = frames_[c.frame];
    f.staging = false;
    f.prefetched = true;
    f.pin_word.fetch_sub(1, std::memory_order_release);
    MapPage(shard, c.id, c.frame);
    ++shard.stats.prefetches;
  }
}

Status BufferPool::FlushAll() {
  // Snapshot the dirty frames shard by shard, each list in frame order:
  // the device sees the writes in the order a walk over every frame would
  // issue them, which fault plans depend on. Each snapshotted frame takes
  // a pin, so while the batch reads its bytes with no shard lock held, a
  // concurrent miss neither evicts nor reuses it. The pin leaves the
  // reference bit alone: a flush does not change which frame the hand
  // takes next.
  std::vector<size_t> frames;
  std::vector<PageWrite> writes;
  std::vector<size_t> shard_end(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(&shard.mu);
    std::vector<size_t>& list = shard.dirty_frames;
    std::sort(list.begin(), list.end());
    const size_t first = writes.size();
    for (size_t idx : list) {
      Frame& f = frames_[idx];
      if (!f.dirty.load(std::memory_order_relaxed)) continue;  // stale
      f.pin_word.fetch_add(1, std::memory_order_acquire);
      frames.push_back(idx);
      writes.push_back(PageWrite{f.id, &f.page, Status::OK()});
    }
    shard_end[s] = writes.size();
    shard.flushing = writes.size() > first;
  }
  const Status status = disk_->WritePages(writes);
  size_t at = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(&shard.mu);
    for (; at < shard_end[s]; ++at) {
      // Pinned since the snapshot, the frame still holds writes[at].id,
      // and only this writer changes its bytes or dirty bit.
      Frame& f = frames_[frames[at]];
      if (writes[at].status.ok()) {
        f.dirty.store(false, std::memory_order_relaxed);
        ++shard.stats.writebacks;
      }
      f.pin_word.fetch_sub(1, std::memory_order_release);
    }
    if (shard.flushing) {
      shard.flushing = false;
      shard.flushed.NotifyAll();
    }
    // Stale and written entries leave the list; the frames a failed write
    // left dirty stay listed for the next flush.
    std::vector<size_t>& list = shard.dirty_frames;
    size_t keep = 0;
    for (size_t idx : list) {
      Frame& f = frames_[idx];
      if (f.dirty.load(std::memory_order_relaxed)) {
        list[keep++] = idx;
      } else {
        f.listed = false;
      }
    }
    list.resize(keep);
  }
  return status;
}

Status BufferPool::EvictAll() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (size_t idx : shard.frames) {
      Frame& f = frames_[idx];
      if (f.id == kInvalidPageId) continue;
      // A claim holds its own pin, so it is refused here too.
      if (!TakeFrame(f)) {
        return Status::FailedPrecondition("EvictAll: page is pinned");
      }
      if (f.dirty.load(std::memory_order_relaxed)) {
        const Status written = disk_->WritePage(f.id, f.page);
        if (!written.ok()) {
          f.pin_word.fetch_add(Tag(f.id), std::memory_order_release);
          return written;
        }
        ++shard.stats.writebacks;
      }
      UnmapPage(shard, f.id);
      FreeFrame(shard, idx);
    }
    // Every frame is free now: restore the fresh-pool order, so an emptied
    // pool fills its frames exactly like a new one.
    ResetFrames(shard);
  }
  return Status::OK();
}

void BufferPool::CollectDirty(std::vector<PageImage>* out) const {
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    for (size_t idx : shard.dirty_frames) {
      const Frame& f = frames_[idx];
      if (!f.dirty.load(std::memory_order_relaxed)) continue;  // stale
      PageImage image;
      image.id = f.id;
      image.bytes.assign(f.page.data(), f.page.data() + f.page.size());
      out->push_back(std::move(image));
    }
  }
  std::sort(out->begin(), out->end(),
            [](const PageImage& a, const PageImage& b) { return a.id < b.id; });
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    // A lock-free hit is one fetch and one hit, read once for both sums,
    // so hits + misses == fetches holds in every snapshot.
    uint64_t lock_free = 0;
    for (size_t idx : shard.frames) {
      lock_free += frames_[idx].hits.load(std::memory_order_relaxed);
    }
    total.fetches += shard.stats.fetches + lock_free;
    total.hits += shard.stats.hits + lock_free;
    total.misses += shard.stats.misses;
    total.writebacks += shard.stats.writebacks;
    total.prefetches += shard.stats.prefetches;
    total.spills += shard.stats.spills;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(&shard.mu);
    shard.stats = BufferPoolStats();
    for (size_t idx : shard.frames) {
      frames_[idx].hits.store(0, std::memory_order_relaxed);
    }
  }
}

Status BufferPool::CheckInvariants() const {
  std::vector<bool> owned(frames_.size(), false);
  std::vector<bool> listed(frames_.size(), false);
  std::vector<bool> on_dirty_list(frames_.size(), false);
  size_t resident = 0;
  size_t table_total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    // Hold the shard's mutex while auditing it. The audit is documented
    // quiescent-only (the frame-vs-disk byte compare can race with pinned
    // writers), but the page-table and stats reads are guarded state, and
    // an audit concurrent with a Fetch storm on another shard is legal. A
    // lock-free hit changes only a readable frame's pin count, reference
    // bit and hit count, which the audit does not pin down exactly.
    util::MutexLock lock(&shard.mu);
    if (shard.hand >= shard.frames.size()) {
      return Status::Corruption("CLOCK hand outside its shard");
    }
    for (size_t idx : shard.free_frames) {
      if (idx >= frames_.size() || listed[idx]) {
        return Status::Corruption("frame on no or several free-list slots");
      }
      listed[idx] = true;
    }
    for (size_t idx : shard.dirty_frames) {
      if (idx >= frames_.size() || on_dirty_list[idx]) {
        return Status::Corruption("frame on no or several dirty-list slots");
      }
      on_dirty_list[idx] = true;
    }
    size_t free_count = 0;
    size_t dirty_listed = 0;
    for (size_t idx : shard.frames) {
      if (idx >= frames_.size() || owned[idx]) {
        return Status::Corruption("frame owned by no or several shards");
      }
      owned[idx] = true;
      const Frame& f = frames_[idx];
      const uint64_t word = f.pin_word.load(std::memory_order_relaxed);
      const uint64_t tag = word & ~kLowHalf;
      // Far beyond any real pin count: an unpin without a pin.
      if (Pins(word) > kLowHalf / 2) {
        return Status::Corruption("frame with negative pin count");
      }
      if (f.listed != on_dirty_list[idx]) {
        return Status::Corruption("frame's listed bit disagrees with the list");
      }
      if (on_dirty_list[idx]) ++dirty_listed;
      if (f.dirty.load(std::memory_order_relaxed) && !on_dirty_list[idx]) {
        return Status::Corruption("dirty frame missing from the dirty list");
      }
      if (f.id == kInvalidPageId) {
        if (Pins(word) != 0) {
          return Status::Corruption("empty frame still pinned");
        }
        if (tag != 0) {
          return Status::Corruption("empty frame open to lock-free hits");
        }
        if (f.dirty.load(std::memory_order_relaxed)) {
          return Status::Corruption("empty frame marked dirty");
        }
        if (f.staging) {
          return Status::Corruption("staging frame with no page id");
        }
        if (!listed[idx]) {
          return Status::Corruption("empty frame missing from the free list");
        }
        ++free_count;
        continue;
      }
      if (listed[idx]) {
        return Status::Corruption("occupied frame on the free list");
      }
      if (f.staging) {
        // Claimed by an in-flight fill (a demand miss or a batched
        // Prefetch): holds exactly the claimer's pin, is unreadable and not
        // yet mapped (so not resident), and its page bytes are undefined
        // until the fill completes.
        if (word != 1) {
          return Status::Corruption(
              "staging frame must hold exactly the claimer's pin");
        }
        if (f.prefetched) {
          return Status::Corruption("staging frame already marked staged");
        }
        if (Lookup(shard, f.id) == idx) {
          return Status::Corruption("staging frame is in the page table");
        }
        continue;
      }
      ++resident;
      if (f.id % shards_.size() != s) {
        return Status::Corruption("page resident in the wrong shard");
      }
      if (Lookup(shard, f.id) != idx) {
        return Status::Corruption("resident frame missing from the page table");
      }
      if (f.prefetched) {
        // Staged and not yet demand-fetched: unpinned, and closed to
        // lock-free hits so that its first fetch charges the miss.
        if (word != 0) {
          return Status::Corruption("staged (prefetched) frame is pinned");
        }
      } else if (tag != Tag(f.id)) {
        return Status::Corruption(
            "resident frame's pin word names another page");
      }
      if (!f.dirty.load(std::memory_order_relaxed)) {
        // A clean frame must agree with disk byte-for-byte; a mismatch
        // means a write skipped MarkDirty and would be lost on eviction.
        Page on_disk(page_size_);
        SEGDB_RETURN_IF_ERROR(disk_->PeekPage(f.id, &on_disk));
        if (std::memcmp(f.page.data(), on_disk.data(), f.page.size()) != 0) {
          return Status::Corruption("clean frame diverges from disk contents");
        }
      }
      // A ready decode must be the frame's bytes decoded afresh; a mismatch
      // means a write skipped the slot's drop, and readers would be served
      // the old lanes.
      const Page::DecodedRegion decoded = f.page.decoded();
      if (decoded.lanes != nullptr && !DecodeMatchesBytes(f.page, decoded)) {
        return Status::Corruption("frame's decoded lanes diverge from its bytes");
      }
    }
    if (free_count != shard.free_frames.size()) {
      return Status::Corruption("free list names a frame of another shard");
    }
    if (dirty_listed != shard.dirty_frames.size()) {
      return Status::Corruption("dirty list names a frame of another shard");
    }
    // Every entry names the frame that holds its page; with the probe check
    // above (each resident frame found from its home) and the count below,
    // no page is mapped twice.
    for (size_t slot = 0; slot <= shard.table_mask; ++slot) {
      const uint64_t word = shard.table[slot].load(std::memory_order_relaxed);
      if (word == 0) continue;
      ++table_total;
      const PageId id = static_cast<PageId>((word >> 32) - 1);
      const size_t idx = static_cast<size_t>(word & kLowHalf);
      if (idx >= frames_.size() || frames_[idx].id != id ||
          frames_[idx].staging) {
        return Status::Corruption("page-table entry points at a wrong frame");
      }
      if (id % shards_.size() != s) {
        return Status::Corruption("page-table entry in the wrong shard");
      }
    }
  }
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!owned[i]) return Status::Corruption("frame owned by no shard");
  }
  if (table_total != resident) {
    return Status::Corruption("page table and resident frames disagree");
  }
  const BufferPoolStats s = stats();
  // A fetch resolves as exactly one of: frame hit or demand miss. (A
  // failed fetch keeps its miss: the device was asked.)
  if (s.hits + s.misses != s.fetches) {
    return Status::Corruption("fetch/hit/miss accounting mismatch");
  }
  return Status::OK();
}

}  // namespace segdb::io
