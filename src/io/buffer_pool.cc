#include "io/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace segdb::io {

namespace {

// One shard per 64 frames, at most 16: a 1,024-frame pool gets 16 shards,
// and every pool under 128 frames keeps one. A query's cold misses fit in
// one shard's frames, so cold-cache counts do not depend on the split.
constexpr size_t kMaxShards = 16;
constexpr size_t kMinFramesPerShard = 64;

size_t PickShardCount(size_t frame_count) {
  const size_t by_size = frame_count / kMinFramesPerShard;
  return std::max<size_t>(1, std::min(kMaxShards, by_size));
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
  // The pin's release-store in Unpin orders this (and any raw page writes)
  // before a future evictor's acquire-load of the pin count.
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
  SEGDB_DCHECK(frame_count > 0);
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
    util::MutexLock lock(&shard.mu);
    ResetFrames(shard);
  }
  SEGDB_DCHECK(next == frame_count);
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  // Reference first: after the release-decrement the frame may be evicted
  // and reused, and this pin must not touch it again.
  f.referenced.store(true, std::memory_order_relaxed);
  const int prev = f.pin_count.fetch_sub(1, std::memory_order_release);
  SEGDB_DCHECK(prev > 0);
}

void BufferPool::Claim(Frame& f, PageId id) {
  f.id = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.referenced.store(false, std::memory_order_relaxed);
  f.prefetched = false;
  f.staging = true;
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
  f.id = kInvalidPageId;
  f.pin_count.store(0, std::memory_order_relaxed);
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
    // CLOCK sweep from the hand: an unpinned frame with its reference bit
    // set gets a second chance (the bit is cleared), the first one without
    // is the victim. Pins only grow under this shard's mutex, which we
    // hold, so a frame seen unpinned on the first turn is still unpinned —
    // and unreferenced — on the second: two turns find a victim unless
    // every frame was pinned (or claimed) when the hand passed it.
    const size_t n = shard.frames.size();
    for (size_t step = 0; step < 2 * n; ++step) {
      const size_t idx = shard.frames[shard.hand];
      shard.hand = shard.hand + 1 == n ? 0 : shard.hand + 1;
      Frame& f = frames_[idx];
      // Acquire pairs with the release-decrement in Unpin: a frame seen
      // unpinned here is fully released, including its page bytes, dirty
      // bit and reference bit.
      if (f.pin_count.load(std::memory_order_acquire) != 0) continue;
      if (f.referenced.exchange(false, std::memory_order_relaxed)) continue;
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
      shard.page_table.erase(f.id);
      f.id = kInvalidPageId;
      f.dirty.store(false, std::memory_order_relaxed);
      f.prefetched = false;
      return victim;
    }
    SEGDB_RETURN_IF_ERROR(disk_->WritePage(f.id, f.page));
    ++shard.stats.writebacks;
  }
  shard.page_table.erase(f.id);
  f.id = kInvalidPageId;
  f.dirty.store(false, std::memory_order_relaxed);
  f.prefetched = false;
  return victim;
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  size_t claimed;
  {
    util::MutexLock lock(&shard.mu);
    ++shard.stats.fetches;
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      Frame& f = frames_[it->second];
      if (f.prefetched) {
        // First demand fetch of a staged page: charge the miss the paper's
        // model counts for this page, without a second physical read.
        f.prefetched = false;
        ++shard.stats.misses;
      } else {
        ++shard.stats.hits;
      }
      Pin(f);
      return PageRef(this, it->second, id);
    }
    ++shard.stats.misses;
    Result<size_t> frame = GrabFrame(shard);
    if (!frame.ok()) return frame.status();
    claimed = frame.value();
    Frame& f = frames_[claimed];
    if (sink_ != nullptr && sink_->TakeSpilled(id, &f.page)) {
      // A spilled dirty page rejoins the pool. The miss above stays charged
      // — without the sink these bytes would have been written back on
      // eviction and demand-read here, so cold I/O counts are
      // sink-invariant. The frame is dirty: the device copy is stale until
      // commit writeback.
      f.id = id;
      f.dirty.store(true, std::memory_order_relaxed);
      ListDirty(shard, claimed);
      Pin(f);
      shard.page_table.emplace(id, claimed);
      return PageRef(this, claimed, id);
    }
    Claim(f, id);
  }
  // Fill with no lock held. The claim's pin keeps the hand away, and the
  // frame is in no page table, so no other thread reads or writes its bytes.
  const Status read = disk_->ReadPage(id, &frames_[claimed].page);
  util::MutexLock lock(&shard.mu);
  if (!read.ok()) {
    // Failed demand read: the claimed frame goes back to the free list with
    // no page-table entry, so a retry of the same Fetch starts from a clean
    // slate. The miss stays counted — the device was asked.
    FreeFrame(shard, claimed);
    return read;
  }
  auto [it, inserted] = shard.page_table.try_emplace(id, claimed);
  if (!inserted) {
    // Another thread installed the page while we read it: release the
    // claim and pin its frame. Our read stays charged, as it was a device
    // read; a staged frame's first-demand miss is the one we just charged.
    FreeFrame(shard, claimed);
    Frame& winner = frames_[it->second];
    winner.prefetched = false;
    Pin(winner);
    return PageRef(this, it->second, id);
  }
  Frame& f = frames_[claimed];
  f.staging = false;
  f.referenced.store(true, std::memory_order_relaxed);
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
  f.page.Zero();
  f.id = id.value();
  f.dirty.store(true, std::memory_order_relaxed);
  ListDirty(shard, frame.value());
  Pin(f);
  shard.page_table[id.value()] = frame.value();
  return PageRef(this, frame.value(), id.value());
}

Status BufferPool::FreePage(PageId id) {
  Shard& shard = ShardFor(id);
  {
    util::MutexLock lock(&shard.mu);
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      const size_t frame = it->second;
      if (frames_[frame].pin_count.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("FreePage: page is pinned");
      }
      shard.page_table.erase(it);
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
    if (shard.page_table.find(id) != shard.page_table.end()) continue;
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
  // the hand takes it first if no demand fetch comes for it.
  for (size_t i = 0; i < claims.size(); ++i) {
    const Staged& c = claims[i];
    Shard& shard = ShardFor(c.id);
    util::MutexLock lock(&shard.mu);
    if (!fills[i].status.ok() ||
        !shard.page_table.try_emplace(c.id, c.frame).second) {
      FreeFrame(shard, c.frame);
      continue;
    }
    Frame& f = frames_[c.frame];
    f.staging = false;
    f.prefetched = true;
    f.pin_count.store(0, std::memory_order_relaxed);
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
      f.pin_count.fetch_add(1, std::memory_order_relaxed);
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
      f.pin_count.fetch_sub(1, std::memory_order_release);
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
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("EvictAll: page is pinned");
      }
      if (f.dirty.load(std::memory_order_relaxed)) {
        SEGDB_RETURN_IF_ERROR(disk_->WritePage(f.id, f.page));
        ++shard.stats.writebacks;
      }
      shard.page_table.erase(f.id);
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
    total.fetches += shard.stats.fetches;
    total.hits += shard.stats.hits;
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
    // the thread-safety analysis rightly rejected the previous lock-free
    // walk: an audit concurrent with a Fetch storm on another shard is
    // legal and must not tear this shard's map.
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
      if (f.pin_count.load(std::memory_order_relaxed) < 0) {
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
        if (f.pin_count.load(std::memory_order_relaxed) != 0) {
          return Status::Corruption("empty frame still pinned");
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
        // Prefetch): holds exactly the claimer's pin, is not yet mapped (so
        // not resident), and its page bytes are undefined until the fill
        // completes.
        if (f.pin_count.load(std::memory_order_relaxed) != 1) {
          return Status::Corruption(
              "staging frame must hold exactly the claimer's pin");
        }
        if (f.prefetched) {
          return Status::Corruption("staging frame already marked staged");
        }
        auto claimed = shard.page_table.find(f.id);
        if (claimed != shard.page_table.end() && claimed->second == idx) {
          return Status::Corruption("staging frame is in the page table");
        }
        continue;
      }
      ++resident;
      if (f.id % shards_.size() != s) {
        return Status::Corruption("page resident in the wrong shard");
      }
      auto it = shard.page_table.find(f.id);
      if (it == shard.page_table.end() || it->second != idx) {
        return Status::Corruption("resident frame missing from the page table");
      }
      if (f.prefetched &&
          f.pin_count.load(std::memory_order_relaxed) != 0) {
        return Status::Corruption("staged (prefetched) frame is pinned");
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
    }
    if (free_count != shard.free_frames.size()) {
      return Status::Corruption("free list names a frame of another shard");
    }
    if (dirty_listed != shard.dirty_frames.size()) {
      return Status::Corruption("dirty list names a frame of another shard");
    }
    table_total += shard.page_table.size();
    for (const auto& [id, idx] : shard.page_table) {
      if (idx >= frames_.size() || frames_[idx].id != id) {
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
