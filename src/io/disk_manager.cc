#include "io/disk_manager.h"

#include <cstring>

namespace segdb::io {

void DiskManager::PeekPagesBatch(std::span<PageFill> fills) {
  for (PageFill& fill : fills) {
    fill.status = PeekPage(fill.id, fill.out);
  }
}

Status DiskManager::WritePages(std::span<PageWrite> writes) {
  Status first;
  for (PageWrite& write : writes) {
    if (!first.ok()) {
      write.status = Status::FailedPrecondition(
          "WritePages: not attempted after an earlier page failed");
      continue;
    }
    write.status = WritePage(write.id, *write.page);
    if (!write.status.ok()) first = write.status;
  }
  return first;
}

DiskStats DiskManager::stats() const {
  DiskStats s;
  s.reads = counters_.reads.load(std::memory_order_relaxed);
  s.writes = counters_.writes.load(std::memory_order_relaxed);
  s.allocations = counters_.allocations.load(std::memory_order_relaxed);
  s.frees = counters_.frees.load(std::memory_order_relaxed);
  s.prefetch_hints =
      counters_.prefetch_hints.load(std::memory_order_relaxed);
  s.syncs = counters_.syncs.load(std::memory_order_relaxed);
  return s;
}

Status DiskManager::Sync() {
  counters_.syncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void DiskManager::ResetStats() {
  counters_.reads.store(0, std::memory_order_relaxed);
  counters_.writes.store(0, std::memory_order_relaxed);
  counters_.allocations.store(0, std::memory_order_relaxed);
  counters_.frees.store(0, std::memory_order_relaxed);
  counters_.prefetch_hints.store(0, std::memory_order_relaxed);
  counters_.syncs.store(0, std::memory_order_relaxed);
}

SimDiskManager::SimDiskManager(uint32_t page_size_bytes)
    : DiskManager(page_size_bytes),
      chunk_table_(std::make_unique<std::atomic<Chunk*>[]>(kMaxChunks)) {}

SimDiskManager::~SimDiskManager() {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    delete chunk_table_[i].load(std::memory_order_relaxed);
  }
}

SimDiskManager::Slot& SimDiskManager::SlotRef(PageId id) const {
  Chunk* chunk = chunk_table_[id >> kChunkShift].load(
      std::memory_order_acquire);
  return (*chunk)[id & (kChunkPages - 1)];
}

bool SimDiskManager::IsLive(PageId id) const {
  if (id >= extent_.load(std::memory_order_acquire)) return false;
  return SlotRef(id).live.load(std::memory_order_acquire);
}

Result<PageId> SimDiskManager::AllocatePage() {
  util::MutexLock lock(&mu_);
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    Slot& slot = SlotRef(id);
    std::memset(slot.bytes.get(), 0, page_size());
    // Release: a reader that observes live==true sees the zeroed bytes.
    slot.live.store(true, std::memory_order_release);
  } else {
    const uint64_t next = extent_.load(std::memory_order_relaxed);
    if (next >= kMaxChunks * kChunkPages || next >= kInvalidPageId) {
      return Status::ResourceExhausted("disk page-id space exhausted");
    }
    id = static_cast<PageId>(next);
    const size_t chunk_index = id >> kChunkShift;
    Chunk* chunk =
        chunk_table_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunk_table_[chunk_index].store(chunk, std::memory_order_release);
    }
    Slot& slot = (*chunk)[id & (kChunkPages - 1)];
    slot.bytes = std::make_unique<uint8_t[]>(page_size());
    slot.live.store(true, std::memory_order_release);
    // Publish the new bound last: the read path bounds-checks against
    // extent_ before touching the slot or its chunk.
    extent_.store(next + 1, std::memory_order_release);
  }
  counters_.allocations.fetch_add(1, std::memory_order_relaxed);
  const uint64_t in_use =
      pages_in_use_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (in_use > high_water_.load(std::memory_order_relaxed)) {
    high_water_.store(in_use, std::memory_order_relaxed);
  }
  return id;
}

Status SimDiskManager::FreePage(PageId id) {
  util::MutexLock lock(&mu_);
  if (!IsLive(id)) {
    return Status::InvalidArgument("FreePage: page not allocated");
  }
  SlotRef(id).live.store(false, std::memory_order_release);
  free_list_.push_back(id);
  counters_.frees.fetch_add(1, std::memory_order_relaxed);
  pages_in_use_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SimDiskManager::ReadPage(PageId id, Page* out) {
  if (!IsLive(id)) {
    return Status::InvalidArgument("ReadPage: page not allocated");
  }
  if (out->size() != page_size()) {
    return Status::InvalidArgument("ReadPage: page buffer size mismatch");
  }
  std::memcpy(out->data(), SlotRef(id).bytes.get(), page_size());
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SimDiskManager::PeekPage(PageId id, Page* out) const {
  if (!IsLive(id)) {
    return Status::InvalidArgument("PeekPage: page not allocated");
  }
  if (out->size() != page_size()) {
    return Status::InvalidArgument("PeekPage: page buffer size mismatch");
  }
  std::memcpy(out->data(), SlotRef(id).bytes.get(), page_size());
  return Status::OK();
}

Status SimDiskManager::WritePage(PageId id, const Page& page) {
  if (!IsLive(id)) {
    return Status::InvalidArgument("WritePage: page not allocated");
  }
  if (page.size() != page_size()) {
    return Status::InvalidArgument("WritePage: page buffer size mismatch");
  }
  std::memcpy(SlotRef(id).bytes.get(), page.data(), page_size());
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SimDiskManager::WritePagePrefix(PageId id, const Page& page,
                                       uint32_t prefix_bytes) {
  if (!IsLive(id)) {
    return Status::InvalidArgument("WritePagePrefix: page not allocated");
  }
  if (page.size() != page_size()) {
    return Status::InvalidArgument(
        "WritePagePrefix: page buffer size mismatch");
  }
  if (prefix_bytes == 0 || prefix_bytes >= page_size()) {
    return Status::InvalidArgument(
        "WritePagePrefix: prefix must be a non-empty strict prefix");
  }
  std::memcpy(SlotRef(id).bytes.get(), page.data(), prefix_bytes);
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<PageId> SimDiskManager::LivePages() const {
  std::vector<PageId> out;
  out.reserve(pages_in_use());
  const uint64_t extent = extent_.load(std::memory_order_acquire);
  for (uint64_t id = 0; id < extent; ++id) {
    if (IsLive(static_cast<PageId>(id))) {
      out.push_back(static_cast<PageId>(id));
    }
  }
  return out;
}

void SimDiskManager::PrefetchPages(std::span<const PageId> ids) {
  uint64_t hinted = 0;
  for (PageId id : ids) {
    if (IsLive(id)) ++hinted;
  }
  if (hinted != 0) {
    counters_.prefetch_hints.fetch_add(hinted, std::memory_order_relaxed);
  }
}

}  // namespace segdb::io
