#include "io/file_disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "util/check.h"

namespace segdb::io {

namespace {

// Superblock, serialized little-endian into the first page:
//   [0]  magic "SEGDBFS1"
//   [8]  page_size (u32), format version (u32)
//   [16] max_pages, [24] frontier, [32] pages_in_use, [40] high_water
constexpr uint64_t kMagic = 0x3153464244474553ULL;  // "SEGDBFS1"
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kDirectAlign = 4096;

void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::string ErrnoMsg(const char* what, int err) {
  std::string msg = what;
  msg += ": ";
  msg += std::strerror(err);
  return msg;
}

uint64_t RoundUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// An O_DIRECT-aligned block buffer; null when the allocation fails.
using AlignedBlock = std::unique_ptr<uint8_t[], void (*)(void*)>;
AlignedBlock NewAlignedBlock(uint32_t size) {
  return AlignedBlock(
      static_cast<uint8_t*>(std::aligned_alloc(kDirectAlign, size)),
      &std::free);
}

}  // namespace

FileDiskManager::FileDiskManager(uint32_t page_size,
                                 const FileDiskManagerOptions& options)
    : DiskManager(page_size),
      options_(options),
      bounce_(NewAlignedBlock(page_size)) {
  SEGDB_CHECK(bounce_ != nullptr) << "bounce buffer allocation";
}

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::Open(
    const std::string& path, const FileDiskManagerOptions& options) {
  if (options.page_size == 0 || options.page_size % kDirectAlign != 0) {
    return Status::InvalidArgument(
        "FileDiskManager page_size must be a positive multiple of 4096");
  }
  if (options.max_pages == 0 || options.max_pages >= kInvalidPageId) {
    return Status::InvalidArgument(
        "FileDiskManager max_pages must be in [1, kInvalidPageId)");
  }
  using Direct = FileDiskManagerOptions::Direct;
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  bool direct = options.direct != Direct::kOff;
  int fd = -1;
  if (direct) {
    fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    if (fd < 0 && options.direct == Direct::kAuto &&
        (errno == EINVAL || errno == EOPNOTSUPP)) {
      // Filesystem without O_DIRECT (tmpfs): fall back to buffered I/O.
      direct = false;
      fd = ::open(path.c_str(), flags, 0644);
    }
  } else {
    fd = ::open(path.c_str(), flags, 0644);
  }
  if (fd < 0) {
    return Status::IoError(ErrnoMsg("open", errno));
  }

  auto dm = std::unique_ptr<FileDiskManager>(
      new FileDiskManager(options.page_size, options));
  dm->direct_ = direct;
  struct stat st;
  Status init;
  {
    util::MutexLock lock(&dm->mu_);
    dm->fd_ = fd;
    if (::fstat(fd, &st) != 0) {
      init = Status::IoError(ErrnoMsg("fstat", errno));
    } else if (st.st_size == 0) {
      init = dm->InitCreate();
    } else {
      init = dm->InitExisting(static_cast<uint64_t>(st.st_size));
    }
  }
  // A failed Open closes the fd without persisting anything: the file it
  // refused keeps its size and bytes.
  if (!init.ok()) {
    dm->CloseFile(/*persist=*/false).IgnoreError();
    return init;
  }
  Result<std::unique_ptr<AsyncIoEngine>> engine =
      CreateAsyncIoEngine(fd, options.engine);
  if (!engine.ok()) {
    dm->CloseFile(/*persist=*/false).IgnoreError();
    return engine.status();
  }
  dm->engine_ = std::move(engine.value());
  dm->scheduler_ = std::make_unique<IoScheduler>(
      dm->engine_.get(), dm->page_size(), dm->data_offset_,
      options.max_merge_pages);
  return {std::move(dm)};
}

Status FileDiskManager::InitCreate() {
  bitmap_bytes_ = RoundUp((options_.max_pages + 7) / 8, page_size());
  data_offset_ = page_size() + bitmap_bytes_;
  max_pages_ = options_.max_pages;
  live_ = std::make_unique<std::atomic<uint64_t>[]>((max_pages_ + 63) / 64);
  unwritten_ =
      std::make_unique<std::atomic<uint64_t>[]>((max_pages_ + 63) / 64);
  frontier_ = 0;
  pages_in_use_count_ = 0;
  high_water_ = 0;
  // ftruncate zero-fills the metadata region; data pages are grown (and
  // hole-backed, reading as zeros) as the frontier advances.
  SEGDB_RETURN_IF_ERROR(GrowTo(data_offset_));
  return WriteMeta();
}

Status FileDiskManager::InitExisting(uint64_t file_size) {
  if (file_size < page_size()) {
    return Status::Corruption("file too small for a superblock");
  }
  file_size_ = file_size;
  // The superblock lives in the first page; bitmap geometry follows from
  // the stored capacity, not from this open's options.
  SEGDB_RETURN_IF_ERROR(ReadBlock(0, bounce_.get()));
  const uint8_t* sb = bounce_.get();
  if (GetU64(sb) != kMagic) {
    return Status::Corruption("bad superblock magic (not a segdb file?)");
  }
  uint32_t stored_page_size = GetU32(sb + 8);
  if (stored_page_size != page_size()) {
    return Status::InvalidArgument(
        "page_size mismatch: file has " + std::to_string(stored_page_size) +
        ", open requested " + std::to_string(page_size()));
  }
  if (GetU32(sb + 12) != kFormatVersion) {
    return Status::Corruption("unsupported file format version");
  }
  uint64_t max_pages = GetU64(sb + 16);
  frontier_ = GetU64(sb + 24);
  pages_in_use_count_ = GetU64(sb + 32);
  high_water_ = GetU64(sb + 40);
  if (max_pages == 0 || max_pages >= kInvalidPageId ||
      frontier_ > max_pages) {
    return Status::Corruption("implausible superblock geometry");
  }
  bitmap_bytes_ = RoundUp((max_pages + 7) / 8, page_size());
  data_offset_ = page_size() + bitmap_bytes_;
  if (file_size < data_offset_) {
    return Status::Corruption("file truncated inside the bitmap region");
  }
  max_pages_ = max_pages;
  live_ = std::make_unique<std::atomic<uint64_t>[]>((max_pages_ + 63) / 64);
  unwritten_ =
      std::make_unique<std::atomic<uint64_t>[]>((max_pages_ + 63) / 64);
  free_list_.clear();
  uint64_t live_count = 0;
  for (uint64_t off = 0; off < bitmap_bytes_; off += page_size()) {
    SEGDB_RETURN_IF_ERROR(ReadBlock(page_size() + off, bounce_.get()));
    uint64_t base_bit = off * 8;
    uint64_t bits = std::min<uint64_t>(uint64_t{page_size()} * 8,
                                       max_pages - base_bit);
    if (base_bit >= max_pages) break;
    for (uint64_t b = 0; b < bits; ++b) {
      if (bounce_[b / 8] & (1u << (b % 8))) {
        SetLive(static_cast<PageId>(base_bit + b), true);
        ++live_count;
      }
    }
  }
  if (live_count != pages_in_use_count_) {
    return Status::Corruption("bitmap disagrees with superblock use count");
  }
  // Dead pages below the frontier are reusable. Reverse order so the
  // free list pops lowest-id-first, matching SimDiskManager's LIFO reuse
  // of the most recently freed page closely enough for tests that only
  // assert reuse, not order.
  for (uint64_t id = frontier_; id-- > 0;) {
    if (!IsLive(static_cast<PageId>(id))) {
      free_list_.push_back(static_cast<PageId>(id));
    }
  }
  return Status::OK();
}

Status FileDiskManager::ZeroUnwritten() {
  std::memset(bounce_.get(), 0, page_size());
  for (uint64_t word = 0; word < (max_pages_ + 63) / 64; ++word) {
    uint64_t bits = unwritten_[word].load(std::memory_order_relaxed);
    while (bits != 0) {
      const auto id = static_cast<PageId>(word * 64 + __builtin_ctzll(bits));
      bits &= bits - 1;
      SEGDB_RETURN_IF_ERROR(WriteBlock(PageOffset(id), bounce_.get()));
      SetUnwritten(id, false);
    }
  }
  return Status::OK();
}

Status FileDiskManager::WriteMeta() {
  SEGDB_RETURN_IF_ERROR(ZeroUnwritten());
  std::memset(bounce_.get(), 0, page_size());
  uint8_t* sb = bounce_.get();
  PutU64(sb, kMagic);
  PutU32(sb + 8, page_size());
  PutU32(sb + 12, kFormatVersion);
  PutU64(sb + 16, max_pages_);
  PutU64(sb + 24, frontier_);
  PutU64(sb + 32, pages_in_use_count_);
  PutU64(sb + 40, high_water_);
  SEGDB_RETURN_IF_ERROR(WriteBlock(0, bounce_.get()));
  for (uint64_t off = 0; off < bitmap_bytes_; off += page_size()) {
    std::memset(bounce_.get(), 0, page_size());
    uint64_t base_bit = off * 8;
    if (base_bit < max_pages_) {
      uint64_t bits = std::min<uint64_t>(uint64_t{page_size()} * 8,
                                         max_pages_ - base_bit);
      for (uint64_t b = 0; b < bits; ++b) {
        if (IsLive(static_cast<PageId>(base_bit + b))) {
          bounce_[b / 8] |= (1u << (b % 8));
        }
      }
    }
    SEGDB_RETURN_IF_ERROR(WriteBlock(page_size() + off, bounce_.get()));
  }
  return Status::OK();
}

Status FileDiskManager::Close() { return CloseFile(/*persist=*/true); }

Status FileDiskManager::CloseFile(bool persist) {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) return Status::OK();
  Status meta = persist ? WriteMeta() : Status::OK();
  scheduler_.reset();
  engine_.reset();  // before the fd they operate on goes away
  if (::close(fd_) != 0 && meta.ok()) {
    meta = Status::IoError(ErrnoMsg("close", errno));
  }
  fd_ = -1;
  return meta;
}

FileDiskManager::~FileDiskManager() { Close().IgnoreError(); }

Status FileDiskManager::Flush() {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) return Status::FailedPrecondition("Flush on a closed file");
  return WriteMeta();
}

Status FileDiskManager::Sync() {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) return Status::FailedPrecondition("Sync on a closed file");
  // fdatasync suffices: page writes never change the file length (GrowTo
  // ftruncates ahead of the data), so the inode metadata a full fsync
  // would also flush carries nothing recovery depends on.
  if (::fdatasync(fd_) != 0) {
    return Status::IoError(ErrnoMsg("fdatasync", errno));
  }
  counters_.syncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool FileDiskManager::IsLive(PageId id) const {
  return id < max_pages_ &&
         ((live_[id / 64].load(std::memory_order_acquire) >> (id % 64)) & 1);
}

void FileDiskManager::SetLive(PageId id, bool live) {
  // Release: a reader that sees the bit set also sees the unwritten mark
  // and the file growth that AllocatePage made before setting it.
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (live) {
    live_[id / 64].fetch_or(bit, std::memory_order_release);
  } else {
    live_[id / 64].fetch_and(~bit, std::memory_order_release);
  }
}

bool FileDiskManager::IsUnwritten(PageId id) const {
  return (unwritten_[id / 64].load(std::memory_order_acquire) >> (id % 64)) &
         1;
}

void FileDiskManager::SetUnwritten(PageId id, bool unwritten) {
  const uint64_t bit = uint64_t{1} << (id % 64);
  if (unwritten) {
    unwritten_[id / 64].fetch_or(bit, std::memory_order_release);
  } else {
    unwritten_[id / 64].fetch_and(~bit, std::memory_order_release);
  }
}

Status FileDiskManager::ReadBlock(uint64_t offset, uint8_t* dst) const {
  return ReadFullAt(fd_, dst, page_size(), offset);
}

Status FileDiskManager::WriteBlock(uint64_t offset, const uint8_t* src) {
  return WriteFullAt(fd_, src, page_size(), offset);
}

Status FileDiskManager::GrowTo(uint64_t file_size) {
  if (file_size <= file_size_) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(file_size)) != 0) {
    return Status::IoError(ErrnoMsg("ftruncate", errno));
  }
  file_size_ = file_size;
  return Status::OK();
}

Result<PageId> FileDiskManager::AllocatePage() {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) return Status::FailedPrecondition("device is closed");
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    // The page holds stale bytes on the device; the allocation contract
    // is a zeroed page, so the reads return zeros until its first write.
    // Marked before the live bit publishes the page.
    SetUnwritten(id, true);
  } else if (frontier_ < max_pages_) {
    id = static_cast<PageId>(frontier_);
    SEGDB_RETURN_IF_ERROR(GrowTo(PageOffset(id) + page_size()));
    ++frontier_;
  } else {
    return Status::ResourceExhausted("file device capacity exhausted");
  }
  SetLive(id, true);
  counters_.allocations.fetch_add(1, std::memory_order_relaxed);
  ++pages_in_use_count_;
  if (pages_in_use_count_ > high_water_) high_water_ = pages_in_use_count_;
  return id;
}

Status FileDiskManager::FreePage(PageId id) {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) return Status::FailedPrecondition("device is closed");
  if (!IsLive(id)) {
    return Status::InvalidArgument("FreePage: page not allocated");
  }
  SetLive(id, false);
  SetUnwritten(id, false);
  free_list_.push_back(id);
  counters_.frees.fetch_add(1, std::memory_order_relaxed);
  --pages_in_use_count_;
  return Status::OK();
}

Status FileDiskManager::ReadPage(PageId id, Page* out) {
  SEGDB_RETURN_IF_ERROR(PeekPage(id, out));
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileDiskManager::PeekPage(PageId id, Page* out) const {
  const int fd = fd_;
  if (fd < 0) return Status::FailedPrecondition("device is closed");
  if (!IsLive(id)) {
    return Status::InvalidArgument("PeekPage: page not allocated");
  }
  if (out->size() != page_size()) {
    return Status::InvalidArgument("PeekPage: page buffer size mismatch");
  }
  if (IsUnwritten(id)) {
    out->Zero();
    return Status::OK();
  }
  if (!direct_) {
    return ReadFullAt(fd, out->data(), page_size(), PageOffset(id));
  }
  // O_DIRECT needs an aligned destination; the buffer belongs to this call,
  // so concurrent reads share nothing.
  AlignedBlock block = NewAlignedBlock(page_size());
  if (block == nullptr) {
    return Status::ResourceExhausted("PeekPage: aligned buffer allocation");
  }
  SEGDB_RETURN_IF_ERROR(ReadFullAt(fd, block.get(), page_size(),
                                   PageOffset(id)));
  std::memcpy(out->data(), block.get(), page_size());
  return Status::OK();
}

Status FileDiskManager::WritePage(PageId id, const Page& page) {
  PageWrite write{id, &page, Status::OK()};
  return WritePages(std::span<PageWrite>(&write, 1));
}

Status FileDiskManager::WritePages(std::span<PageWrite> writes) {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) {
    for (PageWrite& write : writes) {
      write.status = Status::FailedPrecondition("device is closed");
    }
    return writes.empty() ? Status::OK() : writes[0].status;
  }
  std::vector<PageWriteRequest> requests;
  std::vector<size_t> request_write;
  requests.reserve(writes.size());
  request_write.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    PageWrite& write = writes[i];
    if (!IsLive(write.id)) {
      write.status = Status::InvalidArgument("WritePage: page not allocated");
    } else if (write.page->size() != page_size()) {
      write.status =
          Status::InvalidArgument("WritePage: page buffer size mismatch");
    } else {
      requests.push_back(
          PageWriteRequest{write.id, write.page->data(), Status::OK()});
      request_write.push_back(i);
    }
  }
  if (requests.size() == 1) {
    // One page has nothing to overlap, and a blocking transfer beats an
    // engine round trip: submit, wait, and on a page-cache file a hand-off
    // to a kernel worker (a bulk load's one-at-a-time dirty evictions ran
    // about 1.5x slower through the engine).
    PageWriteRequest& r = requests[0];
    std::memcpy(bounce_.get(), r.src, page_size());
    r.status = WriteBlock(PageOffset(r.id), bounce_.get());
  } else if (!requests.empty()) {
    // Submission-level failures surface through the per-request statuses
    // the scheduler sets; nothing extra to do with the return here.
    scheduler_->WritePages(requests).IgnoreError();
  }
  uint64_t landed = 0;
  for (size_t j = 0; j < requests.size(); ++j) {
    if (requests[j].status.ok()) {
      SetUnwritten(requests[j].id, false);
      ++landed;
    }
    writes[request_write[j]].status = std::move(requests[j].status);
  }
  counters_.writes.fetch_add(landed, std::memory_order_relaxed);
  for (const PageWrite& write : writes) {
    if (!write.status.ok()) return write.status;
  }
  return Status::OK();
}

Status FileDiskManager::WritePagePrefix(PageId id, const Page& page,
                                        uint32_t prefix_bytes) {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) return Status::FailedPrecondition("device is closed");
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
  // O_DIRECT can only transfer whole aligned blocks, so the torn write is
  // read-modify-write: old page in (zeros for an unwritten one), prefix
  // over it, whole block out. The device-visible result is identical to a
  // genuinely truncated write.
  if (IsUnwritten(id)) {
    std::memset(bounce_.get(), 0, page_size());
  } else {
    SEGDB_RETURN_IF_ERROR(ReadBlock(PageOffset(id), bounce_.get()));
  }
  std::memcpy(bounce_.get(), page.data(), prefix_bytes);
  SEGDB_RETURN_IF_ERROR(WriteBlock(PageOffset(id), bounce_.get()));
  SetUnwritten(id, false);
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void FileDiskManager::PeekPagesBatch(std::span<PageFill> fills) {
  util::MutexLock lock(&mu_);
  if (fd_ < 0) {
    for (PageFill& fill : fills) {
      fill.status = Status::FailedPrecondition("device is closed");
    }
    return;
  }
  std::vector<PageReadRequest> requests;
  std::vector<size_t> request_fill;
  requests.reserve(fills.size());
  request_fill.reserve(fills.size());
  for (size_t i = 0; i < fills.size(); ++i) {
    PageFill& fill = fills[i];
    if (!IsLive(fill.id)) {
      fill.status = Status::InvalidArgument("PeekPage: page not allocated");
    } else if (fill.out->size() != page_size()) {
      fill.status =
          Status::InvalidArgument("PeekPage: page buffer size mismatch");
    } else if (IsUnwritten(fill.id)) {
      fill.out->Zero();
      fill.status = Status::OK();
    } else {
      requests.push_back(PageReadRequest{fill.id, fill.out->data(),
                                         Status::OK()});
      request_fill.push_back(i);
    }
  }
  if (requests.empty()) return;
  // Submission-level failures surface through the per-request statuses the
  // scheduler sets; nothing extra to do with the return here.
  scheduler_->ReadPages(requests).IgnoreError();
  for (size_t j = 0; j < requests.size(); ++j) {
    fills[request_fill[j]].status = std::move(requests[j].status);
  }
}

void FileDiskManager::PrefetchPages(std::span<const PageId> ids) {
  uint64_t hinted = 0;
  for (PageId id : ids) {
    if (IsLive(id)) ++hinted;
  }
  if (hinted != 0) {
    counters_.prefetch_hints.fetch_add(hinted, std::memory_order_relaxed);
  }
}

uint64_t FileDiskManager::pages_in_use() const {
  util::MutexLock lock(&mu_);
  return pages_in_use_count_;
}

uint64_t FileDiskManager::high_water_pages() const {
  util::MutexLock lock(&mu_);
  return high_water_;
}

IoSchedulerStats FileDiskManager::scheduler_stats() const {
  util::MutexLock lock(&mu_);
  return scheduler_ ? scheduler_->stats() : IoSchedulerStats{};
}

void FileDiskManager::ResetSchedulerStats() {
  util::MutexLock lock(&mu_);
  if (scheduler_) scheduler_->ResetStats();
}

}  // namespace segdb::io
