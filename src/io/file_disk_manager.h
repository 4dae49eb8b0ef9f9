// The real-file DiskManager backend: fixed-size pages in a single file,
// transferred with O_DIRECT where the filesystem allows it and batched
// through an AsyncIoEngine + IoScheduler. Counter semantics are identical
// to SimDiskManager — a ReadPage is one charged read, a WritePage or each
// page of a WritePages one counted write, PeekPage/PeekPagesBatch are
// uncounted, AllocatePage charges an allocation — so the golden cold-I/O
// tables pin both backends with the same numbers; only wall-clock differs.
//
// File layout (all regions page_size-aligned; page_size must be a
// multiple of 4 KiB, the O_DIRECT transfer granule):
//
//   [ superblock page | allocation bitmap | data pages ... ]
//
// The superblock records page_size, capacity (max_pages), the allocation
// frontier and the use/high-water counters; the bitmap marks live pages.
// Both are written back on Close()/Flush() — in-memory state is
// authoritative in between (crash consistency is out of scope; the fault
// story lives in FaultInjectingDiskManager, which composes *above* this
// backend).
//
// Allocation writes nothing. A page past the old frontier reads as zeros
// because the file grows with ftruncate and holes read back as zeros. A
// page reused from the free list still holds stale bytes on the medium, so
// AllocatePage marks it *unwritten* in a RAM bitmap beside the live one;
// every read path returns zeros for an unwritten page, and its first
// successful write (or its free) clears the mark. Close/Flush zero-fill
// the few pages still unwritten, so a reopened file reads them as zeros
// too.
//
// Writes go through the scheduler: WritePages is one batched submission
// (sorted, adjacent pages merged, waves of the engine's queue depth).
// WritePage is a batch of one, and a batch of one page is one blocking
// transfer, as a single read is: it has nothing to overlap. The metadata
// and the torn-write hook use single blocking transfers too.
//
// O_DIRECT is attempted by default and dropped automatically where the
// filesystem rejects it (tmpfs); kOn fails instead of degrading, kOff
// benchmarks the page-cached path.
//
// Concurrency: same contract as the abstract base — the read path is
// safe from any number of threads. ReadPage, PeekPage and PrefetchPages
// take no lock: liveness and the unwritten marks are bitmaps of atomic
// words that the writer paths flip under the mutex, the fd is fixed from
// Open to Close, and a read lands straight in the caller's page (under
// O_DIRECT, through an aligned buffer owned by the call). Allocation,
// free, file growth, writes, Sync, the metadata, and the engine and
// scheduler that one thread at a time may drive (PeekPagesBatch,
// WritePages) stay under the mutex. Close must not overlap any other call.
#ifndef SEGDB_IO_FILE_DISK_MANAGER_H_
#define SEGDB_IO_FILE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/async_io_engine.h"
#include "io/disk_manager.h"
#include "io/io_scheduler.h"
#include "io/page.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

struct FileDiskManagerOptions {
  // Device block size; must be a positive multiple of 4096.
  uint32_t page_size = 4096;
  // Capacity: the bitmap region is sized for this many pages at creation
  // and fixed for the life of the file.
  uint64_t max_pages = uint64_t{1} << 20;
  enum class Direct : uint8_t { kAuto, kOn, kOff };
  Direct direct = Direct::kAuto;
  AsyncIoEngineOptions engine;
  // Longest adjacent page run the scheduler fuses into one transfer.
  uint32_t max_merge_pages = 16;
};

class FileDiskManager final : public DiskManager {
 public:
  // Creates the file if absent, otherwise validates the superblock
  // (magic, matching page_size) and restores the allocation state.
  static Result<std::unique_ptr<FileDiskManager>> Open(
      const std::string& path, const FileDiskManagerOptions& options = {});

  // Persists superblock + bitmap and closes the fd. Idempotent; also run
  // by the destructor (which swallows the status).
  Status Close();
  ~FileDiskManager() override;

  // Persists superblock + bitmap without closing.
  Status Flush();

  Result<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status PeekPage(PageId id, Page* out) const override;
  Status WritePage(PageId id, const Page& page) override;
  Status WritePages(std::span<PageWrite> writes) override;
  Status WritePagePrefix(PageId id, const Page& page,
                         uint32_t prefix_bytes) override;
  Status Sync() override;
  void PeekPagesBatch(std::span<PageFill> fills) override;
  void PrefetchPages(std::span<const PageId> ids) override;
  uint64_t pages_in_use() const override;
  uint64_t high_water_pages() const override;

  // Introspection for tests and bench telemetry.
  const char* engine_name() const { return engine_->name(); }
  bool direct_io() const { return direct_; }
  IoSchedulerStats scheduler_stats() const;
  void ResetSchedulerStats();

 private:
  FileDiskManager(uint32_t page_size, const FileDiskManagerOptions& options);

  // Close's body. With `persist` false it writes nothing back: Open's
  // failure path, which must leave the file it refused untouched.
  Status CloseFile(bool persist);
  Status InitCreate() SEGDB_REQUIRES(mu_);
  Status InitExisting(uint64_t file_size) SEGDB_REQUIRES(mu_);
  Status WriteMeta() SEGDB_REQUIRES(mu_);

  // Lock-free: pair with the release stores in SetLive/SetUnwritten.
  bool IsLive(PageId id) const;
  void SetLive(PageId id, bool live) SEGDB_REQUIRES(mu_);
  bool IsUnwritten(PageId id) const;
  void SetUnwritten(PageId id, bool unwritten) SEGDB_REQUIRES(mu_);
  // Writes zeros over every page still unwritten and clears the marks:
  // the file then holds what the read paths return.
  Status ZeroUnwritten() SEGDB_REQUIRES(mu_);
  uint64_t PageOffset(PageId id) const {
    return data_offset_ + uint64_t{id} * page_size();
  }
  // Reads/writes `page_size` bytes of file at `offset`; `dst`/`src` is the
  // aligned bounce buffer (O_DIRECT cannot touch unaligned caller memory).
  Status ReadBlock(uint64_t offset, uint8_t* dst) const SEGDB_REQUIRES(mu_);
  Status WriteBlock(uint64_t offset, const uint8_t* src) SEGDB_REQUIRES(mu_);
  Status GrowTo(uint64_t file_size) SEGDB_REQUIRES(mu_);

  const FileDiskManagerOptions options_;
  mutable util::Mutex mu_;
  // Set in Open, cleared in Close; read lock-free by the read path.
  std::atomic<int> fd_{-1};
  bool direct_ = false;  // set once in Open, read-only afterwards
  uint64_t bitmap_bytes_ = 0;   // fixed at create
  uint64_t data_offset_ = 0;    // fixed at create
  uint64_t max_pages_ = 0;      // capacity, fixed at create
  std::unique_ptr<AsyncIoEngine> engine_;           // driven under mu_
  mutable std::unique_ptr<IoScheduler> scheduler_;  // driven under mu_
  // Aligned bounce for the writer and metadata paths' block transfers.
  std::unique_ptr<uint8_t[], void (*)(void*)> bounce_ SEGDB_GUARDED_BY(mu_);

  // One bit per page id below max_pages_; written under mu_, read without.
  std::unique_ptr<std::atomic<uint64_t>[]> live_;
  // Reused pages not yet written since allocation (see the file comment);
  // same geometry and discipline as live_.
  std::unique_ptr<std::atomic<uint64_t>[]> unwritten_;
  std::vector<PageId> free_list_ SEGDB_GUARDED_BY(mu_);
  uint64_t frontier_ SEGDB_GUARDED_BY(mu_) = 0;  // never-allocated boundary
  uint64_t file_size_ SEGDB_GUARDED_BY(mu_) = 0;
  uint64_t pages_in_use_count_ SEGDB_GUARDED_BY(mu_) = 0;
  uint64_t high_water_ SEGDB_GUARDED_BY(mu_) = 0;
};

}  // namespace segdb::io

#endif  // SEGDB_IO_FILE_DISK_MANAGER_H_
