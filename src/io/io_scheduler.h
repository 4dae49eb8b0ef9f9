// Batching I/O scheduler between the page-level device paths and an
// AsyncIoEngine. Served naively, a span of page transfers is one syscall
// per page — exactly the pattern the external-memory model says to avoid.
// The scheduler turns a span of page reads (PeekPagesBatch) or page writes
// (WritePages: a durable commit's log pages and writebacks) into few,
// large, overlapped submissions, with one shared plan for both kinds:
//
//   1. dedup: a page id appearing twice in one batch is transferred once —
//      a read copies its bytes to every requester; a write stores the last
//      requester's bytes, which is what a loop in request order leaves;
//   2. adjacent-range merge: runs of consecutive page ids (common for a
//      node's leaf pages and for a commit's log pages, which are allocated
//      together) coalesce into a single multi-page transfer through an
//      aligned scratch buffer;
//   3. bounded queue depth: merged ops are fed to the engine in waves of
//      at most its queue depth, submitting more as completions arrive. A
//      run holds its scratch only while its op is in flight, so a batch of
//      any size holds at most one wave's scratch.
//
// Stats are cumulative and feed the bench telemetry (queue-depth fields
// in the E14 records, perfbench's io.sched metrics) plus the scheduler
// unit tests. The read fields count ReadPages only; writes have their own.
//
// Concurrency: externally synchronized, same contract as the engine it
// drives (FileDiskManager serializes callers behind its mutex).
#ifndef SEGDB_IO_IO_SCHEDULER_H_
#define SEGDB_IO_IO_SCHEDULER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "io/async_io_engine.h"
#include "io/page.h"
#include "util/status.h"

namespace segdb::io {

// One page read: fill `dst` (page_size bytes) from the device page at
// `id`. `status` is the per-page outcome.
struct PageReadRequest {
  PageId id = kInvalidPageId;
  uint8_t* dst = nullptr;
  Status status;
};

// One page write: store `src` (page_size bytes) at the device page `id`.
// `status` is the per-page outcome.
struct PageWriteRequest {
  PageId id = kInvalidPageId;
  const uint8_t* src = nullptr;
  Status status;
};

struct IoSchedulerStats {
  // Reads (ReadPages).
  uint64_t batches = 0;           // ReadPages calls
  uint64_t pages = 0;             // pages requested (pre-dedup)
  uint64_t dedup_skips = 0;       // duplicate ids served by copy
  uint64_t submissions = 0;       // ops handed to the engine
  uint64_t merged_pages = 0;      // pages carried by multi-page ops
  uint64_t max_batch_pages = 0;   // largest single ReadPages batch
  uint64_t max_merged_run = 0;    // longest adjacent run merged (pages)
  uint64_t max_inflight = 0;      // peak ops in flight at the engine
  // Writes (WritePages).
  uint64_t write_batches = 0;        // WritePages calls
  uint64_t write_pages = 0;          // pages requested (pre-dedup)
  uint64_t write_submissions = 0;    // ops handed to the engine
  uint64_t write_merged_pages = 0;   // pages carried by multi-page ops
  // Both kinds: the most aligned scratch any batch held at once.
  uint64_t max_scratch_bytes = 0;
};

class IoScheduler {
 public:
  // `engine` must outlive the scheduler. `page_size` is the device block
  // size; `data_offset` is the file offset of page 0 (the FileDiskManager
  // superblock/bitmap region precedes it). `max_merge_pages` caps how many
  // consecutive pages fuse into one transfer (scratch memory bound).
  IoScheduler(AsyncIoEngine* engine, uint32_t page_size,
              uint64_t data_offset, uint32_t max_merge_pages = 16);

  // Execute the batch: dedup, merge adjacent runs, and drive the engine
  // at its queue depth until every request has a status. Return the first
  // submission-level failure; per-page I/O errors land in each request's
  // status (a failed op fails every page of its run, and only those).
  Status ReadPages(std::span<PageReadRequest> requests);
  Status WritePages(std::span<PageWriteRequest> requests);

  const IoSchedulerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoSchedulerStats{}; }

 private:
  // A batch's page as the shared plan sees it: `dst` for a read, `src`
  // for a write.
  struct Transfer {
    PageId id = kInvalidPageId;
    uint8_t* dst = nullptr;
    const uint8_t* src = nullptr;
    Status* status = nullptr;
  };

  // The plan and wave loop both kinds share.
  Status Execute(IoOp::Kind kind, std::vector<Transfer>& transfers);

  AsyncIoEngine* const engine_;
  const uint32_t page_size_;
  const uint64_t data_offset_;
  const uint32_t max_merge_pages_;
  IoSchedulerStats stats_;
};

}  // namespace segdb::io

#endif  // SEGDB_IO_IO_SCHEDULER_H_
