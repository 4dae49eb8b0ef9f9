// Write-ahead log: the durability layer under core::DurableEngine
// (DESIGN.md section 18).
//
// Physical redo logging with NO-STEAL buffering. A commit appends the full
// pre-writeback images of every page the mutation dirtied, then a commit
// record carrying the engine's opaque logical op descriptor, then issues one
// durability barrier (DiskManager::Sync). Only after the barrier do the
// dirty pages go to their home locations (commit-time writeback). Dirty
// pages evicted mid-mutation never touch the device: the pool diverts them
// to a DirtyPageSpill (io::WritebackSink), so the device holds committed
// bytes only and crash recovery is pure redo — no undo pass, ever.
//
// On-device layout. The log owns one anchor page plus a linked chain of log
// pages, all allocated from the same DiskManager as the data (ids are
// reported by OwnedPages() so I/O accounting and recovery audits can set
// them aside). The anchor holds two ping-pong slots (offsets 0 and
// page_size/2), each {magic, generation, head page, crc}; an update writes
// the OLDER slot, so a torn anchor write always leaves the other slot
// intact and recovery picks the highest-generation valid slot. Chain pages
// carry a 32-byte header {magic, crc, generation, seq, next, used} over a
// record byte stream; the crc covers the whole page, seq is the page's
// position in the chain, and `next` points at the next page — the last
// written page points at a page PRE-allocated for the next batch, so a
// crash mid-batch leaves that page CRC-invalid and the chain walk stops
// exactly at the torn tail. Records {type, lsn, payload_len, payload_crc,
// payload} span page boundaries freely.
//
// Serialization. A batch's record stream is never materialized: the leader
// sizes it, allocates its page ids, then writes record headers, image ids
// and image bytes straight into one reused chain-page buffer, stamping
// (header, zeroed tail, CRC) and writing each page as it fills. An image
// record's payload CRC chains over the id, then the bytes, so the page
// image is checksummed where it lies. Pages and records are byte-identical
// to splitting one flat stream (wal_test pins a digest of them).
//
// Group commit. Concurrent committers queue behind a leader: the first
// waiter becomes leader, optionally holds the door for
// group_commit_window_us, then serializes every queued commit into ONE page
// run and ONE Sync. The leader drops the mutex around all device I/O, so
// queueing committers and log readers never block on the device
// (stats().syncs < stats().commits is the observable win — see
// wal_test.cc and bench_e15_wal.cc).
//
// Checkpoint. After the engine has written back all committed pages and
// synced, Checkpoint() bumps the generation, publishes a fresh empty chain
// through the anchor, and frees the old chain. Recovery (recovery.h)
// replays complete records of the newest generation, discards the torn
// tail, and resets the chain the same way.
#ifndef SEGDB_IO_WAL_H_
#define SEGDB_IO_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "io/page.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

struct WalOptions {
  // How long a lone leader holds the door for other committers to join its
  // batch before writing, in microseconds. 0 = write immediately (a batch
  // still forms from everything queued while a previous leader was busy).
  // Plain integer micros, not a chrono duration: src/io is inside the
  // raw-time lint fence; util::Deadline::AfterMicros does the conversion.
  uint64_t group_commit_window_us = 0;
};

struct WalStats {
  uint64_t commits = 0;        // commit records acknowledged
  uint64_t syncs = 0;          // durability barriers issued (== batches)
  uint64_t records = 0;        // records appended (images + commits)
  uint64_t pages_written = 0;  // chain pages written
  uint64_t checkpoints = 0;
};

// The io::WritebackSink the pool spills uncommitted dirty evictions into,
// plus the commit-side bookkeeping the engine drains: spilled images join
// the commit's WAL payload, then flush to the device post-barrier; frees
// deferred by the pool are applied post-commit so the device free list
// stays a function of committed state. Internally synchronized (the pool
// calls in under shard mutexes; the engine from its quiescent writer).
class DirtyPageSpill final : public WritebackSink {
 public:
  DirtyPageSpill() = default;

  void CaptureEviction(PageId id, const Page& page) override;
  bool TakeSpilled(PageId id, Page* out) override;
  bool Contains(PageId id) const override;
  void DeferFree(PageId id) override;

  // Appends a PageImage per spilled page, ascending by id (canonical order
  // for reproducible WAL byte streams). Entries stay spilled.
  void CollectImages(std::vector<PageImage>* out) const;

  // Commit-time writeback of every spilled page; written entries are
  // dropped. On a device error the unwritten entries (including the failed
  // one) stay spilled, so a retry or the next commit still owns the bytes.
  Status FlushToDevice(DiskManager* disk);

  // Applies the deferred device frees (reliable metadata ops) and clears
  // the list. Call strictly after the owning commit's barrier.
  void ApplyDeferredFrees(DiskManager* disk);

  size_t spilled_pages() const;
  size_t deferred_free_count() const;

 private:
  mutable util::Mutex mu_;
  // Ordered: CollectImages and FlushToDevice walk in id order so device
  // write order and WAL serialization are deterministic run-to-run.
  std::map<PageId, std::vector<uint8_t>> spilled_ SEGDB_GUARDED_BY(mu_);
  std::vector<PageId> deferred_frees_ SEGDB_GUARDED_BY(mu_);
};

class WriteAheadLog {
 public:
  // Record types in the chain byte stream.
  static constexpr uint8_t kRecordPageImage = 1;  // payload: id u32 + bytes
  static constexpr uint8_t kRecordCommit = 2;     // payload: engine-opaque

  // Formats a fresh log on the device: allocates the anchor and the first
  // (empty) chain head, publishes generation 1, syncs.
  static Result<std::unique_ptr<WriteAheadLog>> Create(
      DiskManager* disk, const WalOptions& options = {});

  // Attaches to an existing, EMPTY log (anchor must parse and the chain
  // must hold no records). The crash path is Recover() first — it replays
  // and resets the chain — then Open() on the reset anchor.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      DiskManager* disk, PageId anchor, const WalOptions& options = {});

  // Durably appends one commit: a kRecordPageImage record per image, then
  // one kRecordCommit carrying `payload`, then a barrier. Thread-safe;
  // concurrent committers batch behind one leader and share its Sync.
  // Returns the commit record's LSN. A device failure poisons the log
  // (every later Commit fails FailedPrecondition): the caller's state may
  // be part-written, which is exactly a crash — recover, don't retry.
  Result<uint64_t> Commit(std::span<const PageImage> images,
                          std::span<const uint8_t> payload);

  // Truncates the log under a new generation and frees the old chain.
  // Issues a device barrier first, so the PRECONDITION is only that every
  // committed page has been written back to its home location (the
  // engine's post-commit writeback) and that no Commit is in flight.
  // Quiescent writer only.
  Status Checkpoint();

  PageId anchor_page() const { return anchor_; }
  uint32_t page_size() const { return disk_->page_size(); }
  WalStats stats() const;

  // Anchor + written chain pages + the pre-allocated next head: everything
  // the log owns on the device right now. Recovery audits and the crash
  // harness's bit-identity sweep exclude these from data-page comparison.
  std::vector<PageId> OwnedPages() const;

  // --- chain parsing, shared with recovery.cc ---

  struct ParsedRecord {
    uint8_t type = 0;
    uint64_t lsn = 0;
    std::vector<uint8_t> payload;
  };
  struct ChainState {
    uint64_t generation = 0;
    PageId head = kInvalidPageId;        // first chain page (may be unwritten)
    std::vector<ParsedRecord> records;   // complete, CRC-clean records
    std::vector<PageId> pages;           // CRC-valid chain pages, in order
    PageId tail_next = kInvalidPageId;   // next ptr past the last valid page
    uint64_t next_seq = 0;               // seq the next written page takes
    uint64_t next_lsn = 0;               // one past the last complete record
    uint64_t torn_tail_bytes = 0;        // trailing bytes discarded
  };

  // Walks the newest-generation chain from the anchor: validates page magic
  // / crc / generation / seq, concatenates the used payload bytes, parses
  // records, and cleanly discards the torn tail (an incomplete trailing
  // record, a payload-crc mismatch, or an invalid page). Uses PeekPage
  // only — parsing charges no I/O.
  static Result<ChainState> ReadChain(const DiskManager* disk, PageId anchor);

  // Publishes {generation, head} into the anchor's older ping-pong slot and
  // syncs. Shared by Checkpoint and recovery's chain reset.
  static Status PublishAnchor(DiskManager* disk, PageId anchor,
                              uint64_t generation, PageId head);

 private:
  WriteAheadLog(DiskManager* disk, PageId anchor, const WalOptions& options);

  // One queued committer. The leader fills status/lsn and flips done under
  // mu_; the owner only reads them under mu_ after done.
  struct PendingCommit {
    std::span<const PageImage> images;
    std::span<const uint8_t> payload;
    bool done = false;
    Status status;
    uint64_t lsn = 0;
  };

  // Tail state snapshotted under mu_ and consumed by the unlocked batch
  // write.
  struct BatchIo {
    PageId start_page = kInvalidPageId;
    uint64_t start_seq = 0;
    uint64_t start_lsn = 0;
    uint64_t generation = 0;
  };
  // What the batch write reports back for the locked publish step.
  struct BatchResult {
    PageId new_next_head = kInvalidPageId;
    std::vector<PageId> pages_written;
    uint64_t records = 0;
    uint64_t end_lsn = 0;
  };

  // Sizes the batch's record stream, allocates continuation pages plus the
  // next pre-allocated head, serializes the records straight into a page
  // run starting at io.start_page (writing each page as it fills), and
  // issues the barrier. Runs WITHOUT mu_ — the single active leader is the
  // only device writer. Assigns each pending commit's lsn as a side effect.
  Status WriteBatch(const std::vector<PendingCommit*>& batch,
                    const BatchIo& io, BatchResult* out);

  DiskManager* const disk_;
  const PageId anchor_;
  const WalOptions options_;

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::vector<PendingCommit*> pending_ SEGDB_GUARDED_BY(mu_);
  bool leader_active_ SEGDB_GUARDED_BY(mu_) = false;
  bool failed_ SEGDB_GUARDED_BY(mu_) = false;
  uint64_t generation_ SEGDB_GUARDED_BY(mu_) = 0;
  PageId head_ SEGDB_GUARDED_BY(mu_) = kInvalidPageId;
  // The pre-allocated page the next batch writes first. Already linked
  // from the synced tail (or anchored, for an empty chain), so a crash
  // before it is fully written leaves it CRC-invalid — the torn-tail
  // sentinel.
  PageId next_write_page_ SEGDB_GUARDED_BY(mu_) = kInvalidPageId;
  uint64_t next_seq_ SEGDB_GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ SEGDB_GUARDED_BY(mu_) = 0;
  std::vector<PageId> chain_pages_ SEGDB_GUARDED_BY(mu_);
  WalStats stats_ SEGDB_GUARDED_BY(mu_);
};

}  // namespace segdb::io

#endif  // SEGDB_IO_WAL_H_
