// DurableEngine: a crash-safe shell around any core::SegmentIndex
// (DESIGN.md section 18). It is the layer where the paper's in-memory /
// on-page index structures meet a device that can fail mid-write:
//
//   - Every successful mutation becomes one WAL commit: the full images of
//     the pages the op dirtied (pool dirty set + mid-op spill evictions),
//     then a commit record carrying the logical op, then one barrier. The
//     op is acknowledged only after the barrier (SEGDB_COMMIT_POINT).
//   - Writeback is strictly post-commit, so the device outside the log
//     always holds a committed prefix (NO-STEAL via io::DirtyPageSpill,
//     which the engine installs as the pool's WritebackSink).
//   - BulkLoad is build-aside-then-swap: the replacement index is built to
//     the side, published with one atomic root swap, and the retired
//     structure is destroyed only after EpochManager::AdvanceAndWait()
//     confirms every reader that could hold it has drained. Queries pin an
//     epoch and never block on a rebuild.
//
// After a crash: io::Recover() replays the log onto the device, and the
// committed logical state is rebuilt by replaying the recovered commit
// payloads (ReplayCommits) — each payload is a self-contained op
// descriptor, so an oracle can replay the same stream for differential
// checking (tests/crash_recovery_fuzz_test.cc).
//
// Concurrency contract: mutations are single-writer (like every index in
// src/core). Query is safe from any number of threads concurrently with
// BulkLoad, which builds aside and swaps. It is NOT safe beside Insert or
// Erase: those mutate the published index in place, and no reader/writer
// gate orders them against a Query yet, so callers must keep queries and
// point mutations apart. Post-commit writeback failures are absorbed — the
// dirty pages simply ride along into the next commit's image set — but a WAL
// commit failure poisons the engine (the log may be part-written, which is
// exactly a crash: recover, don't retry).
#ifndef SEGDB_CORE_DURABLE_ENGINE_H_
#define SEGDB_CORE_DURABLE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/epoch.h"
#include "core/segment_index.h"
#include "io/buffer_pool.h"
#include "io/recovery.h"
#include "io/wal.h"
#include "util/status.h"

namespace segdb::core {

struct DurableEngineOptions {
  io::WalOptions wal;
  // Checkpoint (truncate the log) every N acknowledged commits. The sweet
  // spot trades log-chain length against anchor-swap barriers.
  uint32_t checkpoint_every = 8;
};

class DurableEngine final : public SegmentIndex {
 public:
  // Logical op descriptors carried in WAL commit payloads.
  static constexpr uint8_t kOpInsert = 1;
  static constexpr uint8_t kOpErase = 2;
  static constexpr uint8_t kOpBulkLoad = 3;

  using IndexFactory =
      std::function<std::unique_ptr<SegmentIndex>(io::BufferPool*)>;

  // Formats a fresh WAL on `device`, installs the engine's spill sink on
  // `pool`, and builds an empty inner index via `factory`. The pool must
  // be backed by `device`, and both must outlive the engine.
  static Result<std::unique_ptr<DurableEngine>> Create(
      io::BufferPool* pool, io::DiskManager* device, IndexFactory factory,
      const DurableEngineOptions& options = {});

  // Attaches to an existing, already-recovered (empty) WAL anchored at
  // `anchor`. The inner index starts empty; rebuild logical state with
  // ReplayCommits.
  static Result<std::unique_ptr<DurableEngine>> Open(
      io::BufferPool* pool, io::DiskManager* device, io::PageId anchor,
      IndexFactory factory, const DurableEngineOptions& options = {});

  ~DurableEngine() override;

  // SegmentIndex interface. Mutations commit to the WAL before returning
  // OK; a failed index op (e.g. erasing an absent segment) commits
  // nothing. Query pins an epoch and reads whatever root is published.
  Status BulkLoad(std::span<const geom::Segment> segments) override;
  Status Insert(const geom::Segment& segment) override;
  Status Erase(const geom::Segment& segment) override;
  Status Query(const VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override;
  uint64_t size() const override;
  uint64_t page_count() const override;
  std::string name() const override;
  Status CheckInvariants() const override;

  // Replays recovered commit payloads through the normal mutation path,
  // in order. The engine must be fresh (no mutations yet): the replayed
  // stream then reconstructs exactly the committed logical state, and the
  // engine's own device converges to the reference state for the same
  // prefix (bit-compared by the crash harness).
  Status ReplayCommits(std::span<const io::RecoveredCommit> commits);

  // Crash-simulation hook (tests/crash_recovery_fuzz_test.cc): tears the
  // inner index down the way a process death would. The spill sink stays
  // attached while the index dies, so its page frees divert into RAM and
  // the device keeps the exact state it held at the failure — then the
  // sink is detached and the engine refuses all further ops.
  void SimulateCrash();

  // Mutations acknowledged (== WAL commit records this engine wrote).
  uint64_t commits_acked() const { return commits_acked_; }
  // Commits since the last successful checkpoint == the number of commit
  // records the current WAL chain holds (the crash harness checks the
  // recovered chain length against this).
  uint64_t commits_since_checkpoint() const {
    return commits_since_checkpoint_;
  }
  // Post-commit writeback attempts absorbed; the pages re-log next commit.
  uint64_t writeback_failures() const { return writeback_failures_; }
  bool poisoned() const { return poisoned_; }
  io::PageId wal_anchor() const { return wal_->anchor_page(); }
  io::WalStats wal_stats() const { return wal_->stats(); }
  const io::DirtyPageSpill& spill() const { return spill_; }
  io::WriteAheadLog* wal() { return wal_.get(); }
  EpochManager& epochs() const { return epochs_; }

  // Commit-payload codec. Public and static: the crash harness decodes
  // recovered payloads to drive its oracle replay.
  struct LoggedOp {
    uint8_t op = 0;
    std::vector<geom::Segment> segments;
  };
  static std::vector<uint8_t> EncodeOp(
      uint8_t op, std::span<const geom::Segment> segments);
  static Result<LoggedOp> DecodeOp(std::span<const uint8_t> payload);

 private:
  DurableEngine(io::BufferPool* pool, io::DiskManager* device,
                IndexFactory factory, const DurableEngineOptions& options);

  // Collects the op's full dirty footprint (pool dirty frames + spill),
  // commits it with the encoded op, and runs post-commit writeback (and
  // every checkpoint_every-th commit, a log truncation).
  Status CommitMutation(uint8_t op, std::span<const geom::Segment> segments);
  void WritebackAndMaybeCheckpoint();

  io::BufferPool* const pool_;
  io::DiskManager* const device_;
  const IndexFactory factory_;
  const DurableEngineOptions options_;

  io::DirtyPageSpill spill_;
  std::unique_ptr<io::WriteAheadLog> wal_;

  // Single-writer state (the mutation path).
  std::unique_ptr<SegmentIndex> index_;
  bool poisoned_ = false;
  uint64_t commits_acked_ = 0;
  uint64_t commits_since_checkpoint_ = 0;
  uint64_t writeback_failures_ = 0;

  // Reader-shared state: the published root and its reclamation epochs.
  std::atomic<SegmentIndex*> root_{nullptr};
  mutable EpochManager epochs_;
};

}  // namespace segdb::core

#endif  // SEGDB_CORE_DURABLE_ENGINE_H_
