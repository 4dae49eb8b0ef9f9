#include "core/durable_engine.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace segdb::core {

namespace {

Status EnginePoisoned() {
  return Status::FailedPrecondition(
      "engine is poisoned after a failed commit; recover from the WAL");
}

}  // namespace

DurableEngine::DurableEngine(io::BufferPool* pool, io::DiskManager* device,
                             IndexFactory factory,
                             const DurableEngineOptions& options)
    : pool_(pool),
      device_(device),
      factory_(std::move(factory)),
      options_(options) {
  SEGDB_CHECK(options_.checkpoint_every >= 1);
}

DurableEngine::~DurableEngine() {
  // Detach the spill sink before it dies. Anything still parked in it —
  // spilled bytes, deferred frees — is uncommitted or post-commit state
  // the WAL already covers; the inner index (destroyed after this) frees
  // its pages straight to the device again.
  pool_->set_writeback_sink(nullptr);
}

Result<std::unique_ptr<DurableEngine>> DurableEngine::Create(
    io::BufferPool* pool, io::DiskManager* device, IndexFactory factory,
    const DurableEngineOptions& options) {
  Result<std::unique_ptr<io::WriteAheadLog>> wal =
      io::WriteAheadLog::Create(device, options.wal);
  if (!wal.ok()) return wal.status();
  std::unique_ptr<DurableEngine> engine(
      new DurableEngine(pool, device, std::move(factory), options));
  engine->wal_ = std::move(wal.value());
  engine->index_ = engine->factory_(pool);
  engine->root_.store(engine->index_.get(), std::memory_order_release);
  pool->set_writeback_sink(&engine->spill_);
  return engine;
}

Result<std::unique_ptr<DurableEngine>> DurableEngine::Open(
    io::BufferPool* pool, io::DiskManager* device, io::PageId anchor,
    IndexFactory factory, const DurableEngineOptions& options) {
  Result<std::unique_ptr<io::WriteAheadLog>> wal =
      io::WriteAheadLog::Open(device, anchor, options.wal);
  if (!wal.ok()) return wal.status();
  std::unique_ptr<DurableEngine> engine(
      new DurableEngine(pool, device, std::move(factory), options));
  engine->wal_ = std::move(wal.value());
  engine->index_ = engine->factory_(pool);
  engine->root_.store(engine->index_.get(), std::memory_order_release);
  pool->set_writeback_sink(&engine->spill_);
  return engine;
}

void DurableEngine::SimulateCrash() {
  poisoned_ = true;
  root_.store(nullptr, std::memory_order_release);
  // The index destructor frees its pages through the pool; with the sink
  // still attached those frees park in spill_ (RAM) and die with the
  // engine, never reaching the device — exactly what power loss does.
  index_.reset();
  pool_->set_writeback_sink(nullptr);
}

Status DurableEngine::BulkLoad(std::span<const geom::Segment> segments) {
  // SEMA-OK: virtual inner index; bound matches the wrapped structure
  SEGDB_IO_BOUND("scan");
  if (poisoned_) return EnginePoisoned();
  // Build aside: readers keep hitting the old root at full speed while the
  // replacement is constructed.
  std::unique_ptr<SegmentIndex> next = factory_(pool_);
  SEGDB_RETURN_IF_ERROR(next->BulkLoad(segments));
  // Publish with one atomic swap; new queries see the new root instantly.
  root_.store(next.get(), std::memory_order_release);
  std::unique_ptr<SegmentIndex> retired = std::move(index_);
  // The root store above is the real publication point; this is ownership
  // bookkeeping. A later commit failure poisons the engine instead of
  // rolling back — crash semantics, recovered via the WAL.
  // SEMA-OK: ownership handoff after atomic publication; failure poisons
  index_ = std::move(next);
  // Wait out readers pinned to the pre-swap epoch, then destroy the old
  // structure: its page frees route through the spill sink as deferred
  // frees, applied only after this mutation's commit lands.
  epochs_.AdvanceAndWait();
  retired.reset();
  return CommitMutation(kOpBulkLoad, segments);
}

Status DurableEngine::Insert(const geom::Segment& segment) {
  // SEMA-OK: virtual inner index; bound matches the wrapped structure
  SEGDB_IO_BOUND("scan");
  if (poisoned_) return EnginePoisoned();
  // A failed inner op commits nothing: the index is fault-atomic, so the
  // logical state is unchanged and there is nothing to log.
  SEGDB_RETURN_IF_ERROR(index_->Insert(segment));
  return CommitMutation(kOpInsert, std::span<const geom::Segment>(&segment, 1));
}

Status DurableEngine::Erase(const geom::Segment& segment) {
  // SEMA-OK: virtual inner index; bound matches the wrapped structure
  SEGDB_IO_BOUND("scan");
  if (poisoned_) return EnginePoisoned();
  SEGDB_RETURN_IF_ERROR(index_->Erase(segment));
  return CommitMutation(kOpErase, std::span<const geom::Segment>(&segment, 1));
}

Status DurableEngine::Query(const VerticalSegmentQuery& query,
                            std::vector<geom::Segment>* out) const {
  // SEMA-OK: virtual inner index; bound matches the wrapped structure
  SEGDB_IO_BOUND("log", "sqrt", "t/B");
  const EpochManager::Guard guard = epochs_.Pin();
  SegmentIndex* root = root_.load(std::memory_order_acquire);
  return root->Query(query, out);
}

uint64_t DurableEngine::size() const {
  const EpochManager::Guard guard = epochs_.Pin();
  return root_.load(std::memory_order_acquire)->size();
}

uint64_t DurableEngine::page_count() const {
  const EpochManager::Guard guard = epochs_.Pin();
  return root_.load(std::memory_order_acquire)->page_count();
}

std::string DurableEngine::name() const {
  const EpochManager::Guard guard = epochs_.Pin();
  return "durable+" + root_.load(std::memory_order_acquire)->name();
}

Status DurableEngine::CheckInvariants() const {
  const EpochManager::Guard guard = epochs_.Pin();
  return root_.load(std::memory_order_acquire)->CheckInvariants();
}

Status DurableEngine::ReplayCommits(
    std::span<const io::RecoveredCommit> commits) {
  if (commits_acked_ != 0) {
    return Status::FailedPrecondition(
        "ReplayCommits requires a fresh engine (no commits yet)");
  }
  for (const io::RecoveredCommit& commit : commits) {
    Result<LoggedOp> logged = DecodeOp(commit.payload);
    if (!logged.ok()) return logged.status();
    const LoggedOp& op = logged.value();
    switch (op.op) {
      case kOpInsert:
        if (op.segments.size() != 1) {
          return Status::Corruption("insert payload with bad arity");
        }
        SEGDB_RETURN_IF_ERROR(Insert(op.segments[0]));
        break;
      case kOpErase:
        if (op.segments.size() != 1) {
          return Status::Corruption("erase payload with bad arity");
        }
        SEGDB_RETURN_IF_ERROR(Erase(op.segments[0]));
        break;
      case kOpBulkLoad:
        SEGDB_RETURN_IF_ERROR(BulkLoad(op.segments));
        break;
      default:
        return Status::Corruption("unknown logged op");
    }
  }
  return Status::OK();
}

std::vector<uint8_t> DurableEngine::EncodeOp(
    uint8_t op, std::span<const geom::Segment> segments) {
  static_assert(std::is_trivially_copyable_v<geom::Segment>);
  std::vector<uint8_t> payload(1 + sizeof(uint32_t) +
                               segments.size() * sizeof(geom::Segment));
  payload[0] = op;
  const uint32_t count = static_cast<uint32_t>(segments.size());
  std::memcpy(payload.data() + 1, &count, sizeof(count));
  if (!segments.empty()) {
    std::memcpy(payload.data() + 1 + sizeof(uint32_t), segments.data(),
                segments.size() * sizeof(geom::Segment));
  }
  return payload;
}

Result<DurableEngine::LoggedOp> DurableEngine::DecodeOp(
    std::span<const uint8_t> payload) {
  if (payload.size() < 1 + sizeof(uint32_t)) {
    return Status::Corruption("logged op payload too short");
  }
  LoggedOp op;
  op.op = payload[0];
  uint32_t count = 0;
  std::memcpy(&count, payload.data() + 1, sizeof(count));
  if (payload.size() !=
      1 + sizeof(uint32_t) + uint64_t{count} * sizeof(geom::Segment)) {
    return Status::Corruption("logged op payload has a bad size");
  }
  op.segments.resize(count);
  if (count > 0) {
    std::memcpy(op.segments.data(), payload.data() + 1 + sizeof(uint32_t),
                uint64_t{count} * sizeof(geom::Segment));
  }
  return op;
}

Status DurableEngine::CommitMutation(
    uint8_t op, std::span<const geom::Segment> segments) {
  // The op's full dirty footprint: pages still resident in the pool plus
  // pages it evicted into the spill mid-op. Both lists are ascending by
  // id and disjoint (a spilled page re-fetched by the op moved back into
  // the pool), so one merge yields the canonical image order.
  std::vector<io::PageImage> images;
  pool_->CollectDirty(&images);
  std::vector<io::PageImage> spilled;
  spill_.CollectImages(&spilled);
  if (!spilled.empty()) {
    std::vector<io::PageImage> merged;
    merged.reserve(images.size() + spilled.size());
    std::merge(std::make_move_iterator(images.begin()),
               std::make_move_iterator(images.end()),
               std::make_move_iterator(spilled.begin()),
               std::make_move_iterator(spilled.end()),
               std::back_inserter(merged),
               [](const io::PageImage& a, const io::PageImage& b) {
                 return a.id < b.id;
               });
    images = std::move(merged);
  }
  const std::vector<uint8_t> payload = EncodeOp(op, segments);
  Result<uint64_t> lsn = wal_->Commit(images, payload);
  if (!lsn.ok()) {
    // The log (and with it the device) may hold any prefix of the commit:
    // that is a crash, not a recoverable error. Refuse further mutations;
    // io::Recover() re-derives the committed state.
    poisoned_ = true;
    return lsn.status();
  }
  SEGDB_COMMIT_POINT();
  ++commits_acked_;
  ++commits_since_checkpoint_;
  // SEMA-OK: post-commit writeback absorbs every failure by re-logging
  WritebackAndMaybeCheckpoint();
  return Status::OK();
}

void DurableEngine::WritebackAndMaybeCheckpoint() {
  // Post-commit: the WAL barrier has already made this commit durable, so
  // nothing below may fail the mutation. A writeback error leaves the
  // affected pages dirty (pool) or spilled, and they simply ride along
  // into the next commit's image set — self-healing by re-logging. So does
  // a spilled page that a query's miss takes back into the pool after
  // FlushAll listed its shard: written by neither flush, it is committed
  // but dirty in RAM only, so the checkpoint below waits for a writeback
  // that no such take overlapped.
  const uint64_t taken = spill_.pages_taken();
  Status writeback = pool_->FlushAll();
  if (writeback.ok()) writeback = spill_.FlushToDevice(device_);
  if (!writeback.ok()) {
    ++writeback_failures_;
    return;
  }
  // Frees are post-commit by protocol: the device free list only ever
  // reflects committed state.
  spill_.ApplyDeferredFrees(device_);
  if (commits_since_checkpoint_ >= options_.checkpoint_every &&
      spill_.pages_taken() == taken) {
    // Checkpoint barriers the writebacks above, then truncates the log. A
    // failed attempt is absorbed — the chain keeps growing until one
    // lands (a poisoned WAL resurfaces on the next Commit).
    if (wal_->Checkpoint().ok()) commits_since_checkpoint_ = 0;
  }
}

}  // namespace segdb::core
