// Unit tests for the batching I/O scheduler against a deterministic fake
// engine: dedup of duplicate page ids, adjacent-run merging with the
// max_merge_pages cap, wave-based submission bounded by the engine's
// queue depth, error fan-out across merged runs, and scratch bounded by
// one wave, for reads and for writes. The fake serves reads from an
// in-memory "file" whose every byte starts out encoding its offset, and
// writes land in that file, so a scatter or gather bug shows up as a byte
// mismatch, not just a wrong count.

#include <algorithm>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/async_io_engine.h"
#include "io/io_scheduler.h"

namespace segdb::io {
namespace {

constexpr uint32_t kPageSize = 4096;
constexpr uint64_t kDataOffset = 2 * kPageSize;  // fake superblock region

uint8_t ByteAt(uint64_t offset) {
  return static_cast<uint8_t>((offset * 1315423911u) >> 17);
}

// Completes ops from the synthetic file. `lazy` holds started ops until
// WaitOne, which completes them oldest-first one wave at a time — enough
// asynchrony to exercise the scheduler's wave loop without threads.
class FakeEngine final : public AsyncIoEngine {
 public:
  explicit FakeEngine(uint32_t queue_depth, uint64_t file_size)
      : queue_depth_(queue_depth), file_(file_size) {
    for (uint64_t i = 0; i < file_size; ++i) file_[i] = ByteAt(i);
  }

  const char* name() const override { return "fake"; }
  uint32_t queue_depth() const override { return queue_depth_; }
  uint32_t inflight() const override {
    return static_cast<uint32_t>(pending_.size());
  }

  Status Start(std::span<IoOp* const> ops) override {
    if (pending_.size() + ops.size() > queue_depth_) {
      return Status::InvalidArgument("fake: over queue depth");
    }
    for (IoOp* op : ops) {
      ++started_;
      max_inflight_ = std::max<uint64_t>(max_inflight_, pending_.size() + 1);
      op_lengths_.push_back(op->length);
      pending_.push_back(op);
    }
    return Status::OK();
  }

  Status WaitOne(std::vector<IoOp*>* completed) override {
    if (pending_.empty()) {
      return Status::FailedPrecondition("fake: nothing in flight");
    }
    IoOp* op = pending_.front();
    pending_.pop_front();
    Complete(op);
    completed->push_back(op);
    return Status::OK();
  }

  uint64_t started() const { return started_; }
  uint64_t max_inflight() const { return max_inflight_; }
  const std::vector<uint32_t>& op_lengths() const { return op_lengths_; }

  // Ops whose file offset is in this list complete with kIoError.
  void FailOffset(uint64_t offset) { fail_offsets_.push_back(offset); }

  const std::vector<uint8_t>& file() const { return file_; }

 private:
  void Complete(IoOp* op) {
    for (const uint64_t bad : fail_offsets_) {
      if (op->offset == bad) {
        op->status = Status::IoError("fake: injected failure");
        return;
      }
    }
    if (op->offset + op->length > file_.size()) {
      op->status = Status::IoError("fake: transfer past EOF");
      return;
    }
    if (op->kind == IoOp::Kind::kRead) {
      std::memcpy(op->buf, file_.data() + op->offset, op->length);
    } else {
      std::memcpy(file_.data() + op->offset, op->buf, op->length);
    }
    op->status = Status::OK();
  }

  const uint32_t queue_depth_;
  std::vector<uint8_t> file_;
  std::deque<IoOp*> pending_;
  std::vector<uint64_t> fail_offsets_;
  std::vector<uint32_t> op_lengths_;
  uint64_t started_ = 0;
  uint64_t max_inflight_ = 0;
};

std::vector<PageReadRequest> MakeRequests(const std::vector<PageId>& ids,
                                          std::vector<std::vector<uint8_t>>*
                                              buffers) {
  buffers->assign(ids.size(), std::vector<uint8_t>(kPageSize, 0xCD));
  std::vector<PageReadRequest> requests(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    requests[i].id = ids[i];
    requests[i].dst = (*buffers)[i].data();
  }
  return requests;
}

void ExpectPageBytes(const std::vector<uint8_t>& buf, PageId id) {
  const uint64_t base = kDataOffset + uint64_t{id} * kPageSize;
  for (uint32_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(buf[i], ByteAt(base + i)) << "page " << id << " byte " << i;
  }
}

TEST(IoSchedulerTest, MergesAdjacentRunsAndScattersBytes) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset, /*max_merge_pages=*/16);
  // Two runs (3..6, 10..11) plus an isolated page, shuffled on arrival.
  const std::vector<PageId> ids = {10, 4, 20, 6, 3, 11, 5};
  std::vector<std::vector<uint8_t>> buffers;
  auto requests = MakeRequests(ids, &buffers);
  ASSERT_TRUE(sched.ReadPages(requests).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok());
    ExpectPageBytes(buffers[i], ids[i]);
  }
  // 3 submissions: [3..6] fused, [10..11] fused, [20].
  EXPECT_EQ(engine.started(), 3u);
  std::vector<uint32_t> lengths = engine.op_lengths();
  std::sort(lengths.begin(), lengths.end());
  EXPECT_EQ(lengths, (std::vector<uint32_t>{kPageSize, 2 * kPageSize,
                                            4 * kPageSize}));
  const IoSchedulerStats& stats = sched.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.pages, ids.size());
  EXPECT_EQ(stats.dedup_skips, 0u);
  EXPECT_EQ(stats.submissions, 3u);
  EXPECT_EQ(stats.merged_pages, 6u);  // the two fused runs carry 4 + 2
  EXPECT_EQ(stats.max_merged_run, 4u);
}

TEST(IoSchedulerTest, DedupsDuplicateIdsWithinBatch) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  const std::vector<PageId> ids = {7, 7, 7, 9, 9};
  std::vector<std::vector<uint8_t>> buffers;
  auto requests = MakeRequests(ids, &buffers);
  ASSERT_TRUE(sched.ReadPages(requests).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok());
    ExpectPageBytes(buffers[i], ids[i]);  // duplicates get real bytes too
  }
  // Pages 7 and 9 are not adjacent: two single-page ops, three dedups.
  EXPECT_EQ(engine.started(), 2u);
  EXPECT_EQ(sched.stats().dedup_skips, 3u);
  EXPECT_EQ(sched.stats().pages, 5u);
}

TEST(IoSchedulerTest, MergeRunCapSplitsLongRuns) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset, /*max_merge_pages=*/4);
  std::vector<PageId> ids(10);
  for (PageId i = 0; i < 10; ++i) ids[i] = i;  // one long run 0..9
  std::vector<std::vector<uint8_t>> buffers;
  auto requests = MakeRequests(ids, &buffers);
  ASSERT_TRUE(sched.ReadPages(requests).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok());
    ExpectPageBytes(buffers[i], ids[i]);
  }
  // Cap 4: 10 pages split into 4 + 4 + 2.
  EXPECT_EQ(engine.started(), 3u);
  EXPECT_EQ(sched.stats().max_merged_run, 4u);
}

TEST(IoSchedulerTest, WavesRespectEngineQueueDepth) {
  // 24 isolated pages through a depth-4 engine: the fake engine errors any
  // Start past its depth, so success here proves the wave loop throttles.
  FakeEngine engine(4, kDataOffset + 256 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  std::vector<PageId> ids;
  for (PageId i = 0; i < 24; ++i) ids.push_back(i * 2);  // no adjacency
  std::vector<std::vector<uint8_t>> buffers;
  auto requests = MakeRequests(ids, &buffers);
  ASSERT_TRUE(sched.ReadPages(requests).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok());
    ExpectPageBytes(buffers[i], ids[i]);
  }
  EXPECT_EQ(engine.started(), 24u);
  EXPECT_LE(engine.max_inflight(), 4u);
  EXPECT_GE(engine.max_inflight(), 2u);  // it actually overlapped
  EXPECT_LE(sched.stats().max_inflight, 4u);
}

TEST(IoSchedulerTest, ErrorFansOutAcrossMergedRunOnly) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  // Fail the op that starts at page 3's offset — the merged [3..5] run.
  engine.FailOffset(kDataOffset + 3 * uint64_t{kPageSize});
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  const std::vector<PageId> ids = {3, 4, 5, 30, 31, 50};
  std::vector<std::vector<uint8_t>> buffers;
  auto requests = MakeRequests(ids, &buffers);
  ASSERT_TRUE(sched.ReadPages(requests).ok());  // submission-level OK
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(requests[i].status.ok()) << "page " << ids[i];
    EXPECT_EQ(requests[i].status.code(), StatusCode::kIoError);
  }
  for (size_t i = 3; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok()) << "page " << ids[i];
    ExpectPageBytes(buffers[i], ids[i]);
  }
}

// Write side. A page's new bytes are the offset pattern shifted by `salt`,
// so a landed page is told apart from the untouched file.
std::vector<std::vector<uint8_t>> WritePayloads(const std::vector<PageId>& ids,
                                                uint8_t salt) {
  std::vector<std::vector<uint8_t>> out;
  for (const PageId id : ids) {
    std::vector<uint8_t> bytes(kPageSize);
    const uint64_t base = kDataOffset + uint64_t{id} * kPageSize;
    for (uint32_t i = 0; i < kPageSize; ++i) {
      bytes[i] = static_cast<uint8_t>(ByteAt(base + i) + salt);
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

std::vector<PageWriteRequest> MakeWrites(
    const std::vector<PageId>& ids,
    const std::vector<std::vector<uint8_t>>& payloads) {
  std::vector<PageWriteRequest> requests(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    requests[i].id = ids[i];
    requests[i].src = payloads[i].data();
  }
  return requests;
}

bool FileHoldsPage(const FakeEngine& engine, PageId id,
                   const std::vector<uint8_t>& bytes) {
  const uint64_t base = kDataOffset + uint64_t{id} * kPageSize;
  return std::memcmp(engine.file().data() + base, bytes.data(), kPageSize) ==
         0;
}

TEST(IoSchedulerTest, WriteRunsMergeAndLandBytes) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset, /*max_merge_pages=*/16);
  // Runs 3..6 and 10..11 plus page 20, shuffled on arrival, as a commit's
  // log pages and writebacks arrive.
  const std::vector<PageId> ids = {10, 4, 20, 6, 3, 11, 5};
  const auto payloads = WritePayloads(ids, 0x5A);
  auto requests = MakeWrites(ids, payloads);
  ASSERT_TRUE(sched.WritePages(requests).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok()) << "page " << ids[i];
    EXPECT_TRUE(FileHoldsPage(engine, ids[i], payloads[i])) << ids[i];
  }
  EXPECT_EQ(engine.started(), 3u);
  std::vector<uint32_t> lengths = engine.op_lengths();
  std::sort(lengths.begin(), lengths.end());
  EXPECT_EQ(lengths, (std::vector<uint32_t>{kPageSize, 2 * kPageSize,
                                            4 * kPageSize}));
  // The neighbours of the runs are untouched.
  for (const PageId id : {PageId{2}, PageId{7}, PageId{12}, PageId{19}}) {
    EXPECT_TRUE(FileHoldsPage(engine, id, WritePayloads({id}, 0)[0])) << id;
  }
  const IoSchedulerStats& stats = sched.stats();
  EXPECT_EQ(stats.write_batches, 1u);
  EXPECT_EQ(stats.write_pages, ids.size());
  EXPECT_EQ(stats.write_submissions, 3u);
  EXPECT_EQ(stats.write_merged_pages, 6u);
  // Writes leave the read counters alone: E14 and perfbench read them.
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.pages, 0u);
  EXPECT_EQ(stats.submissions, 0u);
  EXPECT_EQ(stats.merged_pages, 0u);
  EXPECT_EQ(stats.max_inflight, 0u);
}

TEST(IoSchedulerTest, DuplicateWriteIdsLandTheLastRequest) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  const std::vector<PageId> ids = {7, 9, 7};
  std::vector<std::vector<uint8_t>> payloads = WritePayloads(ids, 1);
  payloads[2] = WritePayloads({7}, 2)[0];
  auto requests = MakeWrites(ids, payloads);
  ASSERT_TRUE(sched.WritePages(requests).ok());
  for (const PageWriteRequest& r : requests) EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(engine.started(), 2u);
  EXPECT_TRUE(FileHoldsPage(engine, 7, payloads[2]));
  EXPECT_TRUE(FileHoldsPage(engine, 9, payloads[1]));
}

TEST(IoSchedulerTest, WriteWavesRespectEngineQueueDepth) {
  FakeEngine engine(4, kDataOffset + 256 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  std::vector<PageId> ids;
  for (PageId i = 0; i < 24; ++i) ids.push_back(i * 2);  // no adjacency
  const auto payloads = WritePayloads(ids, 3);
  auto requests = MakeWrites(ids, payloads);
  ASSERT_TRUE(sched.WritePages(requests).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(requests[i].status.ok());
    EXPECT_TRUE(FileHoldsPage(engine, ids[i], payloads[i])) << ids[i];
  }
  EXPECT_EQ(engine.started(), 24u);
  EXPECT_EQ(sched.stats().write_submissions, 24u);
  EXPECT_LE(engine.max_inflight(), 4u);
  EXPECT_GE(engine.max_inflight(), 2u);  // it actually overlapped
}

TEST(IoSchedulerTest, WriteErrorFailsExactlyItsRun) {
  FakeEngine engine(8, kDataOffset + 64 * kPageSize);
  // Fail the op that starts at page 30's offset: the merged [30..31] run.
  engine.FailOffset(kDataOffset + 30 * uint64_t{kPageSize});
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  const std::vector<PageId> ids = {3, 4, 5, 30, 31, 50};
  const auto payloads = WritePayloads(ids, 9);
  auto requests = MakeWrites(ids, payloads);
  ASSERT_TRUE(sched.WritePages(requests).ok());  // submission-level OK
  for (size_t i = 0; i < ids.size(); ++i) {
    const bool in_failed_run = ids[i] == 30 || ids[i] == 31;
    EXPECT_EQ(requests[i].status.ok(), !in_failed_run) << "page " << ids[i];
    EXPECT_EQ(FileHoldsPage(engine, ids[i], payloads[i]), !in_failed_run)
        << "page " << ids[i];
  }
  EXPECT_EQ(requests[3].status.code(), StatusCode::kIoError);
}

// A run holds its scratch only while its op is in flight: 256 pages in
// runs of 2 through a depth-4 engine hold at most 4 runs' scratch at once,
// for writes and for reads alike.
TEST(IoSchedulerTest, ScratchStaysBoundedByTheWave) {
  FakeEngine engine(4, kDataOffset + 1024 * kPageSize);
  IoScheduler sched(&engine, kPageSize, kDataOffset, /*max_merge_pages=*/2);
  std::vector<PageId> ids;
  for (PageId i = 0; i < 384; ++i) {
    if (i % 3 != 2) ids.push_back(i);  // runs {0,1}, {3,4}, ...
  }
  ASSERT_EQ(ids.size(), 256u);
  const auto payloads = WritePayloads(ids, 4);
  auto writes = MakeWrites(ids, payloads);
  ASSERT_TRUE(sched.WritePages(writes).ok());
  EXPECT_EQ(sched.stats().write_submissions, 128u);
  EXPECT_LE(sched.stats().max_scratch_bytes, 4 * 2 * uint64_t{kPageSize});
  EXPECT_GE(sched.stats().max_scratch_bytes, 2 * 2 * uint64_t{kPageSize});

  sched.ResetStats();
  std::vector<std::vector<uint8_t>> buffers;
  auto reads = MakeRequests(ids, &buffers);
  ASSERT_TRUE(sched.ReadPages(reads).ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(reads[i].status.ok());
    ASSERT_EQ(buffers[i], payloads[i]) << "page " << ids[i];
  }
  EXPECT_LE(sched.stats().max_scratch_bytes, 4 * 2 * uint64_t{kPageSize});
}

TEST(IoSchedulerTest, EmptyBatchIsANoOp) {
  FakeEngine engine(4, kDataOffset);
  IoScheduler sched(&engine, kPageSize, kDataOffset);
  std::vector<PageReadRequest> none;
  EXPECT_TRUE(sched.ReadPages(none).ok());
  EXPECT_EQ(engine.started(), 0u);
  EXPECT_EQ(sched.stats().batches, 1u);
  EXPECT_EQ(sched.stats().pages, 0u);
}

}  // namespace
}  // namespace segdb::io
