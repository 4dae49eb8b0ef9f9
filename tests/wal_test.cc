// WriteAheadLog unit coverage (DESIGN.md section 18): record round-trips
// through the chain, CRC rejection of corrupted pages, torn-tail
// truncation at EVERY prefix length of a partially-written tail page,
// segment rotation, anchor ping-pong across checkpoints, direct
// io::Recover() behavior, and the group-commit batching contract (fsyncs
// strictly fewer than commits under a concurrent writer storm).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "io/disk_manager.h"
#include "io/page.h"
#include "io/recovery.h"
#include "io/wal.h"
#include "util/crc32.h"
#include "util/status.h"

namespace segdb::io {
namespace {

constexpr uint32_t kPageSize = 256;

std::unique_ptr<WriteAheadLog> MustCreate(DiskManager* disk,
                                          const WalOptions& options = {}) {
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Create(disk, options);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return std::move(wal.value());
}

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

PageImage MakeImage(PageId id, uint32_t page_size, uint8_t fill) {
  PageImage image;
  image.id = id;
  image.bytes.assign(page_size, fill);
  return image;
}

TEST(WalTest, CommitRoundTripsThroughReadChain) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);

  // A committed page image rides as {id, page bytes}; the commit record
  // carries the engine's opaque payload verbatim.
  const Result<PageId> data = disk.AllocatePage();
  ASSERT_TRUE(data.ok());
  const std::vector<PageImage> images = {
      MakeImage(data.value(), kPageSize, 0xAB)};
  const std::vector<uint8_t> payload = Payload({1, 2, 3, 4, 5});
  const Result<uint64_t> lsn = wal->Commit(images, payload);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();

  Result<WriteAheadLog::ChainState> chain =
      WriteAheadLog::ReadChain(&disk, wal->anchor_page());
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  const WriteAheadLog::ChainState& state = chain.value();
  ASSERT_EQ(state.records.size(), 2u);
  EXPECT_EQ(state.records[0].type, WriteAheadLog::kRecordPageImage);
  ASSERT_EQ(state.records[0].payload.size(), sizeof(PageId) + kPageSize);
  PageId image_id = kInvalidPageId;
  std::memcpy(&image_id, state.records[0].payload.data(), sizeof(PageId));
  EXPECT_EQ(image_id, data.value());
  EXPECT_EQ(state.records[0].payload[sizeof(PageId)], 0xAB);
  EXPECT_EQ(state.records[1].type, WriteAheadLog::kRecordCommit);
  EXPECT_EQ(state.records[1].payload, payload);
  EXPECT_EQ(state.records[1].lsn, lsn.value());
  EXPECT_EQ(state.torn_tail_bytes, 0u);

  // LSNs are dense and monotone across commits.
  const Result<uint64_t> next = wal->Commit({}, Payload({9}));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), lsn.value() + 1);
}

TEST(WalTest, RecordsSpanPageBoundaries) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  // One commit whose image payload (4 + 256 bytes) cannot fit a single
  // 224-byte page body: the record must split across chain pages and come
  // back whole.
  const Result<PageId> data = disk.AllocatePage();
  ASSERT_TRUE(data.ok());
  const std::vector<PageImage> images = {
      MakeImage(data.value(), kPageSize, 0x5C)};
  ASSERT_TRUE(wal->Commit(images, Payload({7})).ok());

  Result<WriteAheadLog::ChainState> chain =
      WriteAheadLog::ReadChain(&disk, wal->anchor_page());
  ASSERT_TRUE(chain.ok());
  ASSERT_GE(chain.value().pages.size(), 2u);
  ASSERT_EQ(chain.value().records.size(), 2u);
  EXPECT_EQ(chain.value().records[0].payload.size(),
            sizeof(PageId) + kPageSize);
  EXPECT_EQ(chain.value().records[0].payload[sizeof(PageId)], 0x5C);
}

// The on-device format, pinned byte for byte. Three commits of 1, 3 and 5
// page images over 256-byte pages (224-byte bodies): the first commit's
// stream is exactly two bodies long, so its commit record ends at a page
// end; the others split record headers, image ids and image bytes across
// page boundaries. The digest is a CRC-32 over every written chain page,
// in chain order, captured from the serializer that defined the format
// (one flat record stream split into page bodies). Any change to page
// headers, record layout, split points, zeroed tails or checksums shows
// up here.
TEST(WalTest, ChainBytesMatchPinnedDigest) {
  constexpr uint32_t kPinnedDigest = 0x34C309F0u;
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  const auto image = [](PageId id) {
    PageImage out;
    out.id = id;
    out.bytes.resize(kPageSize);
    for (uint32_t i = 0; i < kPageSize; ++i) {
      out.bytes[i] = static_cast<uint8_t>(id * 31u + i * 7u);
    }
    return out;
  };
  const auto payload = [](size_t n, uint8_t salt) {
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(salt + i);
    return out;
  };
  const std::vector<PageImage> one = {image(3)};
  const std::vector<PageImage> three = {image(5), image(6), image(9)};
  const std::vector<PageImage> five = {image(10), image(11), image(12),
                                       image(20), image(21)};
  // 17 + 4 + 256 bytes of image record and 17 + 154 of commit record fill
  // two 224-byte bodies exactly.
  ASSERT_TRUE(wal->Commit(one, payload(154, 1)).ok());
  Result<WriteAheadLog::ChainState> first =
      WriteAheadLog::ReadChain(&disk, wal->anchor_page());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().pages.size(), 2u);
  ASSERT_EQ(first.value().torn_tail_bytes, 0u);
  ASSERT_TRUE(wal->Commit(three, payload(45, 2)).ok());
  ASSERT_TRUE(wal->Commit(five, payload(45, 3)).ok());

  Result<WriteAheadLog::ChainState> chain =
      WriteAheadLog::ReadChain(&disk, wal->anchor_page());
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain.value().records.size(), 12u);
  uint32_t digest = 0;
  for (PageId id : chain.value().pages) {
    Page page(kPageSize);
    ASSERT_TRUE(disk.PeekPage(id, &page).ok());
    digest = util::Crc32(page.data(), page.size(), digest);
  }
  EXPECT_EQ(chain.value().pages.size(), 13u);
  EXPECT_EQ(digest, kPinnedDigest) << "got 0x" << std::hex << digest;
}

TEST(WalTest, CrcRejectsEveryFlippedChainPageByte) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  ASSERT_TRUE(wal->Commit({}, Payload({1, 2, 3})).ok());
  Result<WriteAheadLog::ChainState> clean =
      WriteAheadLog::ReadChain(&disk, wal->anchor_page());
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean.value().pages.size(), 1u);
  const PageId chain_page = clean.value().pages[0];

  Page original(kPageSize);
  ASSERT_TRUE(disk.PeekPage(chain_page, &original).ok());
  for (uint32_t off = 0; off < kPageSize; ++off) {
    Page corrupt = original;
    corrupt.data()[off] ^= 0x40;
    ASSERT_TRUE(disk.WritePage(chain_page, corrupt).ok());
    Result<WriteAheadLog::ChainState> read =
        WriteAheadLog::ReadChain(&disk, wal->anchor_page());
    ASSERT_TRUE(read.ok()) << "offset " << off;
    // A flip inside the used region breaks the page CRC; a flip in the
    // unused tail still breaks it, because the CRC covers the whole page.
    // Either way no record from this page may survive.
    EXPECT_TRUE(read.value().records.empty()) << "offset " << off;
  }
  ASSERT_TRUE(disk.WritePage(chain_page, original).ok());
  ASSERT_TRUE(
      WriteAheadLog::ReadChain(&disk, wal->anchor_page()).ok());
}

TEST(WalTest, CorruptedAnchorFallsBackOrFailsClosed) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  const PageId anchor = wal->anchor_page();
  Page apage(kPageSize);
  ASSERT_TRUE(disk.PeekPage(anchor, &apage).ok());
  // Only one slot is valid after Create; corrupting it must fail closed
  // (no guessing), not resurrect garbage.
  Page corrupt = apage;
  corrupt.data()[4] ^= 0xFF;  // inside slot 0's generation field
  ASSERT_TRUE(disk.WritePage(anchor, corrupt).ok());
  Result<WriteAheadLog::ChainState> read =
      WriteAheadLog::ReadChain(&disk, anchor);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

// The torn-tail contract, exhaustively: a crash may leave ANY prefix of
// the next batch's first page on the device (the rest still holds the
// fresh-allocation zeros). For every prefix length, the chain walk must
// come back with exactly the previously-committed records and Recover()
// must succeed on the torn device.
TEST(WalTest, TornTailTruncatesAtEveryPrefixLength) {
  for (uint32_t torn = 1; torn < kPageSize; ++torn) {
    SimDiskManager disk(kPageSize);
    std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
    ASSERT_TRUE(wal->Commit({}, Payload({1, 1})).ok());

    // Locate where the next batch will land, then run it and tear it.
    Result<WriteAheadLog::ChainState> committed =
        WriteAheadLog::ReadChain(&disk, wal->anchor_page());
    ASSERT_TRUE(committed.ok());
    ASSERT_EQ(committed.value().records.size(), 1u);
    const PageId tail = committed.value().tail_next;
    ASSERT_NE(tail, kInvalidPageId);

    ASSERT_TRUE(wal->Commit({}, Payload({2, 2, 2})).ok());
    Page full(kPageSize);
    ASSERT_TRUE(disk.PeekPage(tail, &full).ok());
    // Reconstruct the torn state: first `torn` bytes of the real write,
    // fresh-page zeros beyond.
    Page torn_page(kPageSize);
    torn_page.Zero();
    std::memcpy(torn_page.data(), full.data(), torn);
    // A prefix that already covers every nonzero byte (header + used body;
    // the tail of the page is zero in the real write too) reconstructs the
    // full page bit-for-bit — such a "tear" is unobservable and the second
    // commit survives. Any shorter prefix must truncate to the first.
    const bool observable =
        std::memcmp(torn_page.data(), full.data(), kPageSize) != 0;
    ASSERT_TRUE(disk.WritePage(tail, torn_page).ok());

    const size_t survivors = observable ? 1u : 2u;
    Result<WriteAheadLog::ChainState> read =
        WriteAheadLog::ReadChain(&disk, wal->anchor_page());
    ASSERT_TRUE(read.ok()) << "torn=" << torn;
    ASSERT_EQ(read.value().records.size(), survivors) << "torn=" << torn;
    EXPECT_EQ(read.value().records[0].payload, Payload({1, 1}))
        << "torn=" << torn;

    Result<RecoveryResult> rec = Recover(&disk, wal->anchor_page());
    ASSERT_TRUE(rec.ok()) << "torn=" << torn << ": "
                          << rec.status().ToString();
    EXPECT_EQ(rec.value().commits.size(), survivors) << "torn=" << torn;
  }
}

TEST(WalTest, StatsCountOnePagePerSmallCommit) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  // Four lone commits of a one-byte payload: one batch and one chain page
  // each.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal->Commit({}, Payload({static_cast<uint8_t>(i)})).ok());
  }
  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.pages_written, 4u);
  EXPECT_EQ(stats.commits, 4u);
}

TEST(WalTest, CheckpointPingPongsTheAnchorAcrossGenerations) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  const PageId anchor = wal->anchor_page();
  uint64_t generation = 1;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(wal->Commit({}, Payload({static_cast<uint8_t>(cycle)})).ok());
    ASSERT_TRUE(wal->Checkpoint().ok()) << "cycle " << cycle;
    ++generation;
    Result<WriteAheadLog::ChainState> chain =
        WriteAheadLog::ReadChain(&disk, anchor);
    ASSERT_TRUE(chain.ok());
    // Each checkpoint publishes generation+1 with an empty chain; the
    // ping-pong write pattern means consecutive generations live in
    // alternating anchor slots, and the highest one always wins.
    EXPECT_EQ(chain.value().generation, generation);
    EXPECT_TRUE(chain.value().records.empty());
  }
  EXPECT_EQ(wal->stats().checkpoints, 5u);

  // The checkpointed log re-opens cleanly and keeps committing.
  wal.reset();
  Result<std::unique_ptr<WriteAheadLog>> reopened =
      WriteAheadLog::Open(&disk, anchor);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->Commit({}, Payload({42})).ok());
}

TEST(WalTest, OpenRefusesAChainWithUnreplayedRecords) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  ASSERT_TRUE(wal->Commit({}, Payload({3})).ok());
  const PageId anchor = wal->anchor_page();
  wal.reset();
  Result<std::unique_ptr<WriteAheadLog>> reopened =
      WriteAheadLog::Open(&disk, anchor);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(Recover(&disk, anchor).ok());
  reopened = WriteAheadLog::Open(&disk, anchor);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST(WalTest, RecoverAppliesCommittedImagesAndIsIdempotent) {
  SimDiskManager disk(kPageSize);
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk);
  const PageId anchor = wal->anchor_page();

  // A data page whose committed image never made it back to the device —
  // the writeback was "lost in the crash".
  const Result<PageId> data = disk.AllocatePage();
  ASSERT_TRUE(data.ok());
  const std::vector<PageImage> images = {
      MakeImage(data.value(), kPageSize, 0xEE)};
  ASSERT_TRUE(wal->Commit(images, Payload({8})).ok());
  wal.reset();  // process death: nothing was written back

  Result<RecoveryResult> rec = Recover(&disk, anchor);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().commits.size(), 1u);
  EXPECT_EQ(rec.value().images_applied, 1u);
  Page page(kPageSize);
  ASSERT_TRUE(disk.PeekPage(data.value(), &page).ok());
  EXPECT_EQ(page.data()[0], 0xEE);
  EXPECT_EQ(page.data()[kPageSize - 1], 0xEE);

  // Recovery of the recovered log is a no-op with a fresh generation —
  // exactly what a crash DURING recovery needs.
  Result<RecoveryResult> again = Recover(&disk, anchor);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().commits.empty());
  EXPECT_EQ(again.value().generation, rec.value().generation + 1);
}

// Group commit under a real writer storm. The suite name matches the CI
// thread-sanitizer filter (-R 'Concurrency|PoolStress'), so this also
// gates the WAL's locking discipline under TSan.
TEST(WalConcurrencyTest, GroupCommitBatchesFsyncsAcrossWriters) {
  constexpr int kWriters = 8;
  constexpr int kCommitsPerWriter = 32;
  SimDiskManager disk(1024);
  WalOptions options;
  // Hold the door long enough that concurrent committers actually share
  // batches on any scheduler.
  options.group_commit_window_us = 300;
  std::unique_ptr<WriteAheadLog> wal = MustCreate(&disk, options);

  std::mutex mu;
  std::vector<uint64_t> lsns;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&wal, &mu, &lsns, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const std::vector<uint8_t> payload = {
            static_cast<uint8_t>(w), static_cast<uint8_t>(i)};
        const Result<uint64_t> lsn = wal->Commit({}, payload);
        ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        lsns.push_back(lsn.value());
      }
    });
  }
  for (std::thread& t : writers) t.join();

  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.commits, uint64_t{kWriters} * kCommitsPerWriter);
  // The batching contract: every commit got a barrier at or after its
  // record, but barriers were SHARED — strictly fewer fsyncs than commits.
  EXPECT_EQ(stats.syncs, disk.stats().syncs - 1);  // -1: Create's anchor sync
  EXPECT_LT(stats.syncs, stats.commits);
  EXPECT_GE(stats.syncs, 1u);

  // Every committer got a distinct LSN, and the full chain replays them.
  std::sort(lsns.begin(), lsns.end());
  EXPECT_EQ(std::adjacent_find(lsns.begin(), lsns.end()), lsns.end());
  ASSERT_EQ(lsns.size(), uint64_t{kWriters} * kCommitsPerWriter);
  Result<WriteAheadLog::ChainState> chain =
      WriteAheadLog::ReadChain(&disk, wal->anchor_page());
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain.value().records.size(),
            uint64_t{kWriters} * kCommitsPerWriter);
}

}  // namespace
}  // namespace segdb::io
