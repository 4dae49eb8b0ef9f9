// Lifecycle, persistence, validation, and counter-parity tests for the
// real-file DiskManager backend (ISSUE 8). The counter-parity cases are
// the contract the golden I/O suite builds on: a FileDiskManager must
// report byte-for-byte the same reads/writes/allocations as a
// SimDiskManager driven through the same op sequence — only wall-clock
// may differ between backends.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/async_io_engine.h"
#include "io/disk_manager.h"
#include "io/file_disk_manager.h"
#include "io/wal.h"

namespace segdb::io {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Page MakePattern(uint32_t page_size, uint8_t seed) {
  Page page(page_size);
  for (uint32_t i = 0; i < page_size; ++i) {
    page.data()[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return page;
}

TEST(FileDiskManagerTest, CreateWriteReadTeardown) {
  const std::string path = TempPath("fdm_lifecycle.segdb");
  auto opened = FileDiskManager::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& disk = *opened.value();
  EXPECT_EQ(disk.page_size(), 4096u);
  EXPECT_EQ(disk.pages_in_use(), 0u);

  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  // A fresh allocation reads back as zeros (the file grows with holes; no
  // physical zero-write is issued or counted).
  Page out(4096);
  std::memset(out.data(), 0xEE, out.size());
  ASSERT_TRUE(disk.ReadPage(id.value(), &out).ok());
  for (uint32_t i = 0; i < out.size(); ++i) ASSERT_EQ(out.data()[i], 0u);

  const Page pattern = MakePattern(4096, 3);
  ASSERT_TRUE(disk.WritePage(id.value(), pattern).ok());
  ASSERT_TRUE(disk.ReadPage(id.value(), &out).ok());
  EXPECT_EQ(std::memcmp(out.data(), pattern.data(), 4096), 0);

  EXPECT_EQ(disk.pages_in_use(), 1u);
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().allocations, 1u);

  ASSERT_TRUE(disk.Close().ok());
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, ReopenRestoresAllocationStateAndBytes) {
  const std::string path = TempPath("fdm_reopen.segdb");
  PageId keep = kInvalidPageId;
  PageId freed = kInvalidPageId;
  {
    auto opened = FileDiskManager::Open(path);
    ASSERT_TRUE(opened.ok());
    auto& disk = *opened.value();
    auto a = disk.AllocatePage();
    auto b = disk.AllocatePage();
    auto c = disk.AllocatePage();
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    keep = b.value();
    freed = a.value();
    ASSERT_TRUE(disk.WritePage(keep, MakePattern(4096, 42)).ok());
    ASSERT_TRUE(disk.FreePage(freed).ok());
    ASSERT_TRUE(disk.Close().ok());
  }
  {
    auto opened = FileDiskManager::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& disk = *opened.value();
    EXPECT_EQ(disk.pages_in_use(), 2u);
    EXPECT_EQ(disk.high_water_pages(), 3u);
    Page out(4096);
    ASSERT_TRUE(disk.ReadPage(keep, &out).ok());
    const Page pattern = MakePattern(4096, 42);
    EXPECT_EQ(std::memcmp(out.data(), pattern.data(), 4096), 0);
    // The freed page is dead across the reopen.
    EXPECT_FALSE(disk.ReadPage(freed, &out).ok());
    // And reusable: its id comes back from the restored free list, reading
    // as zeros.
    auto again = disk.AllocatePage();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), freed);
    ASSERT_TRUE(disk.ReadPage(again.value(), &out).ok());
    for (uint32_t i = 0; i < out.size(); ++i) ASSERT_EQ(out.data()[i], 0u);
  }
  std::remove(path.c_str());
}

// The file's raw bytes of one data page, read around the device: with
// max_pages = 1024 the bitmap fits one page, so page 0 sits at 8 KiB.
std::vector<uint8_t> RawFilePage(const std::string& path, PageId id) {
  constexpr uint64_t kDataOffset = 2 * 4096;
  std::vector<uint8_t> bytes(4096, 0xEE);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  const auto offset = static_cast<long>(kDataOffset + uint64_t{id} * 4096);
  EXPECT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

bool AllZero(const uint8_t* bytes, size_t n) {
  return std::all_of(bytes, bytes + n, [](uint8_t b) { return b == 0; });
}

// A page reused from the free list reads as zeros with no device write:
// the stale bytes stay on the medium, every read path returns zeros, a
// torn write over it keeps a zero tail, and Close zero-fills what is still
// unwritten, so the page reads zeros after a reopen too.
TEST(FileDiskManagerTest, ReusedPageReadsZerosWithoutADeviceWrite) {
  const std::string path = TempPath("fdm_reuse.segdb");
  FileDiskManagerOptions options;
  options.max_pages = 1024;
  PageId untouched = kInvalidPageId;
  PageId torn = kInvalidPageId;
  const Page old_a = MakePattern(4096, 11);
  const Page old_b = MakePattern(4096, 23);
  const Page prefix = MakePattern(4096, 77);
  constexpr uint32_t kPrefixBytes = 100;
  {
    auto opened = FileDiskManager::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    FileDiskManager& disk = *opened.value();
    auto a = disk.AllocatePage();
    auto b = disk.AllocatePage();
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(disk.WritePage(a.value(), old_a).ok());
    ASSERT_TRUE(disk.WritePage(b.value(), old_b).ok());
    ASSERT_TRUE(disk.FreePage(a.value()).ok());
    ASSERT_TRUE(disk.FreePage(b.value()).ok());
    const DiskStats before = disk.stats();
    // Free-list reuse is last in, first out: b comes back, then a.
    auto again_b = disk.AllocatePage();
    auto again_a = disk.AllocatePage();
    ASSERT_TRUE(again_a.ok() && again_b.ok());
    ASSERT_EQ(again_a.value(), a.value());
    ASSERT_EQ(again_b.value(), b.value());
    untouched = a.value();
    torn = b.value();
    EXPECT_EQ(disk.stats().writes, before.writes);
    EXPECT_EQ(disk.stats().allocations, before.allocations + 2);
    // No byte reached the file: it still holds the old patterns.
    EXPECT_EQ(RawFilePage(path, untouched),
              std::vector<uint8_t>(old_a.data(), old_a.data() + 4096));
    EXPECT_EQ(RawFilePage(path, torn),
              std::vector<uint8_t>(old_b.data(), old_b.data() + 4096));

    // Every read path returns zeros.
    Page out(4096);
    std::memset(out.data(), 0xEE, out.size());
    ASSERT_TRUE(disk.ReadPage(untouched, &out).ok());
    EXPECT_TRUE(AllZero(out.data(), out.size()));
    std::memset(out.data(), 0xEE, out.size());
    ASSERT_TRUE(disk.PeekPage(untouched, &out).ok());
    EXPECT_TRUE(AllZero(out.data(), out.size()));
    std::vector<Page> pages(2, Page(4096));
    for (Page& p : pages) std::memset(p.data(), 0xEE, p.size());
    PageFill fills[2] = {{untouched, &pages[0], Status::OK()},
                         {torn, &pages[1], Status::OK()}};
    disk.PeekPagesBatch(fills);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(fills[i].status.ok());
      EXPECT_TRUE(AllZero(pages[i].data(), 4096)) << "fill " << i;
    }

    // A torn write over the unwritten page keeps a zero tail, not the old
    // bytes, and counts one write.
    ASSERT_TRUE(disk.WritePagePrefix(torn, prefix, kPrefixBytes).ok());
    EXPECT_EQ(disk.stats().writes, before.writes + 1);
    ASSERT_TRUE(disk.ReadPage(torn, &out).ok());
    EXPECT_EQ(std::memcmp(out.data(), prefix.data(), kPrefixBytes), 0);
    EXPECT_TRUE(AllZero(out.data() + kPrefixBytes, 4096 - kPrefixBytes));
    EXPECT_EQ(disk.stats().reads, before.reads + 2);
    ASSERT_TRUE(disk.Close().ok());
  }
  // Close zero-filled the page still unwritten.
  EXPECT_TRUE(AllZero(RawFilePage(path, untouched).data(), 4096));
  {
    auto opened = FileDiskManager::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    FileDiskManager& disk = *opened.value();
    Page out(4096);
    ASSERT_TRUE(disk.ReadPage(untouched, &out).ok());
    EXPECT_TRUE(AllZero(out.data(), out.size()));
    ASSERT_TRUE(disk.ReadPage(torn, &out).ok());
    EXPECT_EQ(std::memcmp(out.data(), prefix.data(), kPrefixBytes), 0);
    EXPECT_TRUE(AllZero(out.data() + kPrefixBytes, 4096 - kPrefixBytes));
    ASSERT_TRUE(disk.Close().ok());
  }
  std::remove(path.c_str());
}

// A batch write is one scheduler batch; each page is one counted write,
// and a page the batch cannot take fails alone.
TEST(FileDiskManagerTest, WritePagesIsOneBatchWithPerPageOutcomes) {
  const std::string path = TempPath("fdm_batch.segdb");
  auto opened = FileDiskManager::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FileDiskManager& disk = *opened.value();
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = disk.AllocatePage();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  std::vector<Page> pages;
  for (int i = 0; i < 6; ++i) {
    pages.push_back(MakePattern(4096, static_cast<uint8_t>(40 + i)));
  }
  std::vector<PageWrite> writes;
  for (int i = 0; i < 6; ++i) {
    writes.push_back(PageWrite{ids[i], &pages[i], Status::OK()});
  }
  writes.insert(writes.begin() + 3,
                PageWrite{PageId{9999}, &pages[0], Status::OK()});
  disk.ResetStats();
  disk.ResetSchedulerStats();
  const Status status = disk.WritePages(writes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(writes[i].status.ok(), i != 3) << "write " << i;
  }
  EXPECT_EQ(disk.stats().writes, 6u);
  const IoSchedulerStats sched = disk.scheduler_stats();
  EXPECT_EQ(sched.write_batches, 1u);
  EXPECT_EQ(sched.write_pages, 6u);
  EXPECT_EQ(sched.write_submissions, 1u);  // ids 0..5 merge into one run
  Page out(4096);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(disk.PeekPage(ids[i], &out).ok());
    EXPECT_EQ(std::memcmp(out.data(), pages[i].data(), 4096), 0) << i;
  }
  ASSERT_TRUE(disk.Close().ok());
  std::remove(path.c_str());
}

// A durable commit's log writes on a file device: one WAL commit of four
// page images is one write batch, then one barrier.
TEST(FileDiskManagerTest, WalCommitIsOneWriteBatchThenOneSync) {
  const std::string path = TempPath("fdm_wal.segdb");
  auto opened = FileDiskManager::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FileDiskManager& disk = *opened.value();
  auto wal = WriteAheadLog::Create(&disk);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  std::vector<PageImage> images;
  for (int i = 0; i < 4; ++i) {
    auto id = disk.AllocatePage();
    ASSERT_TRUE(id.ok());
    const Page pattern = MakePattern(4096, static_cast<uint8_t>(i));
    images.push_back(
        PageImage{id.value(), std::vector<uint8_t>(pattern.data(),
                                                   pattern.data() + 4096)});
  }
  disk.ResetStats();
  disk.ResetSchedulerStats();
  const std::vector<uint8_t> payload = {1, 2, 3};
  ASSERT_TRUE(wal.value()->Commit(images, payload).ok());
  const uint64_t chain_pages = wal.value()->stats().pages_written;
  EXPECT_EQ(chain_pages, 5u);  // 4 x (17 + 4 + 4096) + 17 + 3 bytes
  const IoSchedulerStats sched = disk.scheduler_stats();
  EXPECT_EQ(sched.write_batches, 1u);
  EXPECT_EQ(sched.write_pages, chain_pages);
  EXPECT_EQ(disk.stats().writes, chain_pages);
  EXPECT_EQ(disk.stats().syncs, 1u);
  wal.value().reset();
  ASSERT_TRUE(disk.Close().ok());
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, RejectsUnalignedPageSize) {
  for (const uint32_t bad : {0u, 512u, 1024u, 4095u, 4097u, 6144u}) {
    FileDiskManagerOptions options;
    options.page_size = bad;
    auto opened = FileDiskManager::Open(TempPath("fdm_unaligned.segdb"),
                                        options);
    EXPECT_FALSE(opened.ok()) << "page_size " << bad;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FileDiskManagerTest, RejectsForeignOrMismatchedFile) {
  const std::string path = TempPath("fdm_foreign.segdb");
  {
    // Not a segdb file at all: 8 KiB of garbage.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> junk(8192, 0xAB);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
    auto opened = FileDiskManager::Open(path);
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
  {
    // A valid file reopened with a different page_size must refuse.
    FileDiskManagerOptions create;
    create.page_size = 4096;
    auto first = FileDiskManager::Open(path, create);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value()->Close().ok());
    FileDiskManagerOptions mismatched;
    mismatched.page_size = 8192;
    auto second = FileDiskManager::Open(path, mismatched);
    EXPECT_FALSE(second.ok());
  }
  std::remove(path.c_str());
}

std::vector<uint8_t> ReadWholeFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

// A failed Open writes nothing back: a one-page file cut inside its bitmap
// region keeps its size and bytes, and a second Open fails the same way
// (it used to come back grown to the bitmap's size, with a superblock of
// max_pages 0 that the next Open called implausible).
TEST(FileDiskManagerTest, FailedOpenLeavesTheFileUntouched) {
  const std::string path = TempPath("fdm_truncated.segdb");
  {
    auto opened = FileDiskManager::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    FileDiskManager& disk = *opened.value();
    auto id = disk.AllocatePage();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(disk.WritePage(id.value(), MakePattern(disk.page_size(), 5))
                    .ok());
    ASSERT_TRUE(disk.Close().ok());
  }
  const std::vector<uint8_t> whole = ReadWholeFile(path);
  ASSERT_GT(whole.size(), 4196u);
  const std::vector<uint8_t> cut(whole.begin(), whole.begin() + 4196);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(cut.data(), 1, cut.size(), f), cut.size());
    std::fclose(f);
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto opened = FileDiskManager::Open(path);
    ASSERT_FALSE(opened.ok()) << "attempt " << attempt;
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(opened.status().message(),
              "file truncated inside the bitmap region")
        << "attempt " << attempt;
    EXPECT_EQ(ReadWholeFile(path), cut) << "attempt " << attempt;
  }
  std::remove(path.c_str());
}

// Counter parity: the same op sequence on both backends must produce
// identical DiskStats and identical read-back bytes. This is the backend
// half of the golden-I/O guarantee (the pool half lives in
// golden_io_test.cc).
TEST(FileDiskManagerTest, CountersMatchSimBackendOpForOp) {
  const std::string path = TempPath("fdm_parity.segdb");
  auto opened = FileDiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  FileDiskManager& file = *opened.value();
  SimDiskManager sim(4096);

  auto drive = [](DiskManager& disk) {
    std::vector<PageId> ids;
    for (int i = 0; i < 8; ++i) {
      auto id = disk.AllocatePage();
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
      ASSERT_TRUE(
          disk.WritePage(id.value(),
                         MakePattern(4096, static_cast<uint8_t>(i))).ok());
    }
    Page out(4096);
    for (const PageId id : ids) ASSERT_TRUE(disk.ReadPage(id, &out).ok());
    ASSERT_TRUE(disk.PeekPage(ids[0], &out).ok());  // uncounted
    // Batch peek of live + dead pages: uncounted, per-fill statuses.
    std::vector<Page> pages(3, Page(4096));
    PageFill fills[3] = {{ids[2], &pages[0], Status::OK()},
                         {ids[3], &pages[1], Status::OK()},
                         {PageId{9999}, &pages[2], Status::OK()}};
    disk.PeekPagesBatch(fills);
    EXPECT_TRUE(fills[0].status.ok());
    EXPECT_TRUE(fills[1].status.ok());
    EXPECT_FALSE(fills[2].status.ok());
    // Torn write: counted like a whole write on a live page.
    ASSERT_TRUE(disk.WritePagePrefix(ids[1], MakePattern(4096, 99), 100).ok());
    ASSERT_TRUE(disk.FreePage(ids[4]).ok());
    const PageId hints[] = {ids[5], ids[6]};
    disk.PrefetchPages(hints);
  };
  drive(file);
  drive(sim);

  EXPECT_EQ(file.stats().reads, sim.stats().reads);
  EXPECT_EQ(file.stats().writes, sim.stats().writes);
  EXPECT_EQ(file.stats().allocations, sim.stats().allocations);
  EXPECT_EQ(file.stats().frees, sim.stats().frees);
  EXPECT_EQ(file.stats().prefetch_hints, sim.stats().prefetch_hints);
  EXPECT_EQ(file.pages_in_use(), sim.pages_in_use());
  EXPECT_EQ(file.high_water_pages(), sim.high_water_pages());

  // Torn write left prefix bytes of the new pattern, old suffix intact —
  // identical on both backends.
  Page from_file(4096);
  Page from_sim(4096);
  // Both devices allocate from empty, so the torn page is id 1 on each.
  const PageId fid{1};
  ASSERT_TRUE(file.PeekPage(fid, &from_file).ok());
  ASSERT_TRUE(sim.PeekPage(fid, &from_sim).ok());
  EXPECT_EQ(std::memcmp(from_file.data(), from_sim.data(), 4096), 0);

  ASSERT_TRUE(file.Close().ok());
  std::remove(path.c_str());
}

// Every engine the factory can build must store and serve the same bytes.
// kAuto covers io_uring where the kernel has it; kThreads and kSync always
// exist.
TEST(FileDiskManagerTest, AllEnginesServeIdenticalBytes) {
  std::vector<IoEngineKind> kinds = {IoEngineKind::kThreads,
                                     IoEngineKind::kSync};
  if (IoUringSupported()) kinds.push_back(IoEngineKind::kIoUring);
  for (const IoEngineKind kind : kinds) {
    const std::string path = TempPath("fdm_engine.segdb");
    FileDiskManagerOptions options;
    options.engine.kind = kind;
    auto opened = FileDiskManager::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& disk = *opened.value();
    std::vector<PageId> ids;
    std::vector<Page> patterns;
    for (int i = 0; i < 64; ++i) {
      auto id = disk.AllocatePage();
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
      patterns.push_back(MakePattern(4096, static_cast<uint8_t>(i * 3)));
    }
    // Batch write through the scheduler, handed over in reverse id order
    // (sort + merge + waves under this engine).
    std::vector<PageWrite> writes;
    for (size_t i = ids.size(); i-- > 0;) {
      writes.push_back(PageWrite{ids[i], &patterns[i], Status::OK()});
    }
    ASSERT_TRUE(disk.WritePages(writes).ok()) << disk.engine_name();
    EXPECT_EQ(disk.stats().writes, ids.size());
    // Batch read through the scheduler (merge + waves under this engine).
    std::vector<Page> pages(ids.size(), Page(4096));
    std::vector<PageFill> fills;
    for (size_t i = 0; i < ids.size(); ++i) {
      fills.push_back({ids[i], &pages[i], Status::OK()});
    }
    disk.PeekPagesBatch(fills);
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(fills[i].status.ok()) << disk.engine_name();
      const Page want = MakePattern(4096, static_cast<uint8_t>(i * 3));
      ASSERT_EQ(std::memcmp(pages[i].data(), want.data(), 4096), 0)
          << disk.engine_name() << " page " << i;
    }
    const IoSchedulerStats sched = disk.scheduler_stats();
    EXPECT_EQ(sched.pages, ids.size());
    EXPECT_GT(sched.merged_pages, 0u) << disk.engine_name();
    EXPECT_EQ(sched.write_batches, 1u);
    EXPECT_EQ(sched.write_pages, ids.size());
    EXPECT_GT(sched.write_merged_pages, 0u) << disk.engine_name();
    ASSERT_TRUE(disk.Close().ok());
    std::remove(path.c_str());
  }
}

// --- EINTR / short-transfer retry seam -------------------------------------
//
// ReadFullAt / WriteFullAt are the fallback-path primitives (thread-pool
// engine workers, superblock/bitmap metadata I/O). The function-pointer
// seam injects syscall behaviors a real device only shows under load.

int g_fake_fd = -1;
int g_eintr_budget = 0;
int g_short_step = 0;
std::vector<uint8_t> g_backing;

long FlakyPread(int fd, void* buf, unsigned long count, long offset) {
  EXPECT_EQ(fd, g_fake_fd);
  if (g_eintr_budget > 0) {
    --g_eintr_budget;
    errno = EINTR;
    return -1;
  }
  if (offset < 0 || static_cast<size_t>(offset) >= g_backing.size()) return 0;
  unsigned long n = count;
  if (g_short_step > 0) {
    n = std::min<unsigned long>(n, static_cast<unsigned long>(g_short_step));
  }
  n = std::min<unsigned long>(
      n, static_cast<unsigned long>(g_backing.size() - offset));
  std::memcpy(buf, g_backing.data() + offset, n);
  return static_cast<long>(n);
}

long FlakyPwrite(int fd, const void* buf, unsigned long count, long offset) {
  EXPECT_EQ(fd, g_fake_fd);
  if (g_eintr_budget > 0) {
    --g_eintr_budget;
    errno = EINTR;
    return -1;
  }
  unsigned long n = count;
  if (g_short_step > 0) {
    n = std::min<unsigned long>(n, static_cast<unsigned long>(g_short_step));
  }
  if (static_cast<size_t>(offset) + n > g_backing.size()) {
    g_backing.resize(offset + n);
  }
  std::memcpy(g_backing.data() + offset, buf, n);
  return static_cast<long>(n);
}

TEST(ReadWriteFullAtTest, RetriesEintrAndShortTransfers) {
  g_fake_fd = 77;
  g_backing.assign(512, 0);
  for (size_t i = 0; i < g_backing.size(); ++i) {
    g_backing[i] = static_cast<uint8_t>(i);
  }
  // EINTR storm then short 64-byte reads: the helper must assemble the
  // full 512 bytes regardless.
  g_eintr_budget = 5;
  g_short_step = 64;
  std::vector<uint8_t> dst(512, 0xFF);
  ASSERT_TRUE(ReadFullAt(g_fake_fd, dst.data(), dst.size(), 0, FlakyPread)
                  .ok());
  EXPECT_EQ(dst, g_backing);

  // Same regime on the write side.
  std::vector<uint8_t> src(512);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(255 - i);
  }
  g_backing.assign(512, 0);
  g_eintr_budget = 3;
  g_short_step = 100;
  ASSERT_TRUE(WriteFullAt(g_fake_fd, src.data(), src.size(), 0, FlakyPwrite)
                  .ok());
  EXPECT_EQ(g_backing, src);
}

TEST(ReadWriteFullAtTest, EofIsIoErrorNotHang) {
  g_fake_fd = 78;
  g_backing.assign(100, 7);  // shorter than the request
  g_eintr_budget = 0;
  g_short_step = 0;
  std::vector<uint8_t> dst(512, 0);
  const Status s = ReadFullAt(g_fake_fd, dst.data(), dst.size(), 0,
                              FlakyPread);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace segdb::io
