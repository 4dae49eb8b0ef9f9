#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/buffer_pool.h"
#include "io/columnar_page_view.h"
#include "io/disk_manager.h"
#include "io/fault_injection.h"
#include "io/page.h"
#include "io/wal.h"

namespace segdb::io {

// Brute-force walks over every frame: the reference the pool's dirty
// lists are checked against.
class BufferPoolPeer {
 public:
  // The dirty frames' images in the order FlushAll writes them: shard by
  // shard, each shard's frames in index order.
  static std::vector<PageImage> DirtyInFlushOrder(const BufferPool& pool) {
    std::vector<PageImage> out;
    for (const BufferPool::Shard& shard : pool.shards_) {
      for (size_t idx : shard.frames) {
        const BufferPool::Frame& f = pool.frames_[idx];
        if (f.id == kInvalidPageId || f.staging) continue;
        if (!f.dirty.load(std::memory_order_relaxed)) continue;
        PageImage image;
        image.id = f.id;
        image.bytes.assign(f.page.data(), f.page.data() + f.page.size());
        out.push_back(std::move(image));
      }
    }
    return out;
  }

  // What CollectDirty reports: the same images, sorted by page id.
  static std::vector<PageImage> DirtyByFullWalk(const BufferPool& pool) {
    std::vector<PageImage> out = DirtyInFlushOrder(pool);
    std::sort(out.begin(), out.end(), [](const PageImage& a,
                                         const PageImage& b) {
      return a.id < b.id;
    });
    return out;
  }
};

// Reaches into a page's bytes and decode slot past the drop, to make a
// ready decode stale the way a write that skipped the drop would.
class PagePeer {
 public:
  static void WriteWithoutDrop(Page& page, uint32_t off, const uint8_t* src,
                               uint32_t count) {
    std::memcpy(page.data_.data() + off, src, count);
  }
  static int64_t* ReadyLanes(Page& page) {
    return page.slot_.load()->lanes.get();
  }
};

namespace {

constexpr uint32_t kPageSize = 256;

TEST(PageTest, ReadWriteScalars) {
  Page p(kPageSize);
  p.WriteAt<uint32_t>(0, 0xDEADBEEF);
  p.WriteAt<int64_t>(8, -77);
  EXPECT_EQ(p.ReadAt<uint32_t>(0), 0xDEADBEEFu);
  EXPECT_EQ(p.ReadAt<int64_t>(8), -77);
}

TEST(PageTest, ReadWriteArrays) {
  Page p(kPageSize);
  const int64_t values[4] = {1, -2, 3, -4};
  p.WriteArray<int64_t>(16, values, 4);
  int64_t out[4] = {};
  p.ReadArray<int64_t>(16, out, 4);
  EXPECT_EQ(std::memcmp(values, out, sizeof(values)), 0);
}

TEST(PageTest, AccessAtExactPageEnd) {
  // The bounds DCHECKs compute in uint64_t so an offset near UINT32_MAX
  // cannot wrap past the page size; accesses ending exactly at the page
  // boundary stay legal.
  Page p(kPageSize);
  p.WriteAt<uint64_t>(kPageSize - 8, 0x0123456789abcdefULL);
  EXPECT_EQ(p.ReadAt<uint64_t>(kPageSize - 8), 0x0123456789abcdefULL);
  const int64_t values[2] = {-1, 1};
  p.WriteArray<int64_t>(kPageSize - 16, values, 2);
  int64_t out[2] = {};
  p.ReadArray<int64_t>(kPageSize - 16, out, 2);
  EXPECT_EQ(out[0], -1);
  EXPECT_EQ(out[1], 1);
}

TEST(PageTest, ZeroClearsContents) {
  Page p(kPageSize);
  p.WriteAt<uint64_t>(0, ~0ULL);
  p.Zero();
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 0u);
}

TEST(DiskManagerTest, AllocateReadWriteRoundTrip) {
  SimDiskManager disk(kPageSize);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page w(kPageSize);
  w.WriteAt<uint64_t>(0, 123456789);
  ASSERT_TRUE(disk.WritePage(id.value(), w).ok());
  Page r(kPageSize);
  ASSERT_TRUE(disk.ReadPage(id.value(), &r).ok());
  EXPECT_EQ(r.ReadAt<uint64_t>(0), 123456789u);
}

TEST(DiskManagerTest, FreshPagesAreZeroed) {
  SimDiskManager disk(kPageSize);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page r(kPageSize);
  ASSERT_TRUE(disk.ReadPage(id.value(), &r).ok());
  for (uint32_t i = 0; i < kPageSize; ++i) EXPECT_EQ(r.data()[i], 0);
}

TEST(DiskManagerTest, FreeAndReuse) {
  SimDiskManager disk(kPageSize);
  auto a = disk.AllocatePage();
  ASSERT_TRUE(a.ok());
  Page w(kPageSize);
  w.WriteAt<uint64_t>(0, 42);
  ASSERT_TRUE(disk.WritePage(a.value(), w).ok());
  ASSERT_TRUE(disk.FreePage(a.value()).ok());
  EXPECT_EQ(disk.pages_in_use(), 0u);
  auto b = disk.AllocatePage();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), a.value());  // page id is recycled
  Page r(kPageSize);
  ASSERT_TRUE(disk.ReadPage(b.value(), &r).ok());
  EXPECT_EQ(r.ReadAt<uint64_t>(0), 0u);  // recycled page is zeroed
}

TEST(DiskManagerTest, AccessAfterFreeFails) {
  SimDiskManager disk(kPageSize);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(disk.FreePage(id.value()).ok());
  Page p(kPageSize);
  EXPECT_FALSE(disk.ReadPage(id.value(), &p).ok());
  EXPECT_FALSE(disk.WritePage(id.value(), p).ok());
  EXPECT_FALSE(disk.FreePage(id.value()).ok());
}

TEST(DiskManagerTest, StatsCountOperations) {
  SimDiskManager disk(kPageSize);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page p(kPageSize);
  ASSERT_TRUE(disk.ReadPage(id.value(), &p).ok());
  ASSERT_TRUE(disk.ReadPage(id.value(), &p).ok());
  ASSERT_TRUE(disk.WritePage(id.value(), p).ok());
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().allocations, 1u);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().reads, 0u);
}

TEST(DiskManagerTest, HighWaterTracksPeakUsage) {
  SimDiskManager disk(kPageSize);
  auto a = disk.AllocatePage();
  auto b = disk.AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(disk.FreePage(a.value()).ok());
  EXPECT_EQ(disk.pages_in_use(), 1u);
  EXPECT_EQ(disk.high_water_pages(), 2u);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(kPageSize), pool_(&disk_, 4) {}

  SimDiskManager disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, NewPagePersistsAfterEviction) {
  PageId id;
  {
    auto ref = pool_.NewPage();
    ASSERT_TRUE(ref.ok());
    id = ref.value().page_id();
    ref.value().page().WriteAt<uint64_t>(0, 999);
    ref.value().MarkDirty();
  }
  ASSERT_TRUE(pool_.EvictAll().ok());
  auto ref = pool_.Fetch(id);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().page().ReadAt<uint64_t>(0), 999u);
}

TEST_F(BufferPoolTest, HitsDoNotTouchDisk) {
  auto ref = pool_.NewPage();
  ASSERT_TRUE(ref.ok());
  const PageId id = ref.value().page_id();
  ref.value().Release();
  pool_.ResetStats();
  disk_.ResetStats();
  for (int i = 0; i < 5; ++i) {
    auto r = pool_.Fetch(id);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(pool_.stats().fetches, 5u);
  EXPECT_EQ(pool_.stats().hits, 5u);
  EXPECT_EQ(pool_.stats().misses, 0u);
  EXPECT_EQ(disk_.stats().reads, 0u);
  // The hits were lock-free, counted on the page's frame; ResetStats
  // zeroes those counts with the shard's.
  pool_.ResetStats();
  EXPECT_EQ(pool_.stats().fetches, 0u);
  EXPECT_EQ(pool_.stats().hits, 0u);
}

TEST_F(BufferPoolTest, LruEvictsColdestPage) {
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto ref = pool_.NewPage();
    ASSERT_TRUE(ref.ok());
    ref.value().page().WriteAt<int>(0, i);
    ids.push_back(ref.value().page_id());
  }
  // Touch pages 1..3 so page 0 is coldest, then fetch a 5th page.
  for (int i = 1; i < 4; ++i) {
    auto r = pool_.Fetch(ids[i]);
    ASSERT_TRUE(r.ok());
  }
  auto extra = pool_.NewPage();
  ASSERT_TRUE(extra.ok());
  extra.value().Release();
  pool_.ResetStats();
  // ids[0] must have been evicted -> miss; ids[3] still resident -> hit.
  auto r0 = pool_.Fetch(ids[0]);
  ASSERT_TRUE(r0.ok());
  r0.value().Release();
  EXPECT_EQ(pool_.stats().misses, 1u);
  auto r3 = pool_.Fetch(ids[3]);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(pool_.stats().misses, 1u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  PageId first;
  {
    auto ref = pool_.NewPage();
    ASSERT_TRUE(ref.ok());
    first = ref.value().page_id();
    ref.value().page().WriteAt<uint64_t>(0, 31337);
    ref.value().MarkDirty();
  }
  // Fill the pool to force eviction of `first`.
  for (int i = 0; i < 4; ++i) {
    auto ref = pool_.NewPage();
    ASSERT_TRUE(ref.ok());
  }
  auto ref = pool_.Fetch(first);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().page().ReadAt<uint64_t>(0), 31337u);
}

TEST_F(BufferPoolTest, AllFramesPinnedFailsGracefully) {
  std::vector<PageRef> pins;
  for (int i = 0; i < 4; ++i) {
    auto ref = pool_.NewPage();
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(ref.value()));
  }
  auto extra = pool_.NewPage();
  EXPECT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferPoolTest, EvictAllFailsWhilePinned) {
  auto ref = pool_.NewPage();
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(pool_.EvictAll().ok());
  ref.value().Release();
  EXPECT_TRUE(pool_.EvictAll().ok());
}

TEST_F(BufferPoolTest, FreePageRejectsPinned) {
  auto ref = pool_.NewPage();
  ASSERT_TRUE(ref.ok());
  const PageId id = ref.value().page_id();
  EXPECT_FALSE(pool_.FreePage(id).ok());
  ref.value().Release();
  EXPECT_TRUE(pool_.FreePage(id).ok());
}

// A resident page's fetch is a lock-free hit; the pin it takes must hold
// the page against FreePage and EvictAll like any other pin.
TEST_F(BufferPoolTest, LockFreeHitPinRefusesFreeAndEvict) {
  PageId id;
  {
    auto created = pool_.NewPage();
    ASSERT_TRUE(created.ok());
    id = created.value().page_id();
  }
  auto ref = pool_.Fetch(id);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(pool_.stats().hits, 1u);
  const Status freed = pool_.FreePage(id);
  EXPECT_EQ(freed.code(), StatusCode::kFailedPrecondition);
  const Status evicted = pool_.EvictAll();
  EXPECT_EQ(evicted.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(pool_.CheckInvariants().ok());
  ref.value().Release();
  EXPECT_TRUE(pool_.EvictAll().ok());
  EXPECT_TRUE(pool_.FreePage(id).ok());
  EXPECT_TRUE(pool_.CheckInvariants().ok());
}

// A staged page is closed to lock-free hits: its first Fetch takes the
// locked path and charges exactly one miss, without a device read, and the
// next one is a hit.
TEST_F(BufferPoolTest, PrefetchedPageFirstFetchChargesOneMiss) {
  PageId id;
  {
    auto created = pool_.NewPage();
    ASSERT_TRUE(created.ok());
    id = created.value().page_id();
    created.value().page().WriteAt<uint64_t>(0, 4242);
    created.value().MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  ASSERT_TRUE(pool_.EvictAll().ok());
  const PageId ids[] = {id};
  pool_.Prefetch(ids);
  ASSERT_EQ(pool_.stats().prefetches, 1u);
  pool_.ResetStats();
  disk_.ResetStats();
  {
    auto first = pool_.Fetch(id);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().page().ReadAt<uint64_t>(0), 4242u);
  }
  EXPECT_EQ(pool_.stats().fetches, 1u);
  EXPECT_EQ(pool_.stats().misses, 1u);
  EXPECT_EQ(pool_.stats().hits, 0u);
  EXPECT_EQ(disk_.stats().reads, 0u);
  auto second = pool_.Fetch(id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool_.stats().misses, 1u);
  EXPECT_EQ(pool_.stats().hits, 1u);
  EXPECT_TRUE(pool_.CheckInvariants().ok());
}

TEST_F(BufferPoolTest, MoveTransfersPin) {
  auto ref = pool_.NewPage();
  ASSERT_TRUE(ref.ok());
  PageRef moved = std::move(ref.value());
  EXPECT_TRUE(moved.valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
  EXPECT_TRUE(pool_.EvictAll().ok());
}

TEST_F(BufferPoolTest, MoveSemanticsRegressions) {
  // Self-move must leave the ref either valid or harmlessly empty — never
  // a dangling pin. Go through an alias so -Wself-move stays quiet.
  auto ref = pool_.NewPage();
  ASSERT_TRUE(ref.ok());
  const PageId id = ref.value().page_id();
  PageRef pin = std::move(ref.value());
  PageRef& alias = pin;
  pin = std::move(alias);
  if (pin.valid()) {
    EXPECT_EQ(pin.page_id(), id);
    pin.Release();
  }
  // Double-Release is a no-op on the second call.
  auto again = pool_.Fetch(id);
  ASSERT_TRUE(again.ok());
  again.value().Release();
  again.value().Release();
  EXPECT_FALSE(again.value().valid());
  // A moved-from ref is empty and safely reusable as an assignment target.
  auto a = pool_.Fetch(id);
  ASSERT_TRUE(a.ok());
  PageRef dst = std::move(a.value());
  EXPECT_FALSE(a.value().valid());
  a.value().Release();  // harmless on moved-from
  dst.Release();
  auto b = pool_.Fetch(id);
  ASSERT_TRUE(b.ok());
  a.value() = std::move(b.value());  // reuse the moved-from slot
  EXPECT_TRUE(a.value().valid());
  EXPECT_EQ(a.value().page_id(), id);
  a.value().Release();
  // After all of this, every pin must be balanced.
  EXPECT_TRUE(pool_.EvictAll().ok());
  ASSERT_TRUE(pool_.CheckInvariants().ok());
}

TEST_F(BufferPoolTest, MoveAssignReleasesOldPin) {
  auto a = pool_.NewPage();
  auto b = pool_.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const PageId a_id = a.value().page_id();
  a.value() = std::move(b.value());  // must unpin a_id
  EXPECT_NE(a.value().page_id(), a_id);
  EXPECT_TRUE(pool_.FreePage(a_id).ok());  // unpinned -> freeable
  a.value().Release();
  EXPECT_TRUE(pool_.EvictAll().ok());
}

TEST_F(BufferPoolTest, ColdCacheMeasurementProtocol) {
  // The protocol every benchmark uses: build, flush, evict, reset, measure.
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    auto ref = pool_.NewPage();
    ASSERT_TRUE(ref.ok());
    ref.value().MarkDirty();
    ids.push_back(ref.value().page_id());
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  ASSERT_TRUE(pool_.EvictAll().ok());
  pool_.ResetStats();
  for (PageId id : ids) {
    auto ref = pool_.Fetch(id);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool_.stats().misses, 3u);  // every page is a cold read
}

// The dirty lists against a walk over every frame, through each way a frame
// enters or leaves the dirty set: NewPage, MarkDirty (first and repeated),
// dirty eviction written back and spilled, a spilled page's re-entry,
// FreePage and reuse of its frame, EvictAll, and a FlushAll that fails
// partway. 128 frames make two shards.
TEST_F(BufferPoolTest, CollectDirtyMatchesFullWalk) {
  FaultInjectingDiskManager faulty(&disk_, FaultPlan{});
  BufferPool pool(&faulty, 128);
  ASSERT_EQ(pool.shard_count(), 2u);
  const auto expect_matches = [&pool](const char* step) {
    std::vector<PageImage> listed;
    pool.CollectDirty(&listed);
    const std::vector<PageImage> walked = BufferPoolPeer::DirtyByFullWalk(pool);
    ASSERT_EQ(listed.size(), walked.size()) << step;
    for (size_t i = 0; i < listed.size(); ++i) {
      EXPECT_EQ(listed[i].id, walked[i].id) << step;
      EXPECT_EQ(listed[i].bytes, walked[i].bytes) << step;
    }
    const Status audit = pool.CheckInvariants();
    EXPECT_TRUE(audit.ok()) << step << ": " << audit.ToString();
  };
  const auto dirty_count = [&pool] {
    std::vector<PageImage> listed;
    pool.CollectDirty(&listed);
    return listed.size();
  };
  const auto touch = [&pool](PageId id, uint64_t value) {
    Result<PageRef> ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ref.value().page().WriteAt<uint64_t>(0, value);
    ref.value().MarkDirty();
    ref.value().MarkDirty();  // already dirty: no second listing
  };

  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    Result<PageRef> ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ref.value().page().WriteAt<uint64_t>(0, 100 + i);
    ids.push_back(ref.value().page_id());
  }
  expect_matches("NewPage");
  EXPECT_EQ(dirty_count(), 12u);
  ASSERT_TRUE(pool.FlushAll().ok());
  expect_matches("FlushAll");
  EXPECT_EQ(dirty_count(), 0u);

  touch(ids[1], 201);
  touch(ids[2], 202);
  touch(ids[7], 207);
  expect_matches("MarkDirty");
  EXPECT_EQ(dirty_count(), 3u);

  // Fill both shards with fresh dirty pages: the CLOCK hands evict and
  // write back dirty frames, which are then reused by later NewPages.
  for (int i = 0; i < 160; ++i) {
    Result<PageRef> ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref.value().page_id());
  }
  EXPECT_GT(pool.stats().writebacks, 12u);
  expect_matches("dirty eviction with write-back");
  ASSERT_TRUE(pool.FlushAll().ok());
  expect_matches("FlushAll after eviction");

  // With a sink, a dirty eviction spills: the frame leaves the dirty set
  // and its list entry goes stale. Re-fetching the page takes it back
  // from the sink, dirty again.
  DirtyPageSpill spill;
  pool.set_writeback_sink(&spill);
  touch(ids[0], 300);
  touch(ids[3], 303);
  for (size_t i = 12; i < ids.size(); ++i) {
    Result<PageRef> ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
  }
  ASSERT_GT(spill.spilled_pages(), 0u);
  expect_matches("dirty eviction into the sink");
  ASSERT_TRUE(spill.Contains(ids[0]));
  touch(ids[0], 400);
  EXPECT_FALSE(spill.Contains(ids[0]));
  expect_matches("TakeSpilled re-entry");

  // A freed dirty page's frame goes back to the free list, still listed
  // but clean; NewPages take it again.
  touch(ids[5], 505);
  ASSERT_TRUE(pool.FreePage(ids[5]).ok());
  expect_matches("FreePage");
  for (int i = 0; i < 2; ++i) {
    Result<PageRef> ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref.value().page_id());
  }
  expect_matches("frame reuse after FreePage");
  pool.set_writeback_sink(nullptr);
  ASSERT_TRUE(spill.FlushToDevice(&faulty).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  expect_matches("EvictAll");
  EXPECT_EQ(dirty_count(), 0u);

  // Eight dirty pages over both shards, and the k-th write fails: the
  // first k - 1 pages in frame order reach the device, and the unwritten
  // ones stay dirty, are still collected, and go out with the next flush.
  // The pages take their frames in batch order and are dirtied in
  // reverse, so the frames go dirty against frame order.
  std::vector<PageId> batch(ids.begin() + 20, ids.begin() + 28);
  for (PageId id : batch) ASSERT_TRUE(pool.Fetch(id).ok());
  const auto on_disk = [this](PageId id) {
    Page page(kPageSize);
    EXPECT_TRUE(disk_.PeekPage(id, &page).ok());
    return page.ReadAt<uint64_t>(0);
  };
  for (uint64_t k = 1; k <= batch.size(); ++k) {
    for (size_t i = batch.size(); i-- > 0;) touch(batch[i], 1000 * k + i);
    expect_matches("before the failing FlushAll");
    const std::vector<PageImage> order =
        BufferPoolPeer::DirtyInFlushOrder(pool);
    ASSERT_EQ(order.size(), batch.size());
    faulty.ScheduleFailAtOp(k);
    EXPECT_FALSE(pool.FlushAll().ok());
    expect_matches("failed FlushAll");
    EXPECT_EQ(dirty_count(), batch.size() - (k - 1));
    for (size_t i = 0; i < order.size(); ++i) {
      uint64_t written = 0;
      std::memcpy(&written, order[i].bytes.data(), sizeof(written));
      EXPECT_EQ(on_disk(order[i].id) == written, i + 1 < k)
          << "k " << k << " write " << i;
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    expect_matches("FlushAll after the failure");
    EXPECT_EQ(dirty_count(), 0u);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(on_disk(batch[i]), 1000 * k + i) << "page " << i;
    }
  }
}

// A device whose batch write lands every page but one, as a file device's
// batch does when one transfer fails.
class FailOnePageDisk final : public SimDiskManager {
 public:
  explicit FailOnePageDisk(uint32_t page_size) : SimDiskManager(page_size) {}

  void FailPage(PageId id) { fail_ = id; }

  Status WritePages(std::span<PageWrite> writes) override {
    Status first;
    for (PageWrite& write : writes) {
      write.status = write.id == fail_
                         ? Status::IoError("injected write failure")
                         : WritePage(write.id, *write.page);
      if (first.ok() && !write.status.ok()) first = write.status;
    }
    return first;
  }

 private:
  PageId fail_ = kInvalidPageId;
};

// FlushAll clears exactly the frames whose write landed: the one failed
// page stays dirty and listed, and goes out with the next flush.
TEST(BufferPoolFlushTest, FailedPageOfABatchStaysDirtyAndListed) {
  FailOnePageDisk disk(kPageSize);
  BufferPool pool(&disk, 128);
  ASSERT_EQ(pool.shard_count(), 2u);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    Result<PageRef> ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ref.value().page().WriteAt<uint64_t>(0, 500 + i);
    ids.push_back(ref.value().page_id());
  }
  const std::vector<PageImage> order = BufferPoolPeer::DirtyInFlushOrder(pool);
  ASSERT_EQ(order.size(), 8u);
  const PageId failing = order[3].id;
  disk.FailPage(failing);
  const Status flushed = pool.FlushAll();
  EXPECT_EQ(flushed.code(), StatusCode::kIoError);
  EXPECT_EQ(pool.stats().writebacks, 7u);

  std::vector<PageImage> dirty;
  pool.CollectDirty(&dirty);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].id, failing);
  const std::vector<PageImage> walked = BufferPoolPeer::DirtyByFullWalk(pool);
  ASSERT_EQ(walked.size(), 1u);
  EXPECT_EQ(walked[0].id, failing);
  // The audit checks that the dirty frame is on its shard's list.
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  for (size_t i = 0; i < ids.size(); ++i) {
    Page page(kPageSize);
    ASSERT_TRUE(disk.PeekPage(ids[i], &page).ok());
    EXPECT_EQ(page.ReadAt<uint64_t>(0), ids[i] == failing ? 0 : 500 + i)
        << "page " << ids[i];
  }

  disk.FailPage(kInvalidPageId);
  ASSERT_TRUE(pool.FlushAll().ok());
  dirty.clear();
  pool.CollectDirty(&dirty);
  EXPECT_TRUE(dirty.empty());
  EXPECT_EQ(pool.stats().writebacks, 8u);
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

// The spill's writeback re-arms exactly the pages that did not land.
TEST(BufferPoolFlushTest, SpillFlushRearmsOnlyTheFailedPage) {
  FailOnePageDisk disk(kPageSize);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    Result<PageId> id = disk.AllocatePage();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  DirtyPageSpill spill;
  for (int i = 0; i < 3; ++i) {
    Page page(kPageSize);
    page.WriteAt<uint64_t>(0, 900 + i);
    spill.CaptureEviction(ids[i], page);
  }
  disk.FailPage(ids[1]);
  EXPECT_EQ(spill.FlushToDevice(&disk).code(), StatusCode::kIoError);
  EXPECT_EQ(spill.spilled_pages(), 1u);
  EXPECT_TRUE(spill.Contains(ids[1]));
  for (const int i : {0, 2}) {
    Page page(kPageSize);
    ASSERT_TRUE(disk.PeekPage(ids[i], &page).ok());
    EXPECT_EQ(page.ReadAt<uint64_t>(0), 900u + i);
  }
  disk.FailPage(kInvalidPageId);
  ASSERT_TRUE(spill.FlushToDevice(&disk).ok());
  EXPECT_EQ(spill.spilled_pages(), 0u);
  Page page(kPageSize);
  ASSERT_TRUE(disk.PeekPage(ids[1], &page).ok());
  EXPECT_EQ(page.ReadAt<uint64_t>(0), 901u);
}

// A device that runs a hook when its next batch write begins, before any
// page of it moves: the hook stands in for a query running beside it.
class HookedBatchDisk final : public SimDiskManager {
 public:
  explicit HookedBatchDisk(uint32_t page_size) : SimDiskManager(page_size) {}

  void OnNextBatch(std::function<void()> hook) { hook_ = std::move(hook); }

  Status WritePages(std::span<PageWrite> writes) override {
    if (hook_) {
      const std::function<void()> hook = std::move(hook_);
      hook_ = nullptr;
      hook();
    }
    return SimDiskManager::WritePages(writes);
  }

 private:
  std::function<void()> hook_;
};

// FlushAll's batch runs with no shard lock held, so a query's miss can
// land in the middle of it, and it must evict around the frames the batch
// is writing. Here the CLOCK hand would otherwise take the first dirty
// frame, spill it and refill it with the missed page, and the batch would
// store the missed page's bytes under the dirty page's id.
TEST(BufferPoolFlushTest, MissDuringTheBatchEvictsAroundItsFrames) {
  HookedBatchDisk disk(kPageSize);
  std::vector<PageId> clean;
  for (int i = 0; i < 61; ++i) {
    Result<PageId> id = disk.AllocatePage();
    ASSERT_TRUE(id.ok());
    Page page(kPageSize);
    page.WriteAt<uint64_t>(0, 700 + i);
    ASSERT_TRUE(disk.WritePage(id.value(), page).ok());
    clean.push_back(id.value());
  }
  BufferPool pool(&disk, 64);
  ASSERT_EQ(pool.shard_count(), 1u);
  DirtyPageSpill spill;
  pool.set_writeback_sink(&spill);
  // Frames 0-3 dirty, 4-63 clean, every reference bit set.
  std::vector<PageId> dirty;
  for (int i = 0; i < 4; ++i) {
    Result<PageRef> ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ref.value().page().WriteAt<uint64_t>(0, 500 + i);
    dirty.push_back(ref.value().page_id());
  }
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(pool.Fetch(clean[i]).ok());

  disk.OnNextBatch([&pool, &clean] {
    Result<PageRef> ref = pool.Fetch(clean[60]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().page().ReadAt<uint64_t>(0), 760u);
  });
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.stats().spills, 0u);
  EXPECT_EQ(pool.stats().writebacks, 4u);
  for (int i = 0; i < 4; ++i) {
    Page page(kPageSize);
    ASSERT_TRUE(disk.PeekPage(dirty[i], &page).ok());
    EXPECT_EQ(page.ReadAt<uint64_t>(0), 500u + i) << "page " << dirty[i];
  }
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  pool.set_writeback_sink(nullptr);
}

// The spill's batch keeps its pages until they land: a query's miss on
// one waits for the batch rather than read the device copy the batch is
// replacing, then finds the page gone from the spill and reads the device.
TEST(BufferPoolFlushTest, SpillBatchHoldsItsPagesUntilTheyLand) {
  HookedBatchDisk disk(kPageSize);
  Result<PageId> id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  DirtyPageSpill spill;
  Page image(kPageSize);
  image.WriteAt<uint64_t>(0, 42);
  spill.CaptureEviction(id.value(), image);

  std::atomic<bool> batch_proceeded{false};
  std::atomic<bool> took{true};
  std::atomic<bool> waited{false};
  std::thread reader;
  disk.OnNextBatch([&] {
    EXPECT_TRUE(spill.Contains(id.value()));
    reader = std::thread([&] {
      Page out(kPageSize);
      took.store(spill.TakeSpilled(id.value(), &out));
      waited.store(batch_proceeded.load());
    });
    // Give the reader time to reach the spill while the batch is open.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    batch_proceeded.store(true);
  });
  const Status flushed = spill.FlushToDevice(&disk);
  if (reader.joinable()) reader.join();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_FALSE(took.load());
  EXPECT_TRUE(waited.load());
  EXPECT_FALSE(spill.Contains(id.value()));
  Page page(kPageSize);
  ASSERT_TRUE(disk.PeekPage(id.value(), &page).ok());
  EXPECT_EQ(page.ReadAt<uint64_t>(0), 42u);
}

// --- Decode slots on pool frames ------------------------------------------

constexpr uint32_t kRegionOff = 8;
const uint32_t kRegionCap = ColumnarRegionCapacity(kPageSize - kRegionOff);

std::vector<geom::Segment> TaggedRecords(int64_t tag) {
  std::vector<geom::Segment> segs;
  for (uint32_t i = 0; i < kRegionCap; ++i) {
    const int64_t x = tag * 1000 + i;
    segs.push_back(geom::Segment::Make({x, i}, {x + 10, tag},
                                       static_cast<uint64_t>(tag * 100 + i)));
  }
  return segs;
}

PageId NewRegionPage(BufferPool* pool, int64_t tag) {
  auto ref = pool->NewPage();
  EXPECT_TRUE(ref.ok());
  const std::vector<geom::Segment> segs = TaggedRecords(tag);
  ColumnarPageView(&ref.value().page(), kRegionOff, kRegionCap)
      .WriteRange(0, segs.data(), kRegionCap);
  ref.value().MarkDirty();
  return ref.value().page_id();
}

TEST(BufferPoolDecodeTest, ReusedFrameServesTheNewPagesLanes) {
  SimDiskManager disk(kPageSize);
  BufferPool pool(&disk, 1);
  const PageId a = NewRegionPage(&pool, 1);
  const PageId b = NewRegionPage(&pool, 2);  // evicts a
  const int64_t* buffer = nullptr;
  const std::pair<PageId, int64_t> visits[] = {{a, 1}, {b, 2}, {a, 1}};
  for (const auto& [id, tag] : visits) {
    SCOPED_TRACE(tag);
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    const Page& p = ref.value().page();
    EXPECT_EQ(p.decoded().lanes, nullptr);  // the miss dropped the decode
    const ConstColumnarPageView view(p, kRegionOff, kRegionCap);
    const geom::SegmentStrips strips = view.strips();
    const std::vector<geom::Segment> expect = TaggedRecords(tag);
    for (uint32_t i = 0; i < kRegionCap; ++i) {
      EXPECT_EQ(geom::StripLane(strips.x1, i), expect[i].x1);
      EXPECT_EQ(view.Get(i), expect[i]);
    }
    // One frame, one buffer, kept across residencies.
    if (buffer == nullptr) buffer = p.decoded().lanes;
    EXPECT_EQ(p.decoded().lanes, buffer);
    EXPECT_EQ(reinterpret_cast<const int64_t*>(strips.x1), buffer);
  }
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(BufferPoolDecodeTest, StaleDecodeFailsTheAudit) {
  SimDiskManager disk(kPageSize);
  BufferPool pool(&disk, 4);
  const PageId id = NewRegionPage(&pool, 3);
  Page other(kPageSize);
  {
    const std::vector<geom::Segment> segs = TaggedRecords(4);
    ColumnarPageView(&other, kRegionOff, kRegionCap)
        .WriteRange(0, segs.data(), kRegionCap);
  }
  const uint32_t region_bytes =
      static_cast<uint32_t>(ColumnarRegionBytes(kRegionCap));
  const std::vector<uint8_t> junk(region_bytes, 0xff);
  for (int fault = 0; fault < 3; ++fault) {
    SCOPED_TRACE(fault);
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    Page& p = ref.value().page();
    // A clean rewrite of the region: the decode drops and refills.
    {
      const std::vector<geom::Segment> segs = TaggedRecords(3);
      ColumnarPageView(&p, kRegionOff, kRegionCap)
          .WriteRange(0, segs.data(), kRegionCap);
      ref.value().MarkDirty();
    }
    const ConstColumnarPageView view(std::as_const(p), kRegionOff, kRegionCap);
    ASSERT_NE(view.strips().x1, nullptr);
    ASSERT_NE(std::as_const(p).decoded().lanes, nullptr);
    ASSERT_TRUE(pool.CheckInvariants().ok());
    switch (fault) {
      case 0:  // a lane changed under the slot
        PagePeer::ReadyLanes(p)[kRegionCap + 1] ^= 1;
        break;
      case 1:  // another region's bytes written past the drop
        PagePeer::WriteWithoutDrop(p, kRegionOff, other.data() + kRegionOff,
                                   region_bytes);
        break;
      default:  // a malformed region: checked, never decoded out of bounds
        PagePeer::WriteWithoutDrop(p, kRegionOff, junk.data(), region_bytes);
        break;
    }
    const Status audit = pool.CheckInvariants();
    EXPECT_EQ(audit.code(), StatusCode::kCorruption);
    EXPECT_NE(audit.message().find("decoded lanes"), std::string::npos)
        << audit.message();
  }
}

}  // namespace
}  // namespace segdb::io
