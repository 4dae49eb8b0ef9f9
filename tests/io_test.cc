#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "io/page.h"

namespace segdb::io {
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
  // Tier pinned off: these tests assert the single-tier eviction model
  // (a re-fetch of an evicted page is a demand miss), which a compressed
  // second tier deliberately changes. The tier has its own suite.
  BufferPoolTest() : disk_(kPageSize), pool_(&disk_, 4, BufferPoolOptions{}) {}

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

}  // namespace
}  // namespace segdb::io
