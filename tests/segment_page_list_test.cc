// io::SegmentPageList: the one page-list format behind the full-scan
// baseline and the first-level leaves. Appends across a page boundary,
// erases that move the last record into the hole and free an emptied last
// page, NotFound, a fail-at-op-K sweep over BulkLoad, Append and Erase, and
// the audit's rejection of malformed page counts.
#include "io/segment_page_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "geom/predicates.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "io/fault_injection.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::io {
namespace {

using geom::Segment;

constexpr uint32_t kPageSize = 1024;

// Exactly n segments with distinct ids.
std::vector<Segment> MakeSegments(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return workload::GenMapLayer(rng, n, int64_t{1} << 20);
}

std::vector<Segment> Contents(const SegmentPageList& list) {
  std::vector<Segment> out;
  EXPECT_TRUE(list.CollectAll(&out).ok());
  return out;
}

std::vector<uint64_t> SortedIds(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<PageId> PageIds(const SegmentPageList& list) {
  return std::vector<PageId>(list.pages().begin(), list.pages().end());
}

void SetCount(BufferPool* pool, PageId id, uint32_t count) {
  auto ref = pool->Fetch(id);
  ASSERT_TRUE(ref.ok());
  ref.value().page().WriteAt<uint32_t>(0, count);
  ref.value().MarkDirty();
}

class SegmentPageListTest : public ::testing::Test {
 protected:
  SegmentPageListTest() : disk_(kPageSize), pool_(&disk_, 64) {}

  SimDiskManager disk_;
  BufferPool pool_;
  const uint32_t per_page_ = SegmentPageList::PerPage(kPageSize);
};

TEST_F(SegmentPageListTest, AppendAcrossPageBoundary) {
  ASSERT_GE(per_page_, 8u);
  SegmentPageList list(&pool_);
  const std::vector<Segment> segs = MakeSegments(per_page_ + 3, 1);
  for (uint32_t i = 0; i < segs.size(); ++i) {
    ASSERT_TRUE(list.Append(segs[i]).ok()) << i;
    EXPECT_EQ(list.page_count(), i / per_page_ + 1) << i;
    ASSERT_TRUE(list.CheckInvariants().ok()) << i;
  }
  EXPECT_EQ(list.size(), segs.size());
  EXPECT_EQ(Contents(list), segs);  // appends keep their order
  // Scan equals a brute-force filter over the records.
  for (const Segment& probe : {segs[0], segs[per_page_], segs.back()}) {
    const int64_t x0 = probe.x1;
    std::vector<Segment> got;
    ASSERT_TRUE(list.Scan(x0, probe.y1 - 50, probe.y1 + 50, &got).ok());
    std::vector<Segment> want;
    for (const Segment& s : segs) {
      if (geom::IntersectsVerticalSegment(s, x0, probe.y1 - 50,
                                          probe.y1 + 50)) {
        want.push_back(s);
      }
    }
    EXPECT_EQ(SortedIds(got), SortedIds(want));
    EXPECT_FALSE(got.empty());
  }
}

TEST_F(SegmentPageListTest, EraseFromInteriorAndLastPage) {
  SegmentPageList list(&pool_);
  std::vector<Segment> segs = MakeSegments(2 * per_page_ + 1, 2);
  const Segment extra = segs.back();
  segs.pop_back();
  ASSERT_TRUE(list.BulkLoad(segs).ok());
  ASSERT_EQ(list.page_count(), 2u);

  // A record of the last page, alone on a new page: erasing it frees that
  // page and returns the device to its allocation before the append.
  const uint64_t in_use = disk_.pages_in_use();
  const std::vector<PageId> ids = PageIds(list);
  ASSERT_TRUE(list.Append(extra).ok());
  ASSERT_EQ(list.page_count(), 3u);
  EXPECT_EQ(disk_.pages_in_use(), in_use + 1);
  ASSERT_TRUE(list.Erase(extra).ok());
  EXPECT_EQ(list.page_count(), 2u);
  EXPECT_EQ(disk_.pages_in_use(), in_use);
  EXPECT_EQ(PageIds(list), ids);
  EXPECT_EQ(Contents(list), segs);
  ASSERT_TRUE(list.CheckInvariants().ok());

  // An interior record: the list's last record moves into its slot.
  const uint32_t hole = 5;
  ASSERT_TRUE(list.Erase(segs[hole]).ok());
  std::vector<Segment> want = segs;
  want[hole] = want.back();
  want.pop_back();
  EXPECT_EQ(Contents(list), want);
  EXPECT_EQ(list.size(), want.size());
  ASSERT_TRUE(list.CheckInvariants().ok());

  // A record in the middle of the last page, then the rest of that page:
  // the page empties and is freed.
  ASSERT_TRUE(list.Erase(want[per_page_ + 2]).ok());
  want[per_page_ + 2] = want.back();
  want.pop_back();
  EXPECT_EQ(Contents(list), want);
  while (want.size() > per_page_) {
    ASSERT_TRUE(list.Erase(want.back()).ok());
    want.pop_back();
    ASSERT_TRUE(list.CheckInvariants().ok());
  }
  EXPECT_EQ(list.page_count(), 1u);
  EXPECT_EQ(disk_.pages_in_use(), in_use - 1);
  EXPECT_EQ(Contents(list), want);
  ASSERT_TRUE(pool_.CheckInvariants().ok());
}

TEST_F(SegmentPageListTest, NotFoundChangesNothing) {
  SegmentPageList list(&pool_);
  const std::vector<Segment> segs = MakeSegments(per_page_ + 7, 3);
  ASSERT_TRUE(list.BulkLoad(segs).ok());
  const std::vector<PageId> ids = PageIds(list);
  Segment absent = segs[0];
  absent.id = 1u << 30;  // same geometry, another id
  EXPECT_EQ(list.Erase(absent).code(), StatusCode::kNotFound);
  EXPECT_EQ(list.Erase(Segment::Make({-7, -7}, {-3, -2}, segs[1].id)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Contents(list), segs);
  EXPECT_EQ(PageIds(list), ids);
  EXPECT_EQ(list.size(), segs.size());
  EXPECT_TRUE(list.CheckInvariants().ok());
}

TEST_F(SegmentPageListTest, AuditRejectsMalformedCounts) {
  SegmentPageList list(&pool_);
  ASSERT_TRUE(list.BulkLoad(MakeSegments(per_page_ + 4, 4)).ok());
  ASSERT_TRUE(list.CheckInvariants().ok());
  const std::vector<PageId> ids = PageIds(list);
  ASSERT_EQ(ids.size(), 2u);

  // A count above the page's capacity.
  SetCount(&pool_, ids[0], per_page_ + 1);
  EXPECT_EQ(list.CheckInvariants().code(), StatusCode::kCorruption);
  SetCount(&pool_, ids[0], per_page_);
  ASSERT_TRUE(list.CheckInvariants().ok());

  // An interior page that is not full, with the total kept: only the
  // every-page-but-the-last-is-full rule can reject it.
  SetCount(&pool_, ids[0], per_page_ - 1);
  SetCount(&pool_, ids[1], 5);
  EXPECT_EQ(list.CheckInvariants().code(), StatusCode::kCorruption);
  SetCount(&pool_, ids[0], per_page_);
  SetCount(&pool_, ids[1], 4);
  EXPECT_TRUE(list.CheckInvariants().ok());
}

// Fails the k-th device operation of one mutation for every k until the
// mutation completes. Every failure must leave the records, their order
// and the page ids as they were, with the list and the pool audit-clean.
class SegmentPageListFaultTest : public ::testing::Test {
 protected:
  SegmentPageListFaultTest()
      : disk_(kPageSize, FaultPlan{}), pool_(&disk_, 8), list_(&pool_) {
    disk_.set_enabled(false);
  }

  // Returns how many faults the sweep injected before `op` succeeded.
  uint64_t Sweep(const std::function<Status()>& op) {
    for (uint64_t k = 1;; ++k) {
      EXPECT_LT(k, 10000u) << "sweep did not terminate";
      if (k >= 10000) return 0;
      const std::vector<Segment> before = Contents(list_);
      const std::vector<PageId> ids = PageIds(list_);
      // Start cold, so every fetch is a faultable device read.
      EXPECT_TRUE(pool_.FlushAll().ok());
      EXPECT_TRUE(pool_.EvictAll().ok());
      disk_.ResetPlan(FaultPlan{});
      disk_.ScheduleFailAtOp(k);
      disk_.set_enabled(true);
      const Status s = op();
      disk_.set_enabled(false);
      if (s.ok()) return k - 1;
      EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
      EXPECT_EQ(Contents(list_), before) << "k=" << k;
      EXPECT_EQ(PageIds(list_), ids) << "k=" << k;
      EXPECT_TRUE(list_.CheckInvariants().ok()) << "k=" << k;
      EXPECT_TRUE(pool_.CheckInvariants().ok()) << "k=" << k;
    }
  }

  FaultInjectingDiskManager disk_;
  BufferPool pool_;
  SegmentPageList list_;
  const uint32_t per_page_ = SegmentPageList::PerPage(kPageSize);
};

TEST_F(SegmentPageListFaultTest, FailAtEveryOpLeavesListUnchanged) {
  const std::vector<Segment> segs = MakeSegments(4 * per_page_, 5);
  const std::span<const Segment> first(segs.data(), 2 * per_page_);
  const std::span<const Segment> second(segs.data() + 2 * per_page_,
                                        per_page_ + 3);
  ASSERT_TRUE(list_.BulkLoad(first).ok());

  // BulkLoad over existing contents: new pages are written aside.
  EXPECT_GT(Sweep([&] { return list_.BulkLoad(second); }), 0u);
  std::vector<Segment> want(second.begin(), second.end());
  EXPECT_EQ(Contents(list_), want);

  // Append into the last page, then onto a new one.
  EXPECT_GT(Sweep([&] { return list_.Append(segs.back()); }), 0u);
  want.push_back(segs.back());
  while (list_.size() % per_page_ != 0) {
    const Segment& s = segs[list_.size()];
    ASSERT_TRUE(list_.Append(s).ok());
    want.push_back(s);
  }
  EXPECT_GT(Sweep([&] { return list_.Append(segs[0]); }), 0u);
  want.push_back(segs[0]);
  EXPECT_EQ(Contents(list_), want);

  // Erase from an interior page (two pages pinned), then the record that
  // empties the last page (which is freed).
  EXPECT_GT(Sweep([&] { return list_.Erase(want[3]); }), 0u);
  want[3] = want.back();
  want.pop_back();
  EXPECT_EQ(Contents(list_), want);
  ASSERT_EQ(list_.size() % per_page_, 0u);
  ASSERT_TRUE(list_.Append(segs[1]).ok());
  want.push_back(segs[1]);
  const uint64_t pages = list_.page_count();
  EXPECT_GT(Sweep([&] { return list_.Erase(segs[1]); }), 0u);
  want.pop_back();
  EXPECT_EQ(list_.page_count(), pages - 1);
  EXPECT_EQ(Contents(list_), want);
  EXPECT_TRUE(list_.CheckInvariants().ok());
}

}  // namespace
}  // namespace segdb::io
