// Round-trip coverage for the columnar (struct-of-arrays) page layout:
// ColumnarPageView strip encoding and the PageRecordLayout codecs (the
// GFragment specialization and the row-major primary).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "geom/predicates.h"
#include "geom/segment.h"
#include "io/columnar_page_view.h"
#include "io/page.h"
#include "segtree/multislab_segment_tree.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb::io {
namespace {

constexpr uint32_t kPageSize = 4096;

std::vector<geom::Segment> MakeSegments(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  return workload::GenMapLayer(rng, n, int64_t{1} << 20);
}

TEST(ColumnarPageViewTest, EmptyRegionRoundTrip) {
  Page p(kPageSize);
  ColumnarPageView view(&p, 0, 0);
  EXPECT_EQ(view.capacity(), 0u);
  std::vector<geom::Segment> out;
  view.ReadRange(0, out.data(), 0);  // must be a no-op, not a crash
  view.AppendMatches(nullptr, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ColumnarPageViewTest, FullPageRoundTrip) {
  // The legacy row-budget capacity (102 at 4096 bytes); with the packed
  // format this region now has slack, which PackedMaxCapacityRoundTrip
  // below reclaims.
  constexpr uint32_t kCap = kPageSize / ConstColumnarPageView::kBytesPerRecord;
  const std::vector<geom::Segment> segs = MakeSegments(kCap, 42);
  Page p(kPageSize);
  ColumnarPageView view(&p, 0, kCap);
  view.WriteRange(0, segs.data(), kCap);
  for (uint32_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(view.Get(i), segs[i]) << "record " << i;
  }
  std::vector<geom::Segment> out(kCap);
  view.ReadRange(0, out.data(), kCap);
  EXPECT_EQ(out, segs);
}

TEST(ColumnarPageViewTest, PackedMaxCapacityRoundTrip) {
  // The bit-packed format fits more records than the 40-byte row budget:
  // at a 4096-byte region the capacity is 161 (was 102). Fill it to the
  // brim, mutate, and read back through both view flavors.
  constexpr uint32_t kCap = 161;
  ASSERT_EQ(ColumnarRegionCapacity(kPageSize), kCap);
  ASSERT_LE(ColumnarRegionBytes(kCap), kPageSize);
  const std::vector<geom::Segment> segs = MakeSegments(kCap, 61);
  Page p(kPageSize);
  {
    ColumnarPageView view(&p, 0, kCap);
    view.WriteRange(0, segs.data(), kCap);
    const geom::Segment patch = geom::Segment::Make({-9, -8}, {7, 6}, 5);
    view.Set(kCap - 1, patch);
    view.Set(kCap - 1, segs[kCap - 1]);  // restore through the same view
  }  // dtor re-encodes the dirty scratch into the page
  const ConstColumnarPageView view(p, 0, kCap);
  for (uint32_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(view.Get(i), segs[i]) << "record " << i;
  }
  std::vector<geom::Segment> out(kCap);
  view.ReadRange(0, out.data(), kCap);
  EXPECT_EQ(out, segs);
}

TEST(ColumnarPageViewTest, PackedLegacyBoundary) {
  // Capacities on both sides of 4, where the 56-byte header stops costing
  // more than the row-major footprint, round-trip in the one format.
  for (uint32_t cap : {1u, 2u, 3u, 4u, 5u}) {
    const std::vector<geom::Segment> segs = MakeSegments(cap, 100 + cap);
    Page p(kPageSize);
    {
      ColumnarPageView view(&p, 24, cap);
      view.WriteRange(0, segs.data(), cap);
    }
    const ConstColumnarPageView view(p, 24, cap);
    for (uint32_t i = 0; i < cap; ++i) {
      ASSERT_EQ(view.Get(i), segs[i]) << "cap " << cap << " record " << i;
    }
  }
}

TEST(ColumnarPageViewTest, UnalignedBaseOffset) {
  // A line-PST node with odd fanout starts its segment region at 4 mod 8;
  // the view must tolerate any base alignment (memcpy lane access).
  const std::vector<geom::Segment> segs = MakeSegments(20, 7);
  Page p(kPageSize);
  ColumnarPageView view(&p, 12, 20);
  view.WriteRange(0, segs.data(), 20);
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(view.Get(i), segs[i]);
}

TEST(ColumnarPageViewTest, PartialWritesAndSingleSlots) {
  const std::vector<geom::Segment> segs = MakeSegments(10, 9);
  Page p(kPageSize);
  ColumnarPageView view(&p, 8, 16);
  view.WriteRange(0, segs.data(), 10);
  // Overwrite one slot in the middle; neighbours must be untouched.
  const geom::Segment patch =
      geom::Segment::Make({-5, -6}, {7, 8}, 9999);
  view.Set(4, patch);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(view.Get(i), i == 4 ? patch : segs[i]);
  }
  // Suffix read at a nonzero first index.
  std::vector<geom::Segment> tail(3);
  view.ReadRange(7, tail.data(), 3);
  EXPECT_EQ(tail[0], segs[7]);
  EXPECT_EQ(tail[2], segs[9]);
}

TEST(ColumnarPageViewTest, AppendMatchesGathers) {
  const std::vector<geom::Segment> segs = MakeSegments(32, 3);
  Page p(kPageSize);
  ColumnarPageView view(&p, 0, 32);
  view.WriteRange(0, segs.data(), 32);
  const uint32_t idx[4] = {1, 8, 8, 31};
  std::vector<geom::Segment> out = {segs[0]};  // existing content survives
  view.AppendMatches(idx, 4, &out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], segs[0]);
  EXPECT_EQ(out[1], segs[1]);
  EXPECT_EQ(out[2], segs[8]);
  EXPECT_EQ(out[3], segs[8]);
  EXPECT_EQ(out[4], segs[31]);
}

// --- The page's decode slot (io/page.h) -------------------------------

constexpr uint32_t kSlotBase = 8;
const uint32_t kSlotCap = ColumnarRegionCapacity(kPageSize - kSlotBase);

std::vector<geom::Segment> SlotRecords(uint64_t seed) {
  std::vector<geom::Segment> segs = MakeSegments(kSlotCap, seed);
  segs.resize(kSlotCap);
  return segs;
}

Page EncodedPage(const std::vector<geom::Segment>& segs) {
  Page p(kPageSize);
  ColumnarPageView(&p, kSlotBase, kSlotCap)
      .WriteRange(0, segs.data(), static_cast<uint32_t>(segs.size()));
  return p;
}

// A bulk read through a fresh read-only view: fills or serves the slot.
std::vector<geom::Segment> ReadAll(const Page& p) {
  std::vector<geom::Segment> out(kSlotCap);
  ConstColumnarPageView(p, kSlotBase, kSlotCap)
      .ReadRange(0, out.data(), kSlotCap);
  return out;
}

TEST(PageDecodeSlotTest, TwoConstViewsShareOneDecode) {
  const std::vector<geom::Segment> segs = SlotRecords(1);
  const Page p = EncodedPage(segs);
  EXPECT_EQ(p.decoded().lanes, nullptr);
  const ConstColumnarPageView a(p, kSlotBase, kSlotCap);
  const ConstColumnarPageView b(p, kSlotBase, kSlotCap);
  const geom::SegmentStrips sa = a.strips();
  const Page::DecodedRegion ready = p.decoded();
  ASSERT_NE(ready.lanes, nullptr);
  EXPECT_EQ(ready.off, kSlotBase);
  EXPECT_EQ(ready.capacity, kSlotCap);
  EXPECT_EQ(sa.x1, reinterpret_cast<const uint8_t*>(ready.lanes));
  const geom::SegmentStrips sb = b.strips();
  EXPECT_EQ(sb.x1, sa.x1);
  EXPECT_EQ(sb.x2, sa.x2);
  EXPECT_EQ(sb.y1, sa.y1);
  EXPECT_EQ(sb.y2, sa.y2);
  EXPECT_EQ(b.id_strip(), a.id_strip());
  for (uint32_t i = 0; i < kSlotCap; ++i) EXPECT_EQ(b.Get(i), segs[i]);
}

TEST(PageDecodeSlotTest, AnotherRegionDecodesPrivately) {
  // Two regions on one page: the first bulk read takes the slot, the
  // other region's view decodes into scratch and leaves the slot alone.
  constexpr uint32_t kCap = 24;
  const uint32_t second = kSlotBase + static_cast<uint32_t>(
                                          ColumnarRegionBytes(kCap));
  const std::vector<geom::Segment> segs = MakeSegments(2 * kCap, 5);
  Page p(kPageSize);
  ColumnarPageView(&p, kSlotBase, kCap).WriteRange(0, segs.data(), kCap);
  ColumnarPageView(&p, second, kCap).WriteRange(0, segs.data() + kCap, kCap);
  const Page& cp = p;
  const ConstColumnarPageView a(cp, kSlotBase, kCap);
  const ConstColumnarPageView b(cp, second, kCap);
  const uint8_t* a_x1 = a.x1_strip();
  EXPECT_NE(b.x1_strip(), a_x1);
  EXPECT_EQ(cp.decoded().off, kSlotBase);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(cp.decoded().lanes), a_x1);
  for (uint32_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(a.Get(i), segs[i]);
    EXPECT_EQ(b.Get(i), segs[kCap + i]);
  }
}

TEST(PageDecodeSlotTest, EveryWriteEntryPointDropsTheDecode) {
  const std::vector<geom::Segment> before = SlotRecords(2);
  const std::vector<geom::Segment> after = SlotRecords(3);
  const std::vector<geom::Segment> zeros(kSlotCap);
  const Page next = EncodedPage(after);
  struct Entry {
    const char* name;
    std::function<void(Page*)> write;
    const std::vector<geom::Segment>* expect;
  };
  const Entry entries[] = {
      {"WriteAt",
       [&](Page* p) {
         for (uint32_t i = 0; i < kPageSize; ++i) {
           p->WriteAt<uint8_t>(i, next.ReadAt<uint8_t>(i));
         }
       },
       &after},
      {"WriteArray",
       [&](Page* p) { p->WriteArray(0, next.data(), kPageSize); }, &after},
      {"Zero", [](Page* p) { p->Zero(); }, &zeros},
      {"data",
       [&](Page* p) { std::memcpy(p->data(), next.data(), kPageSize); },
       &after},
      {"mutable view Set",
       [&](Page* p) {
         ColumnarPageView view(p, kSlotBase, kSlotCap);
         for (uint32_t i = 0; i < kSlotCap; ++i) view.Set(i, after[i]);
       },
       &after},
      {"copy-assignment", [&](Page* p) { *p = next; }, &after},
      {"move-assignment",
       [&](Page* p) {
         Page moved = next;
         *p = std::move(moved);
       },
       &after},
  };
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.name);
    Page p = EncodedPage(before);
    ASSERT_EQ(ReadAll(p), before);
    const int64_t* lanes = std::as_const(p).decoded().lanes;
    ASSERT_NE(lanes, nullptr);
    e.write(&p);
    EXPECT_EQ(std::as_const(p).decoded().lanes, nullptr);
    EXPECT_EQ(ReadAll(p), *e.expect);
    // The refill reuses the buffer the page already holds.
    EXPECT_EQ(std::as_const(p).decoded().lanes, lanes);
  }
}

TEST(PageDecodeSlotTest, CopiedPageStartsWithNoDecode) {
  const std::vector<geom::Segment> segs = SlotRecords(4);
  Page p = EncodedPage(segs);
  ASSERT_EQ(ReadAll(p), segs);
  const int64_t* lanes = std::as_const(p).decoded().lanes;
  ASSERT_NE(lanes, nullptr);
  const Page copy(p);
  EXPECT_EQ(copy.decoded().lanes, nullptr);
  EXPECT_EQ(ReadAll(copy), segs);
  EXPECT_NE(copy.decoded().lanes, lanes);
  const Page moved(std::move(p));
  EXPECT_EQ(moved.decoded().lanes, nullptr);
  EXPECT_EQ(ReadAll(moved), segs);
}

TEST(PageRecordLayoutTest, RowMajorPrimaryRoundTrip) {
  struct Pair {
    int64_t a;
    uint64_t b;
  };
  static_assert(!PageRecordLayout<Pair>::kColumnar);
  Page p(kPageSize);
  const Pair in[3] = {{1, 2}, {-3, 4}, {5, 6}};
  PageRecordLayout<Pair>::WriteRange(&p, 16, 8, 0, in, 3);
  PageRecordLayout<Pair>::Write(&p, 16, 8, 3, Pair{-7, 8});
  Pair out[4] = {};
  PageRecordLayout<Pair>::ReadRange(p, 16, 8, 0, out, 4);
  EXPECT_EQ(out[1].a, -3);
  EXPECT_EQ(out[3].a, -7);
  EXPECT_EQ(PageRecordLayout<Pair>::Read(p, 16, 8, 2).b, 6u);
}

TEST(PageRecordLayoutTest, GFragmentSpecializationRoundTrip) {
  using segtree::GFragment;
  static_assert(PageRecordLayout<GFragment>::kColumnar);
  const std::vector<geom::Segment> segs = MakeSegments(9, 17);
  std::vector<GFragment> in;
  for (uint32_t i = 0; i < segs.size(); ++i) {
    GFragment g;
    g.seg = segs[i];
    g.land_left = i * 3;
    g.land_right = i * 5 + 1;
    g.slot_left = static_cast<uint16_t>(i);
    g.slot_right = static_cast<uint16_t>(100 + i);
    g.flags = static_cast<uint8_t>(i % 4);
    in.push_back(g);
  }
  Page p(kPageSize);
  PageRecordLayout<GFragment>::WriteRange(&p, 16, 9, 0,
                                          in.data(), 9);
  PageRecordLayout<GFragment>::Write(&p, 16, 9, 4, in[4]);
  for (uint32_t i = 0; i < 9; ++i) {
    const GFragment out = PageRecordLayout<GFragment>::Read(p, 16, 9, i);
    EXPECT_EQ(out.seg, in[i].seg);
    EXPECT_EQ(out.land_left, in[i].land_left);
    EXPECT_EQ(out.land_right, in[i].land_right);
    EXPECT_EQ(out.slot_left, in[i].slot_left);
    EXPECT_EQ(out.slot_right, in[i].slot_right);
    EXPECT_EQ(out.flags, in[i].flags);
  }
}

}  // namespace
}  // namespace segdb::io
