// Columnar (struct-of-arrays) segment layout inside data pages, with
// per-column frame-of-reference compression (io/column_codec.h has the
// format).
//
// A columnar region of capacity C holds the five logical columns
// x1/x2/y1/y2/id in one packed format: a 56-byte header plus bit-packed
// columns. The byte budget reserves 34 bits per coordinate lane and 8
// bytes per id lane, so ColumnarRegionBytes(C) <= 40 * C from C = 4 up,
// and every leaf builder that derives its fan-out from
// ColumnarRegionCapacity(bytes) fits more records per page than row-major
// did.
//
// Access model. The read-only view parses only the 56-byte header at
// construction, so per-record probes (the B+-tree binary searches build a
// view per comparison) stay O(1): Get extracts one lane from the packed
// bits. strips() and ReadRange — the bulk entries the filter kernels and
// gathers consume — serve the page's decode slot (io/page.h): the region is
// decoded at most once per page residency (geom decode kernels, AVX2 where
// the CPU has it), by the first reader that wins the slot, and every later
// view of the page reads the same lanes; Get switches to the decoded lanes
// from then on. A reader that loses the fill race, or finds another region
// of the page cached, decodes into a checked-out thread-local scratch
// instead. The mutable view never fills the slot: it decodes eagerly into
// scratch, applies Set/WriteRange there, and re-encodes on destruction iff
// anything changed, through Page::data(), which drops the slot. The encode
// is canonical (a pure function of the lane values), which
// BufferPool::CheckInvariants' clean-frame-vs-disk compare relies on.
// Read-your-writes holds within a view; a mutable view's writes reach the
// page when the view dies, so callers must not read the same region
// through a *different* view while a dirty mutable view is live (no call
// site in the tree does), and a read-only view's lanes are valid only
// until the page is next written.
//
// strips() pointers come from an 8-aligned lane buffer, while the region
// itself may start at any offset (a line-PST node with odd fanout starts
// at 4 mod 8), so header and lane access stay memcpy-based — same
// discipline as Page::ReadAt.
#ifndef SEGDB_IO_COLUMNAR_PAGE_VIEW_H_
#define SEGDB_IO_COLUMNAR_PAGE_VIEW_H_

#include <cstdint>
#include <vector>

#include "geom/decode_kernel.h"
#include "geom/filter_kernel.h"
#include "geom/segment.h"
#include "io/column_codec.h"
#include "io/page.h"
#include "util/check.h"

namespace segdb::io {

// Read-only view of a columnar segment region: `capacity` records starting
// at byte `base_off` of `page`. The capacity must be the value the region
// was written with — the column offsets depend on it.
class ConstColumnarPageView {
 public:
  static constexpr uint32_t kLaneBytes = 8;
  static constexpr uint32_t kBytesPerRecord = 5 * kLaneBytes;
  static_assert(kBytesPerRecord == kLegacyBytesPerRecord);
  static_assert(kBytesPerRecord == sizeof(geom::Segment),
                "row-major record footprint is the codec's raw baseline");

  ConstColumnarPageView(const Page& page, uint32_t base_off,
                        uint32_t capacity)
      : page_(&page),
        base_(page.data() + base_off),
        base_off_(base_off),
        capacity_(capacity) {
    SEGDB_DCHECK(uint64_t{base_off} + ColumnarRegionBytes(capacity) <=
                 page.size());
    if (capacity_ != 0) info_ = ParsePackedRegionHeader(base_, capacity_);
  }

  // Views hand out pointers into page bytes, the page's decode slot or
  // checked-out scratch; they are scoped locals everywhere, so copying is
  // disabled outright.
  ConstColumnarPageView(const ConstColumnarPageView&) = delete;
  ConstColumnarPageView& operator=(const ConstColumnarPageView&) = delete;

  uint32_t capacity() const { return capacity_; }

  // Strip bases in layout order x1, x2, y1, y2, id. The first call serves
  // the page's decode slot, filling it if the region is not decoded yet.
  const uint8_t* x1_strip() const { return Strip(0); }
  const uint8_t* x2_strip() const { return Strip(1); }
  const uint8_t* y1_strip() const { return Strip(2); }
  const uint8_t* y2_strip() const { return Strip(3); }
  const uint8_t* id_strip() const { return Strip(4); }

  geom::SegmentStrips strips() const {
    return geom::SegmentStrips{x1_strip(), x2_strip(), y1_strip(),
                               y2_strip()};
  }

  geom::Segment Get(uint32_t i) const {
    SEGDB_DCHECK(i < capacity_);
    geom::Segment s;
    s.x1 = Lane(0, i);
    s.x2 = Lane(1, i);
    s.y1 = Lane(2, i);
    s.y2 = Lane(3, i);
    s.id = static_cast<uint64_t>(Lane(4, i));
    return s;
  }

  void ReadRange(uint32_t first, geom::Segment* out, uint32_t count) const {
    SEGDB_DCHECK(uint64_t{first} + count <= capacity_);
    if (count > 1) EnsureDecoded();
    for (uint32_t i = 0; i < count; ++i) out[i] = Get(first + i);
  }

  // Batch emission: bulk-appends the records named by a kernel's match-
  // index run. One resize, then a gather — no per-segment push_back.
  void AppendMatches(const uint32_t* idx, uint32_t n,
                     std::vector<geom::Segment>* out) const {
    if (n == 0) return;
    const size_t old_size = out->size();
    out->resize(old_size + n);
    geom::Segment* dst = out->data() + old_size;
    for (uint32_t j = 0; j < n; ++j) dst[j] = Get(idx[j]);
  }

 protected:
  // One lane, O(1): decoded lanes when available, otherwise a bit
  // extraction off the parsed header.
  int64_t Lane(uint32_t column, uint32_t i) const {
    if (lanes_ != nullptr) {
      return lanes_[uint64_t{column} * capacity_ + i];
    }
    return PackedRegionLane(base_, info_, column, i);
  }

  void EnsureDecoded() const {
    if (lanes_ != nullptr || capacity_ == 0) return;
    lanes_ = page_->SharedDecode(
        base_off_, capacity_, uint64_t{kColumnarColumns} * capacity_,
        [this](int64_t* out) { DecodeColumnarRegion(base_, capacity_, out); });
    if (lanes_ == nullptr) DecodeToScratch();
  }

  void DecodeToScratch() const {
    scratch_ = geom::ColumnScratch(uint64_t{kColumnarColumns} * capacity_);
    DecodeColumnarRegion(base_, capacity_, scratch_.data());
    lanes_ = scratch_.data();
  }

  // The lane layout: column-major 8-byte lanes. An empty region has no
  // lanes; its strips point at the region base.
  const uint8_t* Strip(uint32_t lane) const {
    EnsureDecoded();
    if (lanes_ == nullptr) return base_;
    return reinterpret_cast<const uint8_t*>(lanes_) +
           uint64_t{lane} * capacity_ * kLaneBytes;
  }

  const Page* page_;
  const uint8_t* base_;
  uint32_t base_off_;
  uint32_t capacity_;
  PackedRegionInfo info_;
  mutable geom::ColumnScratch scratch_;
  // The page's shared lanes or scratch's; the mutable view writes scratch.
  mutable const int64_t* lanes_ = nullptr;
};

// Mutable view over the same layout. The region decodes eagerly into
// scratch, never into the page's decode slot, so Get/Set interleave with
// read-your-writes; the destructor re-encodes the region iff a write
// happened (canonical bytes — see the file comment). The re-encode writes
// through Page::data(), which drops the page's decode slot.
class ColumnarPageView : public ConstColumnarPageView {
 public:
  ColumnarPageView(Page* page, uint32_t base_off, uint32_t capacity)
      : ConstColumnarPageView(*page, base_off, capacity), mut_page_(page) {
    if (capacity_ != 0) DecodeToScratch();
  }

  ~ColumnarPageView() {
    if (dirty_) {
      EncodeColumnarRegion(mut_page_->data() + base_off_, capacity_,
                           scratch_.data());
    }
  }

  void Set(uint32_t i, const geom::Segment& s) {
    SEGDB_DCHECK(i < capacity());
    int64_t* lanes = scratch_.data();
    lanes[uint64_t{0} * capacity_ + i] = s.x1;
    lanes[uint64_t{1} * capacity_ + i] = s.x2;
    lanes[uint64_t{2} * capacity_ + i] = s.y1;
    lanes[uint64_t{3} * capacity_ + i] = s.y2;
    lanes[uint64_t{4} * capacity_ + i] = static_cast<int64_t>(s.id);
    dirty_ = true;
  }

  void WriteRange(uint32_t first, const geom::Segment* src, uint32_t count) {
    SEGDB_DCHECK(uint64_t{first} + count <= capacity());
    for (uint32_t i = 0; i < count; ++i) Set(first + i, src[i]);
  }

 private:
  Page* mut_page_;
  bool dirty_ = false;
};

// Leaf-record serialization policy for page-resident record arrays (the
// BPlusTree leaf level). The primary template keeps the row-major layout —
// correct for any trivially-copyable record. The specialization for G's
// fragments (segtree::GFragment, next to its definition) switches the
// region to compressed columnar strips, which SHRINKS the region:
// Capacity(bytes) is how leaf builders learn the higher fan-out, and
// RegionBytes(capacity) is where the trailing row-major metadata starts.
template <typename Record>
struct PageRecordLayout {
  static constexpr bool kColumnar = false;

  // Records a region of `region_bytes` can hold under this layout.
  static uint32_t Capacity(uint32_t region_bytes) {
    return region_bytes / static_cast<uint32_t>(sizeof(Record));
  }

  static uint32_t RegionBytes(uint32_t capacity) {
    return capacity * static_cast<uint32_t>(sizeof(Record));
  }

  static Record Read(const Page& page, uint32_t base, uint32_t /*capacity*/,
                     uint32_t i) {
    return page.ReadAt<Record>(
        base + i * static_cast<uint32_t>(sizeof(Record)));
  }

  static void Write(Page* page, uint32_t base, uint32_t /*capacity*/,
                    uint32_t i, const Record& r) {
    page->WriteAt(base + i * static_cast<uint32_t>(sizeof(Record)), r);
  }

  static void ReadRange(const Page& page, uint32_t base,
                        uint32_t /*capacity*/, uint32_t first, Record* out,
                        uint32_t count) {
    page.ReadArray(base + first * static_cast<uint32_t>(sizeof(Record)), out,
                   count);
  }

  static void WriteRange(Page* page, uint32_t base, uint32_t /*capacity*/,
                         uint32_t first, const Record* src, uint32_t count) {
    page->WriteArray(base + first * static_cast<uint32_t>(sizeof(Record)),
                     src, count);
  }
};

}  // namespace segdb::io

#endif  // SEGDB_IO_COLUMNAR_PAGE_VIEW_H_
