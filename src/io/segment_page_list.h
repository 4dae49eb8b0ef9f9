// An unordered set of segments on a list of pages: the full-scan
// baseline's storage and every first-level leaf of the two-level indexes
// (the paper's leaf blocks of at most B segments, Sections 3-4).
//
// Page layout:
//
//   [ u32 count | u32 pad | columnar region at capacity PerPage() ]
//
// PerPage() = ColumnarRegionCapacity(page_size - 8) is fixed for the page
// size (161 at 4096 bytes), so slot offsets never depend on the fill, and
// every page but the last is full. A list of n segments therefore holds
// exactly ceil(n / PerPage()) pages, and the count of the last page
// follows from size(). The records live only on the pages; the list keeps
// their ids and the total in RAM.
//
// Mutations are fault-atomic: every fallible step (a fetch, a new page)
// happens before the first byte changes, and FreePage is reliable by the
// DiskManager contract. A failed BulkLoad, Append or Erase leaves the records
// and the page ids exactly as they were.
#ifndef SEGDB_IO_SEGMENT_PAGE_LIST_H_
#define SEGDB_IO_SEGMENT_PAGE_LIST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/segment.h"
#include "io/buffer_pool.h"
#include "util/status.h"

namespace segdb::io {

class SegmentPageList {
 public:
  explicit SegmentPageList(BufferPool* pool);
  ~SegmentPageList();  // frees the pages

  SegmentPageList(const SegmentPageList&) = delete;
  SegmentPageList& operator=(const SegmentPageList&) = delete;

  // Records a page of `page_size` bytes holds.
  static uint32_t PerPage(uint32_t page_size);

  // Replaces the contents with `segments`, in order, written on fresh
  // pages; the old pages are freed only once the new ones are complete.
  Status BulkLoad(std::span<const geom::Segment> segments);
  // Writes `s` into the last page, or onto one new page when it is full.
  Status Append(const geom::Segment& s);
  // Removes one record equal to `s`: the last record moves into its slot,
  // and a last page left empty is freed. NotFound when no record matches.
  Status Erase(const geom::Segment& s);
  // Reports the records intersecting the vertical segment x = x0,
  // ylo <= y <= yhi: the filter kernel over each page.
  Status Scan(int64_t x0, int64_t ylo, int64_t yhi,
              std::vector<geom::Segment>* out) const;
  Status CollectAll(std::vector<geom::Segment>* out) const;
  Status Clear();

  uint64_t size() const { return size_; }
  uint64_t page_count() const { return pages_.size(); }
  std::span<const PageId> pages() const { return pages_; }

  // Page bookkeeping: every page's count within [1, PerPage()], every page
  // but the last full, and the counts summing to size().
  Status CheckInvariants() const;

 private:
  BufferPool* const pool_;
  const uint32_t per_page_;
  std::vector<PageId> pages_;
  uint64_t size_ = 0;
};

}  // namespace segdb::io

#endif  // SEGDB_IO_SEGMENT_PAGE_LIST_H_
