// Baseline: linear scan over one io::SegmentPageList. O(n) I/Os per query,
// O(n) blocks — the floor every index must beat (experiment E8).
#ifndef SEGDB_BASELINE_FULL_SCAN_INDEX_H_
#define SEGDB_BASELINE_FULL_SCAN_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/segment_index.h"
#include "io/buffer_pool.h"
#include "io/segment_page_list.h"

namespace segdb::baseline {

class FullScanIndex final : public core::SegmentIndex {
 public:
  explicit FullScanIndex(io::BufferPool* pool) : list_(pool) {}

  // BulkLoad and Insert reject a segment ValidateSegment rejects with
  // InvalidArgument before any page is touched.
  Status BulkLoad(std::span<const geom::Segment> segments) override;
  Status Insert(const geom::Segment& segment) override;
  Status Erase(const geom::Segment& segment) override;
  Status Query(const core::VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override;
  uint64_t size() const override { return list_.size(); }
  uint64_t page_count() const override { return list_.page_count(); }
  std::string name() const override { return "full-scan"; }

  // Audits the page list's bookkeeping (SegmentPageList::CheckInvariants).
  Status CheckInvariants() const override { return list_.CheckInvariants(); }

 private:
  io::SegmentPageList list_;
};

}  // namespace segdb::baseline

#endif  // SEGDB_BASELINE_FULL_SCAN_INDEX_H_
