#include "baseline/full_scan_index.h"

#include "core/validate.h"

namespace segdb::baseline {

Status FullScanIndex::BulkLoad(std::span<const geom::Segment> segments) {
  SEGDB_IO_BOUND("scan");
  for (const geom::Segment& s : segments) {
    SEGDB_RETURN_IF_ERROR(core::ValidateSegment(s));
  }
  return list_.BulkLoad(segments);  // builds aside: a failed load is a no-op
}

Status FullScanIndex::Insert(const geom::Segment& segment) {
  SEGDB_IO_BOUND("1");  // append to the last page, or allocate one
  SEGDB_RETURN_IF_ERROR(core::ValidateSegment(segment));
  return list_.Append(segment);
}

Status FullScanIndex::Erase(const geom::Segment& segment) {
  SEGDB_IO_BOUND("scan");
  return list_.Erase(segment);
}

Status FullScanIndex::Query(const core::VerticalSegmentQuery& q,
                            std::vector<geom::Segment>* out) const {
  SEGDB_IO_BOUND("scan");  // the baseline the paper's structures beat
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  return list_.Scan(q.x0, q.ylo, q.yhi, out);
}

}  // namespace segdb::baseline
