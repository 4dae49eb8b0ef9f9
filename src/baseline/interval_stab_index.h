// Baseline: the classical external interval tree (Figure 1, left) used
// for VS queries the only way it can be — stab the vertical line through
// x0, then filter the y-range client-side. I/O is proportional to the
// stabbing output, which dominates the VS output on long-segment
// workloads; experiment E8 quantifies the gap against the paper's
// structures.
#ifndef SEGDB_BASELINE_INTERVAL_STAB_INDEX_H_
#define SEGDB_BASELINE_INTERVAL_STAB_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/segment_index.h"
#include "core/validate.h"
#include "io/buffer_pool.h"
#include "itree/interval_tree.h"
#include "util/check.h"

namespace segdb::baseline {

class IntervalStabIndex final : public core::SegmentIndex {
 public:
  explicit IntervalStabIndex(io::BufferPool* pool,
                             itree::IntervalTreeOptions options = {})
      : tree_(pool, options) {}

  Status BulkLoad(std::span<const geom::Segment> segments) override {
    SEGDB_IO_BOUND("scan");
    for (const geom::Segment& s : segments) {
      SEGDB_RETURN_IF_ERROR(core::ValidateSegment(s));
    }
    return tree_.BulkLoad(segments);
  }
  Status Insert(const geom::Segment& segment) override {
    SEGDB_IO_BOUND("scan");  // amortized O(log_B n); rebuilds scan
    SEGDB_RETURN_IF_ERROR(core::ValidateSegment(segment));
    return tree_.Insert(segment);
  }
  Status Erase(const geom::Segment& segment) override {
    SEGDB_IO_BOUND("log", "t/B");
    return tree_.Erase(segment);
  }
  Status Query(const core::VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override;
  uint64_t size() const override { return tree_.size(); }
  uint64_t page_count() const override { return tree_.page_count(); }
  std::string name() const override { return "interval-tree+filter"; }
  Status CheckInvariants() const override { return tree_.CheckInvariants(); }

  const itree::IntervalTree& tree() const { return tree_; }

 private:
  itree::IntervalTree tree_;
};

}  // namespace segdb::baseline

#endif  // SEGDB_BASELINE_INTERVAL_STAB_INDEX_H_
