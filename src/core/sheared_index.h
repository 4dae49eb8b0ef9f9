// Fixed-direction generalized queries — the paper's footnote 1: "if the
// query segment is not vertical, coordinate axes can be appropriately
// rotated". Over integer coordinates the right bijection is a *shear*:
// for a query direction (dx, dy) (a rational slope), the map
//
//     T(x, y) = (dy*x - dx*y, y)          when dy != 0
//     T(x, y) = (y, x)                    when dy == 0 (transpose)
//
// sends every line of direction (dx, dy) to a vertical line, is linear
// and invertible (so NCT sets stay NCT, intersections are preserved), and
// keeps coordinates integral in both directions. ShearedIndex stores the
// transformed segments in any SegmentIndex and answers queries along the
// fixed direction by delegating vertical queries.
//
// Coordinate budget: |T(x,y)| <= (|dx| + |dy|) * max|coord|, so inputs
// must satisfy max|coord| <= kMaxCoord / (|dx| + |dy|); violations are
// rejected with InvalidArgument.
#ifndef SEGDB_CORE_SHEARED_INDEX_H_
#define SEGDB_CORE_SHEARED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/segment_index.h"
#include "geom/segment.h"
#include "util/status.h"

namespace segdb::core {

class ShearedIndex {
 public:
  // `direction` = (dx, dy). Vertical (0, 1) degenerates to the identity;
  // horizontal (1, 0) to a transpose. With (0, 0) every call returns
  // InvalidArgument and leaves the inner index unchanged.
  ShearedIndex(std::unique_ptr<SegmentIndex> inner, int64_t dir_x,
               int64_t dir_y);

  Status BulkLoad(std::span<const geom::Segment> segments);
  Status Insert(const geom::Segment& segment);
  Status Erase(const geom::Segment& segment);

  // Reports every stored segment intersecting the query segment that
  // starts at `anchor` and extends `steps` direction-units along
  // (dir_x, dir_y) (steps >= 0; steps == 0 is a point probe).
  Status QuerySegment(geom::Point anchor, int64_t steps,
                      std::vector<geom::Segment>* out) const;

  // Reports every stored segment intersecting the full line through
  // `anchor` with the fixed direction.
  Status QueryLine(geom::Point anchor,
                   std::vector<geom::Segment>* out) const;

  uint64_t size() const { return inner_->size(); }
  uint64_t page_count() const { return inner_->page_count(); }
  std::string name() const { return "sheared(" + inner_->name() + ")"; }

  // The shear is stateless beyond the wrapped index, so auditing delegates
  // to the inner structure (which holds the transformed segments).
  Status CheckInvariants() const { return inner_->CheckInvariants(); }

 private:
  geom::Point Forward(geom::Point p) const;
  geom::Point Backward(geom::Point p) const;
  Status CheckDirection() const;
  // CheckDirection, then the coordinate budget.
  Status ValidateInput(const geom::Segment& s) const;
  Status RunQuery(const VerticalSegmentQuery& q,
                  std::vector<geom::Segment>* out) const;

  std::unique_ptr<SegmentIndex> inner_;
  int64_t dx_;
  int64_t dy_;
  bool transpose_;  // dy == 0 path
};

}  // namespace segdb::core

#endif  // SEGDB_CORE_SHEARED_INDEX_H_
