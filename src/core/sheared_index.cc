#include "core/sheared_index.h"

#include "util/check.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace segdb::core {

namespace {
using geom::Point;
using geom::Segment;
}  // namespace

ShearedIndex::ShearedIndex(std::unique_ptr<SegmentIndex> inner, int64_t dir_x,
                           int64_t dir_y)
    : inner_(std::move(inner)), dx_(dir_x), dy_(dir_y) {
  SEGDB_DCHECK(!(dx_ == 0 && dy_ == 0)) << "direction must be nonzero";
  // The direction's sign is preserved — segment queries extend along the
  // caller's (dx, dy), not its reflection.
  transpose_ = (dy_ == 0);
}

Point ShearedIndex::Forward(Point p) const {
  if (transpose_) return Point{p.y, p.x};
  return Point{dy_ * p.x - dx_ * p.y, p.y};
}

Point ShearedIndex::Backward(Point p) const {
  if (transpose_) return Point{p.y, p.x};
  // x = (u + dx*v) / dy — exact by construction.
  return Point{(p.x + dx_ * p.y) / dy_, p.y};
}

Status ShearedIndex::ValidateInput(const Segment& s) const {
  const int64_t budget =
      geom::kMaxCoord / (std::abs(dx_) + std::abs(dy_));
  // Range comparisons, not std::abs: |INT64_MIN| is not representable.
  const auto outside = [budget](int64_t v) {
    return v < -budget || v > budget;
  };
  if (outside(s.x1) || outside(s.x2) || outside(s.y1) || outside(s.y2)) {
    return Status::InvalidArgument(
        "segment " + std::to_string(s.id) +
        " exceeds the sheared coordinate budget");
  }
  return Status::OK();
}

Status ShearedIndex::BulkLoad(std::span<const Segment> segments) {
  SEGDB_IO_BOUND("scan");
  std::vector<Segment> transformed;
  transformed.reserve(segments.size());
  for (const Segment& s : segments) {
    SEGDB_RETURN_IF_ERROR(ValidateInput(s));
    transformed.push_back(
        Segment::Make(Forward(s.lo()), Forward(s.hi()), s.id));
  }
  return inner_->BulkLoad(transformed);
}

Status ShearedIndex::Insert(const Segment& s) {
  SEGDB_IO_BOUND("scan");  // cost class of the wrapped index's insert
  SEGDB_RETURN_IF_ERROR(ValidateInput(s));
  return inner_->Insert(Segment::Make(Forward(s.lo()), Forward(s.hi()), s.id));
}

Status ShearedIndex::Erase(const Segment& s) {
  SEGDB_IO_BOUND("scan");  // cost class of the wrapped index's erase
  SEGDB_RETURN_IF_ERROR(ValidateInput(s));
  return inner_->Erase(Segment::Make(Forward(s.lo()), Forward(s.hi()), s.id));
}

Status ShearedIndex::RunQuery(const VerticalSegmentQuery& q,
                              std::vector<Segment>* out) const {
  // The shear only re-labels coordinates, so the wrapped index's query
  // bound carries over unchanged. `inner_` is one of the paper's
  // structures (Theorem 1 or 2 class); the checker's virtual-dispatch
  // union over every SegmentIndex::Query over-approximates to scan.
  // SEMA-OK: virtual inner index; bound matches the wrapped structure
  SEGDB_IO_BOUND("log", "sqrt", "t/B");
  std::vector<Segment> transformed;
  SEGDB_RETURN_IF_ERROR(inner_->Query(q, &transformed));
  out->reserve(out->size() + transformed.size());
  for (const Segment& s : transformed) {
    out->push_back(Segment::Make(Backward(s.lo()), Backward(s.hi()), s.id));
  }
  return Status::OK();
}

Status ShearedIndex::QuerySegment(Point anchor, int64_t steps,
                                  std::vector<Segment>* out) const {
  SEGDB_IO_BOUND("log", "sqrt", "t/B");  // RunQuery's class (footnote 1)
  if (steps < 0) return Status::InvalidArgument("steps must be >= 0");
  const Point a = Forward(anchor);
  // In the transformed plane the query runs vertically from a.y by
  // steps * (direction's v-component), whose sign follows the direction.
  const int64_t rise = (transpose_ ? dx_ : dy_) * steps;
  return RunQuery(VerticalSegmentQuery::Segment(a.x, std::min(a.y, a.y + rise),
                                                std::max(a.y, a.y + rise)),
                  out);
}

Status ShearedIndex::QueryLine(Point anchor,
                               std::vector<Segment>* out) const {
  SEGDB_IO_BOUND("log", "sqrt", "t/B");  // RunQuery's class (footnote 1)
  const Point a = Forward(anchor);
  return RunQuery(VerticalSegmentQuery::Line(a.x), out);
}

}  // namespace segdb::core
