#include "pst/point_pst.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace segdb::pst {

namespace {
// Base line of the transposed space: strictly below every admissible key y.
constexpr int64_t kBase = -(geom::kMaxCoord + 1);
}  // namespace

PointPst::PointPst(io::BufferPool* pool, LinePstOptions options)
    : impl_(pool, kBase, Direction::kRight, options) {}

geom::Segment PointPst::Encode(const PointRecord& p) {
  // Horizontal segment at height p.x, spanning [kBase, p.y]: reach == p.y,
  // height at any abscissa == p.x.
  return geom::Segment::Make(geom::Point{kBase, p.x},
                             geom::Point{p.y, p.x}, p.id);
}

PointRecord PointPst::Decode(const geom::Segment& s) {
  return PointRecord{s.y1, s.x2, s.id};
}

Status PointPst::BulkLoad(std::span<const PointRecord> points) {
  SEGDB_IO_BOUND("scan");
  std::vector<geom::Segment> encoded;
  encoded.reserve(points.size());
  for (const PointRecord& p : points) {
    if (!geom::InDomain(p.x) || !geom::InDomain(p.y)) {
      return Status::InvalidArgument("point " + std::to_string(p.id) +
                                     " exceeds the coordinate bound");
    }
    encoded.push_back(Encode(p));
  }
  return impl_.BulkLoad(encoded);
}

Status PointPst::Insert(const PointRecord& point) {
  SEGDB_IO_BOUND("scan");  // amortized O(log_B n); see LinePst::Insert
  if (!geom::InDomain(point.x) || !geom::InDomain(point.y)) {
    return Status::InvalidArgument("point " + std::to_string(point.id) +
                                   " exceeds the coordinate bound");
  }
  return impl_.Insert(Encode(point));
}

Status PointPst::Erase(const PointRecord& point) {
  SEGDB_IO_BOUND("scan");  // amortized O(log_B n); see LinePst::Erase
  if (!geom::InDomain(point.x) || !geom::InDomain(point.y)) {
    return Status::NotFound("point outside the coordinate bound");
  }
  return impl_.Erase(Encode(point));
}

Status PointPst::CollectAll(std::vector<PointRecord>* out) const {
  std::vector<geom::Segment> raw;
  SEGDB_RETURN_IF_ERROR(impl_.CollectAll(&raw));
  out->reserve(out->size() + raw.size());
  for (const geom::Segment& s : raw) out->push_back(Decode(s));
  return Status::OK();
}

Status PointPst::Query3Sided(int64_t xlo, int64_t xhi, int64_t ylo,
                             std::vector<PointRecord>* out) const {
  SEGDB_IO_BOUND("log", "t/B");  // the external PST bound (Section 2)
  if (xlo > xhi) return Status::InvalidArgument("xlo > xhi");
  // Stored keys satisfy y >= -kMaxCoord, so clamping an unbounded ylo to
  // the base line preserves the answer while keeping the transposed query
  // inside the stored half-plane.
  ylo = std::max(ylo, kBase + 1);
  std::vector<geom::Segment> raw;
  SEGDB_RETURN_IF_ERROR(impl_.Query(ylo, xlo, xhi, &raw));
  out->reserve(out->size() + raw.size());
  for (const geom::Segment& s : raw) out->push_back(Decode(s));
  return Status::OK();
}

}  // namespace segdb::pst
