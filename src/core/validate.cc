#include "core/validate.h"

#include <string>
#include <unordered_set>

#include "geom/sweep.h"

namespace segdb::core {

namespace {

// A range comparison, not std::abs: |INT64_MIN| is not representable.
bool InDomain(int64_t v) {
  return v >= -geom::kMaxCoord && v <= geom::kMaxCoord;
}

}  // namespace

Status ValidateSegment(const geom::Segment& s) {
  if (s.x1 > s.x2 || (s.x1 == s.x2 && s.y1 > s.y2)) {
    return Status::InvalidArgument("segment " + std::to_string(s.id) +
                                   " is not in canonical form (use "
                                   "Segment::Make)");
  }
  if (!InDomain(s.x1) || !InDomain(s.y1) || !InDomain(s.x2) ||
      !InDomain(s.y2)) {
    return Status::InvalidArgument("segment " + std::to_string(s.id) +
                                   " exceeds the coordinate bound");
  }
  return Status::OK();
}

Status ValidateForIndexing(std::span<const geom::Segment> segments) {
  std::unordered_set<uint64_t> ids;
  ids.reserve(segments.size());
  for (const geom::Segment& s : segments) {
    SEGDB_RETURN_IF_ERROR(ValidateSegment(s));
    if (!ids.insert(s.id).second) {
      return Status::InvalidArgument("duplicate segment id " +
                                     std::to_string(s.id));
    }
  }
  return geom::ValidateNctSweep(segments);
}

}  // namespace segdb::core
