#include "core/validate.h"

#include <string>
#include <unordered_set>

#include "geom/sweep.h"

namespace segdb::core {

Status ValidateSegment(const geom::Segment& s) {
  if (s.x1 > s.x2 || (s.x1 == s.x2 && s.y1 > s.y2)) {
    return Status::InvalidArgument("segment " + std::to_string(s.id) +
                                   " is not in canonical form (use "
                                   "Segment::Make)");
  }
  if (!geom::InDomain(s.x1) || !geom::InDomain(s.y1) ||
      !geom::InDomain(s.x2) || !geom::InDomain(s.y2)) {
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
