#include "geom/nct.h"

#include <string>
#include <unordered_set>

#include "geom/predicates.h"

namespace segdb::geom {

Status ValidateNct(std::span<const Segment> segments) {
  std::unordered_set<uint64_t> ids;
  ids.reserve(segments.size());
  for (const Segment& s : segments) {
    if (!ids.insert(s.id).second) {
      return Status::InvalidArgument("duplicate segment id " +
                                     std::to_string(s.id));
    }
    if (s.x1 > s.x2 || (s.x1 == s.x2 && s.y1 > s.y2)) {
      return Status::InvalidArgument("segment " + std::to_string(s.id) +
                                     " is not in canonical form");
    }
    if (!InDomain(s.x1) || !InDomain(s.y1) || !InDomain(s.x2) ||
        !InDomain(s.y2)) {
      return Status::InvalidArgument("segment " + std::to_string(s.id) +
                                     " exceeds the coordinate bound");
    }
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    for (size_t j = i + 1; j < segments.size(); ++j) {
      if (SegmentsProperlyCross(segments[i], segments[j])) {
        return Status::InvalidArgument(
            "segments " + std::to_string(segments[i].id) + " and " +
            std::to_string(segments[j].id) + " properly cross");
      }
    }
  }
  return Status::OK();
}

uint64_t CountProperCrossings(std::span<const Segment> segments) {
  uint64_t count = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    for (size_t j = i + 1; j < segments.size(); ++j) {
      if (SegmentsProperlyCross(segments[i], segments[j])) ++count;
    }
  }
  return count;
}

std::vector<Segment> BruteForceVerticalSegmentQuery(
    std::span<const Segment> segments, int64_t x0, int64_t ylo, int64_t yhi) {
  std::vector<Segment> out;
  for (const Segment& s : segments) {
    if (IntersectsVerticalSegment(s, x0, ylo, yhi)) out.push_back(s);
  }
  return out;
}

}  // namespace segdb::geom
