// Pre-indexing validation: everything a segment set must satisfy before
// being handed to a SegmentIndex, checked in O(n log n):
//   * canonical form and coordinate bounds (geom::kMaxCoord), per segment
//     (ValidateSegment),
//   * unique ids,
//   * the NCT invariant (no proper crossings), via the plane sweep.
// The two-level indexes (Solutions A and B) run ValidateSegment on every
// segment they are given. They do not check ids or the NCT invariant (the
// sweep costs more than the build), so call ValidateForIndexing at
// ingestion boundaries, as the examples do.
#ifndef SEGDB_CORE_VALIDATE_H_
#define SEGDB_CORE_VALIDATE_H_

#include <span>

#include "geom/segment.h"
#include "util/status.h"

namespace segdb::core {

// InvalidArgument unless s is in canonical form (Segment::Make's endpoint
// order) and every coordinate lies in [-kMaxCoord, kMaxCoord].
Status ValidateSegment(const geom::Segment& s);

Status ValidateForIndexing(std::span<const geom::Segment> segments);

}  // namespace segdb::core

#endif  // SEGDB_CORE_VALIDATE_H_
