// External priority search tree over points: 3-sided queries
// (xlo <= x <= xhi, y >= ylo), the classical McCreight problem the paper
// builds on (its Figure 2 relates 3-sided point queries to segment
// queries).
//
// Implementation: a thin adapter over LinePst. A point (x, y) maps to the
// horizontal segment from (base, x) to (y, x) in transposed space, where
// base lies below every key's y. That segment "reaches" abscissa q exactly
// when y >= q, and its height at q is x — so LinePst::Query(qx=ylo,
// [xlo, xhi]) is precisely the 3-sided query. Horizontal segments never
// properly cross, so every LinePst invariant holds unconditionally.
//
// Uses in segdb:
//  * C structures of both two-level indexes: segments lying ON a base
//    line x = c are intervals [lo, hi]; a VS query [a, b] on that line
//    intersects interval (lo, hi) iff lo <= b and hi >= a — the 3-sided
//    query x <= b, y >= a over points (lo, hi).
//  * the endpoint-PST baseline of experiment E11 (Figure 2's incorrect
//    reduction, quantified).
#ifndef SEGDB_PST_POINT_PST_H_
#define SEGDB_PST_POINT_PST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/segment.h"
#include "io/buffer_pool.h"
#include "pst/line_pst.h"
#include "util/status.h"

namespace segdb::pst {

struct PointRecord {
  int64_t x = 0;
  int64_t y = 0;
  uint64_t id = 0;

  friend bool operator==(const PointRecord&, const PointRecord&) = default;
};

class PointPst {
 public:
  // Keys must satisfy geom::InDomain on both coordinates: BulkLoad and
  // Insert reject others with InvalidArgument and Erase reports NotFound,
  // leaving the structure unchanged.
  explicit PointPst(io::BufferPool* pool, LinePstOptions options = {});

  uint64_t size() const { return impl_.size(); }
  uint64_t page_count() const { return impl_.page_count(); }

  Status BulkLoad(std::span<const PointRecord> points);
  Status Insert(const PointRecord& point);
  Status Erase(const PointRecord& point);

  // Appends every stored point with xlo <= x <= xhi and y >= ylo.
  Status Query3Sided(int64_t xlo, int64_t xhi, int64_t ylo,
                     std::vector<PointRecord>* out) const;

  Status Clear() { return impl_.Clear(); }
  Status CheckInvariants() const { return impl_.CheckInvariants(); }

  // Appends every stored point (verification helper).
  Status CollectAll(std::vector<PointRecord>* out) const;

 private:
  static geom::Segment Encode(const PointRecord& p);
  static PointRecord Decode(const geom::Segment& s);

  LinePst impl_;
};

}  // namespace segdb::pst

#endif  // SEGDB_PST_POINT_PST_H_
