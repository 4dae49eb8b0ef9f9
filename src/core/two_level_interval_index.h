// Solution B — Section 4 of the paper (Theorem 2).
//
// First level: an external interval tree with fan-out b (default B/4, the
// paper's choice). Each internal node picks b slab-boundary lines s_0 <
// ... < s_{b-1} (endpoint quantiles of its segment set); a segment stays
// at the highest node where it touches or crosses a boundary, otherwise
// it falls into the child of the slab that strictly contains it. Leaves
// hold <= B segments in raw pages.
//
// Per internal node (Section 4.2), segments are organized as C_i (on
// boundary s_i), L_i / R_i (the paper's short left / right fragments,
// stored uncut) and G (long parts, in the multislab segment tree with
// fractional cascading, Section 4.3). This is the first-level shell of
// core/two_level_index.h at b = B/4 boundaries, which defines the four
// structures; Solution A is its one-boundary configuration.
//
// A query x = x0 walks the root-to-leaf path. In a node, if x0 hits
// boundary s_i the query searches C_i, L_i, R_i and G and stops (segments
// below cross no boundary, hence cannot meet x0); otherwise x0 lies in
// slab k and the query searches R_{k-1}, L_k and G, then descends. The
// three sources partition the answers at the node (proof sketch in
// DESIGN.md), so nothing is reported twice.
//
// Costs (Theorem 2): O(n log2 B) blocks; query
// O(log_B n (log_B n + log2 B + IL*(B)) + t) — the log_B n inner term
// drops to O(1) amortized per level via G's bridges; insertion
// O(log_B n + log2 B + log_B^2 n / B) amortized, realized here by
// partial rebuilding (weight-balanced first level) plus G's delta buffer.
#ifndef SEGDB_CORE_TWO_LEVEL_INTERVAL_INDEX_H_
#define SEGDB_CORE_TWO_LEVEL_INTERVAL_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/two_level_index.h"
#include "io/buffer_pool.h"
#include "util/status.h"

namespace segdb::core {

struct TwoLevelIntervalOptions {
  // First-level fan-out: number of boundaries per node. 0 = auto (B/4).
  uint32_t fanout = 0;
  // Second-level PST fan-out (0 = packed/auto).
  uint32_t pst_fanout = 0;
  // Leaf capacity in segments: 0 = one page's worth.
  uint32_t leaf_capacity = 0;
  // Use fractional cascading in G (Section 4.3). Off reproduces Lemma 4.
  bool fractional_cascading = true;
};

class TwoLevelIntervalIndex final : public TwoLevelIndex {
 public:
  TwoLevelIntervalIndex(io::BufferPool* pool,
                        TwoLevelIntervalOptions options = {});

  Status Query(const VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override;
  std::string name() const override { return "two-level-interval"; }
};

}  // namespace segdb::core

#endif  // SEGDB_CORE_TWO_LEVEL_INTERVAL_INDEX_H_
