// Solution A — Section 3 of the paper (Theorem 1).
//
// First level: a balanced binary tree over vertical base lines. The root's
// base line bl(r) is the median of all segment-endpoint x-coordinates;
// segments intersecting bl(r) stay at the root, the rest recurse left /
// right. Each internal node v owns three second-level structures:
//
//   C(v) — segments lying ON bl(v) (vertical, x == bl(v)): 1-D intervals
//          indexed as points (lo, hi) in a PointPst.
//   L(v) — left parts of segments crossing bl(v): a LinePst with base
//          bl(v) extending left, holding the segments whole.
//   R(v) — right parts, symmetric.
//
// This is the one-boundary configuration of the shared first level
// (core/two_level_index.h): bl(v) is the node's single slab boundary s_0,
// C(v)/L(v)/R(v) are C_0/L_0/R_0, and G stays empty.
//
// A query x = x0 descends the unique root-to-leaf path: at each node it
// searches L(v) (x0 left of bl(v)) or R(v) (right), or, when x0 hits
// bl(v) exactly, C(v) plus both PSTs and stops. Leaves hold <= B segments
// in raw pages and are scanned.
//
// Costs (Theorem 1): O(n) blocks; query O(log2 n (log_B n + IL*(B)) + t);
// update O(log2 n + log_B^2 n / B) amortized. Updates here use
// BB[alpha]-style partial rebuilding of first-level subtrees (the paper's
// BB[alpha] rotations realized by whole-subtree rebuilds, which amortize
// to the same bound and keep the second-level structures packed).
#ifndef SEGDB_CORE_TWO_LEVEL_BINARY_INDEX_H_
#define SEGDB_CORE_TWO_LEVEL_BINARY_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/two_level_index.h"
#include "io/buffer_pool.h"
#include "util/status.h"

namespace segdb::core {

struct TwoLevelBinaryOptions {
  // Second-level PST fan-out: 0 = packed/auto (Lemma 3 behaviour, the
  // default), 2 = the paper's plain binary PSTs (Lemma 2).
  uint32_t pst_fanout = 0;
  // Leaf capacity in segments: 0 = one page's worth.
  uint32_t leaf_capacity = 0;
};

class TwoLevelBinaryIndex final : public TwoLevelIndex {
 public:
  TwoLevelBinaryIndex(io::BufferPool* pool,
                      TwoLevelBinaryOptions options = {});

  Status Query(const VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override;
  std::string name() const override { return "two-level-binary"; }
};

}  // namespace segdb::core

#endif  // SEGDB_CORE_TWO_LEVEL_BINARY_INDEX_H_
