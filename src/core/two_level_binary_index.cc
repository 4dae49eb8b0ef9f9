#include "core/two_level_binary_index.h"

namespace segdb::core {

TwoLevelBinaryIndex::TwoLevelBinaryIndex(io::BufferPool* pool,
                                         TwoLevelBinaryOptions options)
    : TwoLevelIndex(pool, /*fanout=*/1, options.pst_fanout,
                    options.leaf_capacity, /*fractional_cascading=*/false) {}

Status TwoLevelBinaryIndex::Query(const VerticalSegmentQuery& q,
                                  std::vector<geom::Segment>* out) const {
  // Theorem 1: O(log_B n + t/B) I/Os — a height-bounded descent with
  // O(1 + t_v/B) PST queries per visited node.
  SEGDB_IO_BOUND("log", "t/B");
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  int32_t cur = root_;
  while (cur >= 0) {
    const Node& node = nodes_[cur];
    SEGDB_RETURN_IF_ERROR(FetchMeta(node));
    if (node.leaf) return node.leaf->Scan(q.x0, q.ylo, q.yhi, out);
    // On bl(v): C(v), L(v) and R(v)'s degenerate-left members, then stop
    // (nothing below touches bl(v)). Otherwise L(v) for the left slab or
    // R(v) for the right one, then descend into that slab.
    const int64_t blx = node.boundaries[0];
    if (q.x0 == blx) return QueryBoundary(node, 0, q, out);
    const uint32_t slab = q.x0 < blx ? 0 : 1;
    SEGDB_RETURN_IF_ERROR(QuerySlab(node, slab, q, out));
    cur = node.children[slab];
  }
  return Status::OK();
}

}  // namespace segdb::core
