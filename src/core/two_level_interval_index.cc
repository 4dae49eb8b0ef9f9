#include "core/two_level_interval_index.h"

#include <algorithm>

namespace segdb::core {

namespace {

// b = B/4 (the paper's choice) unless the caller fixes b; at least 2.
uint32_t Fanout(const io::BufferPool* pool, uint32_t requested) {
  if (requested != 0) return std::max<uint32_t>(2, requested);
  const uint32_t records_per_page =
      pool->page_size() / static_cast<uint32_t>(sizeof(geom::Segment));
  return std::max<uint32_t>(2, records_per_page / 4);
}

}  // namespace

TwoLevelIntervalIndex::TwoLevelIntervalIndex(io::BufferPool* pool,
                                             TwoLevelIntervalOptions options)
    : TwoLevelIndex(pool, Fanout(pool, options.fanout), options.pst_fanout,
                    options.leaf_capacity, options.fractional_cascading) {}

Status TwoLevelIntervalIndex::Query(const VerticalSegmentQuery& q,
                                    std::vector<geom::Segment>* out) const {
  // Theorem 2: O(log_B n + sqrt(n/B) + t/B) I/Os — the sqrt term is the
  // multislab sweep at each visited interval-tree node.
  SEGDB_IO_BOUND("log", "sqrt", "t/B");
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  int32_t cur = root_;
  std::vector<io::PageId> ahead;  // read-ahead hint for the next descent step
  while (cur >= 0) {
    const Node& node = nodes_[cur];
    SEGDB_RETURN_IF_ERROR(FetchMeta(node));
    if (node.is_leaf) return ScanLeaf(node, q, out);
    auto it = std::lower_bound(node.boundaries.begin(), node.boundaries.end(),
                               q.x0);
    const uint32_t k = static_cast<uint32_t>(it - node.boundaries.begin());
    if (it != node.boundaries.end() && *it == q.x0) {
      // x0 == s_k: C_k, L_k, R_k and G, then stop (nothing deeper can
      // touch a boundary line).
      SEGDB_RETURN_IF_ERROR(QueryBoundary(node, k, q, out));
      if (node.g) return node.g->Query(q.x0, q.ylo, q.yhi, out);
      return Status::OK();
    }
    // x0 inside slab k: R_{k-1}, L_k and G cover the node's segments
    // disjointly (see header).
    SEGDB_RETURN_IF_ERROR(QuerySlab(node, k, q, out));
    if (node.g) SEGDB_RETURN_IF_ERROR(node.g->Query(q.x0, q.ylo, q.yhi, out));
    cur = node.children[k];
    ReadAhead(cur, &ahead);
  }
  return Status::OK();
}

}  // namespace segdb::core
