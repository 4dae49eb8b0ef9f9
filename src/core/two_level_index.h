// The first level shared by Solutions A and B (Sections 3 and 4).
//
// Every internal node picks up to `fanout` slab-boundary lines s_0 < ... <
// s_{m-2} (endpoint quantiles of its segment set), splitting its x-range
// into m slabs. A segment stays at the highest node where it touches a
// boundary; otherwise it falls into the child of the slab that strictly
// contains it. A leaf is one io::SegmentPageList: a build makes leaves of
// at most B segments, inserts grow one to 2B before it splits, and its
// segments live only on its pages. Per internal node:
//
//   C_i — segments lying ON boundary s_i: a PointPst over their y-extents;
//         a VS query on the line is the 3-sided query lo <= yhi, hi >= ylo.
//   L_i — segments whose *first* touched boundary is s_i with a
//         non-degenerate left part (x1 < s_i): a left-extending LinePst
//         based at s_i. Segments are stored whole (cutting them would need
//         rational coordinates); the PST's half-plane query semantics make
//         that equivalent.
//   R_i — symmetric: last touched boundary s_i, x2 > s_i.
//   G   — segments touching >= 2 boundaries (their long parts): the
//         multislab segment tree with fractional cascading (Section 4.3).
//
// Solution A (TwoLevelBinaryIndex) is the one-boundary configuration: the
// base line bl(v) is s_0, C(v)/L(v)/R(v) are C_0/L_0/R_0, the two slabs
// are the left and right subtrees, and G stays empty because no segment
// touches two boundaries. Solution B (TwoLevelIntervalIndex) uses b = B/4
// boundaries. The split takes exact endpoint quantiles, so one boundary is
// Solution A's median endpoint.
//
// The shell owns everything except the query loop: the node arena, the
// split and routing, fault-atomic build-aside and unwind, weight-balanced
// partial rebuilding, leaf pages, page_count(), height() and the audit.
// Each solution writes its own Query loop from the shared steps below, and
// only Solution B's searches G, so the I/O-cost checker derives Theorem 1's
// class for A and Theorem 2's for B.
//
// First-level nodes are mirrored to one disk page each and that page is
// fetched on every visit, so buffer-pool misses equal the paper's I/O
// count even though the directory also lives in memory.
#ifndef SEGDB_CORE_TWO_LEVEL_INDEX_H_
#define SEGDB_CORE_TWO_LEVEL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/segment_index.h"
#include "io/buffer_pool.h"
#include "io/segment_page_list.h"
#include "pst/line_pst.h"
#include "pst/point_pst.h"
#include "segtree/multislab_segment_tree.h"
#include "util/status.h"

namespace segdb::core {

class TwoLevelIndex : public SegmentIndex {
 public:
  ~TwoLevelIndex() override;

  TwoLevelIndex(const TwoLevelIndex&) = delete;
  TwoLevelIndex& operator=(const TwoLevelIndex&) = delete;

  // BulkLoad and Insert reject a non-canonical segment or a coordinate
  // outside +/-kMaxCoord (ValidateSegment) with InvalidArgument and leave
  // the index unchanged.
  Status BulkLoad(std::span<const geom::Segment> segments) override;
  Status Insert(const geom::Segment& segment) override;
  Status Erase(const geom::Segment& segment) override;
  uint64_t size() const override { return size_; }
  uint64_t page_count() const override;

  // Most boundaries per internal node: 1 for Solution A, b for Solution B.
  uint32_t fanout() const { return fanout_; }
  // First-level height (experiment instrumentation).
  uint32_t height() const;

  // Structural self-check (tests): slab coverage (at most `fanout`
  // strictly increasing boundaries inside the ancestor slab, one
  // C_i/L_i/R_i triple per boundary, one child per slab); every stored
  // segment in exactly the C_i/L_i/R_i/G structures Insert routes it to;
  // the weight balance m*max_child <= size + (m-1)*updates_since_rebuild;
  // size bookkeeping; and every second-level structure's own invariants.
  Status CheckInvariants() const override;

 protected:
  struct BoundaryStructs {
    std::unique_ptr<pst::PointPst> c;
    std::unique_ptr<pst::LinePst> l;
    std::unique_ptr<pst::LinePst> r;
  };

  struct Node {
    std::vector<int64_t> boundaries;  // internal nodes, strictly increasing
    std::vector<BoundaryStructs> per_boundary;
    std::unique_ptr<segtree::MultislabSegmentTree> g;
    std::vector<int32_t> children;  // children[k] = slab k, -1 none
    uint64_t subtree_size = 0;
    // Inserts + erases absorbed since the subtree was last (re)built: the
    // amortization guard for partial rebuilding, and the slack term of the
    // audited balance bound.
    uint64_t updates_since_rebuild = 0;
    io::PageId meta_page = io::kInvalidPageId;
    // A leaf's segments, on their pages; null for an internal node.
    std::unique_ptr<io::SegmentPageList> leaf;
  };

  TwoLevelIndex(io::BufferPool* pool, uint32_t fanout, uint32_t pst_fanout,
                uint32_t leaf_capacity, bool fractional_cascading);

  // The query steps both solutions' loops are made of.
  //
  // One I/O per visited first-level node (its metadata block). A leaf
  // reports through node.leaf->Scan.
  Status FetchMeta(const Node& node) const;
  // x0 == s_i: C_i, plus the L_i and R_i members G does not report.
  Status QueryBoundary(const Node& node, uint32_t i,
                       const VerticalSegmentQuery& q,
                       std::vector<geom::Segment>* out) const;
  // x0 strictly inside slab k: R_{k-1} and L_k.
  Status QuerySlab(const Node& node, uint32_t k, const VerticalSegmentQuery& q,
                   std::vector<geom::Segment>* out) const;

  io::BufferPool* const pool_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;

 private:
  uint32_t LeafCapacity() const;
  pst::LinePstOptions PstOptions() const;
  segtree::MultislabOptions GOptions() const;

  // First and last boundary touched by s; false when it touches none.
  static bool TouchedRange(const std::vector<int64_t>& boundaries,
                           const geom::Segment& s, uint32_t* first,
                           uint32_t* last);
  // The slab strictly containing a segment that touches no boundary.
  static uint32_t SlabOf(const std::vector<int64_t>& boundaries,
                         const geom::Segment& s);

  // Takes a node slot from the free list (or grows the arena).
  int32_t AllocNode();
  // Builds a subtree for `segments`. Fault-atomic: on failure every page
  // and arena slot the partial build claimed is released before the error
  // returns, so a failed build is a no-op on the index.
  Result<int32_t> BuildSubtree(std::vector<geom::Segment> segments);
  Status BuildSubtreeAt(int32_t idx, std::vector<geom::Segment> segments);
  Status FreeSubtree(int32_t idx);
  Status CollectSubtree(int32_t idx, std::vector<geom::Segment>* out) const;
  // Inserts into the second-level structures of internal node `idx`; the
  // segment must touch one of the node's boundaries.
  Status InsertAtNode(int32_t idx, const geom::Segment& s);
  Status CheckSubtree(int32_t idx, const int64_t* lo, const int64_t* hi,
                      uint64_t* total) const;
  Status CheckRouting(const Node& node, const int64_t* lo, const int64_t* hi,
                      uint64_t* count) const;
  uint32_t SubtreeHeight(int32_t idx) const;

  const uint32_t fanout_;
  const uint32_t pst_fanout_;
  const uint32_t leaf_capacity_;
  const bool fractional_cascading_;
  std::vector<int32_t> free_nodes_;
  uint64_t size_ = 0;
};

}  // namespace segdb::core

#endif  // SEGDB_CORE_TWO_LEVEL_INDEX_H_
