// The "G structure" of Section 4.2/4.3: a segment tree over slab
// boundaries whose nodes carry multislab lists of long fragments, with
// optional fractional-cascading bridges from parent to child lists.
//
// Context (paper, Section 4): an internal node of the first-level interval
// tree partitions its x-range into b slabs by boundaries s_0..s_{b-1}. A
// segment assigned to that node that crosses >= 2 boundaries has a *long
// part* spanning complete slabs. G is a balanced binary tree whose leaves
// are the inner slabs; a long fragment is stored at its O(log2 b)
// canonical allocation nodes. Each node keeps its fragments as an ordered
// *multislab list* in an external B+-tree; all fragments of a node span
// the node's slab interval, so their vertical order is the same at every
// abscissa inside it and a VS query (x0, [ylo, yhi]) reports a contiguous
// run of each list on the root-to-leaf(x0) path.
//
// Without cascading, every node on the path pays a B+-tree descent:
// O(log_B n) each (Lemma 4). With cascading (Section 4.3), every
// (d+1)-th element of the merged parent/child lists that comes from the
// parent becomes a *bridge*: its fragment is copied into the child list as
// a non-reported "augmented bridge fragment", and every stored record
// carries the landing position (leaf page + slot) of the nearest bridge at
// or before it. A query then searches only the root list and follows
// bridges down, O(1) amortized pages per level (Theorem 2).
//
// Deviations from the paper, documented in DESIGN.md:
//  * Bridges point downward only, and copies are never "cut" at slab
//    boundaries (cutting creates non-integer coordinates). A fragment
//    spans a G node exactly when the node's slab range lies inside the
//    fragment's allocation range. So every record of a parent list spans
//    both children and can be copied down whole, while a child's
//    originals never span the parent (else the parent would have been
//    their allocation node) and are not copied up.
//  * The lists change only when G (re)builds, in both layouts. Insert and
//    Erase add the segment, or a tombstone, to one delta B+-tree keyed by
//    id that every query scans whole; G rebuilds itself when the delta
//    exceeds max(32, size/8) records (amortized-rebuild
//    semi-dynamization).
#ifndef SEGDB_SEGTREE_MULTISLAB_SEGMENT_TREE_H_
#define SEGDB_SEGTREE_MULTISLAB_SEGMENT_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "btree/bplus_tree.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "io/buffer_pool.h"
#include "io/columnar_page_view.h"
#include "util/status.h"

namespace segdb::segtree {

// One stored fragment: the original segment plus cascading metadata.
struct GFragment {
  geom::Segment seg;
  // Landing position of the nearest bridge at or before this record, per
  // side (kInvalidPageId = no bridge / cascading disabled).
  io::PageId land_left = io::kInvalidPageId;
  io::PageId land_right = io::kInvalidPageId;
  uint16_t slot_left = 0;
  uint16_t slot_right = 0;
  uint8_t flags = 0;  // bit 0: augmented copy (never reported)
  uint8_t pad_[3] = {0, 0, 0};

  static constexpr uint8_t kAugmented = 1;
  static constexpr uint8_t kTombstone = 2;  // delta-buffer deletion marker
  bool augmented() const { return (flags & kAugmented) != 0; }
  bool tombstone() const { return (flags & kTombstone) != 0; }
};
static_assert(sizeof(GFragment) == 56);
static_assert(std::is_trivially_copyable_v<GFragment>);

}  // namespace segdb::segtree

namespace segdb::io {

// Columnar leaf codec for GFragment (declared next to the struct so every
// translation unit instantiating BPlusTree<GFragment, ...> sees it — ODR).
// The geometry goes into the shared (compressed) segment strips; the
// cascading metadata is random-accessed per record (bridge landings), so it
// stays row-major in a 16-byte trailer array after the strip region. The
// trailer starts at RegionBytes(capacity) — the compressed strip footprint —
// so leaf capacity now beats row-major's bytes / 56.
template <>
struct PageRecordLayout<segtree::GFragment> {
  static constexpr bool kColumnar = true;
  static constexpr uint32_t kMetaBytes = 16;
  static_assert(sizeof(segtree::GFragment) ==
                ConstColumnarPageView::kBytesPerRecord + kMetaBytes);
  static_assert(sizeof(PageId) == 4);

  static uint32_t RegionBytes(uint32_t capacity) {
    return static_cast<uint32_t>(ColumnarRegionBytes(capacity)) +
           capacity * kMetaBytes;
  }

  // Largest capacity whose strip region plus metadata trailer fits.
  static uint32_t Capacity(uint32_t region_bytes) {
    uint32_t c = ColumnarRegionCapacity(region_bytes);
    while (c > 0 && RegionBytes(c) > region_bytes) --c;
    return c;
  }

  static uint32_t MetaOff(uint32_t base, uint32_t capacity, uint32_t i) {
    return base + static_cast<uint32_t>(ColumnarRegionBytes(capacity)) +
           i * kMetaBytes;
  }

  static segtree::GFragment Read(const Page& page, uint32_t base,
                                 uint32_t capacity, uint32_t i) {
    segtree::GFragment g;
    ReadRange(page, base, capacity, i, &g, 1);
    return g;
  }

  static void Write(Page* page, uint32_t base, uint32_t capacity, uint32_t i,
                    const segtree::GFragment& g) {
    WriteRange(page, base, capacity, i, &g, 1);
  }

  // Range forms share one view across the whole run so a packed strip
  // region is decoded (and re-encoded) once, not once per record.
  static void ReadRange(const Page& page, uint32_t base, uint32_t capacity,
                        uint32_t first, segtree::GFragment* out,
                        uint32_t count) {
    const ConstColumnarPageView view(page, base, capacity);
    for (uint32_t i = 0; i < count; ++i) {
      segtree::GFragment& g = out[i];
      g.seg = view.Get(first + i);
      const uint32_t m = MetaOff(base, capacity, first + i);
      g.land_left = page.ReadAt<PageId>(m);
      g.land_right = page.ReadAt<PageId>(m + 4);
      g.slot_left = page.ReadAt<uint16_t>(m + 8);
      g.slot_right = page.ReadAt<uint16_t>(m + 10);
      g.flags = page.ReadAt<uint8_t>(m + 12);
    }
  }

  static void WriteRange(Page* page, uint32_t base, uint32_t capacity,
                         uint32_t first, const segtree::GFragment* src,
                         uint32_t count) {
    ColumnarPageView view(page, base, capacity);
    for (uint32_t i = 0; i < count; ++i) {
      const segtree::GFragment& g = src[i];
      view.Set(first + i, g.seg);
      const uint32_t m = MetaOff(base, capacity, first + i);
      page->WriteAt(m, g.land_left);
      page->WriteAt(m + 4, g.land_right);
      page->WriteAt(m + 8, g.slot_left);
      page->WriteAt(m + 10, g.slot_right);
      const uint8_t tail[4] = {g.flags, 0, 0, 0};
      page->WriteArray(m + 12, tail, 4);
    }
  }
};

}  // namespace segdb::io

namespace segdb::segtree {

// Multislab-list order: vertical order at the node's reference boundary.
struct GFragmentCompare {
  int64_t cx = 0;
  int operator()(const GFragment& a, const GFragment& b) const {
    const int c = geom::CompareCrossingOrder(a.seg, b.seg, cx);
    if (c != 0) return c;
    // An original and its augmented copy tie geometrically; order the
    // original first so reports see it before any copy.
    return static_cast<int>(a.flags) - static_cast<int>(b.flags);
  }
};

// Order for the delta insert buffer (content-independent).
struct GFragmentIdCompare {
  int operator()(const GFragment& a, const GFragment& b) const {
    return a.seg.id < b.seg.id ? -1 : (a.seg.id > b.seg.id ? 1 : 0);
  }
};

struct MultislabOptions {
  // Build the lists with bridges (Section 4.3). This decides nothing else:
  // updates take the same delta-and-rebuild path in both layouts.
  bool fractional_cascading = true;
  // The paper's d-property constant (>= 2): one bridge per d+1 merged
  // elements.
  uint32_t bridge_d = 2;
};

class MultislabSegmentTree {
 public:
  // `boundaries`: sorted, distinct x-coordinates of the slab boundaries
  // (the dashed lines s_i); at least 2.
  MultislabSegmentTree(io::BufferPool* pool, std::vector<int64_t> boundaries,
                       MultislabOptions options = {});
  ~MultislabSegmentTree();

  MultislabSegmentTree(const MultislabSegmentTree&) = delete;
  MultislabSegmentTree& operator=(const MultislabSegmentTree&) = delete;

  uint64_t size() const { return size_; }
  // Disk pages across every multislab list (space experiments).
  uint64_t page_count() const;

  // Replaces the contents. Every segment must cross at least two
  // boundaries (callers route segments crossing fewer to the short-
  // fragment structures) and must not properly cross any other stored
  // segment.
  Status Build(std::span<const geom::Segment> segments);

  // Semi-dynamic insert: buffers the segment in the delta, or cancels its
  // buffered tombstone, then rebuilds G if the delta is due. A failed
  // rebuild is absorbed (Build is build-aside, so G stays intact) and the
  // next update retries it.
  Status Insert(const geom::Segment& segment);

  // Deletion: drops a buffered insert, or appends a tombstone that queries
  // filter and the next rebuild applies; then rebuilds like Insert.
  // NotFound unless the segment is currently stored.
  Status Erase(const geom::Segment& segment);

  // Appends every stored segment s that intersects the vertical query
  // segment x = x0, ylo <= y <= yhi *within s's fully-spanned boundary
  // range* — i.e. with s_first(s) <= x0 <= s_last(s), where s_first/s_last
  // are the extreme boundaries s crosses. (The ends of s beyond those
  // boundaries are the paper's short fragments, owned by the L_i/R_i
  // structures; segments are stored whole here rather than cut so that
  // coordinates stay integral.) x0 may equal a boundary.
  Status Query(int64_t x0, int64_t ylo, int64_t yhi,
               std::vector<geom::Segment>* out) const;

  Status Clear();

  // Verification helpers.
  Status CollectAll(std::vector<geom::Segment>* out) const;
  Status CheckInvariants() const;

 private:
  using FragTree = btree::BPlusTree<GFragment, GFragmentCompare>;
  using Position = FragTree::Position;

  struct GNode {
    uint32_t slab_lo = 0;  // inclusive inner-slab interval [slab_lo,
    uint32_t slab_hi = 0;  //                                 slab_hi]
    int32_t left = -1;     // directory indices, -1 = leaf
    int32_t right = -1;
    int64_t cx = 0;  // list-order reference boundary (split line / leaf left)
    std::unique_ptr<FragTree> list;
  };

  // Builds the directory for inner slabs [lo, hi]; returns its index.
  int32_t BuildDirectory(uint32_t lo, uint32_t hi);

  // Slab of x0: 0 = left of s_0, i in [1, b-1] = between s_{i-1} and s_i,
  // b = right of the last boundary. *on_boundary set when x0 == s_i (then
  // the returned slab is i, and slab i+1 is also relevant).
  uint32_t LocateSlab(int64_t x0, bool* on_boundary) const;

  // Allocation nodes of the inner-slab range [lo, hi].
  void Allocate(int32_t node, uint32_t lo, uint32_t hi,
                std::vector<int32_t>* out) const;

  // Root-to-leaf directory path for inner slab k.
  std::vector<int32_t> PathToSlab(uint32_t k) const;

  // Reports the contiguous run of `node`'s list intersecting the query,
  // given a landing position (or a fresh search when land.found == false).
  // Sets *next_land to the landing for the child on `descend_left` side.
  Status ScanNodeList(const GNode& node, int64_t x0, int64_t ylo, int64_t yhi,
                      Position land, bool has_next, bool next_left,
                      Position* next_land,
                      std::vector<geom::Segment>* out) const;

  Status BuildLists(
      std::vector<std::vector<geom::Segment>> per_node_originals);

  // Ends an update that has committed to the delta and leaves `size`
  // segments stored: rebuilds G once the delta holds more than
  // max(32, size/8) records, absorbing a failure (see Insert), then
  // records the size.
  void FinishUpdate(uint64_t size);

  io::BufferPool* pool_;
  std::vector<int64_t> boundaries_;
  MultislabOptions options_;
  std::vector<GNode> nodes_;
  int32_t root_ = -1;
  uint64_t size_ = 0;
  // Pending inserts and tombstones since the last (re)build.
  btree::BPlusTree<GFragment, GFragmentIdCompare> delta_;
};

}  // namespace segdb::segtree

#endif  // SEGDB_SEGTREE_MULTISLAB_SEGMENT_TREE_H_
