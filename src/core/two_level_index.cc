#include "core/two_level_index.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/validate.h"
#include "geom/filter_kernel.h"
#include "io/columnar_page_view.h"
#include "util/check.h"

namespace segdb::core {

namespace {

using geom::Segment;

// Leaf page layout: [u32 count][columnar Segment region].
constexpr uint32_t kLeafHeader = 8;

// Structures a crossing segment sits in at its node (the routing audit).
constexpr uint8_t kInL = 1;
constexpr uint8_t kInR = 2;
constexpr uint8_t kInG = 4;

// Leaves xs[r] at its sorted value for every rank r in ranks[lo, hi),
// given that xs[from, to) holds exactly the sorted ranks [from, to):
// nth_element at the middle rank, then each side. O(n log b) for b ranks,
// and a single nth_element for one rank (the median).
void SelectRanks(std::vector<int64_t>* xs, const std::vector<size_t>& ranks,
                 size_t lo, size_t hi, size_t from, size_t to) {
  if (lo >= hi) return;
  const size_t mid = lo + (hi - lo) / 2;
  const size_t r = ranks[mid];
  std::nth_element(xs->begin() + from, xs->begin() + r, xs->begin() + to);
  SelectRanks(xs, ranks, lo, mid, from, r);
  SelectRanks(xs, ranks, mid + 1, hi, r + 1, to);
}

}  // namespace

TwoLevelIndex::TwoLevelIndex(io::BufferPool* pool, uint32_t fanout,
                             uint32_t pst_fanout, uint32_t leaf_capacity,
                             bool fractional_cascading)
    : pool_(pool),
      fanout_(fanout),
      pst_fanout_(pst_fanout),
      leaf_capacity_(leaf_capacity),
      fractional_cascading_(fractional_cascading) {
  SEGDB_DCHECK(fanout_ >= 1);
}

TwoLevelIndex::~TwoLevelIndex() {
  if (root_ >= 0) FreeSubtree(root_).IgnoreError();
}

uint32_t TwoLevelIndex::LeafCapacity() const {
  if (leaf_capacity_ != 0) return leaf_capacity_;
  return io::ColumnarRegionCapacity(pool_->page_size() - kLeafHeader);
}

pst::LinePstOptions TwoLevelIndex::PstOptions() const {
  pst::LinePstOptions o;
  o.fanout = pst_fanout_;
  return o;
}

segtree::MultislabOptions TwoLevelIndex::GOptions() const {
  segtree::MultislabOptions o;
  o.fractional_cascading = fractional_cascading_;
  return o;
}

bool TwoLevelIndex::TouchedRange(const std::vector<int64_t>& boundaries,
                                 const Segment& s, uint32_t* first,
                                 uint32_t* last) {
  auto lo = std::lower_bound(boundaries.begin(), boundaries.end(), s.x1);
  auto hi = std::upper_bound(boundaries.begin(), boundaries.end(), s.x2);
  if (lo >= hi) return false;
  *first = static_cast<uint32_t>(lo - boundaries.begin());
  *last = static_cast<uint32_t>(hi - boundaries.begin()) - 1;
  return true;
}

uint32_t TwoLevelIndex::SlabOf(const std::vector<int64_t>& boundaries,
                               const Segment& s) {
  return static_cast<uint32_t>(
      std::lower_bound(boundaries.begin(), boundaries.end(), s.x1) -
      boundaries.begin());
}

Status TwoLevelIndex::WriteLeafPages(Node* node) {
  // Allocate-then-swap: the replacement pages are fully written before the
  // old ones are freed, so a failed allocation mid-way (e.g. an injected
  // fault) releases the partial batch and leaves the node's pages — and
  // hence every query — exactly as they were.
  std::vector<io::PageId> fresh;
  const uint32_t per_page =
      io::ColumnarRegionCapacity(pool_->page_size() - kLeafHeader);
  size_t i = 0;
  while (i < node->leaf_segments.size()) {
    const uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(per_page, node->leaf_segments.size() - i));
    auto ref = pool_->NewPage();
    if (!ref.ok()) {
      for (io::PageId id : fresh) pool_->FreePage(id).IgnoreError();
      return ref.status();
    }
    io::Page& p = ref.value().page();
    p.WriteAt<uint32_t>(0, take);
    // Columnar strips sized to the record count; large runs bit-pack below
    // the row-major footprint (see columnar_page_view.h).
    io::ColumnarPageView(&p, kLeafHeader, take)
        .WriteRange(0, node->leaf_segments.data() + i, take);
    ref.value().MarkDirty();
    fresh.push_back(ref.value().page_id());
    i += take;
  }
  for (io::PageId id : node->leaf_pages) {
    SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));  // reliable metadata op
  }
  node->leaf_pages = std::move(fresh);
  return Status::OK();
}

int32_t TwoLevelIndex::AllocNode() {
  if (!free_nodes_.empty()) {
    const int32_t idx = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[idx] = Node{};
    return idx;
  }
  const int32_t idx = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  return idx;
}

Result<int32_t> TwoLevelIndex::BuildSubtree(std::vector<Segment> segments) {
  const int32_t idx = AllocNode();
  Status built = BuildSubtreeAt(idx, std::move(segments));
  if (!built.ok()) {
    // Unwind whatever the partial build attached — the meta page, loaded
    // second-level structures, finished children — and return the slot.
    // FreePage is reliable and the PSTs keep their shape in memory, so the
    // unwind itself cannot fault on the simulated device.
    FreeSubtree(idx).IgnoreError();
    return built;
  }
  return idx;
}

Status TwoLevelIndex::BuildSubtreeAt(int32_t idx,
                                     std::vector<Segment> segments) {
  SEGDB_DCHECK(!segments.empty());
  {
    auto meta = pool_->NewPage();
    if (!meta.ok()) return meta.status();
    meta.value().MarkDirty();
    nodes_[idx].meta_page = meta.value().page_id();
  }
  nodes_[idx].subtree_size = segments.size();

  if (segments.size() <= LeafCapacity()) {
    nodes_[idx].is_leaf = true;
    nodes_[idx].leaf_segments = std::move(segments);
    return WriteLeafPages(&nodes_[idx]);
  }

  // Boundaries: the distinct endpoint values at ranks |xs|*i/(b+1),
  // i = 1..b. With b = 1 that is the median endpoint, which leaves each
  // side at most half the segments (Section 3's base line).
  std::vector<int64_t> xs;
  xs.reserve(2 * segments.size());
  for (const Segment& s : segments) {
    xs.push_back(s.x1);
    xs.push_back(s.x2);
  }
  std::vector<size_t> ranks;
  for (uint32_t i = 1; i <= fanout_; ++i) {
    const size_t r = xs.size() * i / (fanout_ + 1);
    if (ranks.empty() || ranks.back() < r) ranks.push_back(r);
  }
  SelectRanks(&xs, ranks, 0, ranks.size(), 0, xs.size());
  std::vector<int64_t> boundaries;
  for (size_t r : ranks) {
    if (boundaries.empty() || boundaries.back() < xs[r]) {
      boundaries.push_back(xs[r]);
    }
  }
  Node& node_init = nodes_[idx];
  node_init.is_leaf = false;
  node_init.boundaries = boundaries;
  node_init.per_boundary.resize(boundaries.size());
  node_init.children.assign(boundaries.size() + 1, -1);

  // Route every segment.
  std::vector<std::vector<Segment>> per_slab(boundaries.size() + 1);
  std::vector<std::vector<pst::PointRecord>> c_points(boundaries.size());
  std::vector<std::vector<Segment>> l_sets(boundaries.size());
  std::vector<std::vector<Segment>> r_sets(boundaries.size());
  std::vector<Segment> long_set;
  for (const Segment& s : segments) {
    uint32_t first, last;
    if (!TouchedRange(boundaries, s, &first, &last)) {
      per_slab[SlabOf(boundaries, s)].push_back(s);
      continue;
    }
    if (s.is_vertical()) {
      // On the boundary line (a vertical segment touches only
      // boundaries[first] == x1).
      c_points[first].push_back(pst::PointRecord{s.y1, s.y2, s.id});
      continue;
    }
    if (s.x1 < boundaries[first]) l_sets[first].push_back(s);
    if (s.x2 > boundaries[last]) r_sets[last].push_back(s);
    if (last > first) long_set.push_back(s);
  }
  segments.clear();

  // Second-level structures are attached to the node before loading so a
  // failed load is still reachable by the caller's FreeSubtree unwind.
  for (size_t i = 0; i < boundaries.size(); ++i) {
    BoundaryStructs& bs = nodes_[idx].per_boundary[i];
    if (!c_points[i].empty()) {
      bs.c = std::make_unique<pst::PointPst>(pool_, PstOptions());
      SEGDB_RETURN_IF_ERROR(bs.c->BulkLoad(c_points[i]));
    }
    if (!l_sets[i].empty()) {
      bs.l = std::make_unique<pst::LinePst>(pool_, boundaries[i],
                                            pst::Direction::kLeft,
                                            PstOptions());
      SEGDB_RETURN_IF_ERROR(bs.l->BulkLoad(l_sets[i]));
    }
    if (!r_sets[i].empty()) {
      bs.r = std::make_unique<pst::LinePst>(pool_, boundaries[i],
                                            pst::Direction::kRight,
                                            PstOptions());
      SEGDB_RETURN_IF_ERROR(bs.r->BulkLoad(r_sets[i]));
    }
  }
  if (!long_set.empty()) {
    nodes_[idx].g = std::make_unique<segtree::MultislabSegmentTree>(
        pool_, boundaries, GOptions());
    SEGDB_RETURN_IF_ERROR(nodes_[idx].g->Build(long_set));
  }
  for (size_t k = 0; k < per_slab.size(); ++k) {
    if (per_slab[k].empty()) continue;
    SEGDB_DCHECK(per_slab[k].size() < nodes_[idx].subtree_size);
    // Recursive builds self-clean on failure; finished children hang off
    // nodes_[idx].children and are released by the caller's unwind.
    Result<int32_t> child = BuildSubtree(std::move(per_slab[k]));
    if (!child.ok()) return child.status();
    nodes_[idx].children[k] = child.value();
  }
  return Status::OK();
}

Status TwoLevelIndex::FreeSubtree(int32_t idx) {
  Node& node = nodes_[idx];
  for (int32_t child : node.children) {
    if (child >= 0) SEGDB_RETURN_IF_ERROR(FreeSubtree(child));
  }
  for (BoundaryStructs& bs : node.per_boundary) {
    if (bs.c) SEGDB_RETURN_IF_ERROR(bs.c->Clear());
    if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->Clear());
    if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->Clear());
  }
  if (node.g) SEGDB_RETURN_IF_ERROR(node.g->Clear());
  for (io::PageId id : node.leaf_pages) {
    SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  }
  if (node.meta_page != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(pool_->FreePage(node.meta_page));
  }
  nodes_[idx] = Node{};
  free_nodes_.push_back(idx);
  return Status::OK();
}

Status TwoLevelIndex::CollectSubtree(int32_t idx,
                                     std::vector<Segment>* out) const {
  const Node& node = nodes_[idx];
  if (node.is_leaf) {
    out->insert(out->end(), node.leaf_segments.begin(),
                node.leaf_segments.end());
    return Status::OK();
  }
  // A crossing segment may live in an L, an R, and G; dedup by id.
  std::unordered_set<uint64_t> seen;
  auto add = [&](const Segment& s) {
    if (seen.insert(s.id).second) out->push_back(s);
  };
  for (size_t i = 0; i < node.per_boundary.size(); ++i) {
    const BoundaryStructs& bs = node.per_boundary[i];
    if (bs.c) {
      std::vector<pst::PointRecord> points;
      SEGDB_RETURN_IF_ERROR(bs.c->CollectAll(&points));
      for (const auto& p : points) {
        add(Segment::Make({node.boundaries[i], p.x},
                          {node.boundaries[i], p.y}, p.id));
      }
    }
    std::vector<Segment> tmp;
    if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->CollectAll(&tmp));
    if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->CollectAll(&tmp));
    for (const Segment& s : tmp) add(s);
  }
  if (node.g) {
    std::vector<Segment> tmp;
    SEGDB_RETURN_IF_ERROR(node.g->CollectAll(&tmp));
    for (const Segment& s : tmp) add(s);
  }
  for (int32_t child : node.children) {
    if (child >= 0) SEGDB_RETURN_IF_ERROR(CollectSubtree(child, out));
  }
  return Status::OK();
}

Status TwoLevelIndex::BulkLoad(std::span<const Segment> segments) {
  SEGDB_IO_BOUND("scan");
  for (const Segment& s : segments) SEGDB_RETURN_IF_ERROR(ValidateSegment(s));
  // Build the replacement tree before freeing the old one: a load that
  // faults mid-build leaves the previous contents fully intact (the
  // partial build unwinds itself), so a failed BulkLoad is a no-op.
  int32_t new_root = -1;
  if (!segments.empty()) {
    Result<int32_t> root =
        BuildSubtree(std::vector<Segment>(segments.begin(), segments.end()));
    if (!root.ok()) return root.status();
    new_root = root.value();
  }
  if (root_ >= 0) SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
  root_ = new_root;
  size_ = segments.size();
  return Status::OK();
}

Status TwoLevelIndex::InsertAtNode(int32_t idx, const Segment& s) {
  Node& node = nodes_[idx];
  uint32_t first, last;
  if (!TouchedRange(node.boundaries, s, &first, &last)) {
    return Status::Internal("InsertAtNode: segment touches no boundary");
  }
  if (s.is_vertical()) {
    BoundaryStructs& bs = node.per_boundary[first];
    if (!bs.c) bs.c = std::make_unique<pst::PointPst>(pool_, PstOptions());
    return bs.c->Insert(pst::PointRecord{s.y1, s.y2, s.id});
  }
  // A crossing segment can enter up to three structures (L, R, G), and the
  // audit requires all of them or none. On a failure partway through, the
  // halves already applied are rolled back — the rollbacks are pure
  // removals of the just-inserted record, so they cannot themselves hit an
  // injected allocation fault.
  const bool into_l = s.x1 < node.boundaries[first];
  const bool into_r = s.x2 > node.boundaries[last];
  if (into_l) {
    BoundaryStructs& bs = node.per_boundary[first];
    if (!bs.l) {
      bs.l = std::make_unique<pst::LinePst>(
          pool_, node.boundaries[first], pst::Direction::kLeft, PstOptions());
    }
    SEGDB_RETURN_IF_ERROR(bs.l->Insert(s));
  }
  if (into_r) {
    BoundaryStructs& bs = node.per_boundary[last];
    if (!bs.r) {
      bs.r = std::make_unique<pst::LinePst>(
          pool_, node.boundaries[last], pst::Direction::kRight, PstOptions());
    }
    const Status right = bs.r->Insert(s);
    if (!right.ok()) {
      if (into_l) node.per_boundary[first].l->Erase(s).IgnoreError();
      return right;
    }
  }
  if (last > first) {
    if (!node.g) {
      node.g = std::make_unique<segtree::MultislabSegmentTree>(
          pool_, node.boundaries, GOptions());
      const Status built = node.g->Build({});
      if (!built.ok()) {
        node.g.reset();
        if (into_l) node.per_boundary[first].l->Erase(s).IgnoreError();
        if (into_r) node.per_boundary[last].r->Erase(s).IgnoreError();
        return built;
      }
    }
    const Status in_g = node.g->Insert(s);
    if (!in_g.ok()) {
      if (into_l) node.per_boundary[first].l->Erase(s).IgnoreError();
      if (into_r) node.per_boundary[last].r->Erase(s).IgnoreError();
      return in_g;
    }
    if (node.g->NeedsRebuild()) {
      // Amortized repack after the insert committed. Rebuild is atomic
      // (build-aside), so a failure here is absorbed: the delta trigger
      // persists and the next update re-runs it.
      node.g->Rebuild().IgnoreError();
    }
  }
  return Status::OK();
}

Status TwoLevelIndex::Insert(const Segment& segment) {
  // Amortized O(log_B n) (the update bounds of Theorems 1 and 2): a
  // height-bounded descent, plus an occasional subtree rebuild.
  SEGDB_IO_BOUND("scan");
  SEGDB_RETURN_IF_ERROR(ValidateSegment(segment));
  if (root_ < 0) {
    Result<int32_t> root = BuildSubtree({segment});
    if (!root.ok()) return root.status();
    root_ = root.value();
    ++size_;
    return Status::OK();
  }
  // Bookkeeping (subtree sizes, rebuild counters, size_) is deferred and
  // committed only once the mutation has succeeded, so a faulted insert
  // leaves the index exactly as it was — audit-clean and retryable.
  std::vector<int32_t> path;
  const auto commit = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      ++nodes_[path[i]].subtree_size;
      ++nodes_[path[i]].updates_since_rebuild;
    }
    ++size_;
  };
  int32_t cur = root_;
  uint32_t parent_slot = 0;  // cur's slab in its parent
  // Hangs a rebuilt subtree where cur was.
  const auto replace = [&](int32_t rebuilt) {
    if (path.size() == 1) {
      root_ = rebuilt;
    } else {
      nodes_[path[path.size() - 2]].children[parent_slot] = rebuilt;
    }
  };
  for (;;) {
    path.push_back(cur);
    Node& node = nodes_[cur];

    // Weight balance by partial rebuilding, checked top-down. A child of
    // an m-slab node may hold at most min(0.7, 2/m) of the segments below
    // it, plus a leaf's worth: the BB[alpha] fraction for Solution A's
    // m = 2, twice the fair share for Solution B. A subtree may only
    // rebuild after absorbing a constant fraction of its size in updates,
    // which pays for the rebuild even when balance cannot improve
    // (duplicate-heavy x distributions). Counters are compared as if this
    // insert were already counted.
    if (!node.is_leaf) {
      uint64_t below = 0, max_child = 0;
      for (int32_t child : node.children) {
        const uint64_t cs = child >= 0 ? nodes_[child].subtree_size : 0;
        below += cs;
        max_child = std::max(max_child, cs);
      }
      const double m = static_cast<double>(node.children.size());
      const double b = static_cast<double>(below);
      const double limit =
          std::min(0.7 * b, 2.0 * (b / m)) + LeafCapacity();
      if (below > 2 * static_cast<uint64_t>(LeafCapacity()) &&
          (node.updates_since_rebuild + 1) * 8 > node.subtree_size + 1 &&
          static_cast<double>(max_child) > limit) {
        std::vector<Segment> all;
        all.reserve(node.subtree_size + 1);
        SEGDB_RETURN_IF_ERROR(CollectSubtree(cur, &all));
        all.push_back(segment);
        // Build the replacement before freeing the old subtree: a failed
        // build leaves the index untouched and the data still stored.
        Result<int32_t> rebuilt = BuildSubtree(std::move(all));
        if (!rebuilt.ok()) return rebuilt.status();
        SEGDB_RETURN_IF_ERROR(FreeSubtree(cur));
        replace(rebuilt.value());
        commit(path.size() - 1);  // the rebuilt node restarts its counters
        return Status::OK();
      }
    }

    if (node.is_leaf) {
      node.leaf_segments.push_back(segment);
      if (node.leaf_segments.size() > 2 * LeafCapacity()) {
        // Split the leaf by rebuilding it as a small subtree. Copy, not
        // move: a failed build must leave the leaf unchanged.
        std::vector<Segment> all = node.leaf_segments;
        Result<int32_t> rebuilt = BuildSubtree(std::move(all));
        if (!rebuilt.ok()) {
          // BuildSubtree may grow nodes_; re-index instead of using `node`.
          nodes_[cur].leaf_segments.pop_back();
          return rebuilt.status();
        }
        SEGDB_RETURN_IF_ERROR(FreeSubtree(cur));
        replace(rebuilt.value());
        commit(path.size() - 1);
        return Status::OK();
      }
      const Status written = WriteLeafPages(&node);
      if (!written.ok()) {
        node.leaf_segments.pop_back();
        return written;
      }
      commit(path.size());
      return Status::OK();
    }

    uint32_t first, last;
    if (TouchedRange(node.boundaries, segment, &first, &last)) {
      SEGDB_RETURN_IF_ERROR(InsertAtNode(cur, segment));
      commit(path.size());
      return Status::OK();
    }
    const uint32_t k = SlabOf(node.boundaries, segment);
    if (node.children[k] < 0) {
      Result<int32_t> fresh = BuildSubtree({segment});
      if (!fresh.ok()) return fresh.status();
      nodes_[cur].children[k] = fresh.value();
      commit(path.size());
      return Status::OK();
    }
    parent_slot = k;
    cur = node.children[k];
  }
}

Status TwoLevelIndex::Erase(const Segment& segment) {
  SEGDB_IO_BOUND("scan");  // amortized O(log_B n); substructures repack
  // Locate and remove from the owning structure first; the bookkeeping
  // follows only on success, so a NotFound leaves the index untouched.
  std::vector<int32_t> path;
  int32_t cur = root_;
  Status removed = Status::NotFound("segment not stored");
  while (cur >= 0) {
    path.push_back(cur);
    Node& node = nodes_[cur];
    SEGDB_RETURN_IF_ERROR(FetchMeta(node));
    if (node.is_leaf) {
      auto it = std::find(node.leaf_segments.begin(),
                          node.leaf_segments.end(), segment);
      if (it == node.leaf_segments.end()) return removed;
      node.leaf_segments.erase(it);
      const Status written = WriteLeafPages(&node);
      if (!written.ok()) {
        // Leaf pages are untouched on failure; restore the in-memory copy
        // (order within a leaf is immaterial).
        node.leaf_segments.push_back(segment);
        return written;
      }
      removed = Status::OK();
      break;
    }
    uint32_t first, last;
    if (!TouchedRange(node.boundaries, segment, &first, &last)) {
      cur = node.children[SlabOf(node.boundaries, segment)];
      continue;
    }
    if (segment.is_vertical()) {
      if (node.per_boundary[first].c == nullptr) return removed;
      SEGDB_RETURN_IF_ERROR(node.per_boundary[first].c->Erase(
          pst::PointRecord{segment.y1, segment.y2, segment.id}));
      removed = Status::OK();
      break;
    }
    // A crossing segment may live in up to three structures (L, R, G). G
    // goes first: its erase is the only one that can allocate (a
    // fractional-cascading tombstone), so once it succeeds the remaining
    // steps are plain LinePst erases that cannot re-fault. Rollbacks
    // reinsert what was already removed so a faulted erase leaves the
    // segment fully stored and retryable.
    bool from_l = false, from_g = false;
    if (last > first) {
      if (node.g == nullptr) return removed;
      SEGDB_RETURN_IF_ERROR(node.g->Erase(segment));
      removed = Status::OK();
      from_g = true;
    }
    if (segment.x1 < node.boundaries[first]) {
      if (node.per_boundary[first].l == nullptr) {
        return removed.ok() ? Status::Corruption("missing L entry") : removed;
      }
      const Status left = node.per_boundary[first].l->Erase(segment);
      if (!left.ok()) {
        if (from_g) node.g->Insert(segment).IgnoreError();
        return left;
      }
      removed = Status::OK();
      from_l = true;
    }
    if (segment.x2 > node.boundaries[last]) {
      if (node.per_boundary[last].r == nullptr) {
        return removed.ok() ? Status::Corruption("missing R entry") : removed;
      }
      const Status right = node.per_boundary[last].r->Erase(segment);
      if (!right.ok()) {
        if (from_l) node.per_boundary[first].l->Insert(segment).IgnoreError();
        if (from_g) node.g->Insert(segment).IgnoreError();
        return right;
      }
      removed = Status::OK();
    }
    // Amortized repack of G: absorb a failure here — the erase itself has
    // committed, and the rebuild trigger persists until a later op retries.
    if (from_g && node.g->NeedsRebuild()) node.g->Rebuild().IgnoreError();
    break;
  }
  if (!removed.ok()) return removed;
  for (int32_t idx : path) {
    --nodes_[idx].subtree_size;
    // Erases count toward the rebuild amortization too: they loosen the
    // audited balance bound by no more than the slack they add here.
    ++nodes_[idx].updates_since_rebuild;
  }
  --size_;
  return Status::OK();
}

Status TwoLevelIndex::FetchMeta(const Node& node) const {
  auto meta = pool_->Fetch(node.meta_page);
  if (!meta.ok()) return meta.status();
  return Status::OK();
}

Status TwoLevelIndex::ScanLeaf(const Node& leaf, const VerticalSegmentQuery& q,
                               std::vector<Segment>* out) const {
  for (io::PageId id : leaf.leaf_pages) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    // Branchless kernel over the whole page, then one bulk gather of the
    // matches — no per-segment predicate branch or push_back.
    const io::ConstColumnarPageView view(p, kLeafHeader, count);
    geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
    uint32_t* idx = scratch.ReserveIndices(count);
    const uint32_t hits = geom::ActiveFilterKernel().filter_vs(
        view.strips(), count, q.x0, q.ylo, q.yhi, idx);
    view.AppendMatches(idx, hits, out);
  }
  return Status::OK();
}

Status TwoLevelIndex::QueryBoundary(const Node& node, uint32_t i,
                                    const VerticalSegmentQuery& q,
                                    std::vector<Segment>* out) const {
  const BoundaryStructs& bs = node.per_boundary[i];
  if (bs.c) {
    std::vector<pst::PointRecord> points;
    SEGDB_RETURN_IF_ERROR(
        bs.c->Query3Sided(-(geom::kMaxCoord + 1), q.yhi, q.ylo, &points));
    for (const auto& p : points) {
      out->push_back(Segment::Make({q.x0, p.x}, {q.x0, p.y}, p.id));
    }
  }
  if (bs.l) {
    // L_i members also touching s_{i+1} have a long part covering s_i,
    // which G reports; keep the ones G cannot see.
    const size_t from = out->size();
    SEGDB_RETURN_IF_ERROR(bs.l->Query(q.x0, q.ylo, q.yhi, out));
    if (i + 1 < node.boundaries.size()) {
      const int64_t next = node.boundaries[i + 1];
      out->erase(std::remove_if(out->begin() + from, out->end(),
                                [next](const Segment& s) {
                                  return s.x2 >= next;
                                }),
                 out->end());
    }
  }
  if (bs.r) {
    // Keep the R_i members whose left part is degenerate (x1 == s_i): one
    // touching an earlier boundary has a long part G reports, and one with
    // x1 < s_i is already among L_i's answers.
    const size_t from = out->size();
    SEGDB_RETURN_IF_ERROR(bs.r->Query(q.x0, q.ylo, q.yhi, out));
    out->erase(std::remove_if(out->begin() + from, out->end(),
                              [&q](const Segment& s) { return s.x1 != q.x0; }),
               out->end());
  }
  return Status::OK();
}

Status TwoLevelIndex::QuerySlab(const Node& node, uint32_t k,
                                const VerticalSegmentQuery& q,
                                std::vector<Segment>* out) const {
  if (k >= 1) {
    const BoundaryStructs& bs = node.per_boundary[k - 1];
    if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->Query(q.x0, q.ylo, q.yhi, out));
  }
  if (k < node.boundaries.size()) {
    const BoundaryStructs& bs = node.per_boundary[k];
    if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->Query(q.x0, q.ylo, q.yhi, out));
  }
  return Status::OK();
}

void TwoLevelIndex::ReadAhead(int32_t child,
                              std::vector<io::PageId>* ahead) const {
  if (child < 0) return;
  const Node& next = nodes_[child];
  ahead->clear();
  ahead->push_back(next.meta_page);
  if (next.is_leaf) {
    ahead->insert(ahead->end(), next.leaf_pages.begin(),
                  next.leaf_pages.end());
  }
  pool_->Prefetch(*ahead);
}

uint64_t TwoLevelIndex::page_count() const {
  uint64_t total = 0;
  std::vector<int32_t> stack;  // live nodes only
  if (root_ >= 0) stack.push_back(root_);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    total += 1 + node.leaf_pages.size();
    for (const BoundaryStructs& bs : node.per_boundary) {
      if (bs.c) total += bs.c->page_count();
      if (bs.l) total += bs.l->page_count();
      if (bs.r) total += bs.r->page_count();
    }
    if (node.g) total += node.g->page_count();
    for (int32_t child : node.children) {
      if (child >= 0) stack.push_back(child);
    }
  }
  return total;
}

uint32_t TwoLevelIndex::SubtreeHeight(int32_t idx) const {
  if (idx < 0) return 0;
  uint32_t h = 0;
  for (int32_t child : nodes_[idx].children) {
    h = std::max(h, SubtreeHeight(child));
  }
  return 1 + h;
}

uint32_t TwoLevelIndex::height() const { return SubtreeHeight(root_); }

Status TwoLevelIndex::CheckRouting(const Node& node, const int64_t* lo,
                                   const int64_t* hi, uint64_t* count) const {
  // Every segment of a crossing structure, with the structures it was
  // found in; each must be in exactly the ones InsertAtNode routes it to.
  std::unordered_map<uint64_t, std::pair<Segment, uint8_t>> found;
  const auto note = [&](const Segment& s, uint8_t where) {
    auto it = found.try_emplace(s.id, s, 0).first;
    if (it->second.second & where) {
      return Status::Corruption("segment stored twice in one structure");
    }
    it->second.second |= where;
    return Status::OK();
  };
  const auto escapes = [&](const Segment& s) {
    return (lo != nullptr && s.x1 <= *lo) || (hi != nullptr && s.x2 >= *hi);
  };
  uint32_t first, last;
  for (size_t i = 0; i < node.per_boundary.size(); ++i) {
    const BoundaryStructs& bs = node.per_boundary[i];
    if (bs.c) {
      std::vector<pst::PointRecord> points;
      SEGDB_RETURN_IF_ERROR(bs.c->CollectAll(&points));
      for (const auto& p : points) {
        if (p.x > p.y) return Status::Corruption("C_i interval with lo > hi");
      }
      *count += bs.c->size();
    }
    if (bs.l) {
      std::vector<Segment> tmp;
      SEGDB_RETURN_IF_ERROR(bs.l->CollectAll(&tmp));
      for (const Segment& s : tmp) {
        if (!TouchedRange(node.boundaries, s, &first, &last) || first != i ||
            s.x1 >= node.boundaries[i]) {
          return Status::Corruption(
              "L_i member whose first touched boundary is not s_i");
        }
        if (escapes(s)) {
          return Status::Corruption("L_i member escapes the ancestor slab");
        }
        SEGDB_RETURN_IF_ERROR(note(s, kInL));
      }
    }
    if (bs.r) {
      std::vector<Segment> tmp;
      SEGDB_RETURN_IF_ERROR(bs.r->CollectAll(&tmp));
      for (const Segment& s : tmp) {
        if (!TouchedRange(node.boundaries, s, &first, &last) || last != i ||
            s.x2 <= node.boundaries[i]) {
          return Status::Corruption(
              "R_i member whose last touched boundary is not s_i");
        }
        if (escapes(s)) {
          return Status::Corruption("R_i member escapes the ancestor slab");
        }
        SEGDB_RETURN_IF_ERROR(note(s, kInR));
      }
    }
  }
  if (node.g) {
    std::vector<Segment> tmp;
    SEGDB_RETURN_IF_ERROR(node.g->CollectAll(&tmp));
    for (const Segment& s : tmp) {
      if (!TouchedRange(node.boundaries, s, &first, &last) || last <= first) {
        return Status::Corruption("G member touching < 2 boundaries");
      }
      SEGDB_RETURN_IF_ERROR(note(s, kInG));
    }
  }
  for (const auto& [id, entry] : found) {
    const Segment& s = entry.first;
    TouchedRange(node.boundaries, s, &first, &last);
    const uint8_t routed = (s.x1 < node.boundaries[first] ? kInL : 0) |
                           (s.x2 > node.boundaries[last] ? kInR : 0) |
                           (last > first ? kInG : 0);
    if (entry.second != routed) {
      return Status::Corruption(
          "segment " + std::to_string(id) +
          " not mirrored in exactly its L_first/R_last/G structures");
    }
  }
  *count += found.size();
  return Status::OK();
}

Status TwoLevelIndex::CheckSubtree(int32_t idx, const int64_t* lo,
                                   const int64_t* hi, uint64_t* total) const {
  const Node& node = nodes_[idx];
  uint64_t count = 0;
  if (node.is_leaf) {
    count = node.leaf_segments.size();
    for (const Segment& s : node.leaf_segments) {
      if ((lo != nullptr && s.x1 <= *lo) || (hi != nullptr && s.x2 >= *hi)) {
        return Status::Corruption("leaf segment escapes its slab");
      }
    }
  } else {
    // Slab coverage: at most `fanout` strictly increasing boundaries, one
    // C/L/R triple per boundary and one child per slab.
    if (node.boundaries.empty() || node.boundaries.size() > fanout_) {
      return Status::Corruption("boundary count outside [1, fanout]");
    }
    if (node.per_boundary.size() != node.boundaries.size() ||
        node.children.size() != node.boundaries.size() + 1) {
      return Status::Corruption("per-boundary structures misaligned");
    }
    for (size_t i = 0; i < node.boundaries.size(); ++i) {
      if (i > 0 && node.boundaries[i - 1] >= node.boundaries[i]) {
        return Status::Corruption("boundaries not strictly increasing");
      }
      if ((lo != nullptr && node.boundaries[i] <= *lo) ||
          (hi != nullptr && node.boundaries[i] >= *hi)) {
        return Status::Corruption("boundary outside ancestor slab");
      }
      const BoundaryStructs& bs = node.per_boundary[i];
      if (bs.c) SEGDB_RETURN_IF_ERROR(bs.c->CheckInvariants());
      if (bs.l) SEGDB_RETURN_IF_ERROR(bs.l->CheckInvariants());
      if (bs.r) SEGDB_RETURN_IF_ERROR(bs.r->CheckInvariants());
    }
    if (node.g) SEGDB_RETURN_IF_ERROR(node.g->CheckInvariants());
    SEGDB_RETURN_IF_ERROR(CheckRouting(node, lo, hi, &count));
    // Weight balance: the quantile split leaves every child of an m-slab
    // node under 1/m of its segments, and a counted update adds at most
    // m - 1 units of slack. For m = 2 this is BB[alpha]'s
    // 2*max(|left|, |right|) <= size + updates.
    const uint64_t m = node.children.size();
    uint64_t max_child = 0;
    for (int32_t child : node.children) {
      if (child < 0) continue;
      max_child = std::max(max_child, nodes_[child].subtree_size);
    }
    if (m * max_child >
        node.subtree_size + (m - 1) * node.updates_since_rebuild) {
      return Status::Corruption("weight balance bound violated");
    }
    for (size_t k = 0; k < node.children.size(); ++k) {
      if (node.children[k] < 0) continue;
      const int64_t* clo = k == 0 ? lo : &node.boundaries[k - 1];
      const int64_t* chi =
          k == node.boundaries.size() ? hi : &node.boundaries[k];
      uint64_t sub = 0;
      SEGDB_RETURN_IF_ERROR(CheckSubtree(node.children[k], clo, chi, &sub));
      count += sub;
    }
  }
  if (count != node.subtree_size) {
    return Status::Corruption("subtree_size bookkeeping mismatch");
  }
  *total = count;
  return Status::OK();
}

Status TwoLevelIndex::CheckInvariants() const {
  if (root_ < 0) {
    return size_ == 0 ? Status::OK() : Status::Corruption("size_ mismatch");
  }
  uint64_t total = 0;
  SEGDB_RETURN_IF_ERROR(CheckSubtree(root_, nullptr, nullptr, &total));
  if (total != size_) return Status::Corruption("size_ mismatch");
  return Status::OK();
}

}  // namespace segdb::core
