#include "pst/line_pst.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>

#include "geom/filter_kernel.h"
#include "geom/predicates.h"
#include "io/columnar_page_view.h"
#include "util/math.h"
#include "util/check.h"

namespace segdb::pst {

namespace {

// Reach of a canonical (right-extending) segment: how far from the base
// line it attains. This is the PST heap key.
int64_t Reach(const geom::Segment& s) { return s.x2; }

}  // namespace

LinePst::LinePst(io::BufferPool* pool, int64_t base_x, Direction direction,
                 LinePstOptions options)
    : pool_(pool),
      base_x_(base_x),
      direction_(direction) {
  const uint32_t page = pool_->page_size();
  if (options.fanout != 0) {
    fanout_ = std::max<uint32_t>(2, options.fanout);
  } else {
    // Auto: balance directory size against segment payload (cap ~= 2m).
    // Per-child overhead: PageId + child_size + top + sep = 92 bytes.
    fanout_ = std::max<uint32_t>(2, (page + 24) / 172);
  }
  const uint32_t overhead = SegOff(0);
  SEGDB_DCHECK(overhead < page) << "page too small for LinePst fanout";
  cap_ = io::ColumnarRegionCapacity(page - overhead);
  SEGDB_DCHECK(cap_ >= 2) << "page too small for LinePst node";
}

LinePst::~LinePst() { Clear().IgnoreError(); }

geom::Segment LinePst::Canonical(const geom::Segment& s) const {
  return direction_ == Direction::kRight ? s : geom::MirrorX(s, base_x_);
}

geom::Segment LinePst::Original(const geom::Segment& s) const {
  return direction_ == Direction::kRight ? s : geom::MirrorX(s, base_x_);
}

int LinePst::BaseCompare(const geom::Segment& a,
                         const geom::Segment& b) const {
  return geom::CompareCrossingOrder(a, b, base_x_);
}

Status LinePst::ValidateInput(const geom::Segment& s) const {
  if (s.is_vertical()) {
    return Status::InvalidArgument(
        "segment " + std::to_string(s.id) +
        " lies on / parallel to the base line; store it in the C structure");
  }
  if (!(s.x1 <= base_x_ && base_x_ < s.x2)) {
    return Status::InvalidArgument(
        "segment " + std::to_string(s.id) +
        " does not cross the base line into the stored half-plane");
  }
  return Status::OK();
}

Status LinePst::Clear() {
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
    root_ = io::kInvalidPageId;
  }
  size_ = 0;
  page_count_ = 0;
  return Status::OK();
}

Status LinePst::FreeSubtree(io::PageId id) {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    for (uint32_t i = 0; i < hdr.num_children; ++i) {
      children.push_back(p.ReadAt<io::PageId>(ChildOff(i)));
    }
  }
  for (io::PageId c : children) SEGDB_RETURN_IF_ERROR(FreeSubtree(c));
  SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  --page_count_;
  return Status::OK();
}

Status LinePst::CollectSubtree(io::PageId id,
                               std::vector<geom::Segment>* out) const {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    const io::ConstColumnarPageView view(p, SegOff(0), cap_);
    for (uint32_t i = 0; i < hdr.count; ++i) {
      out->push_back(view.Get(i));
    }
    for (uint32_t i = 0; i < hdr.num_children; ++i) {
      children.push_back(p.ReadAt<io::PageId>(ChildOff(i)));
    }
  }
  for (io::PageId c : children) SEGDB_RETURN_IF_ERROR(CollectSubtree(c, out));
  return Status::OK();
}

Status LinePst::CollectAll(std::vector<geom::Segment>* out) const {
  if (root_ == io::kInvalidPageId) return Status::OK();
  std::vector<geom::Segment> canonical;
  SEGDB_RETURN_IF_ERROR(CollectSubtree(root_, &canonical));
  out->reserve(out->size() + canonical.size());
  for (const geom::Segment& s : canonical) out->push_back(Original(s));
  return Status::OK();
}

Result<io::PageId> LinePst::BuildSubtree(std::vector<geom::Segment> segs,
                                         geom::Segment* top) {
  SEGDB_DCHECK(!segs.empty());
  const size_t n = segs.size();
  const uint32_t take = static_cast<uint32_t>(std::min<size_t>(cap_, n));

  // Pick the `take` segments with the largest reach.
  std::vector<uint32_t> by_reach(n);
  std::iota(by_reach.begin(), by_reach.end(), 0);
  std::nth_element(by_reach.begin(), by_reach.begin() + take - 1,
                   by_reach.end(), [&](uint32_t a, uint32_t b) {
                     if (Reach(segs[a]) != Reach(segs[b])) {
                       return Reach(segs[a]) > Reach(segs[b]);
                     }
                     return a < b;
                   });
  std::vector<bool> stored(n, false);
  for (uint32_t i = 0; i < take; ++i) stored[by_reach[i]] = true;

  std::vector<geom::Segment> node_segs;
  std::vector<geom::Segment> rest;
  node_segs.reserve(take);
  rest.reserve(n - take);
  int64_t max_reach = segs[0].x2;
  for (size_t i = 0; i < n; ++i) {
    max_reach = std::max(max_reach, Reach(segs[i]));
    if (stored[i]) {
      node_segs.push_back(segs[i]);
    } else {
      rest.push_back(segs[i]);
    }
  }
  // The subtree's top segment: maximum reach lives in this node by
  // construction.
  *top = *std::max_element(node_segs.begin(), node_segs.end(),
                           [](const geom::Segment& a, const geom::Segment& b) {
                             return Reach(a) < Reach(b);
                           });

  auto ref = pool_->NewPage();
  if (!ref.ok()) return ref.status();
  ++page_count_;
  const io::PageId id = ref.value().page_id();
  io::Page& p = ref.value().page();

  // Children: >= 2 whenever the remainder does not fit one node, so the
  // tree height stays logarithmic.
  uint32_t k = 0;
  if (!rest.empty()) {
    k = static_cast<uint32_t>(std::min<uint64_t>(
        {fanout_, rest.size(),
         std::max<uint64_t>(2, CeilDiv(rest.size(), cap_))}));
  }

  // The header goes to disk with num_children == 0 until every child has
  // been built: a build that faults mid-way unwinds by freeing the
  // children it completed (their ids are still local) plus this page, and
  // no on-disk state ever points at a half-attached child.
  NodeHeader hdr;
  hdr.count = take;
  hdr.num_children = 0;
  hdr.subtree_size = n;
  p.WriteAt<NodeHeader>(0, hdr);
  io::ColumnarPageView(&p, SegOff(0), cap_)
      .WriteRange(0, node_segs.data(), take);
  ref.value().MarkDirty();
  // Children allocate pages below; drop the pin at scope exit first.
  { io::PageRef done = std::move(ref.value()); }

  if (k > 0) {
    std::vector<io::PageId> child_ids;
    std::vector<uint64_t> child_sizes(k);
    std::vector<geom::Segment> tops(k);
    std::vector<geom::Segment> seps;
    child_ids.reserve(k);
    const auto unwind = [&](const Status& cause) {
      for (io::PageId c : child_ids) FreeSubtree(c).IgnoreError();
      pool_->FreePage(id).IgnoreError();
      --page_count_;
      return cause;
    };
    const size_t q = rest.size() / k;
    const size_t r = rest.size() % k;
    size_t begin = 0;
    for (uint32_t i = 0; i < k; ++i) {
      const size_t len = q + (i < r ? 1 : 0);
      std::vector<geom::Segment> chunk(rest.begin() + begin,
                                       rest.begin() + begin + len);
      if (i > 0) seps.push_back(chunk.front());
      geom::Segment child_top;
      Result<io::PageId> child = BuildSubtree(std::move(chunk), &child_top);
      if (!child.ok()) return unwind(child.status());
      child_ids.push_back(child.value());
      child_sizes[i] = len;
      tops[i] = child_top;
      begin += len;
    }
    auto wref = pool_->Fetch(id);
    if (!wref.ok()) return unwind(wref.status());
    io::Page& wp = wref.value().page();
    for (uint32_t i = 0; i < k; ++i) {
      wp.WriteAt<io::PageId>(ChildOff(i), child_ids[i]);
      wp.WriteAt<uint64_t>(ChildSizeOff(i), child_sizes[i]);
      wp.WriteAt<geom::Segment>(TopOff(i), tops[i]);
      if (i > 0) wp.WriteAt<geom::Segment>(SepOff(i - 1), seps[i - 1]);
    }
    hdr.num_children = k;
    wp.WriteAt<NodeHeader>(0, hdr);
    wref.value().MarkDirty();
  }
  return id;
}

Status LinePst::BulkLoad(std::span<const geom::Segment> segments) {
  SEGDB_IO_BOUND("scan");
  // Validate and build the replacement tree before freeing the old one: a
  // faulted load unwinds its partial build and leaves the previous
  // contents untouched, so a failed BulkLoad is a no-op.
  std::vector<geom::Segment> canonical;
  canonical.reserve(segments.size());
  for (const geom::Segment& s : segments) {
    const geom::Segment c = Canonical(s);
    SEGDB_RETURN_IF_ERROR(ValidateInput(c));
    canonical.push_back(c);
  }
  std::sort(canonical.begin(), canonical.end(),
            [&](const geom::Segment& a, const geom::Segment& b) {
              return BaseCompare(a, b) < 0;
            });
  io::PageId new_root = io::kInvalidPageId;
  if (!canonical.empty()) {
    geom::Segment top;
    Result<io::PageId> root = BuildSubtree(std::move(canonical), &top);
    if (!root.ok()) return root.status();
    new_root = root.value();
  }
  if (root_ != io::kInvalidPageId) {
    // FreeSubtree (not Clear) so page_count_ keeps counting the new tree.
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
  }
  root_ = new_root;
  size_ = segments.size();
  packed_size_ = segments.size();
  return Status::OK();
}

Status LinePst::Insert(const geom::Segment& segment) {
  // Amortized O(log_B n): the descent is height-bounded, but an insert
  // that trips the density trigger rebuilds the overgrown subtree.
  SEGDB_IO_BOUND("scan");
  geom::Segment g = Canonical(segment);
  SEGDB_RETURN_IF_ERROR(ValidateInput(g));
  return InsertCanonical(g);
}

Status LinePst::RebuildAll() {
  // Repack by building the packed replacement first; the old tree is freed
  // only once the build has fully succeeded, so a faulted repack leaves
  // the (valid, merely unpacked) tree in place.
  std::vector<geom::Segment> all;
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(CollectSubtree(root_, &all));
  }
  const uint64_t n = all.size();
  io::PageId new_root = io::kInvalidPageId;
  if (!all.empty()) {
    std::sort(all.begin(), all.end(),
              [&](const geom::Segment& a, const geom::Segment& b) {
                return BaseCompare(a, b) < 0;
              });
    geom::Segment top;
    Result<io::PageId> root = BuildSubtree(std::move(all), &top);
    if (!root.ok()) return root.status();
    new_root = root.value();
  }
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
  }
  root_ = new_root;
  size_ = n;
  packed_size_ = n;
  return Status::OK();
}

Status LinePst::Erase(const geom::Segment& segment) {
  // Amortized O(log_B n): the locate/rewrite passes are height-bounded,
  // but the half-empty density trigger repacks the whole tree.
  SEGDB_IO_BOUND("scan");
  const geom::Segment g = Canonical(segment);
  SEGDB_RETURN_IF_ERROR(ValidateInput(g));
  if (root_ == io::kInvalidPageId) return Status::NotFound("empty PST");

  // Pass 1: locate the owning node without mutating anything. The target
  // can sit in any node on the base-order routing path (ancestors hold
  // their subtree's far-reaching segments).
  struct Step {
    io::PageId node;
    uint32_t child_slot;  // slot taken to continue (undefined for last)
  };
  std::vector<Step> path;
  io::PageId found_node = io::kInvalidPageId;
  uint32_t found_slot = 0;
  io::PageId cur = root_;
  while (cur != io::kInvalidPageId) {
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    const io::ConstColumnarPageView view(p, SegOff(0), cap_);
    // Binary search the node's base-ordered array for the exact segment.
    uint32_t lo = 0, hi = hdr.count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      const geom::Segment s = view.Get(mid);
      const int c = BaseCompare(s, g);
      if (c < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < hdr.count && BaseCompare(view.Get(lo), g) == 0) {
      found_node = cur;
      found_slot = lo;
      path.push_back(Step{cur, 0});
      break;
    }
    if (hdr.num_children == 0) break;
    uint32_t j = 0;
    for (uint32_t i = 1; i < hdr.num_children; ++i) {
      const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
      if (BaseCompare(g, sep) >= 0) {
        j = i;
      } else {
        break;
      }
    }
    path.push_back(Step{cur, j});
    cur = p.ReadAt<io::PageId>(ChildOff(j));
  }
  if (found_node == io::kInvalidPageId) {
    return Status::NotFound("segment not stored");
  }

  // Pass 2: remove the record and fix the bookkeeping along the path.
  for (size_t i = 0; i < path.size(); ++i) {
    auto ref = pool_->Fetch(path[i].node);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    --hdr.subtree_size;
    if (path[i].node == found_node) {
      std::vector<geom::Segment> segs(hdr.count);
      io::ColumnarPageView view(&p, SegOff(0), cap_);
      view.ReadRange(0, segs.data(), hdr.count);
      segs.erase(segs.begin() + found_slot);
      --hdr.count;
      view.WriteRange(0, segs.data(), hdr.count);
      p.WriteAt<NodeHeader>(0, hdr);
      ref.value().MarkDirty();
      break;
    }
    p.WriteAt<NodeHeader>(0, hdr);
    p.WriteAt<uint64_t>(ChildSizeOff(path[i].child_slot),
                        p.ReadAt<uint64_t>(ChildSizeOff(path[i].child_slot)) -
                            1);
    ref.value().MarkDirty();
  }
  --size_;

  // Repack once half the packed content is gone (amortized O(1) page
  // writes per deletion); an empty tree releases everything. A faulted
  // repack is absorbed, not surfaced: the removal above already succeeded
  // and the tree is still valid (RebuildAll keeps the old tree on
  // failure), so the erase reports success and the still-true density
  // trigger re-runs the repack on a later erase.
  if (size_ == 0 || (packed_size_ >= 2 && size_ * 2 < packed_size_)) {
    RebuildAll().IgnoreError();
  }
  return Status::OK();
}

Status LinePst::InsertCanonical(geom::Segment g) {
  // Two-phase insert, for fault atomicity. Phase 1 walks the tree
  // READ-ONLY and decides the terminal action: insert into a non-full
  // node, open a fresh child page, or rebuild an overgrown subtree. Every
  // operation that can fail on the simulated device — the child-page
  // allocation, the replacement-subtree build — then runs BEFORE phase 2
  // re-walks the same (unchanged) path applying header increments, heap
  // push-down swaps and child bookkeeping. A failure therefore surfaces
  // while the index is still byte-for-byte in its pre-insert state, so a
  // faulted insert is audit-clean and simply retryable.
  if (root_ == io::kInvalidPageId) {
    auto ref = pool_->NewPage();
    if (!ref.ok()) return ref.status();
    ++page_count_;
    io::Page& p = ref.value().page();
    NodeHeader hdr;
    hdr.count = 1;
    hdr.num_children = 0;
    hdr.subtree_size = 1;
    p.WriteAt<NodeHeader>(0, hdr);
    io::ColumnarPageView(&p, SegOff(0), cap_).Set(0, g);
    ref.value().MarkDirty();
    root_ = ref.value().page_id();
    ++size_;
    return Status::OK();
  }

  const auto base_less = [&](const geom::Segment& a, const geom::Segment& b) {
    return BaseCompare(a, b) < 0;
  };
  // Heap push-down at a full node: if *carry out-reaches the weakest
  // stored segment it takes its slot and the weakest continues down.
  const auto apply_swap = [&](io::Page* p, const NodeHeader& hdr,
                              geom::Segment* carry) {
    std::vector<geom::Segment> segs(hdr.count);
    io::ColumnarPageView view(p, SegOff(0), cap_);
    view.ReadRange(0, segs.data(), hdr.count);
    uint32_t min_idx = 0;
    for (uint32_t i = 1; i < hdr.count; ++i) {
      if (Reach(segs[i]) < Reach(segs[min_idx])) min_idx = i;
    }
    if (Reach(*carry) > Reach(segs[min_idx])) {
      const geom::Segment evicted = segs[min_idx];
      segs.erase(segs.begin() + min_idx);
      segs.insert(std::lower_bound(segs.begin(), segs.end(), *carry,
                                   base_less),
                  *carry);
      view.WriteRange(0, segs.data(), hdr.count);
      *carry = evicted;
    }
  };

  // --- Phase 1: read-only probe. ------------------------------------------
  enum class Action { kInsertHere, kOpenChild, kRebuild };
  Action action = Action::kInsertHere;
  std::vector<io::PageId> path;  // root ... terminal node
  std::vector<uint32_t> slots;   // child slot taken from path[i]
  geom::Segment probe = g;       // value carried down (after swaps)
  geom::Segment arrival = g;     // value as it arrives at the terminal node
  {
    io::PageId cur = root_;
    for (;;) {
      arrival = probe;
      path.push_back(cur);
      auto ref = pool_->Fetch(cur);
      if (!ref.ok()) return ref.status();
      const io::Page& p = ref.value().page();
      const NodeHeader hdr = p.ReadAt<NodeHeader>(0);

      // BB[alpha]-style partial rebuilding: when one child subtree has
      // grown past its tolerated share, rebuild this whole subtree packed.
      // The trigger depends only on this node's child sizes, which phase 2
      // has not touched yet, so both phases agree on the decision.
      if (hdr.num_children > 0) {
        uint64_t below = 0;
        uint64_t max_child = 0;
        for (uint32_t i = 0; i < hdr.num_children; ++i) {
          const uint64_t cs = p.ReadAt<uint64_t>(ChildSizeOff(i));
          below += cs;
          max_child = std::max(max_child, cs);
        }
        // A child may grow to twice its ideal share plus one node's
        // capacity before this subtree is rebuilt.
        const double share =
            static_cast<double>(below) / static_cast<double>(hdr.num_children);
        const double limit = cap_ + 2.0 * share;
        if (below >= 2 * static_cast<uint64_t>(cap_) &&
            static_cast<double>(max_child) > limit) {
          action = Action::kRebuild;
          break;
        }
      }
      if (hdr.count < cap_) {
        action = Action::kInsertHere;
        break;
      }
      // Full node: compute the displaced value without writing it.
      std::vector<geom::Segment> segs(hdr.count);
      io::ConstColumnarPageView(p, SegOff(0), cap_)
          .ReadRange(0, segs.data(), hdr.count);
      uint32_t min_idx = 0;
      for (uint32_t i = 1; i < hdr.count; ++i) {
        if (Reach(segs[i]) < Reach(segs[min_idx])) min_idx = i;
      }
      if (Reach(probe) > Reach(segs[min_idx])) probe = segs[min_idx];
      if (hdr.num_children == 0) {
        action = Action::kOpenChild;
        break;
      }
      uint32_t j = 0;
      for (uint32_t i = 1; i < hdr.num_children; ++i) {
        const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
        if (BaseCompare(probe, sep) >= 0) {
          j = i;
        } else {
          break;
        }
      }
      slots.push_back(j);
      cur = p.ReadAt<io::PageId>(ChildOff(j));
    }
  }
  SEGDB_DCHECK(slots.size() + 1 == path.size());

  // --- Phase 2a: subtree rebuild. -----------------------------------------
  if (action == Action::kRebuild) {
    const io::PageId target = path.back();
    std::vector<geom::Segment> all;
    SEGDB_RETURN_IF_ERROR(CollectSubtree(target, &all));
    all.push_back(arrival);
    std::sort(all.begin(), all.end(), base_less);
    // Build the replacement before freeing the old subtree or touching any
    // ancestor: a faulted build unwinds itself and the insert is a no-op.
    geom::Segment top;
    Result<io::PageId> rebuilt = BuildSubtree(std::move(all), &top);
    if (!rebuilt.ok()) return rebuilt.status();
    SEGDB_RETURN_IF_ERROR(FreeSubtree(target));
    // Ancestor bookkeeping and displacement swaps, root to parent. Every
    // ancestor is a full routed node (the descent only passes full nodes).
    geom::Segment carry = g;
    for (size_t d = 0; d + 1 < path.size(); ++d) {
      auto ref = pool_->Fetch(path[d]);
      if (!ref.ok()) return ref.status();
      io::Page& p = ref.value().page();
      NodeHeader hdr = p.ReadAt<NodeHeader>(0);
      ++hdr.subtree_size;
      p.WriteAt<NodeHeader>(0, hdr);
      apply_swap(&p, hdr, &carry);
      const uint32_t j = slots[d];
      p.WriteAt<uint64_t>(ChildSizeOff(j),
                          p.ReadAt<uint64_t>(ChildSizeOff(j)) + 1);
      const geom::Segment jtop = p.ReadAt<geom::Segment>(TopOff(j));
      if (Reach(carry) > Reach(jtop)) p.WriteAt<geom::Segment>(TopOff(j), carry);
      ref.value().MarkDirty();
    }
    if (path.size() == 1) {
      root_ = rebuilt.value();
    } else {
      auto pref = pool_->Fetch(path[path.size() - 2]);
      if (!pref.ok()) return pref.status();
      io::Page& pp = pref.value().page();
      const uint32_t pslot = slots[path.size() - 2];
      pp.WriteAt<io::PageId>(ChildOff(pslot), rebuilt.value());
      pp.WriteAt<geom::Segment>(TopOff(pslot), top);
      pref.value().MarkDirty();
    }
    ++size_;
    return Status::OK();
  }

  // --- Phase 2b: pre-allocate, then apply. --------------------------------
  io::PageId fresh_child = io::kInvalidPageId;
  if (action == Action::kOpenChild) {
    // The only page this insert can need, allocated before any mutation;
    // `probe` is the final displaced value the new child will hold.
    auto cref = pool_->NewPage();
    if (!cref.ok()) return cref.status();
    ++page_count_;
    io::Page& cp = cref.value().page();
    NodeHeader chdr;
    chdr.count = 1;
    chdr.num_children = 0;
    chdr.subtree_size = 1;
    cp.WriteAt<NodeHeader>(0, chdr);
    io::ColumnarPageView(&cp, SegOff(0), cap_).Set(0, probe);
    cref.value().MarkDirty();
    fresh_child = cref.value().page_id();
  }

  geom::Segment carry = g;
  for (size_t d = 0; d < path.size(); ++d) {
    auto ref = pool_->Fetch(path[d]);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    ++hdr.subtree_size;
    p.WriteAt<NodeHeader>(0, hdr);
    ref.value().MarkDirty();

    if (d + 1 == path.size()) {
      if (action == Action::kInsertHere) {
        SEGDB_DCHECK(hdr.count < cap_);
        std::vector<geom::Segment> segs(hdr.count);
        io::ColumnarPageView view(&p, SegOff(0), cap_);
        view.ReadRange(0, segs.data(), hdr.count);
        segs.insert(
            std::lower_bound(segs.begin(), segs.end(), carry, base_less),
            carry);
        hdr.count += 1;
        p.WriteAt<NodeHeader>(0, hdr);
        view.WriteRange(0, segs.data(), hdr.count);
      } else {
        // Open the first child with the displaced segment.
        apply_swap(&p, hdr, &carry);
        hdr.num_children = 1;
        p.WriteAt<NodeHeader>(0, hdr);
        p.WriteAt<io::PageId>(ChildOff(0), fresh_child);
        p.WriteAt<uint64_t>(ChildSizeOff(0), 1);
        p.WriteAt<geom::Segment>(TopOff(0), carry);
      }
      ++size_;
      return Status::OK();
    }

    // Interior step: full node that routes `carry` onward.
    apply_swap(&p, hdr, &carry);
    const uint32_t j = slots[d];
    p.WriteAt<uint64_t>(ChildSizeOff(j),
                        p.ReadAt<uint64_t>(ChildSizeOff(j)) + 1);
    const geom::Segment jtop = p.ReadAt<geom::Segment>(TopOff(j));
    if (Reach(carry) > Reach(jtop)) {
      p.WriteAt<geom::Segment>(TopOff(j), carry);
    }
  }
  return Status::Internal("InsertCanonical: fell off the apply walk");
}

namespace {

// Mutable query state shared by the Find walks and the Report traversal:
// the fences are witness segments proven to pass strictly below / above
// the query range; any subtree base-order-dominated by a fence is pruned.
struct QueryState {
  bool have_lf = false, have_rf = false;
  geom::Segment lf{}, rf{};
};

}  // namespace

Status LinePst::Query(int64_t qx, int64_t ylo, int64_t yhi,
                      std::vector<geom::Segment>* out) const {
  SEGDB_IO_BOUND("log", "t/B");  // the external PST bound (Section 2)
  if (ylo > yhi) return Status::InvalidArgument("ylo > yhi");
  if (direction_ == Direction::kRight ? qx < base_x_ : qx > base_x_) {
    return Status::InvalidArgument(
        "query abscissa lies outside the stored half-plane");
  }
  if (root_ == io::kInvalidPageId) return Status::OK();
  const int64_t cqx =
      direction_ == Direction::kRight ? qx : 2 * base_x_ - qx;

  QueryState st;
  // One branchless kernel pass classifies every stored segment of a node
  // against (cqx, [ylo, yhi]) into three lane bitmasks. Stored segments
  // satisfy x1 <= base_x <= cqx, so the kernel's span test x1 <= cqx <= x2
  // is exactly the old "Reach(s) < cqx" skip; below/in-range/above
  // reproduce the CompareYAtX signs (filter_kernel.h). A node's array is in
  // base order (the bulk build keeps the sorted order, Insert places by
  // lower_bound, Erase removes a slot; CheckSubtree audits it), so the last
  // below lane (the highest below bit) is the base-order maximum of the
  // node's below lanes and the first above lane (the lowest above bit) the
  // minimum of its above lanes: one BaseCompare per fence tightens it
  // exactly as a max/min over every lane would. In-range lanes are
  // bulk-gathered, in node order (ascending bits) and in the caller's
  // frame, onto *dst.
  auto scan_node = [&](const io::Page& p, const NodeHeader& hdr,
                       std::vector<geom::Segment>* dst) {
    const io::ConstColumnarPageView view(p, SegOff(0), cap_);
    geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
    const geom::LaneMasks masks = scratch.ReserveMasks(hdr.count);
    geom::ActiveFilterKernel().classify_vs(view.strips(), hdr.count, cqx,
                                           ylo, yhi, masks);
    const uint32_t words = geom::LaneMaskWords(hdr.count);
    for (uint32_t w = words; w-- > 0;) {
      if (masks.below[w] == 0) continue;
      const geom::Segment s =
          view.Get(w * 64 + 63 - std::countl_zero(masks.below[w]));
      if (!st.have_lf || BaseCompare(s, st.lf) > 0) {
        st.lf = s;
        st.have_lf = true;
      }
      break;
    }
    for (uint32_t w = 0; w < words; ++w) {
      if (masks.above[w] == 0) continue;
      const geom::Segment s =
          view.Get(w * 64 + std::countr_zero(masks.above[w]));
      if (!st.have_rf || BaseCompare(s, st.rf) < 0) {
        st.rf = s;
        st.have_rf = true;
      }
      break;
    }
    uint32_t* idx = scratch.ReserveIndices(hdr.count);
    uint32_t hits = 0;
    for (uint32_t w = 0; w < words; ++w) {
      for (uint64_t bits = masks.in_range[w]; bits != 0; bits &= bits - 1) {
        idx[hits++] = w * 64 + std::countr_zero(bits);
      }
    }
    const size_t first = dst->size();
    view.AppendMatches(idx, hits, dst);
    if (direction_ == Direction::kLeft) {
      for (size_t j = first; j < dst->size(); ++j) {
        (*dst)[j] = Original((*dst)[j]);
      }
    }
  };
  // Prune test shared by every traversal: may child i of this page hold a
  // segment that is neither fence-dominated nor unreachable?
  auto child_admissible = [&](const io::Page& p, const NodeHeader& hdr,
                              uint32_t i) {
    const geom::Segment top = p.ReadAt<geom::Segment>(TopOff(i));
    if (Reach(top) < cqx) return false;  // nothing below reaches the query
    if (st.have_lf && i + 1 < hdr.num_children) {
      // Child i's contents precede sep[i] in base order; at or before the
      // left fence means everything reaching passes below the range.
      const geom::Segment hi_sep = p.ReadAt<geom::Segment>(SepOff(i));
      if (BaseCompare(hi_sep, st.lf) <= 0) return false;
    }
    if (st.have_rf && i >= 1) {
      const geom::Segment lo_sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
      if (BaseCompare(lo_sep, st.rf) >= 0) return false;
    }
    return true;
  };

  // --- Find (paper's Find function, fence-walk form) ---------------------
  // Two root-to-leaf walks chase the answer run's two base-order
  // boundaries, scanning only the nodes on the walk. Each scanned node
  // tightens a fence; afterwards the fences bracket the answer run to
  // within one walk-path, so the Report traversal below prunes everything
  // else. `toward_left` walks at the left (below->in-range) boundary by
  // following the child containing the current left fence; the right walk
  // is symmetric.
  //
  // Each node is classified once per query. A walk keeps the in-range
  // lanes of every node it scans in `walked_hits`, one run per node in
  // `walked`; the second walk skips a node the first one scanned, and
  // Report appends a walked node's run where it would have scanned it.
  // Classes depend only on (cqx, ylo, yhi) and a fence update is an
  // idempotent max/min, so every prune decision, every fetch and the
  // output sequence are those of scanning the node each time. A walk
  // visits one node per level, so the linear lookup covers at most twice
  // the height.
  struct WalkedNode {
    io::PageId id;
    size_t begin, end;  // its in-range lanes in walked_hits
  };
  std::vector<WalkedNode> walked;
  std::vector<geom::Segment> walked_hits;
  auto find_walked = [&](io::PageId id) -> const WalkedNode* {
    for (const WalkedNode& w : walked) {
      if (w.id == id) return &w;
    }
    return nullptr;
  };
  auto fence_walk = [&](bool toward_left) -> Status {
    io::PageId cur = root_;
    while (cur != io::kInvalidPageId) {
      auto ref = pool_->Fetch(cur);
      if (!ref.ok()) return ref.status();
      const io::Page& p = ref.value().page();
      const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
      if (find_walked(cur) == nullptr) {
        const size_t begin = walked_hits.size();
        scan_node(p, hdr, &walked_hits);
        walked.push_back(WalkedNode{cur, begin, walked_hits.size()});
      }
      // Descend toward the answer run's boundary. Separators are real
      // segments: whenever one reaches the query abscissa its side of the
      // range is decidable exactly; otherwise the current fence decides.
      io::PageId next = io::kInvalidPageId;
      if (hdr.num_children > 0) {
        uint32_t j;
        if (toward_left) {
          // Last child whose lower separator is still below the range
          // (or fence-dominated); the below->in transition lies there.
          j = 0;
          for (uint32_t i = 1; i < hdr.num_children; ++i) {
            const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
            if (Reach(sep) >= cqx) {
              if (geom::CompareYAtX(sep, cqx, ylo) < 0) {
                j = i;
              } else {
                break;
              }
            } else if (st.have_lf && BaseCompare(st.lf, sep) >= 0) {
              j = i;
            }
          }
        } else {
          // First child whose upper separator is already above the range
          // (or fence-dominated); the in->above transition lies there.
          j = hdr.num_children - 1;
          for (uint32_t i = 0; i + 1 < hdr.num_children; ++i) {
            const geom::Segment sep = p.ReadAt<geom::Segment>(SepOff(i));
            if (Reach(sep) >= cqx) {
              if (geom::CompareYAtX(sep, cqx, yhi) > 0) {
                j = i;
                break;
              }
            } else if (st.have_rf && BaseCompare(st.rf, sep) <= 0) {
              j = i;
              break;
            }
          }
        }
        if (child_admissible(p, hdr, j)) {
          next = p.ReadAt<io::PageId>(ChildOff(j));
        }
      }
      cur = next;
    }
    return Status::OK();
  };
  SEGDB_RETURN_IF_ERROR(fence_walk(/*toward_left=*/true));
  SEGDB_RETURN_IF_ERROR(fence_walk(/*toward_left=*/false));

  // --- Report (fence-pruned traversal, left-to-right) --------------------
  std::vector<io::PageId> stack = {root_};
  while (!stack.empty()) {
    const io::PageId id = stack.back();
    stack.pop_back();
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
    if (const WalkedNode* w = find_walked(id)) {
      out->insert(out->end(), walked_hits.begin() + w->begin,
                  walked_hits.begin() + w->end);
    } else {
      scan_node(p, hdr, out);
    }
    for (uint32_t i = hdr.num_children; i > 0; --i) {
      if (child_admissible(p, hdr, i - 1)) {
        stack.push_back(p.ReadAt<io::PageId>(ChildOff(i - 1)));
      }
    }
  }
  return Status::OK();
}

Status LinePst::CheckSubtree(io::PageId id, const geom::Segment* lo,
                             const geom::Segment* hi, int64_t max_reach,
                             uint64_t* subtree_size) const {
  auto ref = pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  const io::Page& p = ref.value().page();
  const NodeHeader hdr = p.ReadAt<NodeHeader>(0);
  // count == 0 is legal after deletions (repack reclaims such nodes).
  if (hdr.count > cap_) return Status::Corruption("PST node overflow");
  if (hdr.num_children > fanout_) {
    return Status::Corruption("PST node child overflow");
  }

  std::vector<geom::Segment> segs(hdr.count);
  io::ConstColumnarPageView(p, SegOff(0), cap_)
      .ReadRange(0, segs.data(), hdr.count);
  for (uint32_t i = 0; i < hdr.count; ++i) {
    if (i > 0 && BaseCompare(segs[i - 1], segs[i]) > 0) {
      return Status::Corruption("PST node segments out of base order");
    }
    if (Reach(segs[i]) > max_reach) {
      return Status::Corruption("segment out-reaches ancestor top copy");
    }
    if (lo != nullptr && BaseCompare(segs[i], *lo) < 0) {
      return Status::Corruption("segment below subtree separator bound");
    }
    if (hi != nullptr && BaseCompare(segs[i], *hi) >= 0) {
      return Status::Corruption("segment above subtree separator bound");
    }
  }

  uint64_t total = hdr.count;
  for (uint32_t i = 0; i < hdr.num_children; ++i) {
    const io::PageId child = p.ReadAt<io::PageId>(ChildOff(i));
    const geom::Segment top = p.ReadAt<geom::Segment>(TopOff(i));
    geom::Segment lo_sep, hi_sep;
    const geom::Segment* clo = lo;
    const geom::Segment* chi = hi;
    if (i >= 1) {
      lo_sep = p.ReadAt<geom::Segment>(SepOff(i - 1));
      clo = &lo_sep;
    }
    if (i + 1 < hdr.num_children) {
      hi_sep = p.ReadAt<geom::Segment>(SepOff(i));
      chi = &hi_sep;
    }
    uint64_t child_total = 0;
    SEGDB_RETURN_IF_ERROR(
        CheckSubtree(child, clo, chi, Reach(top), &child_total));
    if (child_total != p.ReadAt<uint64_t>(ChildSizeOff(i))) {
      return Status::Corruption("stale child_size bookkeeping");
    }
    total += child_total;
  }
  if (total != hdr.subtree_size) {
    return Status::Corruption("stale subtree_size bookkeeping");
  }
  *subtree_size = total;
  return Status::OK();
}

Status LinePst::CheckInvariants() const {
  if (root_ == io::kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("size_ nonzero with empty tree");
  }
  uint64_t total = 0;
  SEGDB_RETURN_IF_ERROR(CheckSubtree(root_, nullptr, nullptr,
                                     std::numeric_limits<int64_t>::max(),
                                     &total));
  if (total != size_) return Status::Corruption("size_ mismatch");
  return Status::OK();
}

}  // namespace segdb::pst
