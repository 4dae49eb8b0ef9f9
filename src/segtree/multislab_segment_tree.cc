#include "segtree/multislab_segment_tree.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "util/math.h"
#include "util/check.h"

namespace segdb::segtree {

namespace {

using geom::Segment;

constexpr uint64_t kNoUid = ~uint64_t{0};

// Extreme boundaries a segment crosses: indices into `boundaries` of the
// first and last s_i with x1 <= s_i <= x2. Returns false when the segment
// crosses fewer than two boundaries (then it has no long part).
bool CrossedRange(const std::vector<int64_t>& boundaries, const Segment& s,
                  uint32_t* first, uint32_t* last) {
  auto lo = std::lower_bound(boundaries.begin(), boundaries.end(), s.x1);
  auto hi = std::upper_bound(boundaries.begin(), boundaries.end(), s.x2);
  if (lo >= hi) return false;
  *first = static_cast<uint32_t>(lo - boundaries.begin());
  *last = static_cast<uint32_t>(hi - boundaries.begin()) - 1;
  return *last > *first;
}

// Removes the records of out[from..] that `drop` selects, in order.
template <typename Pred>
void EraseFrom(std::vector<Segment>* out, size_t from, Pred drop) {
  out->erase(std::remove_if(out->begin() + static_cast<ptrdiff_t>(from),
                            out->end(), drop),
             out->end());
}

}  // namespace

MultislabSegmentTree::MultislabSegmentTree(io::BufferPool* pool,
                                           std::vector<int64_t> boundaries,
                                           MultislabOptions options)
    : pool_(pool),
      boundaries_(std::move(boundaries)),
      options_(options),
      delta_(pool_, GFragmentIdCompare{}) {
  SEGDB_DCHECK(boundaries_.size() >= 2);
  SEGDB_DCHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()));
  SEGDB_DCHECK(std::adjacent_find(boundaries_.begin(), boundaries_.end()) ==
         boundaries_.end());
  SEGDB_DCHECK(options_.bridge_d >= 1);
  // Inner slabs 1..b-1 (slab t lies between s_{t-1} and s_t).
  root_ = BuildDirectory(1, static_cast<uint32_t>(boundaries_.size()) - 1);
}

MultislabSegmentTree::~MultislabSegmentTree() { Clear().IgnoreError(); }

int32_t MultislabSegmentTree::BuildDirectory(uint32_t lo, uint32_t hi) {
  GNode node;
  node.slab_lo = lo;
  node.slab_hi = hi;
  if (lo == hi) {
    node.cx = boundaries_[lo - 1];  // left bound of the single slab
  } else {
    const uint32_t mid = (lo + hi) / 2;
    node.cx = boundaries_[mid];  // split boundary between mid and mid+1
    node.left = BuildDirectory(lo, mid);
    node.right = BuildDirectory(mid + 1, hi);
  }
  node.list = std::make_unique<FragTree>(pool_, GFragmentCompare{node.cx});
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size()) - 1;
}

uint64_t MultislabSegmentTree::page_count() const {
  uint64_t total = 0;
  for (const GNode& n : nodes_) total += n.list->page_count();
  return total + delta_.page_count();
}

Status MultislabSegmentTree::Clear() {
  for (GNode& n : nodes_) SEGDB_RETURN_IF_ERROR(n.list->Clear());
  SEGDB_RETURN_IF_ERROR(delta_.Clear());
  size_ = 0;
  return Status::OK();
}

uint32_t MultislabSegmentTree::LocateSlab(int64_t x0,
                                          bool* on_boundary) const {
  *on_boundary = false;
  auto it = std::lower_bound(boundaries_.begin(), boundaries_.end(), x0);
  if (it != boundaries_.end() && *it == x0) {
    *on_boundary = true;
    return static_cast<uint32_t>(it - boundaries_.begin());
  }
  return static_cast<uint32_t>(it - boundaries_.begin());
}

void MultislabSegmentTree::Allocate(int32_t node, uint32_t lo, uint32_t hi,
                                    std::vector<int32_t>* out) const {
  const GNode& n = nodes_[node];
  if (lo <= n.slab_lo && n.slab_hi <= hi) {
    out->push_back(node);
    return;
  }
  if (n.left < 0) return;
  const uint32_t mid = (n.slab_lo + n.slab_hi) / 2;
  if (lo <= mid) Allocate(n.left, lo, hi, out);
  if (hi > mid) Allocate(n.right, lo, hi, out);
}

std::vector<int32_t> MultislabSegmentTree::PathToSlab(uint32_t k) const {
  std::vector<int32_t> path;
  int32_t cur = root_;
  while (cur >= 0) {
    path.push_back(cur);
    const GNode& n = nodes_[cur];
    if (n.left < 0) break;
    const uint32_t mid = (n.slab_lo + n.slab_hi) / 2;
    cur = (k <= mid) ? n.left : n.right;
  }
  return path;
}

Status MultislabSegmentTree::Build(std::span<const Segment> segments) {
  std::vector<std::vector<Segment>> per_node(nodes_.size());
  for (const Segment& s : segments) {
    uint32_t first, last;
    if (!CrossedRange(boundaries_, s, &first, &last)) {
      return Status::InvalidArgument(
          "segment " + std::to_string(s.id) +
          " crosses fewer than two boundaries (no long part)");
    }
    std::vector<int32_t> alloc;
    Allocate(root_, first + 1, last, &alloc);
    for (int32_t nidx : alloc) per_node[nidx].push_back(s);
  }
  // BuildLists constructs every new list aside and commits only on full
  // success, so a failed (re)build leaves the previous contents intact.
  SEGDB_RETURN_IF_ERROR(BuildLists(std::move(per_node)));
  SEGDB_RETURN_IF_ERROR(delta_.Clear());
  size_ = segments.size();
  return Status::OK();
}

Status MultislabSegmentTree::BuildLists(
    std::vector<std::vector<Segment>> per_node) {
  // Build-aside for fault atomicity: every replacement list is loaded into
  // a fresh tree first and swapped in only after all of them succeeded. An
  // early return drops the fresh trees (their destructors free the pages
  // they claimed) with the live lists untouched.
  std::vector<std::unique_ptr<FragTree>> fresh(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    fresh[i] =
        std::make_unique<FragTree>(pool_, GFragmentCompare{nodes_[i].cx});
  }
  const auto commit = [&]() {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].list = std::move(fresh[i]);  // old tree frees its pages
    }
    return Status::OK();
  };

  if (!options_.fractional_cascading) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      std::vector<GFragment> frags;
      frags.reserve(per_node[i].size());
      for (const Segment& s : per_node[i]) frags.push_back(GFragment{.seg = s});
      GFragmentCompare cmp{nodes_[i].cx};
      std::sort(frags.begin(), frags.end(),
                [&](const GFragment& a, const GFragment& b) {
                  return cmp(a, b) < 0;
                });
      SEGDB_RETURN_IF_ERROR(fresh[i]->BulkLoad(frags));
    }
    return commit();
  }

  // --- Fractional cascading (Section 4.3) --------------------------------
  struct Entry {
    Segment seg;
    bool augmented = false;
    uint64_t uid = kNoUid;
    uint64_t link_left = kNoUid;   // uid in the left son's list
    uint64_t link_right = kNoUid;  // uid in the right son's list
  };
  uint64_t next_uid = 0;
  std::vector<std::vector<Entry>> entries(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    std::sort(per_node[i].begin(), per_node[i].end(),
              [&](const Segment& a, const Segment& b) {
                return geom::CompareCrossingOrder(a, b, nodes_[i].cx) < 0;
              });
    entries[i].reserve(per_node[i].size());
    for (const Segment& s : per_node[i]) {
      entries[i].push_back(Entry{s, false, next_uid++, kNoUid, kNoUid});
    }
  }

  // Top-down pairing: sample every (d+1)-th element of each merged
  // parent/child list and copy each sampled parent record (augmented) into
  // the child list as a bridge. All content of both lists crosses the
  // parent's split boundary, which is the merge coordinate. Every parent
  // record spans the child, so every sampled one becomes a bridge; a
  // sampled child original never spans the parent and is not copied up
  // (see the header).
  std::vector<int32_t> bfs;
  bfs.push_back(root_);
  for (size_t qi = 0; qi < bfs.size(); ++qi) {
    const int32_t ni = bfs[qi];
    if (nodes_[ni].left >= 0) {
      bfs.push_back(nodes_[ni].left);
      bfs.push_back(nodes_[ni].right);
    }
  }
  const uint32_t period = options_.bridge_d + 1;
  for (int32_t ni : bfs) {
    GNode& nu = nodes_[ni];
    if (nu.left < 0) continue;
    for (int side = 0; side < 2; ++side) {
      const int32_t ci = side == 0 ? nu.left : nu.right;
      std::vector<Entry>& pl = entries[ni];
      std::vector<Entry>& cl = entries[ci];
      // Two-pointer merge by order at the parent's split boundary.
      std::vector<std::pair<bool, size_t>> merged;  // (from_parent, index)
      merged.reserve(pl.size() + cl.size());
      size_t a = 0, b = 0;
      while (a < pl.size() || b < cl.size()) {
        bool take_parent;
        if (a == pl.size()) {
          take_parent = false;
        } else if (b == cl.size()) {
          take_parent = true;
        } else {
          take_parent =
              geom::CompareCrossingOrder(pl[a].seg, cl[b].seg, nu.cx) <= 0;
        }
        merged.emplace_back(take_parent, take_parent ? a++ : b++);
      }
      const size_t originals = cl.size();
      cl.reserve(originals + merged.size() / period);
      for (size_t m = period - 1; m < merged.size(); m += period) {
        const auto [from_parent, idx] = merged[m];
        if (!from_parent) continue;
        Entry copy{pl[idx].seg, true, next_uid++, kNoUid, kNoUid};
        (side == 0 ? pl[idx].link_left : pl[idx].link_right) = copy.uid;
        cl.push_back(copy);
      }
      // Re-sort the child's list at its own reference boundary: its own
      // pairing, as a parent, merges by that order.
      if (cl.size() > originals) {
        const int64_t cx = nodes_[ci].cx;
        std::stable_sort(cl.begin(), cl.end(),
                         [cx](const Entry& x, const Entry& y) {
                           return geom::CompareCrossingOrder(x.seg, y.seg,
                                                             cx) < 0;
                         });
      }
    }
  }

  // Bottom-up materialization: children first so parents can embed the
  // landing positions of their bridges. heads[] holds the fresh trees'
  // first records, the landing for records before any bridge.
  std::vector<Position> heads(nodes_.size());
  std::unordered_map<uint64_t, Position> position_of;
  for (auto it = bfs.rbegin(); it != bfs.rend(); ++it) {
    const int32_t ni = *it;
    GNode& node = nodes_[ni];
    std::vector<Entry>& list = entries[ni];
    std::stable_sort(list.begin(), list.end(),
                     [&](const Entry& x, const Entry& y) {
                       const int c =
                           geom::CompareCrossingOrder(x.seg, y.seg, node.cx);
                       if (c != 0) return c < 0;
                       return x.augmented < y.augmented;
                     });
    // Propagate nearest-bridge-at-or-before landings into every record.
    std::vector<GFragment> frags;
    frags.reserve(list.size());
    Position last_left = node.left >= 0 ? heads[node.left] : Position{};
    Position last_right = node.right >= 0 ? heads[node.right] : Position{};
    for (const Entry& e : list) {
      if (e.link_left != kNoUid) {
        auto pit = position_of.find(e.link_left);
        if (pit != position_of.end()) last_left = pit->second;
      }
      if (e.link_right != kNoUid) {
        auto pit = position_of.find(e.link_right);
        if (pit != position_of.end()) last_right = pit->second;
      }
      GFragment f;
      f.seg = e.seg;
      if (e.augmented) f.flags |= GFragment::kAugmented;
      if (last_left.found) {
        f.land_left = last_left.leaf;
        f.slot_left = static_cast<uint16_t>(last_left.slot);
      }
      if (last_right.found) {
        f.land_right = last_right.leaf;
        f.slot_right = static_cast<uint16_t>(last_right.slot);
      }
      frags.push_back(f);
    }
    std::vector<Position> positions;
    SEGDB_RETURN_IF_ERROR(fresh[ni]->BulkLoadWithPositions(frags, &positions));
    for (size_t k = 0; k < list.size(); ++k) {
      position_of[list[k].uid] = positions[k];
    }
    auto head = fresh[ni]->HeadPosition();
    if (!head.ok()) return head.status();
    heads[ni] = head.value();
  }
  return commit();
}

Status MultislabSegmentTree::Insert(const Segment& segment) {
  SEGDB_IO_BOUND("scan");  // amortized O(log_B n); lists may repack
  uint32_t first, last;
  if (!CrossedRange(boundaries_, segment, &first, &last)) {
    return Status::InvalidArgument(
        "segment " + std::to_string(segment.id) +
        " crosses fewer than two boundaries (no long part)");
  }
  // Re-inserting a segment whose tombstone is still buffered simply
  // cancels the tombstone (the packed lists still hold the original).
  GFragment tomb{.seg = segment};
  tomb.flags |= GFragment::kTombstone;
  if (!delta_.Erase(tomb).ok()) {
    SEGDB_RETURN_IF_ERROR(delta_.Insert(GFragment{.seg = segment}));
  }
  FinishUpdate(size_ + 1);
  return Status::OK();
}

Status MultislabSegmentTree::Erase(const Segment& segment) {
  SEGDB_IO_BOUND("scan");  // amortized O(log_B n); lists may repack
  uint32_t first, last;
  if (!CrossedRange(boundaries_, segment, &first, &last)) {
    return Status::NotFound("segment has no long part here");
  }
  // Deleting a still-buffered insert removes it outright; otherwise a
  // tombstone masks the packed record until the next rebuild — but only
  // if the record actually exists and is not already tombstoned.
  if (delta_.Erase(GFragment{.seg = segment}).ok()) {
    FinishUpdate(size_ - 1);
    return Status::OK();
  }
  GFragment tomb{.seg = segment};
  tomb.flags |= GFragment::kTombstone;
  bool tombstoned = false;
  SEGDB_RETURN_IF_ERROR(delta_.ScanFrom(tomb, [&](const GFragment& f) {
    if (f.seg.id != segment.id) return false;
    if (f.tombstone() && f.seg == segment) tombstoned = true;
    return !tombstoned;
  }));
  if (tombstoned) return Status::NotFound("segment already deleted");
  // Probe one allocation node's packed list for the live original.
  std::vector<int32_t> alloc;
  Allocate(root_, first + 1, last, &alloc);
  bool present = false;
  if (!alloc.empty()) {
    const GNode& n0 = nodes_[alloc[0]];
    const GFragmentCompare cmp{n0.cx};
    SEGDB_RETURN_IF_ERROR(
        n0.list->ScanFrom(GFragment{.seg = segment},
                          [&](const GFragment& f) {
                            if (cmp(f, GFragment{.seg = segment}) != 0) {
                              return false;
                            }
                            if (!f.augmented() && f.seg == segment) {
                              present = true;
                            }
                            return !present;
                          }));
  }
  if (!present) return Status::NotFound("segment not stored");
  SEGDB_RETURN_IF_ERROR(delta_.Insert(tomb));
  FinishUpdate(size_ - 1);
  return Status::OK();
}

void MultislabSegmentTree::FinishUpdate(uint64_t size) {
  if (delta_.size() > std::max<uint64_t>(32, size / 8)) {
    std::vector<Segment> all;
    if (CollectAll(&all).ok()) Build(all).IgnoreError();
  }
  size_ = size;
}

Status MultislabSegmentTree::CollectAll(std::vector<Segment>* out) const {
  std::unordered_set<uint64_t> tombstoned;
  SEGDB_RETURN_IF_ERROR(delta_.ScanAll([&](const GFragment& f) {
    if (f.tombstone()) tombstoned.insert(f.seg.id);
    return true;
  }));
  std::unordered_set<uint64_t> seen;
  for (const GNode& n : nodes_) {
    SEGDB_RETURN_IF_ERROR(n.list->ScanAll([&](const GFragment& f) {
      if (!f.augmented() && !tombstoned.contains(f.seg.id) &&
          seen.insert(f.seg.id).second) {
        out->push_back(f.seg);
      }
      return true;
    }));
  }
  return delta_.ScanAll([&](const GFragment& f) {
    if (!f.tombstone() && !tombstoned.contains(f.seg.id) &&
        seen.insert(f.seg.id).second) {
      out->push_back(f.seg);
    }
    return true;
  });
}

namespace {

// A leaf-resident cursor over a FragTree's ordered records.
class Cursor {
 public:
  using FragTree = btree::BPlusTree<GFragment, GFragmentCompare>;
  using Position = FragTree::Position;

  Cursor(const FragTree* tree, Position pos) : tree_(tree), pos_(pos) {}

  bool valid() const { return pos_.found && loaded_ok_; }

  Status Load() {
    if (!pos_.found) {
      loaded_ok_ = false;
      return Status::OK();
    }
    auto view = tree_->ReadLeaf(pos_.leaf);
    if (!view.ok()) return view.status();
    view_ = std::move(view.value());
    // A stale slot (should not happen on static lists) falls off the end.
    loaded_ok_ = pos_.slot < view_.records.size();
    return Status::OK();
  }

  const GFragment& Get() const { return view_.records[pos_.slot]; }

  // Advances; invalid at end.
  Status Next() {
    if (!loaded_ok_) return Status::OK();
    if (pos_.slot + 1 < view_.records.size()) {
      ++pos_.slot;
      return Status::OK();
    }
    if (view_.next == io::kInvalidPageId) {
      loaded_ok_ = false;
      return Status::OK();
    }
    pos_.leaf = view_.next;
    pos_.slot = 0;
    return Load();
  }

  // Steps back; invalid at the beginning.
  Status Prev() {
    if (!loaded_ok_) return Status::OK();
    if (pos_.slot > 0) {
      --pos_.slot;
      return Status::OK();
    }
    if (view_.prev == io::kInvalidPageId) {
      loaded_ok_ = false;
      return Status::OK();
    }
    pos_.leaf = view_.prev;
    auto view = tree_->ReadLeaf(pos_.leaf);
    if (!view.ok()) return view.status();
    view_ = std::move(view.value());
    if (view_.records.empty()) {
      loaded_ok_ = false;
      return Status::OK();
    }
    pos_.slot = static_cast<uint32_t>(view_.records.size()) - 1;
    return Status::OK();
  }

 private:
  const FragTree* tree_;
  Position pos_;
  FragTree::LeafView view_;
  bool loaded_ok_ = false;
};

}  // namespace

Status MultislabSegmentTree::ScanNodeList(const GNode& node, int64_t x0,
                                          int64_t ylo, int64_t yhi,
                                          Position land, bool has_next,
                                          bool next_left, Position* next_land,
                                          std::vector<Segment>* out) const {
  *next_land = Position{};
  if (node.list->size() == 0) return Status::OK();

  // y-vs-range classification at x0; every stored fragment spans x0's slab.
  auto below = [&](const GFragment& f) {
    return geom::CompareYAtX(f.seg, x0, ylo) < 0;
  };
  auto above = [&](const GFragment& f) {
    return geom::CompareYAtX(f.seg, x0, yhi) > 0;
  };

  GFragment pred{};
  bool have_pred = false;

  Position start = land;
  if (!start.found) {
    // Fresh B+-tree search: first record not below the range.
    SEGDB_RETURN_IF_ERROR(node.list->FindFirstWhere(
        [&](const GFragment& f) { return !below(f); }, &start, &pred,
        &have_pred));
    if (!start.found) {
      // Everything is below the range: no answers here; hand the child the
      // last record's bridge (the deepest position known to be below).
      if (have_pred) {
        *next_land = Position{next_left ? pred.land_left : pred.land_right,
                              next_left ? pred.slot_left : pred.slot_right,
                              (next_left ? pred.land_left : pred.land_right) !=
                                  io::kInvalidPageId};
      }
      return Status::OK();
    }
  }

  Cursor cur(node.list.get(), start);
  SEGDB_RETURN_IF_ERROR(cur.Load());
  if (!cur.valid()) return Status::OK();

  // Phase 1 — normalize the start position.
  // (a) If we landed below the range (bridge landings always do unless the
  //     list head itself is in range), walk forward to the first record
  //     not below, tracking the last below-record for the child landing.
  // (b) Then walk backward while the preceding record might still belong
  //     to the answer: it is not-below, or it ties with its successor at
  //     the node's reference boundary (order within such tie groups is not
  //     y(x0)-monotone, so the binary search can land mid-group).
  while (cur.valid() && below(cur.Get())) {
    pred = cur.Get();
    have_pred = true;
    SEGDB_RETURN_IF_ERROR(cur.Next());
  }
  if (!cur.valid()) {
    if (have_pred) {
      *next_land = Position{next_left ? pred.land_left : pred.land_right,
                            next_left ? pred.slot_left : pred.slot_right,
                            (next_left ? pred.land_left : pred.land_right) !=
                                io::kInvalidPageId};
    }
    return Status::OK();
  }
  for (;;) {  // SEMA-LOOP: record (backward walk over one tie group)
    Cursor back = cur;
    SEGDB_RETURN_IF_ERROR(back.Prev());
    if (!back.valid()) break;
    const GFragment pf = back.Get();
    if (below(pf)) {
      // A below-range record only hides earlier answers inside its own
      // reference-boundary tie group (strictly smaller y(cx) implies
      // y(x0) below the range too). Stop once the group ends.
      Cursor back2 = back;
      SEGDB_RETURN_IF_ERROR(back2.Prev());
      if (!back2.valid()) break;
      if (geom::CompareSegmentsAtX(back2.Get().seg, pf.seg, node.cx) != 0) {
        break;
      }
    }
    cur = back;
  }
  {
    // The record before the scan start is the child-landing anchor.
    Cursor back = cur;
    SEGDB_RETURN_IF_ERROR(back.Prev());
    if (back.valid()) {
      pred = back.Get();
      have_pred = true;
    } else {
      have_pred = false;
    }
  }

  // Phase 2 — forward report with group-aware termination: stop only after
  // a whole reference-boundary tie group lay entirely above the range
  // (later groups are then provably above as well).
  bool group_all_above = true;
  bool have_group = false;
  GFragment group_rep{};
  while (cur.valid()) {
    const GFragment& f = cur.Get();
    const bool new_group =
        !have_group ||
        geom::CompareSegmentsAtX(f.seg, group_rep.seg, node.cx) != 0;
    if (new_group) {
      if (have_group && group_all_above) break;
      group_rep = f;
      have_group = true;
      group_all_above = true;
    }
    if (below(f)) {
      pred = f;
      have_pred = true;
      group_all_above = false;
    } else if (!above(f)) {
      group_all_above = false;
      if (!f.augmented()) out->push_back(f.seg);
    }
    SEGDB_RETURN_IF_ERROR(cur.Next());
  }

  if (has_next && have_pred) {
    const io::PageId lp = next_left ? pred.land_left : pred.land_right;
    const uint16_t ls = next_left ? pred.slot_left : pred.slot_right;
    *next_land = Position{lp, ls, lp != io::kInvalidPageId};
  }
  return Status::OK();
}

Status MultislabSegmentTree::Query(int64_t x0, int64_t ylo, int64_t yhi,
                                   std::vector<Segment>* out) const {
  // O(log_B n + sqrt(n/B) + t/B): one multislab-list probe per crossing
  // slab along the stabbing path (Section 4's long-segment structure).
  SEGDB_IO_BOUND("log", "sqrt", "t/B");
  if (ylo > yhi) return Status::InvalidArgument("ylo > yhi");
  bool on_boundary = false;
  const uint32_t k = LocateSlab(x0, &on_boundary);
  const uint32_t inner_max = static_cast<uint32_t>(boundaries_.size()) - 1;

  std::vector<uint32_t> slabs;
  if (on_boundary) {
    // x0 == s_k: fragments crossing s_k cover slab k or k+1.
    if (k >= 1 && k <= inner_max) slabs.push_back(k);
    if (k + 1 >= 1 && k + 1 <= inner_max) slabs.push_back(k + 1);
  } else if (k >= 1 && k <= inner_max) {
    slabs.push_back(k);
  }

  // List hits go straight into `out`; the delta's tombstones are removed
  // from out[base..] once the delta scan has seen them all.
  const size_t base = out->size();
  // A boundary query walks two root-to-leaf paths, which share exactly a
  // prefix: a shared node is scanned again only for the child landing,
  // and a fragment stored on both paths is reported once.
  const bool dedup = slabs.size() > 1;
  std::vector<int32_t> other_path;
  std::unordered_set<uint64_t> reported;
  for (uint32_t slab : slabs) {
    std::vector<int32_t> path = PathToSlab(slab);
    Position land{};
    for (size_t pi = 0; pi < path.size(); ++pi) {
      const GNode& node = nodes_[path[pi]];
      const bool has_next = pi + 1 < path.size();
      const bool next_left = has_next && path[pi + 1] == node.left;
      const size_t mark = out->size();
      Position next_land{};
      SEGDB_RETURN_IF_ERROR(ScanNodeList(node, x0, ylo, yhi, land, has_next,
                                         next_left, &next_land, out));
      land = next_land;
      if (!dedup) continue;
      if (pi < other_path.size() && other_path[pi] == path[pi]) {
        out->resize(mark);
      } else {
        EraseFrom(out, mark, [&](const Segment& s) {
          return !reported.insert(s.id).second;
        });
      }
    }
    other_path = std::move(path);
  }

  // Apply the delta buffer: unpublished inserts add, tombstones subtract.
  // The delta is ordered by id, so the tombstoned ids arrive sorted.
  if (delta_.size() > 0) {
    std::vector<uint64_t> tombstoned;
    SEGDB_RETURN_IF_ERROR(delta_.ScanAll([&](const GFragment& f) {
      uint32_t first, last;
      if (f.tombstone()) {
        tombstoned.push_back(f.seg.id);
      } else if (CrossedRange(boundaries_, f.seg, &first, &last) &&
                 boundaries_[first] <= x0 && x0 <= boundaries_[last] &&
                 geom::IntersectsVerticalSegment(f.seg, x0, ylo, yhi)) {
        out->push_back(f.seg);
      }
      return true;
    }));
    if (!tombstoned.empty()) {
      EraseFrom(out, base, [&](const Segment& s) {
        return std::binary_search(tombstoned.begin(), tombstoned.end(),
                                  s.id);
      });
    }
  }
  return Status::OK();
}

Status MultislabSegmentTree::CheckInvariants() const {
  for (const GNode& n : nodes_) {
    const int64_t span_lo = boundaries_[n.slab_lo - 1];
    const int64_t span_hi = boundaries_[n.slab_hi];
    GFragment prev{};
    bool have_prev = false;
    GFragmentCompare cmp{n.cx};
    Status status = Status::OK();
    SEGDB_RETURN_IF_ERROR(n.list->ScanAll([&](const GFragment& f) {
      // Every record — original or augmented copy — must span the node's
      // whole x-interval so query-time comparisons are always exact.
      if (!(f.seg.x1 <= span_lo && span_hi <= f.seg.x2)) {
        status = Status::Corruption("fragment does not span its node");
        return false;
      }
      if (have_prev && cmp(prev, f) > 0) {
        status = Status::Corruption("multislab list out of order");
        return false;
      }
      prev = f;
      have_prev = true;
      return true;
    }));
    SEGDB_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace segdb::segtree
