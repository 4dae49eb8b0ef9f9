#include "baseline/rtree_index.h"

#include <algorithm>
#include <cmath>

#include "core/validate.h"
#include "geom/predicates.h"
#include "util/math.h"
#include "util/check.h"

namespace segdb::baseline {

namespace {
using geom::Segment;
}  // namespace

RTreeIndex::RTreeIndex(io::BufferPool* pool, RTreeOptions options)
    : pool_(pool) {
  const uint32_t fit =
      (pool_->page_size() - 8) / static_cast<uint32_t>(sizeof(Entry));
  capacity_ = options.node_capacity != 0
                  ? std::min(options.node_capacity, fit)
                  : fit;
  SEGDB_DCHECK(capacity_ >= 4) << "page too small for R-tree nodes";
}

RTreeIndex::~RTreeIndex() {
  if (root_ != io::kInvalidPageId) FreeSubtree(root_).IgnoreError();
}

RTreeIndex::Rect RTreeIndex::BoundsOf(const Segment& s) {
  return Rect{s.x1, s.min_y(), s.x2, s.max_y()};
}

RTreeIndex::Rect RTreeIndex::Merge(const Rect& a, const Rect& b) {
  return Rect{std::min(a.xmin, b.xmin), std::min(a.ymin, b.ymin),
              std::max(a.xmax, b.xmax), std::max(a.ymax, b.ymax)};
}

bool RTreeIndex::Overlaps(const Rect& a, const Rect& b) {
  return a.xmin <= b.xmax && b.xmin <= a.xmax && a.ymin <= b.ymax &&
         b.ymin <= a.ymax;
}

__int128 RTreeIndex::Area(const Rect& r) {
  return static_cast<__int128>(r.xmax - r.xmin) *
         static_cast<__int128>(r.ymax - r.ymin);
}

__int128 RTreeIndex::Enlargement(const Rect& r, const Rect& add) {
  return Area(Merge(r, add)) - Area(r);
}

Result<io::PageId> RTreeIndex::PackLevel(std::vector<Entry> entries,
                                         bool leaf_level, uint32_t* height) {
  // STR: tile by x into vertical strips of ~sqrt(slices) pages, sort each
  // strip by y-center, pack runs of `capacity_`.
  //
  // Fault-atomic: a failed allocation frees every page this pack already
  // claimed before the error returns, so callers see an all-or-nothing
  // build.
  std::vector<io::PageId> allocated;
  const auto unwind = [&](const Status& st) {
    for (io::PageId id : allocated) pool_->FreePage(id).IgnoreError();
    page_count_ -= allocated.size();
    return st;
  };
  *height = 1;
  bool leaf = leaf_level;
  while (true) {
    const uint64_t pages_needed = CeilDiv(entries.size(), capacity_);
    if (pages_needed <= 1) {
      auto ref = pool_->NewPage();
      if (!ref.ok()) return unwind(ref.status());
      io::Page& p = ref.value().page();
      SetLeaf(p, leaf);
      SetCount(p, static_cast<uint32_t>(entries.size()));
      for (size_t i = 0; i < entries.size(); ++i) {
        p.WriteAt<Entry>(EntryOff(static_cast<uint32_t>(i)), entries[i]);
      }
      ref.value().MarkDirty();
      ++page_count_;
      return ref.value().page_id();
    }
    const uint32_t strips = static_cast<uint32_t>(std::ceil(
        std::sqrt(static_cast<double>(pages_needed))));
    const uint64_t per_strip = CeilDiv(entries.size(), strips);
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.rect.xmin + a.rect.xmax < b.rect.xmin + b.rect.xmax;
              });
    std::vector<Entry> parents;
    for (size_t s = 0; s < entries.size(); s += per_strip) {
      const size_t end = std::min(entries.size(), s + per_strip);
      std::sort(entries.begin() + s, entries.begin() + end,
                [](const Entry& a, const Entry& b) {
                  return a.rect.ymin + a.rect.ymax <
                         b.rect.ymin + b.rect.ymax;
                });
      for (size_t i = s; i < end; i += capacity_) {
        const uint32_t take = static_cast<uint32_t>(
            std::min<size_t>(capacity_, end - i));
        auto ref = pool_->NewPage();
        if (!ref.ok()) return unwind(ref.status());
        io::Page& p = ref.value().page();
        SetLeaf(p, leaf);
        SetCount(p, take);
        Rect mbr = entries[i].rect;
        for (uint32_t k = 0; k < take; ++k) {
          p.WriteAt<Entry>(EntryOff(k), entries[i + k]);
          mbr = Merge(mbr, entries[i + k].rect);
        }
        ref.value().MarkDirty();
        // SEMA-OK: this increment is rolled back by unwind(), which
        // subtracts allocated.size() when a later allocation fails.
        ++page_count_;
        allocated.push_back(ref.value().page_id());
        Entry parent{};
        parent.rect = mbr;
        parent.child = ref.value().page_id();
        parents.push_back(parent);
      }
    }
    entries = std::move(parents);
    leaf = false;
    ++*height;
  }
}

Status RTreeIndex::FreeSubtree(io::PageId id) {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    if (!IsLeaf(p)) {
      for (uint32_t i = 0; i < Count(p); ++i) {
        children.push_back(p.ReadAt<Entry>(EntryOff(i)).child);
      }
    }
  }
  for (io::PageId c : children) SEGDB_RETURN_IF_ERROR(FreeSubtree(c));
  SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  --page_count_;
  return Status::OK();
}

Status RTreeIndex::BulkLoad(std::span<const Segment> segments) {
  SEGDB_IO_BOUND("scan");
  for (const Segment& s : segments) {
    SEGDB_RETURN_IF_ERROR(core::ValidateSegment(s));
  }
  // Pack the replacement tree aside, then swap: a failed allocation
  // mid-pack must leave the previous contents intact and queryable.
  io::PageId fresh_root = io::kInvalidPageId;
  uint32_t fresh_height = 0;
  if (!segments.empty()) {
    std::vector<Entry> entries;
    entries.reserve(segments.size());
    for (const Segment& s : segments) {
      Entry e{};
      e.rect = BoundsOf(s);
      e.child = io::kInvalidPageId;
      e.seg = s;
      entries.push_back(e);
    }
    Result<io::PageId> root =
        PackLevel(std::move(entries), true, &fresh_height);
    if (!root.ok()) return root.status();
    fresh_root = root.value();
  }
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));  // reliable metadata ops
  }
  root_ = fresh_root;
  height_ = fresh_height;
  size_ = segments.size();
  return Status::OK();
}

void RTreeIndex::LinearSplit(std::vector<Entry>& all,
                             std::vector<Entry>* left,
                             std::vector<Entry>* right) {
  // Guttman's linear pick-seeds on x, then y; assign by least enlargement
  // with a min-fill of 40%.
  size_t lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0;
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].rect.xmin > all[hi_x].rect.xmin) hi_x = i;
    if (all[i].rect.xmax < all[lo_x].rect.xmax) lo_x = i;
    if (all[i].rect.ymin > all[hi_y].rect.ymin) hi_y = i;
    if (all[i].rect.ymax < all[lo_y].rect.ymax) lo_y = i;
  }
  size_t seed_a = lo_x, seed_b = hi_x;
  if (seed_a == seed_b) {
    seed_a = lo_y;
    seed_b = hi_y;
  }
  if (seed_a == seed_b) {
    seed_b = (seed_a + 1) % all.size();
  }
  Rect ra = all[seed_a].rect, rb = all[seed_b].rect;
  const size_t min_fill = std::max<size_t>(1, all.size() * 2 / 5);
  left->push_back(all[seed_a]);
  right->push_back(all[seed_b]);
  std::vector<Entry> rest;
  rest.reserve(all.size() - 2);
  for (size_t i = 0; i < all.size(); ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(all[i]);
  }
  for (size_t i = 0; i < rest.size(); ++i) {
    const size_t remaining = rest.size() - i;
    // Force-assign when a group needs every remaining entry to reach the
    // minimum fill.
    if (left->size() < min_fill && min_fill - left->size() >= remaining) {
      left->push_back(rest[i]);
      ra = Merge(ra, rest[i].rect);
      continue;
    }
    if (right->size() < min_fill && min_fill - right->size() >= remaining) {
      right->push_back(rest[i]);
      rb = Merge(rb, rest[i].rect);
      continue;
    }
    if (Enlargement(ra, rest[i].rect) <= Enlargement(rb, rest[i].rect)) {
      left->push_back(rest[i]);
      ra = Merge(ra, rest[i].rect);
    } else {
      right->push_back(rest[i]);
      rb = Merge(rb, rest[i].rect);
    }
  }
}

Result<RTreeIndex::SplitResult> RTreeIndex::InsertRecursive(
    io::PageId node, uint32_t level, const Entry& entry, Rect* new_rect,
    std::vector<io::PageId>* reserve) {
  auto ref = pool_->Fetch(node);
  if (!ref.ok()) return ref.status();
  io::Page& p = ref.value().page();
  const uint32_t count = Count(p);

  if (level == 1) {
    // This is the target (leaf) level.
    std::vector<Entry> entries(count);
    for (uint32_t i = 0; i < count; ++i) {
      entries[i] = p.ReadAt<Entry>(EntryOff(i));
    }
    entries.push_back(entry);
    if (entries.size() <= capacity_) {
      p.WriteAt<Entry>(EntryOff(count), entry);
      SetCount(p, count + 1);
      ref.value().MarkDirty();
      Rect mbr = entries[0].rect;
      for (const Entry& e : entries) mbr = Merge(mbr, e.rect);
      *new_rect = mbr;
      return SplitResult{};
    }
    std::vector<Entry> left, right;
    LinearSplit(entries, &left, &right);
    SetCount(p, static_cast<uint32_t>(left.size()));
    Rect lr = left[0].rect, rr = right[0].rect;
    for (size_t i = 0; i < left.size(); ++i) {
      p.WriteAt<Entry>(EntryOff(static_cast<uint32_t>(i)), left[i]);
      lr = Merge(lr, left[i].rect);
    }
    ref.value().MarkDirty();
    const bool was_leaf = IsLeaf(p);
    { io::PageRef done = std::move(ref.value()); }  // drop, then fetch
    // The sibling comes from the pre-allocated reserve, so the cascade
    // cannot fail here with the node already truncated to its left half.
    SEGDB_DCHECK(!reserve->empty());
    const io::PageId sibling = reserve->back();
    reserve->pop_back();
    auto nref = pool_->Fetch(sibling);
    if (!nref.ok()) return nref.status();
    ++page_count_;
    io::Page& np = nref.value().page();
    SetLeaf(np, was_leaf);
    SetCount(np, static_cast<uint32_t>(right.size()));
    for (size_t i = 0; i < right.size(); ++i) {
      np.WriteAt<Entry>(EntryOff(static_cast<uint32_t>(i)), right[i]);
      rr = Merge(rr, right[i].rect);
    }
    nref.value().MarkDirty();
    SplitResult result;
    result.split = true;
    result.left_rect = lr;
    result.right_rect = rr;
    result.right = nref.value().page_id();
    *new_rect = lr;
    return result;
  }

  // Choose the child needing least enlargement.
  uint32_t best = 0;
  __int128 best_enl = 0;
  __int128 best_area = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const Entry e = p.ReadAt<Entry>(EntryOff(i));
    const __int128 enl = Enlargement(e.rect, entry.rect);
    const __int128 area = Area(e.rect);
    if (i == 0 || enl < best_enl || (enl == best_enl && area < best_area)) {
      best = i;
      best_enl = enl;
      best_area = area;
    }
  }
  Entry chosen = p.ReadAt<Entry>(EntryOff(best));
  { io::PageRef done = std::move(ref.value()); }  // drop before recursing
  Rect child_rect{};
  Result<SplitResult> sub =
      InsertRecursive(chosen.child, level - 1, entry, &child_rect, reserve);
  if (!sub.ok()) return sub.status();

  auto wref = pool_->Fetch(node);
  if (!wref.ok()) return wref.status();
  io::Page& wp = wref.value().page();
  chosen.rect = sub.value().split ? sub.value().left_rect : child_rect;
  wp.WriteAt<Entry>(EntryOff(best), chosen);
  wref.value().MarkDirty();

  SplitResult result;
  if (sub.value().split) {
    Entry extra{};
    extra.rect = sub.value().right_rect;
    extra.child = sub.value().right;
    const uint32_t wcount = Count(wp);
    if (wcount < capacity_) {
      wp.WriteAt<Entry>(EntryOff(wcount), extra);
      SetCount(wp, wcount + 1);
    } else {
      std::vector<Entry> entries(wcount);
      for (uint32_t i = 0; i < wcount; ++i) {
        entries[i] = wp.ReadAt<Entry>(EntryOff(i));
      }
      entries.push_back(extra);
      std::vector<Entry> left, right;
      LinearSplit(entries, &left, &right);
      SetCount(wp, static_cast<uint32_t>(left.size()));
      Rect lr = left[0].rect, rr = right[0].rect;
      for (size_t i = 0; i < left.size(); ++i) {
        wp.WriteAt<Entry>(EntryOff(static_cast<uint32_t>(i)), left[i]);
        lr = Merge(lr, left[i].rect);
      }
      { io::PageRef done = std::move(wref.value()); }  // drop, then fetch
      SEGDB_DCHECK(!reserve->empty());
      const io::PageId sibling = reserve->back();
      reserve->pop_back();
      auto nref = pool_->Fetch(sibling);
      if (!nref.ok()) return nref.status();
      ++page_count_;
      io::Page& np = nref.value().page();
      SetLeaf(np, false);
      SetCount(np, static_cast<uint32_t>(right.size()));
      for (size_t i = 0; i < right.size(); ++i) {
        np.WriteAt<Entry>(EntryOff(static_cast<uint32_t>(i)), right[i]);
        rr = Merge(rr, right[i].rect);
      }
      nref.value().MarkDirty();
      result.split = true;
      result.left_rect = lr;
      result.right_rect = rr;
      result.right = nref.value().page_id();
      *new_rect = lr;
      return result;
    }
  }
  // Recompute this node's MBR.
  const uint32_t wcount = Count(wp);
  Rect mbr = wp.ReadAt<Entry>(EntryOff(0)).rect;
  for (uint32_t i = 1; i < wcount; ++i) {
    mbr = Merge(mbr, wp.ReadAt<Entry>(EntryOff(i)).rect);
  }
  *new_rect = mbr;
  return result;
}

Status RTreeIndex::Insert(const Segment& segment) {
  SEGDB_IO_BOUND("log");  // one descent plus a split cascade
  SEGDB_RETURN_IF_ERROR(core::ValidateSegment(segment));
  Entry entry{};
  entry.rect = BoundsOf(segment);
  entry.child = io::kInvalidPageId;
  entry.seg = segment;
  if (root_ == io::kInvalidPageId) {
    auto ref = pool_->NewPage();
    if (!ref.ok()) return ref.status();
    ++page_count_;
    io::Page& p = ref.value().page();
    SetLeaf(p, true);
    SetCount(p, 1);
    p.WriteAt<Entry>(EntryOff(0), entry);
    ref.value().MarkDirty();
    root_ = ref.value().page_id();
    height_ = 1;
    ++size_;
    return Status::OK();
  }
  // Pre-allocate the worst-case split cascade (one sibling per level plus
  // a new root) before touching any node: every allocation that can fail
  // happens while the tree is still untouched, so a fault leaves it
  // exactly as it was. Unused reserves are returned afterwards.
  std::vector<io::PageId> reserve;
  reserve.reserve(height_ + 1);
  for (uint32_t i = 0; i < height_ + 1; ++i) {
    auto ref = pool_->NewPage();
    if (!ref.ok()) {
      // SEMA-LOOP: height (rolls back at most height_+1 reserved pages)
      for (io::PageId id : reserve) pool_->FreePage(id).IgnoreError();
      return ref.status();
    }
    reserve.push_back(ref.value().page_id());
  }
  Rect new_rect{};
  Result<SplitResult> result =
      InsertRecursive(root_, height_, entry, &new_rect, &reserve);
  if (!result.ok()) {
    // SEMA-LOOP: height (rolls back at most height_+1 reserved pages)
    for (io::PageId id : reserve) pool_->FreePage(id).IgnoreError();
    return result.status();
  }
  if (result.value().split) {
    SEGDB_DCHECK(!reserve.empty());
    const io::PageId new_root = reserve.back();
    reserve.pop_back();
    auto ref = pool_->Fetch(new_root);
    if (!ref.ok()) return ref.status();
    ++page_count_;
    io::Page& p = ref.value().page();
    SetLeaf(p, false);
    SetCount(p, 2);
    Entry l{}, r{};
    l.rect = result.value().left_rect;
    l.child = root_;
    r.rect = result.value().right_rect;
    r.child = result.value().right;
    p.WriteAt<Entry>(EntryOff(0), l);
    p.WriteAt<Entry>(EntryOff(1), r);
    ref.value().MarkDirty();
    root_ = new_root;
    ++height_;
  }
  // SEMA-LOOP: height (at most height_+1 unused cascade reserves)
  for (io::PageId id : reserve) {
    pool_->FreePage(id).IgnoreError();
  }
  ++size_;
  return Status::OK();
}

Status RTreeIndex::QueryRecursive(io::PageId node, const Rect& qrect,
                                  const core::VerticalSegmentQuery& q,
                                  std::vector<Segment>* out) const {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(node);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const uint32_t count = Count(p);
    if (IsLeaf(p)) {
      for (uint32_t i = 0; i < count; ++i) {
        const Entry e = p.ReadAt<Entry>(EntryOff(i));
        if (Overlaps(e.rect, qrect) &&
            geom::IntersectsVerticalSegment(e.seg, q.x0, q.ylo, q.yhi)) {
          out->push_back(e.seg);
        }
      }
      return Status::OK();
    }
    for (uint32_t i = 0; i < count; ++i) {
      const Entry e = p.ReadAt<Entry>(EntryOff(i));
      if (Overlaps(e.rect, qrect)) children.push_back(e.child);
    }
  }
  for (io::PageId c : children) {
    SEGDB_RETURN_IF_ERROR(QueryRecursive(c, qrect, q, out));
  }
  return Status::OK();
}

Status RTreeIndex::Query(const core::VerticalSegmentQuery& q,
                         std::vector<Segment>* out) const {
  // R-trees give no worst-case output-sensitive bound: overlapping MBRs
  // can force the recursion through the whole tree (experiment E8).
  SEGDB_IO_BOUND("scan");
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  if (root_ == io::kInvalidPageId) return Status::OK();
  const Rect qrect{q.x0, q.ylo, q.x0, q.yhi};
  return QueryRecursive(root_, qrect, q, out);
}

Result<RTreeIndex::Rect> RTreeIndex::NodeRect(io::PageId id) const {
  auto ref = pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  const io::Page& p = ref.value().page();
  Rect mbr = p.ReadAt<Entry>(EntryOff(0)).rect;
  for (uint32_t i = 1; i < Count(p); ++i) {
    mbr = Merge(mbr, p.ReadAt<Entry>(EntryOff(i)).rect);
  }
  return mbr;
}

Status RTreeIndex::CheckSubtree(io::PageId id, const Rect& expect,
                                uint64_t* count) const {
  auto ref = pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  const io::Page& p = ref.value().page();
  const uint32_t n = Count(p);
  if (n == 0) return Status::Corruption("empty R-tree node");
  uint64_t total = 0;
  Rect mbr = p.ReadAt<Entry>(EntryOff(0)).rect;
  std::vector<Entry> entries(n);
  for (uint32_t i = 0; i < n; ++i) {
    entries[i] = p.ReadAt<Entry>(EntryOff(i));
    mbr = Merge(mbr, entries[i].rect);
  }
  if (mbr.xmin != expect.xmin || mbr.ymin != expect.ymin ||
      mbr.xmax != expect.xmax || mbr.ymax != expect.ymax) {
    return Status::Corruption("stale MBR in parent entry");
  }
  if (IsLeaf(p)) {
    for (const Entry& e : entries) {
      const Rect b = BoundsOf(e.seg);
      if (b.xmin != e.rect.xmin || b.ymin != e.rect.ymin ||
          b.xmax != e.rect.xmax || b.ymax != e.rect.ymax) {
        return Status::Corruption("leaf entry rect mismatch");
      }
    }
    *count = n;
    return Status::OK();
  }
  { io::PageRef done = std::move(ref.value()); }  // drop before recursing
  for (const Entry& e : entries) {
    uint64_t sub = 0;
    SEGDB_RETURN_IF_ERROR(CheckSubtree(e.child, e.rect, &sub));
    total += sub;
  }
  *count = total;
  return Status::OK();
}

Status RTreeIndex::CheckInvariants() const {
  if (root_ == io::kInvalidPageId) {
    return size_ == 0 ? Status::OK() : Status::Corruption("size_ mismatch");
  }
  Result<Rect> mbr = NodeRect(root_);
  if (!mbr.ok()) return mbr.status();
  uint64_t total = 0;
  SEGDB_RETURN_IF_ERROR(CheckSubtree(root_, mbr.value(), &total));
  if (total != size_) return Status::Corruption("size_ mismatch");
  return Status::OK();
}

}  // namespace segdb::baseline
