// An external-memory B+-tree over trivially-copyable records with a
// caller-supplied (possibly stateful) ordering. Every node occupies one
// disk page; all access goes through the buffer pool, so tree operations
// cost exactly their page-fetch count in the paper's I/O model.
//
// Uses in segdb:
//  * multislab lists of the segment tree G (records = Segment, ordered by
//    their intersection with a slab boundary — Section 4.2 of the paper);
//  * 1-D key/value indexing for baselines and bookkeeping.
//
// Supported operations: BulkLoad (from sorted input), Insert (with node
// splits), point/lower-bound search, ordered leaf scans, Erase (lazy: no
// node merging — segdb only requires the paper's semi-dynamic insert path,
// deletions exist for completeness and tests).
#ifndef SEGDB_BTREE_BPLUS_TREE_H_
#define SEGDB_BTREE_BPLUS_TREE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "io/buffer_pool.h"
#include "io/columnar_page_view.h"
#include "util/status.h"
#include "util/check.h"

namespace segdb::btree {

// Compare is a stateful strict-weak-order: int operator()(a, b) returning
// <0, 0, >0. Records equal under Compare may coexist (duplicates allowed).
template <typename Record, typename Compare>
class BPlusTree {
 public:
  static_assert(std::is_trivially_copyable_v<Record>);

  BPlusTree(io::BufferPool* pool, Compare cmp)
      : pool_(pool), cmp_(std::move(cmp)) {
    const uint32_t ps = pool_->page_size();
    leaf_capacity_ =
        io::PageRecordLayout<Record>::Capacity(ps - kLeafHeaderBytes);
    internal_capacity_ =
        (ps - kInternalHeaderBytes - sizeof(io::PageId)) /
        (sizeof(Record) + sizeof(io::PageId));
    SEGDB_DCHECK(leaf_capacity_ >= 2 && internal_capacity_ >= 2)
        << "page size too small for this record type";
  }

  ~BPlusTree() { Clear().IgnoreError(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  uint64_t size() const { return size_; }
  uint32_t height() const { return height_; }
  uint64_t page_count() const { return page_count_; }
  uint32_t leaf_capacity() const { return leaf_capacity_; }
  io::PageId root() const { return root_; }

  // Replaces the contents with `sorted` (must be ordered by cmp). Builds
  // packed leaves bottom-up: O(n) I/Os.
  Status BulkLoad(std::span<const Record> sorted);


  // Inserts one record, splitting nodes on overflow. O(height) I/Os.
  Status Insert(const Record& record);

  // Removes one record bitwise-equal to `record` (and cmp-equal, used to
  // locate it). Lazy: leaves may underflow; pages are freed only when a
  // leaf empties completely and the tree is a single leaf.
  // Returns NotFound when no such record exists.
  Status Erase(const Record& record);

  // Calls fn(record) for each record r with cmp(r, key) >= 0 in ascending
  // order until fn returns false or the scan ends.
  template <typename Fn>
  Status ScanFrom(const Record& key, Fn fn) const;

  // Calls fn(record) for every record in ascending order until fn returns
  // false.
  template <typename Fn>
  Status ScanAll(Fn fn) const;

  // True when a cmp-equal record exists.
  Result<bool> Contains(const Record& key) const;

  // Frees every page. The tree becomes empty.
  Status Clear();

  // Collects every record (test helper; O(n) memory).
  Result<std::vector<Record>> CollectAll() const;

  // Identifies the leaf page and slot of the first record with
  // cmp(r, key) >= 0, for structures that keep stable positions into a
  // static tree (fractional-cascading bridges). Invalidated by any update.
  struct Position {
    io::PageId leaf = io::kInvalidPageId;
    uint32_t slot = 0;
    bool found = false;  // false: key is past the last record
  };
  Result<Position> LowerBoundPosition(const Record& key) const;

  // Scans forward from an explicit position (bridge landing).
  template <typename Fn>
  Status ScanFromPosition(const Position& pos, Fn fn) const;

  // Like BulkLoad, additionally reporting where each input record landed
  // (positions->at(i) for sorted[i]). Positions stay valid until the next
  // mutation; used by structures that point into a static tree
  // (fractional-cascading bridges).
  Status BulkLoadWithPositions(std::span<const Record> sorted,
                               std::vector<Position>* positions);

  // Finds the first record satisfying a *suffix-monotone* predicate (false
  // ... false true ... true in tree order); separator copies are real
  // records, so the predicate steers the descent. Returns the position of
  // the first satisfying record and, when one exists, the record
  // immediately before it (*pred_valid false when the match is the very
  // first record). Used for order-consistent searches whose comparison
  // key exists only at query time (e.g. "y at the query abscissa").
  template <typename Pred>
  Status FindFirstWhere(Pred pred, Position* pos, Record* pred_record,
                        bool* pred_valid) const;

  // Position of the first record in tree order (found=false when empty).
  Result<Position> HeadPosition() const;

  // Reads one leaf page's records plus its neighbor links — the low-level
  // access used by cursors that walk leaves in both directions
  // (fractional-cascading bridge landings).
  struct LeafView {
    std::vector<Record> records;
    io::PageId next = io::kInvalidPageId;
    io::PageId prev = io::kInvalidPageId;
  };
  Result<LeafView> ReadLeaf(io::PageId leaf) const;

  // Audits the tree: uniform leaf depth (== height()), per-node capacity,
  // leaf ordering under cmp, separator fences bounding every subtree, the
  // doubly-linked leaf chain matching in-order traversal, and the size /
  // page-count / height counters. O(n) I/Os.
  Status CheckInvariants() const;

 private:
  static constexpr uint32_t kLeafHeaderBytes = 16;
  static constexpr uint32_t kInternalHeaderBytes = 8;

  // -- Node views ---------------------------------------------------------
  // Leaf layout:   [u8 is_leaf][u8 pad3][u32 count][PageId next][PageId prev]
  //                [records: io::PageRecordLayout<Record>, cap leaf_capacity_]
  // Internal:      [u8 is_leaf][u8 pad3][u32 count]
  //                [PageId child x (count+1)][Record sep x count]
  // The leaf record region goes through PageRecordLayout: row-major for
  // generic records, compressed columnar strips for G's fragments (their
  // specialization), whose Capacity() gives leaf_capacity_. Internal
  // separators stay row-major — they are binary-searched individually,
  // never scanned.
  // Separator semantics: sep[i] is a copy of the smallest record in
  // child[i+1]'s subtree; search descends into the first child i with
  // key < sep[i] (or the last child).

  static bool IsLeaf(const io::Page& p) { return p.ReadAt<uint8_t>(0) != 0; }
  static void SetLeaf(io::Page& p, bool leaf) {
    p.WriteAt<uint8_t>(0, leaf ? 1 : 0);
  }
  static uint32_t Count(const io::Page& p) { return p.ReadAt<uint32_t>(4); }
  static void SetCount(io::Page& p, uint32_t c) { p.WriteAt<uint32_t>(4, c); }

  static io::PageId LeafNext(const io::Page& p) {
    return p.ReadAt<io::PageId>(8);
  }
  static void SetLeafNext(io::Page& p, io::PageId id) {
    p.WriteAt<io::PageId>(8, id);
  }
  static io::PageId LeafPrev(const io::Page& p) {
    return p.ReadAt<io::PageId>(12);
  }
  static void SetLeafPrev(io::Page& p, io::PageId id) {
    p.WriteAt<io::PageId>(12, id);
  }

  uint32_t ChildOff(uint32_t i) const {
    return kInternalHeaderBytes + i * sizeof(io::PageId);
  }
  uint32_t SepOff(uint32_t i) const {
    return kInternalHeaderBytes + (internal_capacity_ + 1) * sizeof(io::PageId) +
           i * static_cast<uint32_t>(sizeof(Record));
  }

  using LeafLayout = io::PageRecordLayout<Record>;

  Record LeafRecord(const io::Page& p, uint32_t i) const {
    return LeafLayout::Read(p, kLeafHeaderBytes, leaf_capacity_, i);
  }
  void SetLeafRecord(io::Page* p, uint32_t i, const Record& r) const {
    LeafLayout::Write(p, kLeafHeaderBytes, leaf_capacity_, i, r);
  }
  void ReadLeafRecords(const io::Page& p, uint32_t first, Record* out,
                       uint32_t count) const {
    LeafLayout::ReadRange(p, kLeafHeaderBytes, leaf_capacity_, first, out,
                          count);
  }
  void WriteLeafRecords(io::Page* p, uint32_t first, const Record* src,
                        uint32_t count) const {
    LeafLayout::WriteRange(p, kLeafHeaderBytes, leaf_capacity_, first, src,
                           count);
  }
  io::PageId Child(const io::Page& p, uint32_t i) const {
    return p.ReadAt<io::PageId>(ChildOff(i));
  }
  Record Separator(const io::Page& p, uint32_t i) const {
    return p.ReadAt<Record>(SepOff(i));
  }

  // First slot in leaf with record >= key.
  uint32_t LeafLowerBound(const io::Page& leaf, const Record& key) const {
    uint32_t lo = 0, hi = Count(leaf);
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (cmp_(LeafRecord(leaf, mid), key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Child index for inserting `key`: right of all cmp-equal separators, so
  // duplicates append after existing equals.
  uint32_t PickChildUpper(const io::Page& node, const Record& key) const {
    uint32_t lo = 0, hi = Count(node);
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (cmp_(Separator(node, mid), key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Child index for lower-bound search: left of cmp-equal separators, so
  // no cmp-equal record in an earlier leaf is skipped. Landing too far left
  // is corrected by following leaf next-pointers.
  uint32_t PickChildLower(const io::Page& node, const Record& key) const {
    uint32_t lo = 0, hi = Count(node);
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (cmp_(Separator(node, mid), key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  Status FreeSubtree(io::PageId id);
  // Recursive audit step: `lo`/`hi` are inclusive cmp-fences inherited from
  // ancestor separators (null = unbounded); appends visited leaves in order.
  Status CheckSubtree(io::PageId id, uint32_t depth, const Record* lo,
                      const Record* hi, std::vector<io::PageId>* leaves,
                      uint64_t* records, uint64_t* pages) const;

  io::BufferPool* pool_;
  Compare cmp_;
  uint32_t leaf_capacity_ = 0;
  uint32_t internal_capacity_ = 0;
  io::PageId root_ = io::kInvalidPageId;
  uint32_t height_ = 0;  // 0 = empty, 1 = single leaf
  uint64_t size_ = 0;
  uint64_t page_count_ = 0;
};

// ---------------------------------------------------------------------------
// Implementation.

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::Clear() {
  if (root_ != io::kInvalidPageId) {
    SEGDB_RETURN_IF_ERROR(FreeSubtree(root_));
    root_ = io::kInvalidPageId;
  }
  height_ = 0;
  size_ = 0;
  page_count_ = 0;
  return Status::OK();
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::FreeSubtree(io::PageId id) {
  std::vector<io::PageId> children;
  {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    if (!IsLeaf(p)) {
      const uint32_t count = Count(p);
      children.resize(count + 1);
      for (uint32_t i = 0; i <= count; ++i) children[i] = Child(p, i);
    }
  }  // pin dropped before recursing: children re-fetch freely
  for (io::PageId c : children) SEGDB_RETURN_IF_ERROR(FreeSubtree(c));
  return pool_->FreePage(id);
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::BulkLoad(std::span<const Record> sorted) {
  SEGDB_IO_BOUND("scan");
  return BulkLoadWithPositions(sorted, nullptr);
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::BulkLoadWithPositions(
    std::span<const Record> sorted, std::vector<Position>* positions) {
  SEGDB_IO_BOUND("scan");
  SEGDB_RETURN_IF_ERROR(Clear());
  if (positions != nullptr) {
    positions->clear();
    positions->reserve(sorted.size());
  }
  if (sorted.empty()) return Status::OK();
#ifndef NDEBUG
  for (size_t i = 1; i < sorted.size(); ++i) {
    SEGDB_DCHECK(cmp_(sorted[i - 1], sorted[i]) <= 0) << "BulkLoad input not sorted";
  }
#endif

  // The build writes no member state until the commit point below; a
  // mid-build failure only has to release the pages built so far and the
  // tree stays in its (empty) post-Clear state.
  std::vector<io::PageId> built;
  auto unwind = [&](Status cause) {
    for (io::PageId id : built) pool_->FreePage(id).IgnoreError();
    if (positions != nullptr) positions->clear();
    return cause;
  };

  // Level 0: packed leaves.
  struct Entry {
    Record first;
    io::PageId id;
  };
  std::vector<Entry> level;
  io::PageId prev = io::kInvalidPageId;
  size_t i = 0;
  while (i < sorted.size()) {
    const uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(leaf_capacity_, sorted.size() - i));
    auto ref = pool_->NewPage();
    if (!ref.ok()) return unwind(ref.status());
    io::Page& p = ref.value().page();
    SetLeaf(p, true);
    SetCount(p, take);
    SetLeafPrev(p, prev);
    SetLeafNext(p, io::kInvalidPageId);
    WriteLeafRecords(&p, 0, sorted.data() + i, take);
    ref.value().MarkDirty();
    const io::PageId id = ref.value().page_id();
    if (positions != nullptr) {
      for (uint32_t k = 0; k < take; ++k) {
        positions->push_back(Position{id, k, true});
      }
    }
    built.push_back(id);
    if (prev != io::kInvalidPageId) {
      { io::PageRef done = std::move(ref.value()); }  // drop pin, then fetch
      auto prev_ref = pool_->Fetch(prev);
      if (!prev_ref.ok()) return unwind(prev_ref.status());
      SetLeafNext(prev_ref.value().page(), id);
      prev_ref.value().MarkDirty();
    }
    level.push_back(Entry{sorted[i], id});
    prev = id;
    i += take;
  }
  uint32_t height = 1;

  // Upper levels.
  while (level.size() > 1) {
    std::vector<Entry> next_level;
    size_t j = 0;
    while (j < level.size()) {
      uint32_t take = static_cast<uint32_t>(
          std::min<size_t>(internal_capacity_ + 1, level.size() - j));
      // Avoid leaving a single orphan child for the last node.
      if (level.size() - j - take == 1) --take;
      auto ref = pool_->NewPage();
      if (!ref.ok()) return unwind(ref.status());
      io::Page& p = ref.value().page();
      SetLeaf(p, false);
      SetCount(p, take - 1);
      for (uint32_t k = 0; k < take; ++k) {
        p.WriteAt<io::PageId>(ChildOff(k), level[j + k].id);
        if (k > 0) p.WriteAt<Record>(SepOff(k - 1), level[j + k].first);
      }
      ref.value().MarkDirty();
      built.push_back(ref.value().page_id());
      next_level.push_back(Entry{level[j].first, ref.value().page_id()});
      j += take;
    }
    level = std::move(next_level);
    ++height;
  }
  SEGDB_COMMIT_POINT();  // nothing below can fail; publish the new tree
  root_ = level[0].id;
  height_ = height;
  size_ = sorted.size();
  page_count_ = built.size();
  return Status::OK();
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::Insert(const Record& record) {
  SEGDB_IO_BOUND("log");  // descent + split cascade, both height-bounded
  if (root_ == io::kInvalidPageId) {
    auto ref = pool_->NewPage();
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    SetLeaf(p, true);
    SetCount(p, 1);
    SetLeafNext(p, io::kInvalidPageId);
    SetLeafPrev(p, io::kInvalidPageId);
    SetLeafRecord(&p, 0, record);
    ref.value().MarkDirty();
    root_ = ref.value().page_id();
    height_ = 1;
    size_ = 1;
    page_count_ = 1;
    return Status::OK();
  }

  // Descend, remembering the path (and node fill) for splits.
  struct PathEntry {
    io::PageId id;
    uint32_t child_index;
    uint32_t count;
  };
  std::vector<PathEntry> path;
  io::PageId cur = root_;
  for (;;) {  // SEMA-LOOP: height (root-to-leaf descent)
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    if (IsLeaf(p)) break;
    const uint32_t ci = PickChildUpper(p, record);
    path.push_back(PathEntry{cur, ci, Count(p)});
    cur = Child(p, ci);
  }

  // Insert into the leaf; on overflow split and propagate. Every page the
  // split cascade can need is allocated up front, before the first byte of
  // the tree changes: an allocation failure mid-cascade would otherwise
  // leave a split leaf whose records the directory cannot reach and whose
  // insert was never counted.
  Record carry_sep{};
  io::PageId carry_child = io::kInvalidPageId;
  std::vector<io::PageRef> spare;
  size_t spare_next = 0;
  {
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    const uint32_t count = Count(p);
    // Insert after equal records (stable for duplicates).
    uint32_t pos = count;
    {
      uint32_t lo = 0, hi = count;
      while (lo < hi) {
        uint32_t mid = (lo + hi) / 2;
        if (cmp_(LeafRecord(p, mid), record) <= 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      pos = lo;
    }
    pos = std::min(pos, count);
    // Assemble prefix + record + suffix directly (avoids vector::insert,
    // which trips a GCC-12 -Wstringop-overflow false positive here).
    std::vector<Record> recs(count + 1);
    ReadLeafRecords(p, 0, recs.data(), pos);
    recs[pos] = record;
    if (pos < count) {
      ReadLeafRecords(p, pos, recs.data() + pos + 1, count - pos);
    }
    if (count + 1 <= leaf_capacity_) {
      WriteLeafRecords(&p, 0, recs.data(), count + 1);
      SetCount(p, count + 1);
      ref.value().MarkDirty();
      ++size_;
      return Status::OK();
    }
    // Split the leaf. One spare page per full node on the path suffix,
    // plus one for the leaf and one more when the cascade grows a root.
    uint32_t need = 1;
    size_t full_suffix = 0;
    for (auto it = path.rbegin();
         it != path.rend() && it->count == internal_capacity_; ++it) {
      ++full_suffix;
    }
    need += static_cast<uint32_t>(full_suffix);
    if (full_suffix == path.size()) ++need;  // the root splits too
    spare.reserve(need);
    // SEMA-LOOP: height (need <= height+2: one page per full ancestor)
    for (uint32_t k = 0; k < need; ++k) {
      auto sref = pool_->NewPage();
      if (!sref.ok()) {
        std::vector<io::PageId> ids;
        ids.reserve(spare.size());
        for (const io::PageRef& r : spare) ids.push_back(r.page_id());
        spare.clear();  // destroys every spare PageRef, dropping its pin
        // SEMA-LOOP: height (rolls back the height-bounded reservation)
        for (io::PageId id : ids) pool_->FreePage(id).IgnoreError();
        return sref.status();
      }
      spare.push_back(std::move(sref.value()));
    }

    const uint32_t left_n = (count + 1) / 2;
    const uint32_t right_n = count + 1 - left_n;
    io::PageRef right = std::move(spare[spare_next++]);
    io::Page& rp = right.page();
    SetLeaf(rp, true);
    SetCount(rp, right_n);
    WriteLeafRecords(&rp, 0, recs.data() + left_n, right_n);
    SetLeafPrev(rp, cur);
    SetLeafNext(rp, LeafNext(p));
    right.MarkDirty();
    const io::PageId right_id = right.page_id();
    const io::PageId old_next = LeafNext(p);
    WriteLeafRecords(&p, 0, recs.data(), left_n);
    SetCount(p, left_n);
    SetLeafNext(p, right_id);
    ref.value().MarkDirty();
    {
      // Drop both split pins at scope exit (left leaf first, matching the
      // destruction order) before fetching the old next leaf.
      io::PageRef drop_right = std::move(right);
      io::PageRef drop_left = std::move(ref.value());
    }
    if (old_next != io::kInvalidPageId) {
      auto nref = pool_->Fetch(old_next);
      if (!nref.ok()) return nref.status();
      SetLeafPrev(nref.value().page(), right_id);
      nref.value().MarkDirty();
    }
    carry_sep = recs[left_n];
    carry_child = right_id;
    ++page_count_;
  }

  // Propagate the split upward.
  while (carry_child != io::kInvalidPageId && !path.empty()) {
    const PathEntry pe = path.back();
    path.pop_back();
    auto ref = pool_->Fetch(pe.id);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    const uint32_t count = Count(p);
    std::vector<Record> seps(count);
    std::vector<io::PageId> kids(count + 1);
    for (uint32_t k = 0; k < count; ++k) seps[k] = Separator(p, k);
    for (uint32_t k = 0; k <= count; ++k) kids[k] = Child(p, k);
    seps.insert(seps.begin() + pe.child_index, carry_sep);
    kids.insert(kids.begin() + pe.child_index + 1, carry_child);
    if (count + 1 <= internal_capacity_) {
      SetCount(p, count + 1);
      for (uint32_t k = 0; k < count + 1; ++k) {
        p.WriteAt<Record>(SepOff(k), seps[k]);
      }
      for (uint32_t k = 0; k <= count + 1; ++k) {
        p.WriteAt<io::PageId>(ChildOff(k), kids[k]);
      }
      ref.value().MarkDirty();
      carry_child = io::kInvalidPageId;
      break;
    }
    // Split the internal node: middle separator moves up.
    const uint32_t total = count + 1;              // separators
    const uint32_t mid = total / 2;                // promoted index
    io::PageRef right = std::move(spare[spare_next++]);
    io::Page& rp = right.page();
    SetLeaf(rp, false);
    const uint32_t right_seps = total - mid - 1;
    SetCount(rp, right_seps);
    for (uint32_t k = 0; k < right_seps; ++k) {
      rp.WriteAt<Record>(SepOff(k), seps[mid + 1 + k]);
    }
    for (uint32_t k = 0; k <= right_seps; ++k) {
      rp.WriteAt<io::PageId>(ChildOff(k), kids[mid + 1 + k]);
    }
    right.MarkDirty();
    SetCount(p, mid);
    for (uint32_t k = 0; k < mid; ++k) p.WriteAt<Record>(SepOff(k), seps[k]);
    for (uint32_t k = 0; k <= mid; ++k) {
      p.WriteAt<io::PageId>(ChildOff(k), kids[k]);
    }
    ref.value().MarkDirty();
    carry_sep = seps[mid];
    carry_child = right.page_id();
    ++page_count_;
  }

  if (carry_child != io::kInvalidPageId) {
    // Grow a new root.
    io::PageRef rootref = std::move(spare[spare_next++]);
    io::Page& p = rootref.page();
    SetLeaf(p, false);
    SetCount(p, 1);
    p.WriteAt<io::PageId>(ChildOff(0), root_);
    p.WriteAt<io::PageId>(ChildOff(1), carry_child);
    p.WriteAt<Record>(SepOff(0), carry_sep);
    rootref.MarkDirty();
    root_ = rootref.page_id();
    ++height_;
    ++page_count_;
  }
  SEGDB_DCHECK(spare_next == spare.size()) << "split pre-allocation mismatch";
  ++size_;
  return Status::OK();
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::Erase(const Record& record) {
  // "t/B" covers the walk over a cmp-equal duplicate group, which may
  // span leaves before the bitwise match is found.
  SEGDB_IO_BOUND("log", "t/B");
  if (root_ == io::kInvalidPageId) return Status::NotFound("empty tree");
  io::PageId cur = root_;
  for (;;) {  // SEMA-LOOP: height (root-to-leaf descent)
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    if (!IsLeaf(p)) {
      cur = Child(p, PickChildLower(p, record));
      continue;
    }
    // Walk cmp-equal records (possibly across leaves) looking for a
    // bitwise match.
    uint32_t slot = LeafLowerBound(p, record);
    io::PageRef leaf_ref = std::move(ref.value());
    for (;;) {  // SEMA-LOOP: record (cmp-equal duplicate group)
      io::Page& lp = leaf_ref.page();
      const uint32_t count = Count(lp);
      if (slot >= count) {
        const io::PageId next = LeafNext(lp);
        if (next == io::kInvalidPageId) return Status::NotFound("no match");
        auto nref = pool_->Fetch(next);
        if (!nref.ok()) return nref.status();
        leaf_ref = std::move(nref.value());
        slot = 0;
        continue;
      }
      const Record r = LeafRecord(lp, slot);
      if (cmp_(r, record) > 0) return Status::NotFound("no match");
      if (std::memcmp(&r, &record, sizeof(Record)) == 0) {
        // Assemble prefix + suffix directly (vector::erase trips a GCC-12
        // -Wstringop-overflow false positive here in Release builds).
        std::vector<Record> recs(count - 1);
        ReadLeafRecords(lp, 0, recs.data(), slot);
        ReadLeafRecords(lp, slot + 1, recs.data() + slot, count - 1 - slot);
        WriteLeafRecords(&lp, 0, recs.data(), count - 1);
        SetCount(lp, count - 1);
        leaf_ref.MarkDirty();
        --size_;
        return Status::OK();
      }
      ++slot;
    }
  }
}

template <typename Record, typename Compare>
Result<typename BPlusTree<Record, Compare>::Position>
BPlusTree<Record, Compare>::LowerBoundPosition(const Record& key) const {
  Position pos;
  if (root_ == io::kInvalidPageId) return pos;
  io::PageId cur = root_;
  for (;;) {  // SEMA-LOOP: height (root-to-leaf descent)
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    if (!IsLeaf(p)) {
      cur = Child(p, PickChildLower(p, key));
      continue;
    }
    uint32_t slot = LeafLowerBound(p, key);
    if (slot >= Count(p)) {
      const io::PageId next = LeafNext(p);
      if (next == io::kInvalidPageId) return pos;  // past the end
      pos.leaf = next;
      pos.slot = 0;
      pos.found = true;
      return pos;
    }
    pos.leaf = cur;
    pos.slot = slot;
    pos.found = true;
    return pos;
  }
}

template <typename Record, typename Compare>
template <typename Pred>
Status BPlusTree<Record, Compare>::FindFirstWhere(Pred pred, Position* pos,
                                                  Record* pred_record,
                                                  bool* pred_valid) const {
  *pos = Position{};
  *pred_valid = false;
  if (root_ == io::kInvalidPageId) return Status::OK();
  io::PageId cur = root_;
  for (;;) {  // SEMA-LOOP: height (root-to-leaf descent)
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    if (!IsLeaf(p)) {
      // First separator satisfying pred: the first match is in the child
      // left of it (or is that separator itself, reached via leaf links).
      uint32_t lo = 0, hi = Count(p);
      while (lo < hi) {
        const uint32_t mid = (lo + hi) / 2;
        if (pred(Separator(p, mid))) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      cur = Child(p, lo);
      continue;
    }
    // First satisfying slot in this leaf.
    uint32_t lo = 0, hi = Count(p);
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (pred(LeafRecord(p, mid))) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo < Count(p)) {
      pos->leaf = cur;
      pos->slot = lo;
      pos->found = true;
      if (lo > 0) {
        *pred_record = LeafRecord(p, lo - 1);
        *pred_valid = true;
      } else {
        const io::PageId prev = LeafPrev(p);
        if (prev != io::kInvalidPageId) {
          { io::PageRef done = std::move(ref.value()); }  // drop, then fetch
          auto pref = pool_->Fetch(prev);
          if (!pref.ok()) return pref.status();
          const io::Page& pp = pref.value().page();
          if (Count(pp) > 0) {
            *pred_record = LeafRecord(pp, Count(pp) - 1);
            *pred_valid = true;
          }
        }
      }
      return Status::OK();
    }
    // Descent may land one leaf early; hop once. If the next leaf's first
    // record still fails the predicate, no record satisfies it.
    if (Count(p) > 0) {
      *pred_record = LeafRecord(p, Count(p) - 1);
      *pred_valid = true;
    }
    const io::PageId next = LeafNext(p);
    if (next == io::kInvalidPageId) return Status::OK();
    { io::PageRef done = std::move(ref.value()); }  // drop, then fetch
    auto nref = pool_->Fetch(next);
    if (!nref.ok()) return nref.status();
    const io::Page& np = nref.value().page();
    if (Count(np) > 0 && pred(LeafRecord(np, 0))) {
      pos->leaf = next;
      pos->slot = 0;
      pos->found = true;
    }
    return Status::OK();
  }
}

template <typename Record, typename Compare>
template <typename Fn>
Status BPlusTree<Record, Compare>::ScanFromPosition(const Position& pos,
                                                    Fn fn) const {
  if (!pos.found) return Status::OK();
  io::PageId cur = pos.leaf;
  uint32_t slot = pos.slot;
  while (cur != io::kInvalidPageId) {
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const uint32_t count = Count(p);
    for (uint32_t i = slot; i < count; ++i) {
      if (!fn(LeafRecord(p, i))) return Status::OK();
    }
    cur = LeafNext(p);
    slot = 0;
  }
  return Status::OK();
}

template <typename Record, typename Compare>
template <typename Fn>
Status BPlusTree<Record, Compare>::ScanFrom(const Record& key, Fn fn) const {
  Result<Position> pos = LowerBoundPosition(key);
  if (!pos.ok()) return pos.status();
  return ScanFromPosition(pos.value(), fn);
}

template <typename Record, typename Compare>
Result<typename BPlusTree<Record, Compare>::Position>
BPlusTree<Record, Compare>::HeadPosition() const {
  Position pos;
  if (root_ == io::kInvalidPageId) return pos;
  io::PageId cur = root_;
  for (;;) {
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    if (IsLeaf(p)) {
      if (Count(p) == 0) return pos;
      pos.leaf = cur;
      pos.slot = 0;
      pos.found = true;
      return pos;
    }
    cur = Child(p, 0);
  }
}

template <typename Record, typename Compare>
Result<typename BPlusTree<Record, Compare>::LeafView>
BPlusTree<Record, Compare>::ReadLeaf(io::PageId leaf) const {
  auto ref = pool_->Fetch(leaf);
  if (!ref.ok()) return ref.status();
  const io::Page& p = ref.value().page();
  if (!IsLeaf(p)) return Status::InvalidArgument("ReadLeaf: not a leaf page");
  LeafView view;
  view.records.resize(Count(p));
  ReadLeafRecords(p, 0, view.records.data(), Count(p));
  view.next = LeafNext(p);
  view.prev = LeafPrev(p);
  return view;
}

template <typename Record, typename Compare>
template <typename Fn>
Status BPlusTree<Record, Compare>::ScanAll(Fn fn) const {
  if (root_ == io::kInvalidPageId) return Status::OK();
  io::PageId cur = root_;
  for (;;) {  // SEMA-LOOP: height (leftmost root-to-leaf descent)
    auto ref = pool_->Fetch(cur);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    if (IsLeaf(p)) break;
    cur = Child(p, 0);
  }
  Position pos;
  pos.leaf = cur;
  pos.slot = 0;
  pos.found = true;
  return ScanFromPosition(pos, fn);
}

template <typename Record, typename Compare>
Result<bool> BPlusTree<Record, Compare>::Contains(const Record& key) const {
  bool found = false;
  Status s = ScanFrom(key, [&](const Record& r) {
    found = (cmp_(r, key) == 0);
    return false;  // only need the first record
  });
  if (!s.ok()) return s;
  return found;
}

template <typename Record, typename Compare>
Result<std::vector<Record>> BPlusTree<Record, Compare>::CollectAll() const {
  std::vector<Record> out;
  out.reserve(size_);
  Status s = ScanAll([&](const Record& r) {
    out.push_back(r);
    return true;
  });
  if (!s.ok()) return s;
  return out;
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::CheckSubtree(
    io::PageId id, uint32_t depth, const Record* lo, const Record* hi,
    std::vector<io::PageId>* leaves, uint64_t* records,
    uint64_t* pages) const {
  auto ref = pool_->Fetch(id);
  if (!ref.ok()) return ref.status();
  const io::Page& p = ref.value().page();
  ++*pages;
  if (IsLeaf(p)) {
    if (depth != height_) {
      return Status::Corruption("leaf at depth != height()");
    }
    const uint32_t count = Count(p);
    if (count > leaf_capacity_) {
      return Status::Corruption("leaf over capacity");
    }
    Record prev{};
    for (uint32_t i = 0; i < count; ++i) {
      const Record r = LeafRecord(p, i);
      if (i > 0 && cmp_(prev, r) > 0) {
        return Status::Corruption("leaf records out of order");
      }
      if ((lo != nullptr && cmp_(*lo, r) > 0) ||
          (hi != nullptr && cmp_(r, *hi) > 0)) {
        return Status::Corruption("leaf record escapes its separator fence");
      }
      prev = r;
    }
    *records += count;
    leaves->push_back(id);
    return Status::OK();
  }
  const uint32_t count = Count(p);
  if (count > internal_capacity_) {
    return Status::Corruption("internal node over capacity");
  }
  std::vector<Record> seps(count);
  std::vector<io::PageId> kids(count + 1);
  for (uint32_t i = 0; i < count; ++i) seps[i] = Separator(p, i);
  for (uint32_t i = 0; i <= count; ++i) kids[i] = Child(p, i);
  { io::PageRef done = std::move(ref.value()); }  // drop before recursing
  for (uint32_t i = 0; i < count; ++i) {
    if (i > 0 && cmp_(seps[i - 1], seps[i]) > 0) {
      return Status::Corruption("separators out of order");
    }
    if ((lo != nullptr && cmp_(*lo, seps[i]) > 0) ||
        (hi != nullptr && cmp_(seps[i], *hi) > 0)) {
      return Status::Corruption("separator escapes its ancestor fence");
    }
  }
  for (uint32_t i = 0; i <= count; ++i) {
    const Record* clo = i == 0 ? lo : &seps[i - 1];
    const Record* chi = i == count ? hi : &seps[i];
    SEGDB_RETURN_IF_ERROR(
        CheckSubtree(kids[i], depth + 1, clo, chi, leaves, records, pages));
  }
  return Status::OK();
}

template <typename Record, typename Compare>
Status BPlusTree<Record, Compare>::CheckInvariants() const {
  if (root_ == io::kInvalidPageId) {
    if (height_ != 0 || size_ != 0 || page_count_ != 0) {
      return Status::Corruption("empty tree with nonzero counters");
    }
    return Status::OK();
  }
  std::vector<io::PageId> leaves;
  uint64_t records = 0;
  uint64_t pages = 0;
  SEGDB_RETURN_IF_ERROR(
      CheckSubtree(root_, 1, nullptr, nullptr, &leaves, &records, &pages));
  if (records != size_) return Status::Corruption("size() bookkeeping mismatch");
  if (pages != page_count_) {
    return Status::Corruption("page_count() bookkeeping mismatch");
  }
  // The leaf chain must thread the leaves exactly in traversal order.
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto ref = pool_->Fetch(leaves[i]);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const io::PageId want_prev = i == 0 ? io::kInvalidPageId : leaves[i - 1];
    const io::PageId want_next =
        i + 1 == leaves.size() ? io::kInvalidPageId : leaves[i + 1];
    if (LeafPrev(p) != want_prev || LeafNext(p) != want_next) {
      return Status::Corruption("leaf chain disagrees with tree order");
    }
  }
  return Status::OK();
}

}  // namespace segdb::btree

#endif  // SEGDB_BTREE_BPLUS_TREE_H_
