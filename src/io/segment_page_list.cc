#include "io/segment_page_list.h"

#include <algorithm>
#include <utility>

#include "geom/filter_kernel.h"
#include "io/columnar_page_view.h"

namespace segdb::io {

namespace {
constexpr uint32_t kHeader = 8;  // [u32 count][u32 pad]
}  // namespace

SegmentPageList::SegmentPageList(BufferPool* pool)
    : pool_(pool), per_page_(PerPage(pool->page_size())) {}

SegmentPageList::~SegmentPageList() { Clear().IgnoreError(); }

uint32_t SegmentPageList::PerPage(uint32_t page_size) {
  return ColumnarRegionCapacity(page_size - kHeader);
}

Status SegmentPageList::BulkLoad(std::span<const geom::Segment> segments) {
  std::vector<PageId> fresh;
  for (size_t i = 0; i < segments.size(); i += per_page_) {
    const uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(per_page_, segments.size() - i));
    auto ref = pool_->NewPage();
    if (!ref.ok()) {
      for (PageId id : fresh) pool_->FreePage(id).IgnoreError();
      return ref.status();
    }
    Page& p = ref.value().page();
    p.WriteAt<uint32_t>(0, take);
    ColumnarPageView(&p, kHeader, per_page_)
        .WriteRange(0, segments.data() + i, take);
    ref.value().MarkDirty();
    fresh.push_back(ref.value().page_id());
  }
  SEGDB_RETURN_IF_ERROR(Clear());  // FreePage is reliable by contract
  pages_ = std::move(fresh);
  size_ = segments.size();
  return Status::OK();
}

Status SegmentPageList::Append(const geom::Segment& s) {
  // Every page but the last is full, so size() names the next free slot;
  // slot 0 means the last page is full (or there is none).
  const uint32_t slot = static_cast<uint32_t>(size_ % per_page_);
  auto ref = slot != 0 ? pool_->Fetch(pages_.back()) : pool_->NewPage();
  if (!ref.ok()) return ref.status();
  Page& p = ref.value().page();
  SEGDB_DCHECK(p.ReadAt<uint32_t>(0) == slot);
  ColumnarPageView(&p, kHeader, per_page_).Set(slot, s);
  p.WriteAt<uint32_t>(0, slot + 1);
  ref.value().MarkDirty();
  if (slot == 0) pages_.push_back(ref.value().page_id());
  ++size_;
  return Status::OK();
}

Status SegmentPageList::Erase(const geom::Segment& s) {
  std::vector<geom::Segment> records;
  for (size_t i = 0; i < pages_.size(); ++i) {
    uint32_t last_count = 0;
    {
      auto hole = pool_->Fetch(pages_[i]);
      if (!hole.ok()) return hole.status();
      const uint32_t count = hole.value().page().ReadAt<uint32_t>(0);
      records.resize(count);
      ConstColumnarPageView(hole.value().page(), kHeader, per_page_)
          .ReadRange(0, records.data(), count);
      const auto it = std::find(records.begin(), records.end(), s);
      if (it == records.end()) continue;
      const uint32_t slot = static_cast<uint32_t>(it - records.begin());
      // The list's last record fills the hole. Its page is pinned before a
      // byte changes: that fetch is the last step that can fail.
      auto last = pool_->Fetch(pages_.back());
      if (!last.ok()) return last.status();
      Page& last_page = last.value().page();
      last_count = last_page.ReadAt<uint32_t>(0);
      geom::Segment moved;
      {
        ColumnarPageView view(&last_page, kHeader, per_page_);
        moved = view.Get(last_count - 1);
        view.Set(last_count - 1, geom::Segment{});  // free slots stay 0
      }
      last_page.WriteAt<uint32_t>(0, last_count - 1);
      last.value().MarkDirty();
      if (i + 1 < pages_.size() || slot + 1 < last_count) {
        ColumnarPageView(&hole.value().page(), kHeader, per_page_)
            .Set(slot, moved);
        hole.value().MarkDirty();
      }
    }
    if (last_count == 1) {  // unpinned now; FreePage is reliable by contract
      SEGDB_RETURN_IF_ERROR(pool_->FreePage(pages_.back()));
      pages_.pop_back();
    }
    --size_;
    return Status::OK();
  }
  return Status::NotFound("segment not stored");
}

Status SegmentPageList::Scan(int64_t x0, int64_t ylo, int64_t yhi,
                             std::vector<geom::Segment>* out) const {
  for (PageId id : pages_) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    // Branchless kernel over the page, then one bulk gather of the
    // matches: no per-segment predicate branch or push_back.
    const ConstColumnarPageView view(p, kHeader, per_page_);
    geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
    uint32_t* idx = scratch.ReserveIndices(count);
    const uint32_t hits = geom::ActiveFilterKernel().filter_vs(
        view.strips(), count, x0, ylo, yhi, idx);
    view.AppendMatches(idx, hits, out);
  }
  return Status::OK();
}

Status SegmentPageList::CollectAll(std::vector<geom::Segment>* out) const {
  for (PageId id : pages_) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    const size_t old_size = out->size();
    out->resize(old_size + count);
    ConstColumnarPageView(p, kHeader, per_page_)
        .ReadRange(0, out->data() + old_size, count);
  }
  return Status::OK();
}

Status SegmentPageList::Clear() {
  for (PageId id : pages_) SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  pages_.clear();
  size_ = 0;
  return Status::OK();
}

Status SegmentPageList::CheckInvariants() const {
  uint64_t total = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    auto ref = pool_->Fetch(pages_[i]);
    if (!ref.ok()) return ref.status();
    const uint32_t count = ref.value().page().ReadAt<uint32_t>(0);
    if (count == 0 || count > per_page_) {
      return Status::Corruption("segment page count outside [1, capacity]");
    }
    if (i + 1 < pages_.size() && count != per_page_) {
      return Status::Corruption("interior segment page not full");
    }
    total += count;
  }
  if (total != size_) {
    return Status::Corruption("segment page list size bookkeeping mismatch");
  }
  return Status::OK();
}

}  // namespace segdb::io
