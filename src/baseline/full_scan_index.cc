#include "baseline/full_scan_index.h"

#include <algorithm>

#include "core/validate.h"
#include "geom/filter_kernel.h"
#include "geom/predicates.h"
#include "io/columnar_page_view.h"
#include "util/check.h"

namespace segdb::baseline {

namespace {
constexpr uint32_t kHeader = 8;  // [u32 count][pad]
}  // namespace

FullScanIndex::~FullScanIndex() { Clear().IgnoreError(); }

uint32_t FullScanIndex::PerPage() const {
  return io::ColumnarRegionCapacity(pool_->page_size() - kHeader);
}

Status FullScanIndex::Clear() {
  for (io::PageId id : pages_) SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
  pages_.clear();
  size_ = 0;
  return Status::OK();
}

Status FullScanIndex::BulkLoad(std::span<const geom::Segment> segments) {
  SEGDB_IO_BOUND("scan");
  for (const geom::Segment& s : segments) {
    SEGDB_RETURN_IF_ERROR(core::ValidateSegment(s));
  }
  // Build the new page list aside, then swap: a failed allocation
  // mid-build must leave the previous contents intact.
  std::vector<io::PageId> fresh;
  size_t i = 0;
  while (i < segments.size()) {
    const uint32_t take = static_cast<uint32_t>(
        std::min<size_t>(PerPage(), segments.size() - i));
    auto ref = pool_->NewPage();
    if (!ref.ok()) {
      for (io::PageId id : fresh) pool_->FreePage(id).IgnoreError();
      return ref.status();
    }
    io::Page& p = ref.value().page();
    p.WriteAt<uint32_t>(0, take);
    // Columnar strips at the fixed page capacity: Insert/Erase mutate
    // counts in place, so the stride must not depend on the fill level.
    io::ColumnarPageView(&p, kHeader, PerPage())
        .WriteRange(0, segments.data() + i, take);
    ref.value().MarkDirty();
    fresh.push_back(ref.value().page_id());
    i += take;
  }
  SEGDB_RETURN_IF_ERROR(Clear());  // FreePage is reliable by contract
  pages_ = std::move(fresh);
  size_ = segments.size();
  return Status::OK();
}

Status FullScanIndex::Insert(const geom::Segment& segment) {
  SEGDB_IO_BOUND("1");  // append to the last page, or allocate one
  SEGDB_RETURN_IF_ERROR(core::ValidateSegment(segment));
  if (!pages_.empty()) {
    auto ref = pool_->Fetch(pages_.back());
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    if (count < PerPage()) {
      io::ColumnarPageView(&p, kHeader, PerPage()).Set(count, segment);
      p.WriteAt<uint32_t>(0, count + 1);
      ref.value().MarkDirty();
      ++size_;
      return Status::OK();
    }
  }
  auto ref = pool_->NewPage();
  if (!ref.ok()) return ref.status();
  io::Page& p = ref.value().page();
  p.WriteAt<uint32_t>(0, 1);
  io::ColumnarPageView(&p, kHeader, PerPage()).Set(0, segment);
  ref.value().MarkDirty();
  pages_.push_back(ref.value().page_id());
  ++size_;
  return Status::OK();
}

Status FullScanIndex::Erase(const geom::Segment& segment) {
  SEGDB_IO_BOUND("scan");
  for (io::PageId id : pages_) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    io::Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    io::ColumnarPageView view(&p, kHeader, PerPage());
    for (uint32_t i = 0; i < count; ++i) {
      const geom::Segment s = view.Get(i);
      if (s == segment) {
        // Shift the tail left by one slot (pages may underfill).
        for (uint32_t k = i + 1; k < count; ++k) {
          view.Set(k - 1, view.Get(k));
        }
        p.WriteAt<uint32_t>(0, count - 1);
        ref.value().MarkDirty();
        --size_;
        return Status::OK();
      }
    }
  }
  return Status::NotFound("segment not stored");
}

Status FullScanIndex::Query(const core::VerticalSegmentQuery& q,
                            std::vector<geom::Segment>* out) const {
  SEGDB_IO_BOUND("scan");  // the baseline the paper's structures beat
  if (q.ylo > q.yhi) return Status::InvalidArgument("ylo > yhi");
  for (io::PageId id : pages_) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const io::Page& p = ref.value().page();
    const uint32_t count = p.ReadAt<uint32_t>(0);
    // The baseline keeps its brute-force shape but scans each page with
    // the same branchless kernel + bulk gather as the real indexes.
    const io::ConstColumnarPageView view(p, kHeader, PerPage());
    geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
    uint32_t* idx = scratch.ReserveIndices(count);
    const uint32_t hits = geom::ActiveFilterKernel().filter_vs(
        view.strips(), count, q.x0, q.ylo, q.yhi, idx);
    view.AppendMatches(idx, hits, out);
  }
  return Status::OK();
}

Status FullScanIndex::CheckInvariants() const {
  uint64_t total = 0;
  for (io::PageId id : pages_) {
    auto ref = pool_->Fetch(id);
    if (!ref.ok()) return ref.status();
    const uint32_t count = ref.value().page().ReadAt<uint32_t>(0);
    if (count > PerPage()) {
      return Status::Corruption("full-scan page over capacity");
    }
    total += count;
  }
  if (total != size_) {
    return Status::Corruption("full-scan size() bookkeeping mismatch");
  }
  return Status::OK();
}

}  // namespace segdb::baseline
