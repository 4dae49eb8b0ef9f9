// Decorators the traced run puts around the program's layers. Each one
// forwards every call unchanged and records a span around it, so the
// traced program takes the same code paths as the untraced one.
//
//   TracedIndex  wraps a core::SegmentIndex (for durable_b it is installed
//                through DurableEngine's index factory, under the engine).
//   TracedDisk   wraps an io::DiskManager; the buffer pool, the WAL and the
//                durable engine are all handed the decorator.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/segment_index.h"
#include "io/disk_manager.h"
#include "trace.h"

namespace perfbench {

class TracedIndex final : public segdb::core::SegmentIndex {
 public:
  explicit TracedIndex(std::unique_ptr<segdb::core::SegmentIndex> inner)
      : inner_(std::move(inner)) {}

  segdb::Status BulkLoad(
      std::span<const segdb::geom::Segment> segments) override {
    ScopedSpan span(SpanKind::kBulkLoad);
    return inner_->BulkLoad(segments);
  }
  segdb::Status Insert(const segdb::geom::Segment& segment) override {
    ScopedSpan span(SpanKind::kIndexWrite);
    return inner_->Insert(segment);
  }
  segdb::Status Erase(const segdb::geom::Segment& segment) override {
    ScopedSpan span(SpanKind::kIndexWrite);
    return inner_->Erase(segment);
  }
  segdb::Status Query(const segdb::core::VerticalSegmentQuery& query,
                      std::vector<segdb::geom::Segment>* out) const override {
    ScopedSpan span(SpanKind::kQuery);
    return inner_->Query(query, out);
  }
  uint64_t size() const override { return inner_->size(); }
  uint64_t page_count() const override { return inner_->page_count(); }
  std::string name() const override { return inner_->name(); }
  segdb::Status CheckInvariants() const override {
    return inner_->CheckInvariants();
  }

 private:
  std::unique_ptr<segdb::core::SegmentIndex> inner_;
};

class TracedDisk final : public segdb::io::DiskManager {
 public:
  // `base` is not owned and must outlive the decorator.
  explicit TracedDisk(segdb::io::DiskManager* base)
      : DiskManager(base->page_size()), base_(base) {}

  segdb::Result<segdb::io::PageId> AllocatePage() override {
    ScopedSpan span(SpanKind::kAllocFree);
    return base_->AllocatePage();
  }
  segdb::Status FreePage(segdb::io::PageId id) override {
    ScopedSpan span(SpanKind::kAllocFree);
    return base_->FreePage(id);
  }
  segdb::Status ReadPage(segdb::io::PageId id,
                         segdb::io::Page* out) override {
    ScopedSpan span(SpanKind::kReadPage);
    return base_->ReadPage(id, out);
  }
  segdb::Status PeekPage(segdb::io::PageId id,
                         segdb::io::Page* out) const override {
    ScopedSpan span(SpanKind::kPeekPage);
    return base_->PeekPage(id, out);
  }
  segdb::Status WritePage(segdb::io::PageId id,
                          const segdb::io::Page& page) override {
    ScopedSpan span(SpanKind::kWritePage);
    return base_->WritePage(id, page);
  }
  segdb::Status WritePagePrefix(segdb::io::PageId id,
                                const segdb::io::Page& page,
                                uint32_t prefix_bytes) override {
    ScopedSpan span(SpanKind::kWritePage);
    return base_->WritePagePrefix(id, page, prefix_bytes);
  }
  void PeekPagesBatch(std::span<segdb::io::PageFill> fills) override {
    ScopedSpan span(SpanKind::kPeekBatch);
    base_->PeekPagesBatch(fills);
  }
  void PrefetchPages(std::span<const segdb::io::PageId> ids) override {
    base_->PrefetchPages(ids);
  }
  segdb::Status Sync() override {
    ScopedSpan span(SpanKind::kSync);
    return base_->Sync();
  }
  uint64_t pages_in_use() const override { return base_->pages_in_use(); }
  uint64_t high_water_pages() const override {
    return base_->high_water_pages();
  }
  segdb::io::DiskStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  segdb::io::DiskManager* const base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
