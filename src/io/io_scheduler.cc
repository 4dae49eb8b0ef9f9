#include "io/io_scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace segdb::io {

IoScheduler::IoScheduler(AsyncIoEngine* engine, uint32_t page_size,
                         uint64_t data_offset, uint32_t max_merge_pages)
    : engine_(engine),
      page_size_(page_size),
      data_offset_(data_offset),
      max_merge_pages_(max_merge_pages == 0 ? 1 : max_merge_pages) {
  SEGDB_CHECK(engine != nullptr);
  SEGDB_CHECK(page_size > 0);
}

namespace {

constexpr size_t kScratchAlign = 4096;

// One engine op covering `count` consecutive device pages, the primaries
// [begin, begin + count) of the sorted plan. Every run transfers through
// an aligned scratch buffer — O_DIRECT demands 4 KiB-aligned transfer
// buffers and the callers' Page storage gives no such guarantee, so the
// bounce is unconditional (one memcpy per page, noise next to a device
// transfer). The scratch exists only while the op is in flight.
struct Run {
  size_t begin = 0;
  uint32_t count = 0;
  size_t scratch_bytes = 0;
  std::unique_ptr<uint8_t[], decltype(&std::free)> scratch{nullptr,
                                                           &std::free};
  IoOp op;
};

}  // namespace

Status IoScheduler::ReadPages(std::span<PageReadRequest> requests) {
  ++stats_.batches;
  stats_.pages += requests.size();
  stats_.max_batch_pages =
      std::max<uint64_t>(stats_.max_batch_pages, requests.size());
  std::vector<Transfer> transfers;
  transfers.reserve(requests.size());
  for (PageReadRequest& r : requests) {
    transfers.push_back(Transfer{r.id, r.dst, nullptr, &r.status});
  }
  return Execute(IoOp::Kind::kRead, transfers);
}

Status IoScheduler::WritePages(std::span<PageWriteRequest> requests) {
  ++stats_.write_batches;
  stats_.write_pages += requests.size();
  std::vector<Transfer> transfers;
  transfers.reserve(requests.size());
  for (PageWriteRequest& r : requests) {
    transfers.push_back(Transfer{r.id, nullptr, r.src, &r.status});
  }
  return Execute(IoOp::Kind::kWrite, transfers);
}

Status IoScheduler::Execute(IoOp::Kind kind,
                            std::vector<Transfer>& transfers) {
  if (transfers.empty()) return Status::OK();
  const bool read = kind == IoOp::Kind::kRead;

  // Sort by id, keeping request order among equal ids. Each id is
  // transferred once, by its primary: a read's first requester (the rest
  // get copies), a write's last (the bytes a loop in request order would
  // leave; the rest get its status).
  std::vector<Transfer*> order;
  order.reserve(transfers.size());
  for (Transfer& t : transfers) order.push_back(&t);
  std::stable_sort(order.begin(), order.end(),
                   [](const Transfer* a, const Transfer* b) {
                     return a->id < b->id;
                   });
  std::vector<Transfer*> primaries;
  std::vector<std::pair<Transfer*, Transfer*>> duplicates;
  primaries.reserve(order.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && order[j]->id == order[i]->id) ++j;
    Transfer* primary = read ? order[i] : order[j - 1];
    primaries.push_back(primary);
    for (size_t k = i; k < j; ++k) {
      if (order[k] != primary) duplicates.emplace_back(order[k], primary);
    }
    i = j;
  }
  if (read) stats_.dedup_skips += duplicates.size();
  // Until its op completes, a page has not been transferred: an engine
  // failure that ends the batch early must not leave it looking done.
  for (Transfer* t : primaries) {
    *t->status = Status::IoError("transfer did not complete");
  }

  // Merge runs of adjacent page ids into multi-page transfers.
  std::vector<Run> runs;
  runs.reserve(primaries.size());
  for (size_t i = 0; i < primaries.size();) {
    size_t j = i + 1;
    while (j < primaries.size() && j - i < max_merge_pages_ &&
           primaries[j]->id == primaries[j - 1]->id + 1) {
      ++j;
    }
    Run run;
    run.begin = i;
    run.count = static_cast<uint32_t>(j - i);
    run.op.kind = kind;
    run.op.offset = data_offset_ + uint64_t{primaries[i]->id} * page_size_;
    run.op.length = run.count * page_size_;
    if (run.count > 1) {
      (read ? stats_.merged_pages : stats_.write_merged_pages) += run.count;
      if (read) {
        stats_.max_merged_run =
            std::max<uint64_t>(stats_.max_merged_run, run.count);
      }
    }
    runs.push_back(std::move(run));
    i = j;
  }

  // Drive the engine in waves bounded by its queue depth. A run gets its
  // scratch (a write copies its pages in) when it is submitted and gives it
  // back when it completes (a read copies its pages out).
  std::unordered_map<const IoOp*, Run*> by_op;
  by_op.reserve(runs.size());
  for (Run& run : runs) by_op.emplace(&run.op, &run);
  uint64_t scratch_held = 0;
  const auto release = [&scratch_held](Run& run) {
    scratch_held -= run.scratch_bytes;
    run.scratch.reset();
    run.scratch_bytes = 0;
  };
  std::vector<IoOp*> wave;
  std::vector<IoOp*> completed;
  size_t next = 0;
  size_t finished = 0;
  Status submit_error;
  while (finished < runs.size()) {
    uint32_t room = engine_->queue_depth() - engine_->inflight();
    if (submit_error.ok() && room > 0 && next < runs.size()) {
      wave.clear();
      size_t take = std::min<size_t>(room, runs.size() - next);
      for (size_t k = 0; k < take; ++k) {
        Run& run = runs[next + k];
        // aligned_alloc wants size % align == 0.
        run.scratch_bytes = (size_t{run.op.length} + kScratchAlign - 1) /
                            kScratchAlign * kScratchAlign;
        run.scratch.reset(static_cast<uint8_t*>(
            std::aligned_alloc(kScratchAlign, run.scratch_bytes)));
        SEGDB_CHECK(run.scratch != nullptr) << "scheduler scratch allocation";
        scratch_held += run.scratch_bytes;
        run.op.buf = run.scratch.get();
        if (!read) {
          for (uint32_t p = 0; p < run.count; ++p) {
            std::memcpy(run.op.buf + size_t{p} * page_size_,
                        primaries[run.begin + p]->src, page_size_);
          }
        }
        wave.push_back(&run.op);
      }
      stats_.max_scratch_bytes =
          std::max<uint64_t>(stats_.max_scratch_bytes, scratch_held);
      Status s = engine_->Start(wave);
      if (s.ok()) {
        next += take;
        (read ? stats_.submissions : stats_.write_submissions) += take;
        if (read) {
          stats_.max_inflight =
              std::max<uint64_t>(stats_.max_inflight, engine_->inflight());
        }
      } else {
        // Submission-level failure: fail every unsubmitted run and stop
        // submitting, but still drain what is already in flight.
        submit_error = s;
        for (size_t k = next; k < runs.size(); ++k) {
          for (uint32_t p = 0; p < runs[k].count; ++p) {
            *primaries[runs[k].begin + p]->status = s;
          }
          ++finished;
        }
        next = runs.size();
        continue;
      }
    }
    if (engine_->inflight() == 0) {
      if (next >= runs.size()) break;
      continue;
    }
    completed.clear();
    SEGDB_RETURN_IF_ERROR(engine_->WaitOne(&completed));
    for (IoOp* op : completed) {
      Run* run = by_op.at(op);
      for (uint32_t p = 0; p < run->count; ++p) {
        Transfer* t = primaries[run->begin + p];
        *t->status = op->status;
        if (read && op->status.ok()) {
          std::memcpy(t->dst, run->scratch.get() + size_t{p} * page_size_,
                      page_size_);
        }
      }
      release(*run);
      ++finished;
    }
  }

  for (auto& [dup, primary] : duplicates) {
    *dup->status = *primary->status;
    if (read && primary->status->ok()) {
      std::memcpy(dup->dst, primary->dst, page_size_);
    }
  }
  return submit_error;
}

}  // namespace segdb::io
