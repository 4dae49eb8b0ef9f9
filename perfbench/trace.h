// Bench-side tracing for the SegDB benchmark.
//
// Spans are recorded by the benchmark's own code around calls into the
// program's layers (see decorators.h); nothing inside the library is
// instrumented. Each span carries its kind, start and end on the steady
// clock, the innermost span open on the same thread when it began (its
// parent) and the request it belongs to. Spans stay in per-thread buffers
// and are collected once, after every client thread has been joined.
//
// Tracing is off unless EnableTracing() ran before any thread started;
// with it off, ScopedSpan is one predictable branch and records nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kServe,        // QueryEngine::Serve, from call to return
  kMutation,     // DurableEngine::Insert / Erase, call to acknowledgment
  kBulkLoad,     // SegmentIndex::BulkLoad
  kQuery,        // SegmentIndex::Query
  kIndexWrite,   // SegmentIndex::Insert / Erase (the inner index)
  kReadPage,     // DiskManager::ReadPage
  kPeekPage,     // DiskManager::PeekPage
  kPeekBatch,    // DiskManager::PeekPagesBatch (read-ahead fills)
  kWritePage,    // DiskManager::WritePage / WritePagePrefix
  kSync,         // DiskManager::Sync
  kAllocFree,    // DiskManager::AllocatePage / FreePage
};

inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;  // index into the same thread's span list
  uint32_t request = 0;
  SpanKind kind = SpanKind::kServe;
};

// Every span one thread recorded, in start order; parents are indices
// into the same list.
struct ThreadSpans {
  std::vector<Span> spans;
  uint64_t dropped = 0;  // spans past the per-thread cap
};

uint64_t NowNs();

void EnableTracing();
bool TracingEnabled();

// The request id stamped on spans the calling thread begins next.
void SetCurrentRequest(uint32_t request);

// Opens a span on the calling thread; returns its handle for EndSpan.
uint32_t BeginSpan(SpanKind kind);
void EndSpan(uint32_t handle);

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind)
      : handle_(TracingEnabled() ? BeginSpan(kind) : kNoParent) {}
  ~ScopedSpan() {
    if (handle_ != kNoParent) EndSpan(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t handle_;
};

// Moves every thread's spans out of the recorder. Call only after all
// recording threads have finished.
std::vector<ThreadSpans> CollectSpans();

// Self time of each span: its duration minus the durations of its direct
// children. Children nest strictly inside their parent on one thread, so
// their durations never overlap and the sum is the covered part.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// Nearest-rank percentile (p in [0, 100]) of unsorted samples; sorts a
// copy. Returns 0 for an empty set.
double Percentile(std::vector<double> samples, double p);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
