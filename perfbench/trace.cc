#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

// A thread stops recording past this many spans (~128 MiB of spans per
// thread); the drop count is reported with the trace.
constexpr size_t kMaxSpansPerThread = size_t{1} << 22;

struct ThreadBuffer {
  ThreadSpans data;
  std::vector<uint32_t> open;  // stack of open span handles
  uint32_t request = 0;
};

bool g_tracing = false;
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->data.spans.reserve(size_t{1} << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EnableTracing() { g_tracing = true; }
bool TracingEnabled() { return g_tracing; }

void SetCurrentRequest(uint32_t request) {
  if (g_tracing) LocalBuffer().request = request;
}

uint32_t BeginSpan(SpanKind kind) {
  ThreadBuffer& b = LocalBuffer();
  if (b.data.spans.size() >= kMaxSpansPerThread) {
    ++b.data.dropped;
    return kNoParent;
  }
  Span span;
  span.kind = kind;
  span.request = b.request;
  span.parent = b.open.empty() ? kNoParent : b.open.back();
  const uint32_t handle = static_cast<uint32_t>(b.data.spans.size());
  b.open.push_back(handle);
  span.start_ns = NowNs();
  b.data.spans.push_back(span);
  return handle;
}

void EndSpan(uint32_t handle) {
  const uint64_t now = NowNs();
  ThreadBuffer& b = LocalBuffer();
  b.data.spans[handle].end_ns = now;
  // Spans close in LIFO order on one thread (they are scoped).
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

std::vector<ThreadSpans> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<ThreadSpans> out;
  out.reserve(g_registry.size());
  for (auto& buffer : g_registry) {
    out.push_back(std::move(buffer->data));
    buffer->data = ThreadSpans{};
    buffer->open.clear();
  }
  return out;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<uint64_t> child_total(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      child_total[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration > child_total[i] ? duration - child_total[i] : 0;
  }
  return self;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
