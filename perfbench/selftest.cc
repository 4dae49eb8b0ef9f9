#include "selftest.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/oracle.h"
#include "core/two_level_interval_index.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "trace.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = segdb::core;
namespace geom = segdb::geom;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "[%s] %s\n", ok ? " ok " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// root [0,100] has children a [10,40] and b [50,70]; a has child c [15,25].
void TestSelfTime() {
  std::vector<Span> spans(4);
  spans[0] = {0, 100, kNoParent, 1, SpanKind::kServe};
  spans[1] = {10, 40, 0, 1, SpanKind::kQuery};
  spans[2] = {15, 25, 1, 1, SpanKind::kReadPage};
  spans[3] = {50, 70, 0, 1, SpanKind::kQuery};
  const std::vector<uint64_t> self = SelfTimes(spans);
  Expect(self == std::vector<uint64_t>{50, 20, 10, 20},
         "self time = duration minus direct children");
  Expect(Percentile({5, 1, 4, 2, 3}, 50) == 3 &&
             Percentile({5, 1, 4, 2, 3}, 99) == 5,
         "nearest-rank percentiles");
}

// Answers like its inner index but drops one segment from every
// non-empty answer: a planted wrong answer.
class DropOneIndex final : public core::SegmentIndex {
 public:
  explicit DropOneIndex(const core::SegmentIndex* inner) : inner_(inner) {}
  segdb::Status BulkLoad(std::span<const geom::Segment>) override {
    return segdb::Status::Unimplemented("read-only");
  }
  segdb::Status Insert(const geom::Segment&) override {
    return segdb::Status::Unimplemented("read-only");
  }
  segdb::Status Query(const core::VerticalSegmentQuery& query,
                      std::vector<geom::Segment>* out) const override {
    const size_t before = out->size();
    SEGDB_RETURN_IF_ERROR(inner_->Query(query, out));
    if (out->size() > before) out->pop_back();
    return segdb::Status::OK();
  }
  uint64_t size() const override { return inner_->size(); }
  uint64_t page_count() const override { return inner_->page_count(); }
  std::string name() const override { return "drop-one"; }

 private:
  const core::SegmentIndex* inner_;
};

void TestGateCatchesWrongAnswer() {
  segdb::Rng rng(7);
  const std::vector<geom::Segment> segs =
      segdb::workload::GenMapLayer(rng, 4000, int64_t{1} << 20);
  segdb::io::SimDiskManager disk(4096);
  segdb::io::BufferPool pool(&disk, 256, segdb::io::BufferPoolOptions{});
  core::TwoLevelIntervalIndex index(&pool);
  segdb::baseline::OracleIndex oracle;
  Expect(index.BulkLoad(segs).ok() && oracle.BulkLoad(segs).ok(),
         "gate fixture builds");
  const segdb::workload::BoundingBox box =
      segdb::workload::ComputeBoundingBox(segs);
  std::vector<core::VerticalSegmentQuery> queries;
  for (const auto& q : segdb::workload::GenVsQueries(rng, 64, box, 0.05)) {
    queries.push_back(core::VerticalSegmentQuery::Segment(q.x0, q.ylo, q.yhi));
  }
  for (const auto& q : segdb::workload::GenLineQueries(rng, 8, box)) {
    queries.push_back(core::VerticalSegmentQuery::Line(q.x0));
  }
  Expect(CountMismatches(index, oracle, queries) == 0,
         "gate passes a correct index");
  const DropOneIndex wrong(&index);
  Expect(CountMismatches(wrong, oracle, queries) >= 8,
         "gate catches a planted wrong answer");
}

RunConfig SmallConfig(const std::string& workload,
                      const std::string& data_dir) {
  RunConfig c;
  c.workload = workload;
  c.seed = 42;
  c.seconds = 0.2;
  c.data_dir = data_dir;
  c.n = 8192;
  c.clients = 2;
  c.warm_frames = 2048;
  c.cold_frames = 48;
  c.setup_reps = 1;
  c.queries_per_client = 256;
  c.cold_sample = 48;
  c.gate_sample = 48;
  c.cold_b_warm_queries = 64;
  c.durable_prefix_ops = 200;
  return c;
}

void TestCountsRepeat(const std::string& data_dir) {
  for (const char* workload : {"warm_a", "cold_b", "durable_b"}) {
    const RunResult first = RunWorkload(SmallConfig(workload, data_dir));
    const RunResult second = RunWorkload(SmallConfig(workload, data_dir));
    const std::string name = workload;
    Expect(first.error.empty() && second.error.empty(),
           name + " small run completes " + first.error + second.error);
    Expect(first.correct && second.correct, name + " small run is correct");
    bool same = first.exact_counts.size() == second.exact_counts.size() &&
                !first.exact_counts.empty();
    for (size_t i = 0; same && i < first.exact_counts.size(); ++i) {
      if (first.exact_counts[i].value != second.exact_counts[i].value) {
        std::fprintf(stderr, "  %s: %.17g vs %.17g\n",
                     first.exact_counts[i].name.c_str(),
                     first.exact_counts[i].value,
                     second.exact_counts[i].value);
        same = false;
      }
    }
    Expect(same, name + " counts repeat exactly for a fixed seed");
  }
}

// Runs last: tracing, once enabled, stays on for the process.
void TestTracedRun(const std::string& data_dir) {
  for (const char* workload : {"cold_b", "durable_b"}) {
    RunConfig c = SmallConfig(workload, data_dir);
    c.trace = true;
    const RunResult r = RunWorkload(c);
    bool spans_seen = false;
    for (const Metric& m : r.per_layer) {
      if (m.name == "core.index.query_self_us" && m.value > 0) {
        spans_seen = true;
      }
    }
    Expect(r.error.empty() && r.correct && spans_seen,
           std::string(workload) + " traced run reports per-layer spans");
  }
}

}  // namespace

int RunSelfTest(const std::string& data_dir) {
  TestSelfTime();
  TestGateCatchesWrongAnswer();
  TestCountsRepeat(data_dir);
  TestTracedRun(data_dir);
  std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
