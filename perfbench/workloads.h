// The SegDB benchmark's workloads: warm_a (the CPU read path), cold_b (the
// device read path) and durable_b (the durable commit path with reads
// beside it). Each run generates its inputs from the seed, sets the
// system up several times, measures one timed window, runs the paper's
// cold protocol over a fixed query sample and checks its answers against
// baseline::OracleIndex. See README.md in this directory for the metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/segment_index.h"
#include "io/async_io_engine.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  // warm_a | cold_b | durable_b
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".";  // where the file-backed workloads live
  segdb::io::IoEngineKind io_engine = segdb::io::IoEngineKind::kThreads;

  // Scale. The defaults are the benchmark's; the self-test shrinks them.
  uint64_t n = 262144;         // segments generated
  uint32_t clients = 0;        // read clients; 0 = hardware threads
  size_t warm_frames = 32768;  // pool that holds the whole index
  size_t cold_frames = 1024;   // cold_b's pool, ~1/10 of its index
  uint32_t setup_reps = 3;     // set-ups per run; setup_s is their median
  uint32_t queries_per_client = 8192;  // each client cycles its own list
  uint32_t cold_sample = 1024;  // queries under the cold protocol
  uint32_t gate_sample = 256;  // workload queries the gate checks
  uint32_t cold_b_warm_queries = 1024;  // cold_b's warm-up before timing
  uint64_t durable_prefix_ops = 1000;   // durable_b's deterministic prefix
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::string error;  // non-empty when the run could not complete
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // measured with tracing off
  std::vector<Metric> per_layer;   // filled by traced runs
  // Counts that must repeat exactly for a fixed seed (self-test).
  std::vector<Metric> exact_counts;
  // Run stamp and sample counts, as one JSON object.
  std::string stamp_json;
};

bool IsWorkload(const std::string& name);

RunResult RunWorkload(const RunConfig& config);

// The correctness gate's comparison: answers every query with both
// indexes and returns how many answers differ as sets of segments. A
// query that fails on either side counts as a mismatch.
uint64_t CountMismatches(
    const segdb::core::SegmentIndex& index,
    const segdb::core::SegmentIndex& oracle,
    std::span<const segdb::core::VerticalSegmentQuery> queries);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
