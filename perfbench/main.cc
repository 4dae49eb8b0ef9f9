// segbench: one run of one SegDB benchmark workload.
//
//   segbench --workload warm_a|cold_b|durable_b --seed N --seconds S
//            --trace 0|1 [--data-dir DIR] [--git-sha SHA]
//            [--source-digest HEX]
//   segbench --selftest [--data-dir DIR]
//
// Prints a run stamp line, then, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status: 0 when the correctness gate passes, 1 when it fails, 2 when
// the run could not complete (no result line then).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "io/async_io_engine.h"
#include "selftest.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: segbench --workload warm_a|cold_b|durable_b --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n"
               "       segbench --selftest [--data-dir DIR]\n");
  return 2;
}

void PrintResult(const perfbench::RunResult& r,
                 const std::vector<perfbench::Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha = "none";
  std::string source_digest = "none";
  bool selftest = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--data-dir") {
      config.data_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return Usage();
    }
  }
  // Resolve the I/O engine once, here, so SEGDB_IO_ENGINE in the
  // environment cannot change it silently; the stamp records it.
  config.io_engine = segdb::io::IoUringSupported()
                         ? segdb::io::IoEngineKind::kIoUring
                         : segdb::io::IoEngineKind::kThreads;
  if (selftest) return perfbench::RunSelfTest(config.data_dir);
  if (!have_workload || !perfbench::IsWorkload(config.workload) ||
      !(config.seconds > 0)) {
    return Usage();
  }

  const perfbench::RunResult r = perfbench::RunWorkload(config);
  if (!r.error.empty()) {
    std::fprintf(stderr, "segbench: %s\n", r.error.c_str());
    return 2;
  }
  std::printf(
      "{\"stamp\": {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"run\": %s}}\n",
      Escape(git_sha).c_str(), Escape(source_digest).c_str(),
      PERFBENCH_BUILD_TYPE, Escape(__VERSION__).c_str(), r.stamp_json.c_str());
  PrintResult(r, config.trace ? r.per_layer : r.end_to_end);
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
