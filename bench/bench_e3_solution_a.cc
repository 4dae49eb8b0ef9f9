// E3 — Theorem 1: Solution A (binary first level + PST/C second level)
// stores N NCT segments in O(n) blocks and answers a VS query in
// O(log2 n (log_B n + IL*(B)) + t) I/Os.
// Expectation: "pages" tracks n linearly; "avg_ios" grows ~ log2(n) *
// log_B(n) + t/B (compare the theory column).
//
// The parallel section measures warm-pool batch-query throughput through
// core::QueryEngine at 1/2/4/8 workers — the read path (sharded buffer
// pool) is the only shared state, so queries/sec should track available
// cores. With --json the cold and parallel series are also written as
// machine-readable records (tools/bench.sh -> BENCH_e3.json).

#include <cmath>

#include "bench/bench_common.h"
#include "core/two_level_binary_index.h"
#include "util/math.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb {
namespace {

void RunCold(bench::JsonWriter* json) {
  bench::PrintHeader("E3 Solution A (Theorem 1)",
                     "space O(n); VS query O(log2 n (log_B n + IL*(B)) + t)");
  TablePrinter table({"N", "pages", "n=N/B", "pages/n", "avg_ios", "avg_out",
                      "theory_log2n*logBn"});
  Rng rng(1003);
  for (uint64_t n :
       {uint64_t{1} << 13, uint64_t{1} << 15, uint64_t{1} << 17,
        uint64_t{262144}}) {
    const uint64_t N = bench::Scaled(n);
    io::SimDiskManager disk(4096);
    io::BufferPool pool(&disk, 1 << 15);
    auto segs = workload::GenMapLayer(rng, N, 1 << 22);
    core::TwoLevelBinaryIndex index(&pool);
    bench::Check(index.BulkLoad(segs), "build");

    Rng qrng(11);
    auto box = workload::ComputeBoundingBox(segs);
    auto queries = workload::GenVsQueries(qrng, 30, box, 0.01);
    const auto cost = bench::MeasureQueries(&pool, index, queries);

    const double B = 4096.0 / sizeof(geom::Segment);
    const double blocks = static_cast<double>(N) / B;
    const double theory =
        std::log2(blocks) * (std::log(blocks) / std::log(B) + 1);
    table.AddRow({TablePrinter::Fmt(N), TablePrinter::Fmt(index.page_count()),
                  TablePrinter::Fmt(blocks, 0),
                  TablePrinter::Fmt(index.page_count() / blocks),
                  TablePrinter::Fmt(cost.avg_ios),
                  TablePrinter::Fmt(cost.avg_output, 1),
                  TablePrinter::Fmt(theory, 1)});
    bench::BenchRecord record;
    record.experiment = "E3-cold";
    record.structure = index.name();
    record.n = N;
    record.page_size = 4096;
    record.num_queries = queries.size();
    record.avg_ios = cost.avg_ios;
    record.max_ios = cost.max_ios;
    record.compression_ratio = bench::CodecCompressionRatio();
    json->Add(std::move(record));
  }
  bench::PrintTable(table);
}

void RunParallel(bench::JsonWriter* json, bool scaling) {
  bench::PrintHeader("E3p Solution A parallel batch queries",
                     "warm pool; QueryEngine fan-out, ordering preserved");
  const uint64_t N = bench::Scaled(262144);
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 1 << 15);
  Rng rng(1003);
  auto segs = workload::GenMapLayer(rng, N, 1 << 22);
  core::TwoLevelBinaryIndex index(&pool);
  bench::Check(index.BulkLoad(segs), "build");

  Rng qrng(17);
  auto box = workload::ComputeBoundingBox(segs);
  auto queries = workload::GenVsQueries(qrng, 512, box, 0.01);
  TablePrinter table({"threads", "queries/s", "batch_ms", "speedup"});
  double base_qps = 0;
  for (uint32_t threads : bench::ParallelThreadCounts(scaling)) {
    core::QueryEngine engine({.threads = threads});
    const auto t = bench::MeasureBatchThroughput(&engine, index, queries, 8);
    if (threads == 1) base_qps = t.queries_per_sec;
    table.AddRow({TablePrinter::Fmt(uint64_t{threads}),
                  TablePrinter::Fmt(t.queries_per_sec, 0),
                  TablePrinter::Fmt(t.wall_ns / 8 * 1e-6),
                  TablePrinter::Fmt(
                      base_qps > 0 ? t.queries_per_sec / base_qps : 0.0)});
    bench::BenchRecord record;
    record.experiment = "E3-parallel";
    record.structure = index.name();
    record.n = N;
    record.page_size = 4096;
    record.num_queries = queries.size() * 8;
    record.wall_ns = t.wall_ns;
    record.queries_per_sec = t.queries_per_sec;
    record.threads = threads;
    record.compression_ratio = bench::CodecCompressionRatio();
    json->Add(std::move(record));
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace segdb

int main(int argc, char** argv) {
  segdb::bench::JsonWriter json(argc, argv);
  // --scaling (tools/bench.sh --scaling): parallel-throughput sweep only,
  // with the thread counts extended past the hardware concurrency.
  const bool scaling = segdb::bench::HasFlag(argc, argv, "--scaling");
  if (!scaling) segdb::RunCold(&json);
  segdb::RunParallel(&json, scaling);
  return 0;
}
