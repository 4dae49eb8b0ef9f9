// E7 — Theorem 1(iii) / Theorem 2(iii): semi-dynamic insertion costs
// O(log2 n + log_B^2 n / B) (A) and O(log_B n + log2 B + log_B^2 n / B)
// (B) amortized I/Os, realized here by partial rebuilding.
// Expectation: amortized I/Os per insert grow logarithmically in N and
// stay far below the rebuild-from-scratch cost; queries remain correct
// throughout (checked against the oracle sample).
// The last three columns show what the inserts cost later queries: cold
// I/O per query after the inserts, after a fresh BulkLoad of the same
// set, and their ratio. A ratio near 1 means the inserts left queries as
// cheap as a fresh build.

#include "bench/bench_common.h"
#include "baseline/oracle.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb {
namespace {

template <typename Index>
void MeasureInserts(const char* label, TablePrinter* table, uint64_t N) {
  io::SimDiskManager disk(4096);
  // A small pool (512 frames = 2 MiB): with realistic cache pressure the
  // physical miss/writeback counts approximate the model's I/Os; the
  // page-touch column is the cache-free upper bound.
  io::BufferPool pool(&disk, 512);
  Rng rng(1008);
  auto segs = workload::GenMapLayer(rng, N, 1 << 22);
  Index index(&pool);
  // Bulk-load half, measure amortized insertion of the rest.
  const size_t half = segs.size() / 2;
  bench::Check(index.BulkLoad(std::vector<geom::Segment>(
                   segs.begin(), segs.begin() + half)),
               "bulk");
  bench::Check(pool.FlushAll(), "flush");
  pool.ResetStats();
  disk.ResetStats();
  for (size_t i = half; i < segs.size(); ++i) {
    bench::Check(index.Insert(segs[i]), "insert");
  }
  const double inserts = static_cast<double>(segs.size() - half);
  // Amortized I/O = logical page activity per insert (misses + writebacks
  // reflect real transfers; hits are in-buffer work).
  const double ios =
      static_cast<double>(pool.stats().misses + pool.stats().writebacks) /
      inserts;
  const double touches = static_cast<double>(pool.stats().fetches) / inserts;

  // Validate against the oracle on a sample.
  baseline::OracleIndex oracle;
  bench::Check(oracle.BulkLoad(segs), "oracle");
  Rng qrng(29);
  auto box = workload::ComputeBoundingBox(segs);
  auto queries = workload::GenVsQueries(qrng, 10, box, 0.01);
  for (const auto& q : queries) {
    std::vector<geom::Segment> got, want;
    bench::Check(index.Query({q.x0, q.ylo, q.yhi}, &got), "query");
    bench::Check(oracle.Query({q.x0, q.ylo, q.yhi}, &want), "oracle q");
    if (got.size() != want.size()) {
      std::fprintf(stderr, "FATAL: insert correctness drift (%zu vs %zu)\n",
                   got.size(), want.size());
      std::abort();
    }
  }
  const bench::UpdatedColdCost cold = bench::MeasureUpdatedCold(
      &pool, index, segs, bench::UpdatedColdSample(box));
  table->AddRow({label, TablePrinter::Fmt(N), TablePrinter::Fmt(ios),
                 TablePrinter::Fmt(touches),
                 TablePrinter::Fmt(cold.after_writes),
                 TablePrinter::Fmt(cold.fresh),
                 TablePrinter::Fmt(cold.after_writes / cold.fresh)});
}

void Run() {
  bench::PrintHeader("E7 semi-dynamic insertion (Theorems 1(iii), 2(iii))",
                     "amortized physical I/Os and page touches per insert");
  TablePrinter table({"index", "N", "amortized_ios", "page_touches",
                      "cold_ios", "fresh_cold_ios", "cold_ratio"});
  for (uint64_t n : {uint64_t{1} << 13, uint64_t{1} << 15,
                     uint64_t{1} << 16}) {
    const uint64_t N = bench::Scaled(n);
    MeasureInserts<core::TwoLevelBinaryIndex>("A(binary)", &table, N);
    MeasureInserts<core::TwoLevelIntervalIndex>("B(interval)", &table, N);
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace segdb

int main() {
  segdb::Run();
  return 0;
}
