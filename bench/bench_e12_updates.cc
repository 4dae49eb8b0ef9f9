// E12 (extension) — full update workloads: the paper's Theorem 1 claims
// deletions too; segdb implements them across the stack (lazy removal +
// amortized repacking; G buffers inserts and tombstones in one delta in
// both layouts and rebuilds itself). This experiment measures amortized
// deletion cost and steady-state mixed churn (insert+delete at constant
// size), and verifies space comes back. The last three columns show what
// the updates cost later queries: cold I/O per query after the churn,
// after a fresh BulkLoad of the surviving set, and their ratio (near 1:
// the updates left queries as cheap as a fresh build).

#include "baseline/oracle.h"
#include "bench/bench_common.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb {
namespace {

template <typename Index>
void MeasureChurn(const char* label, TablePrinter* table, uint64_t N) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 256);
  Rng rng(1015);
  auto segs = workload::GenMapLayer(rng, N, 1 << 22);
  Index index(&pool);
  bench::Check(index.BulkLoad(segs), "bulk");
  const uint64_t pages_full = index.page_count();

  // Phase 1: delete half, one by one.
  pool.ResetStats();
  for (size_t i = 0; i < segs.size(); i += 2) {
    bench::Check(index.Erase(segs[i]), "erase");
  }
  const double deletes = static_cast<double>((segs.size() + 1) / 2);
  const double del_ios =
      static_cast<double>(pool.stats().misses + pool.stats().writebacks) /
      deletes;
  const uint64_t pages_half = index.page_count();

  // Phase 2: steady-state churn — re-insert one, delete one.
  pool.ResetStats();
  uint64_t churn_ops = 0;
  for (size_t i = 0; i < segs.size() / 4; ++i) {
    bench::Check(index.Insert(segs[2 * i]), "churn insert");
    bench::Check(index.Erase(segs[2 * i]), "churn erase");
    churn_ops += 2;
  }
  const double churn_ios =
      static_cast<double>(pool.stats().misses + pool.stats().writebacks) /
      static_cast<double>(churn_ops);

  // The churn ends with every even-indexed segment erased.
  std::vector<geom::Segment> survivors;
  for (size_t i = 1; i < segs.size(); i += 2) survivors.push_back(segs[i]);
  const bench::UpdatedColdCost cold = bench::MeasureUpdatedCold(
      &pool, index, survivors,
      bench::UpdatedColdSample(workload::ComputeBoundingBox(segs)));

  table->AddRow({label, TablePrinter::Fmt(N), TablePrinter::Fmt(del_ios),
                 TablePrinter::Fmt(churn_ios),
                 TablePrinter::Fmt(pages_full),
                 TablePrinter::Fmt(pages_half),
                 TablePrinter::Fmt(cold.after_writes),
                 TablePrinter::Fmt(cold.fresh),
                 TablePrinter::Fmt(cold.after_writes / cold.fresh)});
}

void Run() {
  bench::PrintHeader(
      "E12 deletions and mixed churn (update extension of Theorem 1)",
      "amortized I/Os per delete / per churn op; space after deleting half");
  TablePrinter table({"index", "N", "del_ios", "churn_ios", "pages_full",
                      "pages_half", "cold_ios", "fresh_cold_ios",
                      "cold_ratio"});
  for (uint64_t n : {uint64_t{1} << 13, uint64_t{1} << 15}) {
    const uint64_t N = bench::Scaled(n);
    MeasureChurn<core::TwoLevelBinaryIndex>("A(binary)", &table, N);
    MeasureChurn<core::TwoLevelIntervalIndex>("B(interval)", &table, N);
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace segdb

int main() {
  segdb::Run();
  return 0;
}
