// E8 — Figure 1's motivation, quantified: VS queries against the paper's
// structures vs the tools practitioners would otherwise use — full scan,
// an STR-packed R-tree, and a stabbing query + client-side filter (the
// line query x = x0 on Solution B, whose first level is the external
// interval tree of the paper's reference [3]).
// Expectation: full scan pays O(n); stab-and-filter pays for the whole
// stabbing output (huge for thin queries over long segments); the R-tree
// sits in between, workload-dependent; Solutions A and B stay
// output-sensitive.

#include <memory>

#include "baseline/full_scan_index.h"
#include "baseline/oracle.h"
#include "baseline/rtree_index.h"
#include <cmath>

#include "bench/bench_common.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "util/random.h"
#include "workload/generators.h"

namespace segdb {
namespace {

void RunWorkload(const char* wl_name, std::vector<geom::Segment> segs) {
  std::printf("-- workload: %s (N=%zu) --\n", wl_name, segs.size());
  TablePrinter table({"index", "pages", "avg_ios", "max_ios", "avg_out"});
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 1 << 15);

  Rng qrng(31);
  auto box = workload::ComputeBoundingBox(segs);
  auto queries = workload::GenVsQueries(qrng, 25, box, 0.005);

  auto run = [&](core::SegmentIndex& index) {
    bench::Check(index.BulkLoad(segs), "build");
    const auto cost = bench::MeasureQueries(&pool, index, queries);
    table.AddRow({index.name(), TablePrinter::Fmt(index.page_count()),
                  TablePrinter::Fmt(cost.avg_ios),
                  TablePrinter::Fmt(cost.max_ios, 0),
                  TablePrinter::Fmt(cost.avg_output, 1)});
  };

  {
    baseline::FullScanIndex scan(&pool);
    run(scan);
  }
  {
    baseline::RTreeIndex rtree(&pool);
    run(rtree);
  }
  {
    baseline::StabFilterIndex stab(
        std::make_unique<core::TwoLevelIntervalIndex>(&pool));
    run(stab);
  }
  {
    core::TwoLevelBinaryIndex a(&pool);
    run(a);
  }
  {
    core::TwoLevelIntervalIndex b(&pool);
    run(b);
  }
  bench::PrintTable(table);
}

void Run() {
  bench::PrintHeader("E8 baselines on VS queries (Figure 1 motivation)",
                     "output-sensitive segment indexes vs practical stand-ins");
  Rng rng(1009);
  const uint64_t N = bench::Scaled(uint64_t{1} << 16);
  RunWorkload("map-layer", workload::GenMapLayer(rng, N, 1 << 22));
  RunWorkload("nested-long-spans",
              workload::GenNestedSpans(rng, N, 1 << 20));
  RunWorkload("road-grid",
              workload::GenGridPerturbed(
                  rng, static_cast<uint64_t>(std::sqrt((double)N / 3)),
                  static_cast<uint64_t>(std::sqrt((double)N / 3)), 4096));
}

}  // namespace
}  // namespace segdb

int main() {
  segdb::Run();
  return 0;
}
