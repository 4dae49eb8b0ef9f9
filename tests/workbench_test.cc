// End-to-end differential workbench: a long random sequence of bulk
// loads, insertions, deletions and the three query shapes, executed in
// lock-step against every SegmentIndex implementation and the in-memory
// oracle. Any divergence of answers, sizes, or error codes fails the run.
// This is the integration net under all module-level tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baseline/full_scan_index.h"
#include "baseline/oracle.h"
#include "baseline/rtree_index.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/predicates.h"
#include "geom/sweep.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb {
namespace {

using core::SegmentIndex;
using core::VerticalSegmentQuery;
using geom::Segment;

std::vector<uint64_t> Ids(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

class WorkbenchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkbenchTest, LockStepOperations) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 4096);
  Rng rng(GetParam());

  // Participants. The R-tree has no deletion path; it skips erase steps.
  baseline::OracleIndex oracle;
  core::TwoLevelBinaryIndex solution_a(&pool);
  core::TwoLevelIntervalIndex solution_b(&pool);
  baseline::FullScanIndex scan(&pool);
  std::vector<SegmentIndex*> all = {&oracle, &solution_a, &solution_b, &scan};

  // A pool of NCT segments to draw from; "alive" tracks what is stored.
  auto universe = workload::GenMapLayer(rng, 1200, 150000);
  ASSERT_FALSE(geom::FindProperCrossing(universe).has_value());
  std::vector<size_t> dead_indices(universe.size());
  for (size_t i = 0; i < universe.size(); ++i) dead_indices[i] = i;
  std::vector<size_t> alive_indices;

  // Start with a bulk load of a random half.
  {
    std::vector<Segment> initial;
    for (size_t r = 0; r < universe.size() / 2; ++r) {
      const size_t pick = rng.Uniform(dead_indices.size());
      alive_indices.push_back(dead_indices[pick]);
      dead_indices.erase(dead_indices.begin() + pick);
      initial.push_back(universe[alive_indices.back()]);
    }
    for (SegmentIndex* index : all) {
      ASSERT_TRUE(index->BulkLoad(initial).ok()) << index->name();
    }
  }

  auto box = workload::ComputeBoundingBox(universe);
  for (int step = 0; step < 500; ++step) {
    const uint32_t op = static_cast<uint32_t>(rng.Uniform(10));
    if (op < 3 && !dead_indices.empty()) {  // insert
      const size_t pick = rng.Uniform(dead_indices.size());
      const size_t idx = dead_indices[pick];
      dead_indices.erase(dead_indices.begin() + pick);
      alive_indices.push_back(idx);
      for (SegmentIndex* index : all) {
        ASSERT_TRUE(index->Insert(universe[idx]).ok())
            << index->name() << " step " << step;
      }
    } else if (op < 5 && !alive_indices.empty()) {  // erase
      const size_t pick = rng.Uniform(alive_indices.size());
      const size_t idx = alive_indices[pick];
      alive_indices.erase(alive_indices.begin() + pick);
      dead_indices.push_back(idx);
      for (SegmentIndex* index : all) {
        ASSERT_TRUE(index->Erase(universe[idx]).ok())
            << index->name() << " step " << step;
      }
    } else if (op == 5 && !dead_indices.empty()) {  // erase of absent
      const size_t idx = dead_indices[rng.Uniform(dead_indices.size())];
      for (SegmentIndex* index : all) {
        EXPECT_EQ(index->Erase(universe[idx]).code(), StatusCode::kNotFound)
            << index->name() << " step " << step;
      }
    } else {  // query (segment / ray / line mix)
      VerticalSegmentQuery q;
      const uint32_t shape = static_cast<uint32_t>(rng.Uniform(3));
      const int64_t x0 = rng.UniformInt(box.xmin - 3, box.xmax + 3);
      if (shape == 0) {
        const int64_t ylo = rng.UniformInt(box.ymin, box.ymax);
        q = VerticalSegmentQuery::Segment(
            x0, ylo, ylo + rng.UniformInt(0, (box.ymax - box.ymin) / 5));
      } else if (shape == 1) {
        q = VerticalSegmentQuery::UpRay(x0, rng.UniformInt(box.ymin, box.ymax));
      } else {
        q = VerticalSegmentQuery::Line(x0);
      }
      std::vector<Segment> want;
      ASSERT_TRUE(oracle.Query(q, &want).ok());
      const auto want_ids = Ids(want);
      for (size_t i = 1; i < all.size(); ++i) {
        std::vector<Segment> got;
        ASSERT_TRUE(all[i]->Query(q, &got).ok()) << all[i]->name();
        EXPECT_EQ(Ids(got), want_ids)
            << all[i]->name() << " step " << step << " x0=" << q.x0 << " y=["
            << q.ylo << "," << q.yhi << "]";
      }
    }
    // Size agreement at every step.
    for (SegmentIndex* index : all) {
      EXPECT_EQ(index->size(), alive_indices.size())
          << index->name() << " step " << step;
    }
  }

  // Final structural checks.
  EXPECT_TRUE(solution_a.CheckInvariants().ok());
  EXPECT_TRUE(solution_b.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkbenchTest,
                         ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace segdb
