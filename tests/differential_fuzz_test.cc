// Deterministic differential fuzzing of every SegmentIndex implementation
// against the in-memory oracle, with and without injected disk faults.
// See fuzz_harness.h for the op stream and the fault/retry contract, and
// DESIGN.md Section 13 for the reproducer workflow.
//
// The *Randomized* tests read SEGDB_FUZZ_SEED / SEGDB_FUZZ_OPS from the
// environment (skipped when unset): CI's time-boxed fuzz job sets a fresh
// seed per run and logs it; a failure replays locally with
//   SEGDB_FUZZ_SEED=<S> SEGDB_FUZZ_OPS=<K> ctest -R Randomized

#include "fuzz_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/full_scan_index.h"
#include "baseline/oracle.h"
#include "baseline/rtree_index.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/segment.h"
#include "io/column_codec.h"
#include "util/random.h"

namespace segdb::fuzz {
namespace {

struct Config {
  std::string label;
  IndexFactory factory;
  bool supports_erase = true;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  configs.push_back({"two-level-binary", [](io::BufferPool* pool) {
                       return std::make_unique<core::TwoLevelBinaryIndex>(
                           pool);
                     }});
  configs.push_back({"two-level-interval", [](io::BufferPool* pool) {
                       return std::make_unique<core::TwoLevelIntervalIndex>(
                           pool);
                     }});
  configs.push_back(
      {"sheared-two-level-binary", [](io::BufferPool* pool) {
         return std::make_unique<ShearedAdapter>(
             std::make_unique<core::TwoLevelBinaryIndex>(pool));
       }});
  configs.push_back({"full-scan", [](io::BufferPool* pool) {
                       return std::make_unique<baseline::FullScanIndex>(pool);
                     }});
  // Neither the stab-and-filter wrapper nor the R-tree has a deletion
  // path: erase steps degrade to queries.
  configs.push_back({"stab-filter",
                     [](io::BufferPool* pool) {
                       return std::make_unique<baseline::StabFilterIndex>(
                           std::make_unique<core::TwoLevelIntervalIndex>(
                               pool));
                     },
                     /*supports_erase=*/false});
  configs.push_back({"rtree",
                     [](io::BufferPool* pool) {
                       return std::make_unique<baseline::RTreeIndex>(pool);
                     },
                     /*supports_erase=*/false});
  return configs;
}

class DifferentialFuzzTest : public ::testing::TestWithParam<size_t> {
 protected:
  Config config() const { return AllConfigs()[GetParam()]; }
};

// Reliable device: 10k ops per implementation, zero divergence allowed.
TEST_P(DifferentialFuzzTest, TenThousandOpsNoFaults) {
  const Config cfg = config();
  FuzzOptions options;
  options.seed = 20260805;
  options.ops = 10000;
  options.supports_erase = cfg.supports_erase;
  FuzzStats stats;
  const Status s =
      RunDifferentialFuzz(cfg.label, cfg.factory, options, &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.executed, options.ops);
  EXPECT_EQ(stats.faulted_ops, 0u);
  EXPECT_GT(stats.queries, 0u);
  EXPECT_GT(stats.mutations, 0u);
}

// 1% transient-fault regime: every faulted op must return non-OK, leave
// the structure audit-clean, and succeed when retried over a reliable
// device — and the answers must still match the oracle throughout.
TEST_P(DifferentialFuzzTest, SurvivesOnePercentFaultRegime) {
  const Config cfg = config();
  FuzzOptions options;
  options.seed = 8152026;
  options.ops = 4000;
  options.supports_erase = cfg.supports_erase;
  options.mutation_alloc_fault_rate = 0.01;
  options.query_read_fault_rate = 0.01;
  // A small pool forces cold reads so query-time read faults actually
  // trigger (mutations are insulated by design: they draw alloc faults).
  options.pool_frames = 64;
  FuzzStats stats;
  const Status s =
      RunDifferentialFuzz(cfg.label, cfg.factory, options, &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.executed, options.ops);
  // The regime must actually bite, and every bite must have healed.
  EXPECT_GT(stats.faulted_ops, 0u) << cfg.label;
  EXPECT_EQ(stats.retried_ok, stats.faulted_ops) << cfg.label;
}

INSTANTIATE_TEST_SUITE_P(Indexes, DifferentialFuzzTest,
                         ::testing::Range<size_t>(0, AllConfigs().size()),
                         [](const auto& info) {
                           std::string name = AllConfigs()[info.param].label;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// The harness itself must be replayable: identical (seed, ops) must
// produce identical op streams, fault placement, and statistics.
TEST(FuzzHarnessTest, RunsAreDeterministic) {
  FuzzOptions options;
  options.seed = 42;
  options.ops = 1500;
  options.mutation_alloc_fault_rate = 0.02;
  options.query_read_fault_rate = 0.02;
  options.pool_frames = 64;
  const IndexFactory factory = [](io::BufferPool* pool) {
    return std::make_unique<core::TwoLevelIntervalIndex>(pool);
  };
  FuzzStats a, b;
  ASSERT_TRUE(RunDifferentialFuzz("replay-a", factory, options, &a).ok());
  ASSERT_TRUE(RunDifferentialFuzz("replay-b", factory, options, &b).ok());
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.mutations, b.mutations);
  EXPECT_EQ(a.faulted_ops, b.faulted_ops);
  EXPECT_EQ(a.retried_ok, b.retried_ok);
  EXPECT_EQ(a.audits, b.audits);
}

// The fuzz stream must run UNCHANGED when the device under the fault
// wrapper is the real-file backend: faults are decided above the engine,
// so op-for-op fault placement, the retry contract, and every statistic
// must match a SimDiskManager run of the same (seed, ops) — page size
// moves to the file backend's 4 KiB minimum on both sides so the two runs
// share geometry. This is the regression gate for composing
// FaultInjectingDiskManager over FileDiskManager.
TEST(FileBackendFuzzTest, FaultRegimeMatchesSimBackendStatForStat) {
  const std::string path =
      ::testing::TempDir() + "/segdb_fuzz_file_backend.segdb";
  std::remove(path.c_str());
  const IndexFactory factory = [](io::BufferPool* pool) {
    return std::make_unique<core::TwoLevelIntervalIndex>(pool);
  };
  FuzzOptions options;
  options.seed = 8152026;
  options.ops = 2000;
  options.mutation_alloc_fault_rate = 0.01;
  options.query_read_fault_rate = 0.01;
  options.page_size = 4096;
  options.pool_frames = 64;

  FuzzStats sim;
  ASSERT_TRUE(RunDifferentialFuzz("tli@sim", factory, options, &sim).ok());

  options.backend_file = path;
  FuzzStats file;
  const Status s = RunDifferentialFuzz("tli@file", factory, options, &file);
  EXPECT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(file.executed, sim.executed);
  EXPECT_EQ(file.queries, sim.queries);
  EXPECT_EQ(file.mutations, sim.mutations);
  EXPECT_EQ(file.faulted_ops, sim.faulted_ops);
  EXPECT_EQ(file.retried_ok, sim.retried_ok);
  EXPECT_EQ(file.audits, sim.audits);
  // The regime must actually bite on this stream, and every bite heal.
  EXPECT_GT(file.faulted_ops, 0u);
  EXPECT_EQ(file.retried_ok, file.faulted_ops);
  std::remove(path.c_str());
}

// --- Column-codec differential fuzz ---------------------------------------
//
// The uncompressed lanes ARE the oracle: whatever adversarial distribution
// the generator picks, encode -> decode must reproduce the lanes exactly,
// the parsed header must agree lane-by-lane with the bulk decode, and
// re-encoding must be canonical (byte-identical region). The deterministic
// seed keeps this in the default suite; the CI fuzz job layers fresh seeds
// on top via SEGDB_FUZZ_SEED below.

// Fills one column with a distribution chosen by `shape`.
void FillColumn(Rng& rng, int shape, int64_t* out, uint32_t n) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (shape) {
    case 0:  // stored-coordinate domain (covers the mirrored bound)
      for (uint32_t i = 0; i < n; ++i) {
        out[i] = rng.UniformInt(-3 * geom::kMaxCoord, 3 * geom::kMaxCoord);
      }
      break;
    case 1:  // constant
      for (uint32_t i = 0; i < n; ++i) out[i] = rng.UniformInt(-1000, 1000);
      for (uint32_t i = 1; i < n; ++i) out[i] = out[0];
      break;
    case 2:  // sorted ramp with small gaps
      if (n > 0) {
        out[0] = rng.UniformInt(-geom::kMaxCoord, geom::kMaxCoord);
        for (uint32_t i = 1; i < n; ++i) {
          out[i] = out[i - 1] + static_cast<int64_t>(rng.Uniform(64));
        }
      }
      break;
    case 3:  // full-range sentinels and alternating sign
      for (uint32_t i = 0; i < n; ++i) {
        switch (rng.Uniform(5)) {
          case 0: out[i] = kMin; break;
          case 1: out[i] = kMax; break;
          case 2: out[i] = (i % 2 == 0) ? int64_t{1} : int64_t{-1}; break;
          case 3: out[i] = 0; break;
          default: out[i] = static_cast<int64_t>(rng.Next()); break;
        }
      }
      break;
    case 4:  // uniform 64-bit noise (forces the id raw fallback)
      for (uint32_t i = 0; i < n; ++i) {
        out[i] = static_cast<int64_t>(rng.Next());
      }
      break;
    default:  // stored-coordinate sentinels (the mirrored extremes)
      for (uint32_t i = 0; i < n; ++i) {
        switch (rng.Uniform(4)) {
          case 0: out[i] = -3 * geom::kMaxCoord; break;
          case 1: out[i] = 3 * geom::kMaxCoord; break;
          case 2: out[i] = 0; break;
          default: out[i] = (i % 2 == 0) ? int64_t{1} : int64_t{-1}; break;
        }
      }
      break;
  }
}

// Shapes legal for a coordinate column: the region codec guarantees the
// 34-bit slot bound only over the stored-coordinate domain (|v| <= 3 *
// kMaxCoord); shapes 3/4 exceed it and are reserved for the id column,
// which carries a raw64 fallback.
int CoordShape(Rng& rng) {
  const int pick = static_cast<int>(rng.Uniform(4));
  return pick == 3 ? 5 : pick;
}

// One encode/decode/probe/re-encode round at capacity `cap`, its column
// shapes drawn from `rng`.
void CodecRoundTripAt(Rng& rng, uint32_t cap) {
  std::vector<int64_t> lanes(size_t{io::kColumnarColumns} * cap);
  for (uint32_t c = 0; c < 4; ++c) {
    FillColumn(rng, CoordShape(rng), lanes.data() + size_t{c} * cap, cap);
  }
  FillColumn(rng, static_cast<int>(rng.Uniform(5)),
             lanes.data() + size_t{4} * cap, cap);
  std::vector<uint8_t> region(io::ColumnarRegionBytes(cap), 0xA5);
  io::EncodeColumnarRegion(region.data(), cap, lanes.data());
  std::vector<int64_t> decoded(lanes.size(), ~int64_t{0});
  io::DecodeColumnarRegion(region.data(), cap, decoded.data());
  ASSERT_EQ(decoded, lanes) << "cap " << cap;
  const io::PackedRegionInfo info =
      io::ParsePackedRegionHeader(region.data(), cap);
  for (uint32_t c = 0; c < io::kColumnarColumns; ++c) {
    const uint32_t probe = rng.Uniform(cap);
    ASSERT_EQ(io::PackedRegionLane(region.data(), info, c, probe),
              lanes[size_t{c} * cap + probe]);
  }
  std::vector<uint8_t> again(region.size(), 0x5A);
  io::EncodeColumnarRegion(again.data(), cap, decoded.data());
  ASSERT_EQ(std::memcmp(region.data(), again.data(), region.size()), 0)
      << "non-canonical re-encode at cap " << cap;
}

void CodecFuzzRound(Rng& rng) {
  // Capacities 4..161: the regions indexes write at 512-byte pages and up.
  CodecRoundTripAt(rng, static_cast<uint32_t>(rng.UniformInt(4, 161)));
}

TEST(CodecFuzzTest, RoundTripMatchesUncompressedOracle) {
  Rng rng(20260808);
  for (int round = 0; round < 400; ++round) {
    CodecFuzzRound(rng);
    if (HasFatalFailure()) {
      std::fprintf(stderr, "[fuzz] codec reproducer: seed=20260808 "
                           "failing round=%d\n", round);
      return;
    }
  }
}

// Capacities 1-3, whose header costs more than the row-major footprint and
// which no index writes, still round-trip in the one packed format.
TEST(CodecFuzzTest, SmallCapacitiesRoundTrip) {
  Rng rng(20261019);
  for (uint32_t cap = 1; cap <= 3; ++cap) {
    for (int round = 0; round < 64; ++round) {
      CodecRoundTripAt(rng, cap);
      if (HasFatalFailure()) return;
    }
  }
}

// Env-driven randomized entry points for the CI fuzz job (and for local
// reproduction of a CI-reported seed). Skipped unless SEGDB_FUZZ_SEED is
// set; SEGDB_FUZZ_OPS optionally overrides the op count.
std::optional<uint64_t> EnvU64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::strtoull(value, nullptr, 10);
}

TEST(RandomizedFuzzTest, AllIndexesNoFaults) {
  const auto seed = EnvU64("SEGDB_FUZZ_SEED");
  if (!seed.has_value()) GTEST_SKIP() << "SEGDB_FUZZ_SEED not set";
  FuzzOptions options;
  options.seed = *seed;
  options.ops = EnvU64("SEGDB_FUZZ_OPS").value_or(10000);
  std::printf("[fuzz] randomized no-fault run: --seed=%llu --ops=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.ops));
  for (const Config& cfg : AllConfigs()) {
    options.supports_erase = cfg.supports_erase;
    const Status s = RunDifferentialFuzz(cfg.label, cfg.factory, options);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(RandomizedFuzzTest, AllIndexesOnePercentFaults) {
  const auto seed = EnvU64("SEGDB_FUZZ_SEED");
  if (!seed.has_value()) GTEST_SKIP() << "SEGDB_FUZZ_SEED not set";
  FuzzOptions options;
  options.seed = *seed;
  options.ops = EnvU64("SEGDB_FUZZ_OPS").value_or(4000);
  options.mutation_alloc_fault_rate = 0.01;
  options.query_read_fault_rate = 0.01;
  options.pool_frames = 64;
  std::printf("[fuzz] randomized fault run: --seed=%llu --ops=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.ops));
  for (const Config& cfg : AllConfigs()) {
    options.supports_erase = cfg.supports_erase;
    const Status s = RunDifferentialFuzz(cfg.label, cfg.factory, options);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(RandomizedFuzzTest, CodecRoundTrips) {
  const auto seed = EnvU64("SEGDB_FUZZ_SEED");
  if (!seed.has_value()) GTEST_SKIP() << "SEGDB_FUZZ_SEED not set";
  const uint64_t rounds = EnvU64("SEGDB_FUZZ_OPS").value_or(4000);
  std::printf("[fuzz] randomized codec run: --seed=%llu --ops=%llu\n",
              static_cast<unsigned long long>(*seed),
              static_cast<unsigned long long>(rounds));
  Rng rng(*seed);
  for (uint64_t round = 0; round < rounds; ++round) {
    CodecFuzzRound(rng);
    if (HasFatalFailure()) {
      std::fprintf(stderr,
                   "[fuzz] codec reproducer: SEGDB_FUZZ_SEED=%llu failing "
                   "round=%llu\n",
                   static_cast<unsigned long long>(*seed),
                   static_cast<unsigned long long>(round));
      return;
    }
  }
}

}  // namespace
}  // namespace segdb::fuzz
