#include "fuzz_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "baseline/oracle.h"
#include "core/durable_engine.h"
#include "geom/segment.h"
#include "io/disk_manager.h"
#include "io/fault_injection.h"
#include "io/file_disk_manager.h"
#include "io/recovery.h"
#include "io/wal.h"
#include "util/check.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::fuzz {
namespace {

using core::SegmentIndex;
using core::VerticalSegmentQuery;
using geom::Segment;

std::vector<uint64_t> SortedIds(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  ids.reserve(segs.size());
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string DescribeQuery(const VerticalSegmentQuery& q) {
  return "query x0=" + std::to_string(q.x0) + " y=[" + std::to_string(q.ylo) +
         "," + std::to_string(q.yhi) + "]";
}

// Draws one of the four query shapes (bounded vertical segment, up-ray,
// down-ray, stabbing line) from the stream. Shared by the differential
// fuzzer and the crash-recovery sweep so both exercise the full shape mix.
VerticalSegmentQuery DrawQueryFrom(Rng& rng, const workload::BoundingBox& box) {
  const uint32_t shape = static_cast<uint32_t>(rng.Uniform(4));
  const int64_t x0 = rng.UniformInt(box.xmin - 3, box.xmax + 3);
  if (shape == 0) {
    const int64_t ylo = rng.UniformInt(box.ymin, box.ymax);
    return VerticalSegmentQuery::Segment(
        x0, ylo, ylo + rng.UniformInt(0, (box.ymax - box.ymin) / 5));
  }
  if (shape == 1) {
    return VerticalSegmentQuery::UpRay(x0, rng.UniformInt(box.ymin, box.ymax));
  }
  if (shape == 2) {
    return VerticalSegmentQuery::DownRay(x0,
                                         rng.UniformInt(box.ymin, box.ymax));
  }
  return VerticalSegmentQuery::Line(x0);  // stabbing query
}

// The device under the fault wrapper: the in-memory simulator by default,
// or a real-file backend when the run asks for one. Construction failure
// is a harness-setup bug, not a fuzz finding, so it aborts rather than
// threading a Status through the ctor.
std::unique_ptr<io::DiskManager> MakeBaseDevice(const FuzzOptions& options) {
  if (options.backend_file.empty()) {
    return std::make_unique<io::SimDiskManager>(options.page_size);
  }
  io::FileDiskManagerOptions fopts;
  fopts.page_size = options.page_size;
  auto opened = io::FileDiskManager::Open(options.backend_file, fopts);
  SEGDB_CHECK(opened.ok()) << "fuzz backend_file open failed: "
                           << opened.status().ToString();
  return std::move(opened).value();
}

// One fuzz run: owns the device, pool, index, oracle and the op stream.
class Fuzzer {
 public:
  Fuzzer(std::string label, const IndexFactory& factory,
         const FuzzOptions& options)
      : label_(std::move(label)),
        options_(options),
        fault_mode_(options.mutation_alloc_fault_rate > 0 ||
                    options.query_read_fault_rate > 0),
        disk_(MakeBaseDevice(options), io::FaultPlan{}),
        pool_(&disk_, options.pool_frames),
        rng_(options.seed) {
    disk_.set_enabled(false);  // reliable until an op arms it
    index_ = factory(&pool_);
  }

  Status Run(FuzzStats* stats);

 private:
  // Builds the reproducer line, prints it, and wraps it in a status. `k`
  // is the 1-based op index: rerunning with --ops=k stops at the failure.
  Status Fail(uint64_t k, const std::string& what) {
    const std::string line =
        label_ + ": op " + std::to_string(k) + ": " + what +
        " | reproduce: --seed=" + std::to_string(options_.seed) +
        " --ops=" + std::to_string(k);
    std::fprintf(stderr, "[fuzz] %s\n", line.c_str());
    return Status::Corruption(line);
  }

  // Arms the wrapper for one op. Reseeding from the master stream keeps
  // fault placement a pure function of (seed, op index).
  void Arm(uint64_t op_seed, bool mutation) {
    if (!fault_mode_) return;
    io::FaultPlan plan;
    plan.seed = op_seed;
    if (mutation) {
      plan.alloc_fault_rate = options_.mutation_alloc_fault_rate;
    } else {
      plan.read_fault_rate = options_.query_read_fault_rate;
    }
    disk_.ResetPlan(plan);
    disk_.set_enabled(true);
  }
  void Disarm() {
    if (fault_mode_) disk_.set_enabled(false);
  }

  Status Audit(uint64_t k, FuzzStats* stats) {
    const Status audit = index_->CheckInvariants();
    if (!audit.ok()) return Fail(k, "audit failed: " + audit.ToString());
    ++stats->audits;
    return Status::OK();
  }

  // Runs one mutation expected to succeed. Under faults a non-OK first
  // attempt is legal, but the structure must then audit clean and the
  // paused retry must succeed (a partial application surfaces here: the
  // retried insert/erase would double-apply or miss).
  Status RunMutation(uint64_t k, uint64_t op_seed, const char* what,
                     const std::function<Status()>& apply, FuzzStats* stats) {
    ++stats->mutations;
    Arm(op_seed, /*mutation=*/true);
    const Status first = apply();
    Disarm();
    if (first.ok()) return Status::OK();
    if (!fault_mode_) {
      return Fail(k, std::string(what) + " failed without faults: " +
                         first.ToString());
    }
    ++stats->faulted_ops;
    SEGDB_RETURN_IF_ERROR(Audit(k, stats));
    const Status retry = apply();
    if (!retry.ok()) {
      return Fail(k, std::string(what) + " retry failed: " + retry.ToString() +
                         " (first: " + first.ToString() + ")");
    }
    ++stats->retried_ok;
    return Status::OK();
  }

  VerticalSegmentQuery DrawQuery(const workload::BoundingBox& box) {
    return DrawQueryFrom(rng_, box);
  }

  Status RunQuery(uint64_t k, uint64_t op_seed,
                  const workload::BoundingBox& box, FuzzStats* stats) {
    ++stats->queries;
    const VerticalSegmentQuery q = DrawQuery(box);
    std::vector<Segment> got;
    Arm(op_seed, /*mutation=*/false);
    const Status s = index_->Query(q, &got);
    Disarm();
    if (!s.ok()) {
      if (!fault_mode_) {
        return Fail(k, DescribeQuery(q) +
                           " failed without faults: " + s.ToString());
      }
      ++stats->faulted_ops;
      SEGDB_RETURN_IF_ERROR(Audit(k, stats));
      got.clear();  // a failed query's partial output carries no contract
      const Status retry = index_->Query(q, &got);
      if (!retry.ok()) {
        return Fail(k, DescribeQuery(q) +
                           " retry failed: " + retry.ToString());
      }
      ++stats->retried_ok;
    }
    std::vector<Segment> want;
    const Status os = oracle_.Query(q, &want);
    if (!os.ok()) return Fail(k, "oracle query failed: " + os.ToString());
    if (SortedIds(got) != SortedIds(want)) {
      return Fail(k, DescribeQuery(q) + " diverged: got " +
                         std::to_string(got.size()) + " ids, oracle " +
                         std::to_string(want.size()));
    }
    return Status::OK();
  }

  const std::string label_;
  const FuzzOptions options_;
  const bool fault_mode_;
  io::FaultInjectingDiskManager disk_;
  io::BufferPool pool_;
  Rng rng_;
  std::unique_ptr<SegmentIndex> index_;
  baseline::OracleIndex oracle_;
};

Status Fuzzer::Run(FuzzStats* stats) {
  FuzzStats local;
  if (stats == nullptr) stats = &local;

  // The universe is NCT by construction; every subset stays NCT, so any
  // interleaving of loads/inserts below keeps the database valid.
  const auto universe = workload::GenMapLayer(
      rng_, options_.universe, static_cast<int64_t>(options_.universe) * 125);
  const auto box = workload::ComputeBoundingBox(universe);

  std::vector<size_t> alive, dead;
  for (size_t i = 0; i < universe.size(); ++i) dead.push_back(i);

  // Initial load of a random half (setup: faults stay disarmed).
  {
    std::vector<Segment> initial;
    for (size_t r = 0; r < universe.size() / 2; ++r) {
      const size_t pick = rng_.Uniform(dead.size());
      alive.push_back(dead[pick]);
      dead.erase(dead.begin() + pick);
      initial.push_back(universe[alive.back()]);
    }
    const Status s = index_->BulkLoad(initial);
    if (!s.ok()) return Fail(0, "initial bulk load failed: " + s.ToString());
    const Status os = oracle_.BulkLoad(initial);
    if (!os.ok()) return Fail(0, "oracle bulk load failed: " + os.ToString());
  }

  for (uint64_t k = 1; k <= options_.ops; ++k) {
    // Per-op draws happen in a fixed order, so the stream is
    // prefix-deterministic: --ops=K replays exactly the first K ops.
    const uint64_t op_seed = rng_.Next();
    const uint32_t op = static_cast<uint32_t>(rng_.Uniform(10));

    if (op < 3 && !dead.empty()) {  // insert
      const size_t pick = rng_.Uniform(dead.size());
      const size_t idx = dead[pick];
      dead.erase(dead.begin() + pick);
      alive.push_back(idx);
      SEGDB_RETURN_IF_ERROR(RunMutation(
          k, op_seed, "insert",
          [&] { return index_->Insert(universe[idx]); }, stats));
      const Status os = oracle_.Insert(universe[idx]);
      if (!os.ok()) return Fail(k, "oracle insert failed: " + os.ToString());
    } else if (op >= 3 && op < 5 && options_.supports_erase &&
               !alive.empty()) {  // erase of a stored segment
      const size_t pick = rng_.Uniform(alive.size());
      const size_t idx = alive[pick];
      alive.erase(alive.begin() + pick);
      dead.push_back(idx);
      SEGDB_RETURN_IF_ERROR(RunMutation(
          k, op_seed, "erase",
          [&] { return index_->Erase(universe[idx]); }, stats));
      const Status os = oracle_.Erase(universe[idx]);
      if (!os.ok()) return Fail(k, "oracle erase failed: " + os.ToString());
    } else if (op == 5 && options_.supports_erase && !dead.empty()) {
      // Erase of an absent segment: both sides must report NotFound. A
      // fault may surface first; the paused retry must then say NotFound.
      ++stats->mutations;
      const Segment& s = universe[dead[rng_.Uniform(dead.size())]];
      Arm(op_seed, /*mutation=*/true);
      const Status first = index_->Erase(s);
      Disarm();
      if (first.code() != StatusCode::kNotFound) {
        if (!fault_mode_ || first.ok()) {
          return Fail(k, "erase-absent returned " + first.ToString());
        }
        ++stats->faulted_ops;
        SEGDB_RETURN_IF_ERROR(Audit(k, stats));
        const Status retry = index_->Erase(s);
        if (retry.code() != StatusCode::kNotFound) {
          return Fail(k, "erase-absent retry returned " + retry.ToString());
        }
        ++stats->retried_ok;
      }
      if (oracle_.Erase(s).code() != StatusCode::kNotFound) {
        return Fail(k, "oracle erase-absent was not NotFound");
      }
    } else if (op == 6 && rng_.Uniform(8) == 0) {
      // Occasional bulk load of a fresh random subset: replaces the whole
      // database, exercising build paths mid-stream. A faulted load must
      // leave the *previous* contents intact until the retry lands.
      std::vector<Segment> load;
      std::vector<size_t> next_alive, next_dead;
      for (size_t i = 0; i < universe.size(); ++i) {
        if (rng_.Next() & 1) {
          next_alive.push_back(i);
          load.push_back(universe[i]);
        } else {
          next_dead.push_back(i);
        }
      }
      SEGDB_RETURN_IF_ERROR(RunMutation(
          k, op_seed, "bulk load",
          [&] { return index_->BulkLoad(load); }, stats));
      const Status os = oracle_.BulkLoad(load);
      if (!os.ok()) return Fail(k, "oracle bulk load failed: " + os.ToString());
      alive = std::move(next_alive);
      dead = std::move(next_dead);
    } else {
      SEGDB_RETURN_IF_ERROR(RunQuery(k, op_seed, box, stats));
    }

    if (index_->size() != alive.size()) {
      return Fail(k, "size diverged: index " + std::to_string(index_->size()) +
                         ", expected " + std::to_string(alive.size()));
    }
    if (options_.audit_every > 0 && k % options_.audit_every == 0) {
      SEGDB_RETURN_IF_ERROR(Audit(k, stats));
    }
    ++stats->executed;
  }

  return Audit(options_.ops, stats);
}

// ---------------------------------------------------------------------------
// Crash-recovery sweep
// ---------------------------------------------------------------------------

// One logical mutation as the harness logged it: opcode, segments, and the
// exact WAL payload bytes the engine commits for it.
struct LoggedMutation {
  uint8_t op = 0;
  std::vector<Segment> segments;
  std::vector<uint8_t> payload;
};

// One trial: the seeded stream over a core::DurableEngine with a one-shot
// device fault scheduled at device-op `crash_at` (0 = no fault; the probe
// run that measures the stream's device-op schedule). The stream itself is
// a pure function of (seed, ops) — identical in every trial — so trial K
// kills the K-th device op of a KNOWN schedule, and `--crash-at=K` replays
// the exact same death.
class CrashTrial {
 public:
  CrashTrial(std::string label, IndexFactory factory,
             const CrashFuzzOptions& options, uint64_t crash_at)
      : label_(std::move(label)),
        factory_(std::move(factory)),
        options_(options),
        crash_at_(crash_at),
        disk_(std::make_unique<io::SimDiskManager>(options.page_size),
              io::FaultPlan{}),
        pool_(&disk_, options.pool_frames),
        rng_(options.seed) {}

  Status Run(CrashFuzzStats* stats, uint64_t* device_ops_out);

 private:
  Status Fail(const std::string& what) {
    const std::string line =
        label_ + ": crash k=" + std::to_string(crash_at_) + ": " + what +
        " | reproduce: --seed=" + std::to_string(options_.seed) +
        " --ops=" + std::to_string(options_.ops) +
        " --crash-at=" + std::to_string(crash_at_);
    std::fprintf(stderr, "[crash-fuzz] %s\n", line.c_str());
    return Status::Corruption(line);
  }

  // Mirrors one acknowledged mutation into the oracle, which therefore
  // tracks exactly the committed logical state at all times.
  Status ApplyToOracle(const LoggedMutation& m) {
    Status s;
    switch (m.op) {
      case core::DurableEngine::kOpInsert:
        s = oracle_.Insert(m.segments[0]);
        break;
      case core::DurableEngine::kOpErase:
        s = oracle_.Erase(m.segments[0]);
        break;
      default:
        s = oracle_.BulkLoad(m.segments);
        break;
    }
    if (!s.ok()) return Fail("oracle apply failed: " + s.ToString());
    return Status::OK();
  }

  // Runs one engine mutation. OK -> logged as acknowledged and mirrored to
  // the oracle; any error marks the trial crashed with this op in flight.
  // (A mutation error with no fault scheduled is a genuine bug.)
  Status Mutate(uint8_t opcode, std::vector<Segment> segments,
                const char* what) {
    LoggedMutation m;
    m.op = opcode;
    m.segments = std::move(segments);
    m.payload = core::DurableEngine::EncodeOp(opcode, m.segments);
    in_flight_ = m;
    Status s;
    switch (opcode) {
      case core::DurableEngine::kOpInsert:
        s = engine_->Insert(m.segments[0]);
        break;
      case core::DurableEngine::kOpErase:
        s = engine_->Erase(m.segments[0]);
        break;
      default:
        s = engine_->BulkLoad(m.segments);
        break;
    }
    if (!s.ok()) {
      if (crash_at_ == 0) {
        return Fail(std::string(what) +
                    " failed without faults: " + s.ToString());
      }
      crashed_ = true;
      crash_what_ = std::string(what) + ": " + s.ToString();
      return Status::OK();
    }
    in_flight_.reset();
    oplog_.push_back(std::move(m));
    return ApplyToOracle(oplog_.back());
  }

  // Seeded query battery over the full shape mix: `index` vs the oracle.
  Status Battery(core::SegmentIndex* index, uint64_t battery_seed,
                 const char* when) {
    Rng qrng(battery_seed);
    for (uint64_t i = 0; i < 32; ++i) {
      const VerticalSegmentQuery q = DrawQueryFrom(qrng, box_);
      std::vector<Segment> got;
      std::vector<Segment> want;
      Status s = index->Query(q, &got);
      if (!s.ok()) {
        return Fail(std::string(when) + " " + DescribeQuery(q) +
                    " failed: " + s.ToString());
      }
      s = oracle_.Query(q, &want);
      if (!s.ok()) return Fail("oracle query failed: " + s.ToString());
      if (SortedIds(got) != SortedIds(want)) {
        return Fail(std::string(when) + " " + DescribeQuery(q) +
                    " diverged: got " + std::to_string(got.size()) +
                    " ids, oracle " + std::to_string(want.size()));
      }
    }
    return Status::OK();
  }

  Status VerifyCrash(CrashFuzzStats* stats);

  const std::string label_;
  const IndexFactory factory_;
  const CrashFuzzOptions options_;
  const uint64_t crash_at_;
  io::FaultInjectingDiskManager disk_;
  io::BufferPool pool_;
  Rng rng_;
  std::unique_ptr<core::DurableEngine> engine_;
  baseline::OracleIndex oracle_;
  workload::BoundingBox box_{};
  std::vector<LoggedMutation> oplog_;   // acknowledged mutations, in order
  std::optional<LoggedMutation> in_flight_;
  bool crashed_ = false;
  std::string crash_what_;
};

Status CrashTrial::Run(CrashFuzzStats* stats, uint64_t* device_ops_out) {
  ++stats->trials;
  if (options_.lose_unsynced || options_.torn_crash) {
    disk_.set_track_unsynced(true);
  }
  if (crash_at_ > 0) {
    if (options_.torn_crash) {
      disk_.ScheduleTornFailAtOp(crash_at_);
    } else {
      disk_.ScheduleFailAtOp(crash_at_);
    }
  }

  core::DurableEngineOptions eopts;
  eopts.checkpoint_every = options_.checkpoint_every;
  {
    Result<std::unique_ptr<core::DurableEngine>> created =
        core::DurableEngine::Create(&pool_, &disk_, factory_, eopts);
    if (!created.ok()) {
      if (crash_at_ == 0) {
        return Fail("engine create failed without faults: " +
                    created.status().ToString());
      }
      // The fault landed inside WAL formatting: the process died before
      // any durable state existed, so there is nothing to recover.
      ++stats->crashes;
      return Status::OK();
    }
    engine_ = std::move(created.value());
  }

  const auto universe = workload::GenMapLayer(
      rng_, options_.universe, static_cast<int64_t>(options_.universe) * 125);
  box_ = workload::ComputeBoundingBox(universe);

  std::vector<size_t> alive, dead;
  for (size_t i = 0; i < universe.size(); ++i) dead.push_back(i);

  // Initial load of a random half. Unlike the differential fuzzer, setup
  // is NOT fault-exempt: the sweep's early crash points land here.
  {
    std::vector<Segment> initial;
    for (size_t r = 0; r < universe.size() / 2; ++r) {
      const size_t pick = rng_.Uniform(dead.size());
      alive.push_back(dead[pick]);
      dead.erase(dead.begin() + pick);
      initial.push_back(universe[alive.back()]);
    }
    SEGDB_RETURN_IF_ERROR(Mutate(core::DurableEngine::kOpBulkLoad,
                                 std::move(initial), "initial bulk load"));
  }

  for (uint64_t k = 1; !crashed_ && k <= options_.ops; ++k) {
    const uint32_t op = static_cast<uint32_t>(rng_.Uniform(10));

    if (op < 3 && !dead.empty()) {  // insert
      const size_t pick = rng_.Uniform(dead.size());
      const size_t idx = dead[pick];
      dead.erase(dead.begin() + pick);
      alive.push_back(idx);
      SEGDB_RETURN_IF_ERROR(Mutate(core::DurableEngine::kOpInsert,
                                   {universe[idx]}, "insert"));
    } else if (op >= 3 && op < 5 && !alive.empty()) {  // erase-present
      const size_t pick = rng_.Uniform(alive.size());
      const size_t idx = alive[pick];
      alive.erase(alive.begin() + pick);
      dead.push_back(idx);
      SEGDB_RETURN_IF_ERROR(Mutate(core::DurableEngine::kOpErase,
                                   {universe[idx]}, "erase"));
    } else if (op == 5 && !dead.empty()) {
      // Erase-absent: NotFound on both sides, and the engine must commit
      // nothing for it (the chain-length checks below catch a stray one).
      const Segment& s = universe[dead[rng_.Uniform(dead.size())]];
      const Status st = engine_->Erase(s);
      if (st.code() == StatusCode::kNotFound) {
        if (oracle_.Erase(s).code() != StatusCode::kNotFound) {
          return Fail("oracle erase-absent was not NotFound");
        }
      } else if (st.ok() || crash_at_ == 0) {
        return Fail("erase-absent returned " + st.ToString());
      } else {
        crashed_ = true;
        crash_what_ = "erase-absent: " + st.ToString();
      }
    } else if (op == 6 && rng_.Uniform(8) == 0) {
      // Occasional full reload: exercises the build-aside-then-swap path
      // (and its deferred frees) under the crash schedule.
      std::vector<Segment> load;
      std::vector<size_t> next_alive, next_dead;
      for (size_t i = 0; i < universe.size(); ++i) {
        if (rng_.Next() & 1) {
          next_alive.push_back(i);
          load.push_back(universe[i]);
        } else {
          next_dead.push_back(i);
        }
      }
      SEGDB_RETURN_IF_ERROR(Mutate(core::DurableEngine::kOpBulkLoad,
                                   std::move(load), "bulk load"));
      if (!crashed_) {
        alive = std::move(next_alive);
        dead = std::move(next_dead);
      }
    } else {  // query, checked inline against the oracle
      const VerticalSegmentQuery q = DrawQueryFrom(rng_, box_);
      std::vector<Segment> got;
      const Status s = engine_->Query(q, &got);
      if (!s.ok()) {
        if (crash_at_ == 0) {
          return Fail(DescribeQuery(q) +
                      " failed without faults: " + s.ToString());
        }
        // A read killed mid-query: no state was lost, but the sweep still
        // treats it as the death point and proves recovery from here.
        crashed_ = true;
        crash_what_ = DescribeQuery(q) + ": " + s.ToString();
      } else {
        std::vector<Segment> want;
        const Status os = oracle_.Query(q, &want);
        if (!os.ok()) return Fail("oracle query failed: " + os.ToString());
        if (SortedIds(got) != SortedIds(want)) {
          return Fail(DescribeQuery(q) + " diverged: got " +
                      std::to_string(got.size()) + " ids, oracle " +
                      std::to_string(want.size()));
        }
      }
    }

    if (!crashed_ && engine_->size() != alive.size()) {
      return Fail("size diverged: engine " + std::to_string(engine_->size()) +
                  ", expected " + std::to_string(alive.size()));
    }
  }

  if (pool_.stats().spills > 0) ++stats->spill_trials;
  if (device_ops_out != nullptr) *device_ops_out = disk_.ops_seen();

  if (!crashed_) {
    // Either no fault was scheduled (the probe) or the fault landed on an
    // absorbed operation — post-commit writeback or a checkpoint — whose
    // failure the engine absorbs by contract. Verify the live engine
    // end-to-end instead of recovering.
    ++stats->clean_runs;
    disk_.set_enabled(false);
    SEGDB_RETURN_IF_ERROR(
        Battery(engine_.get(), options_.seed ^ 0x9E3779B97F4A7C15ull, "live"));
    const Status audit = engine_->CheckInvariants();
    if (!audit.ok()) return Fail("clean-run audit failed: " + audit.ToString());
    return Status::OK();
  }

  ++stats->crashes;
  return VerifyCrash(stats);
}

Status CrashTrial::VerifyCrash(CrashFuzzStats* stats) {
  // --- Tear down as a process death. ---
  const uint64_t n0 = engine_->commits_since_checkpoint();
  const io::PageId anchor = engine_->wal_anchor();
  engine_->SimulateCrash();
  engine_.reset();
  if (options_.lose_unsynced || options_.torn_crash) {
    // Power loss on top of the stop: every write since the last successful
    // barrier rolls back to its pre-image.
    disk_.CrashLoseUnsynced();
  }
  disk_.set_enabled(false);  // the post-crash device is reliable

  // --- Recover. ---
  Result<io::RecoveryResult> recovered = io::Recover(&disk_, anchor);
  if (!recovered.ok()) {
    return Fail("recovery failed (" + crash_what_ +
                "): " + recovered.status().ToString());
  }
  const io::RecoveryResult& rec = recovered.value();
  stats->commits_recovered += rec.commits.size();
  stats->images_applied += rec.images_applied;
  if (rec.torn_tail_bytes > 0 || rec.discarded_uncommitted_images > 0) {
    ++stats->torn_tail_trials;
  }

  // --- The chain must hold exactly the uncheckpointed committed suffix:
  // n0 acknowledged commits since the last checkpoint, +1 if the in-flight
  // commit's barrier landed before the crash. An empty chain with n0 > 0
  // is the one legal third state: a checkpoint's anchor swap hit the
  // device but its own barrier faulted, the WAL poisoned itself, and the
  // crash surfaced on the next commit — the swapped-in chain is
  // legitimately empty (everything it replaced was already written back).
  const uint64_t c_chain = rec.commits.size();
  if (c_chain != n0 && c_chain != n0 + 1 && c_chain != 0) {
    return Fail("recovered chain holds " + std::to_string(c_chain) +
                " commits; expected " + std::to_string(n0) + " or " +
                std::to_string(n0 + 1));
  }
  const bool landed = (c_chain == n0 + 1);
  if (landed && !in_flight_.has_value()) {
    return Fail("chain gained a commit with no mutation in flight");
  }

  // Payload-for-payload: the chain suffix must spell the tail of the
  // harness's own log of acknowledged ops (+ the landed in-flight op).
  std::vector<const std::vector<uint8_t>*> expected;
  expected.reserve(oplog_.size() + 1);
  for (const LoggedMutation& m : oplog_) expected.push_back(&m.payload);
  if (landed) expected.push_back(&in_flight_->payload);
  if (c_chain > expected.size()) {
    return Fail("recovered chain longer than the acknowledged op log");
  }
  for (uint64_t i = 0; i < c_chain; ++i) {
    if (rec.commits[i].payload != *expected[expected.size() - c_chain + i]) {
      return Fail("commit payload " + std::to_string(i) + " of " +
                  std::to_string(c_chain) + " diverged from the op log");
    }
  }

  // --- The committed logical prefix now includes the landed op. ---
  if (landed) {
    oplog_.push_back(*in_flight_);
    SEGDB_RETURN_IF_ERROR(ApplyToOracle(oplog_.back()));
  }

  // --- Reference execution on a reliable device. Replaying exactly the
  // committed ops through a fresh engine retraces the crashed run's
  // device-op stream for the committed prefix (queries never mutate the
  // device, and every pre-crash op ran fault-free), so data pages must
  // come out bit-identical — the strongest form of "recovered". ---
  io::SimDiskManager ref_disk(options_.page_size);
  io::BufferPool ref_pool(&ref_disk, options_.pool_frames);
  core::DurableEngineOptions eopts;
  eopts.checkpoint_every = options_.checkpoint_every;
  Result<std::unique_ptr<core::DurableEngine>> ref_created =
      core::DurableEngine::Create(&ref_pool, &ref_disk, factory_, eopts);
  if (!ref_created.ok()) {
    return Fail("reference engine create failed: " +
                ref_created.status().ToString());
  }
  std::unique_ptr<core::DurableEngine> ref = std::move(ref_created.value());
  std::vector<io::RecoveredCommit> stream;
  stream.reserve(oplog_.size());
  for (uint64_t i = 0; i < oplog_.size(); ++i) {
    stream.push_back(io::RecoveredCommit{i + 1, oplog_[i].payload});
  }
  const Status replay = ref->ReplayCommits(stream);
  if (!replay.ok()) {
    return Fail("reference replay failed: " + replay.ToString());
  }

  // --- Bit-identity over every reference-live data page. The crashed
  // device may hold extra orphans (the in-flight op's allocations); pages
  // the WAL owns are log bookkeeping with their own lifecycle — both are
  // excluded by iterating the reference's live data pages. ---
  std::vector<io::PageId> wal_owned = ref->wal()->OwnedPages();
  io::Page want_page(options_.page_size);
  io::Page got_page(options_.page_size);
  for (io::PageId id : ref_disk.LivePages()) {
    if (std::binary_search(wal_owned.begin(), wal_owned.end(), id)) continue;
    Status s = ref_disk.PeekPage(id, &want_page);
    if (!s.ok()) return Fail("reference peek failed: " + s.ToString());
    s = disk_.PeekPage(id, &got_page);
    if (!s.ok()) {
      return Fail("page " + std::to_string(id) +
                  " is live in the reference but unreadable after recovery (" +
                  crash_what_ + ")");
    }
    if (std::memcmp(want_page.data(), got_page.data(), options_.page_size) !=
        0) {
      return Fail("page " + std::to_string(id) + " diverged after recovery (" +
                  crash_what_ + ")");
    }
    ++stats->pages_compared;
  }

  // --- Logical answers of the replayed state vs the oracle. ---
  if (ref->size() != oracle_.size()) {
    return Fail("replayed size " + std::to_string(ref->size()) +
                " != oracle " + std::to_string(oracle_.size()));
  }
  const Status audit = ref->CheckInvariants();
  if (!audit.ok()) return Fail("replayed audit failed: " + audit.ToString());
  return Battery(ref.get(),
                 options_.seed ^ (crash_at_ * 0x9E3779B97F4A7C15ull),
                 "replayed");
}

}  // namespace

Status RunDifferentialFuzz(const std::string& label,
                           const IndexFactory& factory,
                           const FuzzOptions& options, FuzzStats* stats) {
  Fuzzer fuzzer(label, factory, options);
  return fuzzer.Run(stats);
}

Status RunCrashRecoverySweep(const std::string& label,
                             const IndexFactory& factory,
                             const CrashFuzzOptions& options,
                             CrashFuzzStats* stats) {
  CrashFuzzStats local;
  if (stats == nullptr) stats = &local;
  // Probe: the fault-free run validates the fixture itself and measures
  // the stream's device-op schedule, identical in every trial.
  uint64_t device_ops = 0;
  {
    CrashTrial probe(label, factory, options, /*crash_at=*/0);
    SEGDB_RETURN_IF_ERROR(probe.Run(stats, &device_ops));
  }
  if (device_ops == 0) {
    return Status::Corruption(label + ": probe run touched no device ops");
  }
  // Kill every K-th device op, strided to stay under max_crash_points.
  const uint64_t points = std::max<uint64_t>(1, options.max_crash_points);
  const uint64_t stride =
      std::max<uint64_t>(1, (device_ops + points - 1) / points);
  for (uint64_t k = 1; k <= device_ops; k += stride) {
    CrashTrial trial(label, factory, options, k);
    SEGDB_RETURN_IF_ERROR(trial.Run(stats, nullptr));
  }
  return Status::OK();
}

Status ShearedAdapter::Query(const core::VerticalSegmentQuery& q,
                             std::vector<geom::Segment>* out) const {
  const bool lo_open = q.ylo <= -(geom::kMaxCoord + 1);
  const bool hi_open = q.yhi >= geom::kMaxCoord + 1;
  if (lo_open && hi_open) {
    return sheared_.QueryLine(geom::Point{q.x0, 0}, out);
  }
  return sheared_.QuerySegment(geom::Point{q.x0, q.ylo}, q.yhi - q.ylo, out);
}

}  // namespace segdb::fuzz
