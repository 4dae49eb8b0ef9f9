// Deterministic differential fuzz harness (DESIGN.md Section 13).
//
// RunDifferentialFuzz drives one SegmentIndex implementation and the
// in-memory oracle through an identical, seeded stream of operations —
// bulk loads, inserts, erases (present and absent), vertical-segment /
// ray / stabbing-line queries, and periodic structural audits — and fails
// on any divergence of answers, sizes, error codes, or invariants.
//
// The op stream is a pure function of (seed, ops): every random choice is
// drawn from a single Rng in a fixed order, so `--seed=S --ops=K` replays
// the first K operations bit-identically and op K is the failing one. On
// any mismatch the harness prints a one-line reproducer to stderr and
// returns a Corruption status embedding the same flags.
//
// Fault regime (optional): the index runs on a FaultInjectingDiskManager.
// Mutations draw transient AllocatePage faults, queries draw transient
// ReadPage/PeekPage faults — the split mirrors the structures' atomicity
// contract (mutations are alloc-fault-atomic; mid-mutation read faults are
// crash-consistency, out of scope — see DESIGN.md Section 13). Each op
// reseeds the wrapper from the master stream, so fault placement is as
// deterministic as the ops themselves. After a faulted op the harness
// pauses injection, audits the structure, retries the op over the now
// reliable device, and resumes — a failed op must leave the index clean
// and retryable or the run fails.
#ifndef SEGDB_TESTS_FUZZ_HARNESS_H_
#define SEGDB_TESTS_FUZZ_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/segment_index.h"
#include "core/sheared_index.h"
#include "io/buffer_pool.h"
#include "util/status.h"

namespace segdb::fuzz {

struct FuzzOptions {
  // Reproducer knobs: the whole run is a pure function of these two.
  uint64_t seed = 1;
  uint64_t ops = 10000;

  // Size of the NCT segment universe the op stream draws from.
  uint64_t universe = 1200;

  // Per-op fault probabilities (0 = reliable device). Mutations see only
  // allocation faults; queries see only read faults.
  double mutation_alloc_fault_rate = 0.0;
  double query_read_fault_rate = 0.0;

  // Full-audit cadence (CheckInvariants); audits also run after every
  // faulted op. Size agreement is checked on every op regardless.
  uint64_t audit_every = 512;

  // When false, erase steps degrade to queries (indexes without a
  // deletion path, e.g. the R-tree baseline). The Rng draw sequence is
  // unchanged, so seeds stay comparable across configurations.
  bool supports_erase = true;

  // Simulated device / pool geometry.
  uint32_t page_size = 1024;
  uint32_t pool_frames = 4096;
  // When non-empty, the index-under-test runs on a real-file
  // io::FileDiskManager created at this path (caller owns cleanup)
  // instead of the in-memory SimDiskManager; page_size must then be a
  // multiple of 4096 (the file backend's alignment rule). The fault
  // wrapper composes on top unchanged — faults are decided above the
  // device, so fault placement per (seed, op) is identical across
  // backends and every reproducer line stays valid.
  std::string backend_file;
};

struct FuzzStats {
  uint64_t executed = 0;       // ops completed (including retried ones)
  uint64_t queries = 0;        // query-shaped ops
  uint64_t mutations = 0;      // insert/erase/bulk-load ops
  uint64_t faulted_ops = 0;    // ops that returned non-OK due to a fault
  uint64_t retried_ok = 0;     // faulted ops whose paused retry succeeded
  uint64_t audits = 0;         // CheckInvariants passes
};

// Builds a fresh index-under-test on the given pool.
using IndexFactory =
    std::function<std::unique_ptr<core::SegmentIndex>(io::BufferPool*)>;

// Runs the stream for `factory`'s index against a paired oracle. `label`
// names the configuration in the reproducer line. Returns OK when the
// full stream completes without divergence.
Status RunDifferentialFuzz(const std::string& label,
                           const IndexFactory& factory,
                           const FuzzOptions& options,
                           FuzzStats* stats = nullptr);

// --- Crash-recovery sweep (DESIGN.md section 18) ---
//
// RunCrashRecoverySweep wraps the index in a core::DurableEngine, runs a
// seeded mutation/query stream, and kills the device at every K-th device
// operation (strided above max_crash_points): the K-th op fails, the
// process "dies" (the engine is torn down with no writeback), optionally
// all writes since the last durability barrier are dropped (power loss)
// or the fatal write is torn, and then io::Recover() replays the log.
// Each trial then proves, against a reference execution of the committed
// prefix on a reliable device:
//   - the recovered WAL chain holds exactly the acknowledged commits
//     since the last checkpoint (+1 when the in-flight commit's barrier
//     landed before the crash), payload-for-payload;
//   - the recovered device is BIT-IDENTICAL to the reference device on
//     every reference-live data page (WAL-owned pages set aside);
//   - the committed logical state, rebuilt via ReplayCommits, answers a
//     seeded query battery exactly like an oracle replaying the same
//     committed ops, and audits clean.
// A scheduled fault that lands on an absorbed operation (post-commit
// writeback or checkpoint) never surfaces: the run completes and is
// verified end-to-end against the oracle instead.

struct CrashFuzzOptions {
  uint64_t seed = 1;
  uint64_t ops = 48;  // mutation/query stream length per trial
  uint64_t universe = 300;
  uint32_t page_size = 1024;
  // Deliberately tiny: forces dirty evictions into the NO-STEAL spill
  // mid-mutation so recovery must cover spilled images too.
  uint32_t pool_frames = 128;
  uint32_t checkpoint_every = 4;
  // Cap on crash points per mode; the K sweep strides to stay under it.
  uint64_t max_crash_points = 96;
  // Power loss: drop every write since the last successful barrier.
  bool lose_unsynced = false;
  // Tear the fatal write (random prefix lands) instead of failing clean;
  // implies the power-loss drop as well.
  bool torn_crash = false;
};

struct CrashFuzzStats {
  uint64_t trials = 0;
  uint64_t crashes = 0;        // trials where the fault surfaced as an error
  uint64_t clean_runs = 0;     // fault absorbed (writeback/checkpoint) or k=0
  uint64_t commits_recovered = 0;
  uint64_t images_applied = 0;
  uint64_t torn_tail_trials = 0;  // recoveries that discarded a torn tail
  uint64_t pages_compared = 0;    // bit-identical data pages checked
  uint64_t spill_trials = 0;      // trials whose commits carried spilled images
};

// Runs the fail-at-op-K sweep for `factory`'s index under a DurableEngine.
// Returns OK when every crash point recovers to the committed prefix. On
// divergence, prints a one-line reproducer (--seed/--ops/--crash-at) and
// returns Corruption.
Status RunCrashRecoverySweep(const std::string& label,
                             const IndexFactory& factory,
                             const CrashFuzzOptions& options,
                             CrashFuzzStats* stats = nullptr);

// SegmentIndex adapter over ShearedIndex (identity direction (0, 1)) so
// the fuzzer can drive the sheared wrapper through the common interface.
// Identity keeps the oracle comparable; non-identity directions are
// covered by sheared_test.cc.
class ShearedAdapter final : public core::SegmentIndex {
 public:
  explicit ShearedAdapter(std::unique_ptr<core::SegmentIndex> inner)
      : sheared_(std::move(inner), /*dir_x=*/0, /*dir_y=*/1) {}

  Status BulkLoad(std::span<const geom::Segment> segments) override {
    return sheared_.BulkLoad(segments);
  }
  Status Insert(const geom::Segment& segment) override {
    return sheared_.Insert(segment);
  }
  Status Erase(const geom::Segment& segment) override {
    return sheared_.Erase(segment);
  }
  Status Query(const core::VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override;
  uint64_t size() const override { return sheared_.size(); }
  uint64_t page_count() const override { return sheared_.page_count(); }
  std::string name() const override { return sheared_.name(); }
  Status CheckInvariants() const override {
    return sheared_.CheckInvariants();
  }

 private:
  core::ShearedIndex sheared_;
};

}  // namespace segdb::fuzz

#endif  // SEGDB_TESTS_FUZZ_HARNESS_H_
