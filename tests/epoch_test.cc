// EpochManager coverage (DESIGN.md section 18): pin/release bookkeeping,
// guard move semantics, publisher drain, and the central liveness claims
// under real thread storms — readers pinned to the pre-swap epoch keep
// their structure alive until they drain, new readers are never blocked
// by a draining publisher, and a DurableEngine bulk-load swap runs under
// a concurrent query storm without a single blocked or wrong answer.
// The *Concurrency* suites match the CI thread-sanitizer filter
// (-R 'Concurrency|PoolStress'), so the reclamation protocol is TSan-gated.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/durable_engine.h"
#include "core/epoch.h"
#include "core/two_level_interval_index.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::core {
namespace {

TEST(EpochTest, PinTracksSlotCounts) {
  EpochManager epochs;
  EXPECT_EQ(epochs.epoch(), 0u);
  EXPECT_EQ(epochs.pinned(0), 0u);
  {
    const EpochManager::Guard outer = epochs.Pin();
    EXPECT_EQ(epochs.pinned(0), 1u);
    {
      const EpochManager::Guard inner = epochs.Pin();
      EXPECT_EQ(epochs.pinned(0), 2u);
    }
    EXPECT_EQ(epochs.pinned(0), 1u);
  }
  EXPECT_EQ(epochs.pinned(0), 0u);
}

TEST(EpochTest, GuardMoveTransfersOwnership) {
  EpochManager epochs;
  EpochManager::Guard a = epochs.Pin();
  EXPECT_EQ(epochs.pinned(0), 1u);
  EpochManager::Guard b = std::move(a);  // move ctor: still one pin
  EXPECT_EQ(epochs.pinned(0), 1u);
  EpochManager::Guard c;
  c = std::move(b);  // move assign: still one pin
  EXPECT_EQ(epochs.pinned(0), 1u);
  c.Release();
  EXPECT_EQ(epochs.pinned(0), 0u);
  c.Release();  // idempotent
  EXPECT_EQ(epochs.pinned(0), 0u);
}

TEST(EpochTest, AdvanceAndWaitWithNoReadersReturnsImmediately) {
  EpochManager epochs;
  epochs.AdvanceAndWait();
  epochs.AdvanceAndWait();
  EXPECT_EQ(epochs.epoch(), 2u);
}

TEST(EpochTest, AdvanceWaitsForPreSwapReadersOnly) {
  EpochManager epochs;
  EpochManager::Guard pre = epochs.Pin();  // epoch-0 reader
  std::atomic<bool> drained{false};
  std::thread publisher([&epochs, &drained] {
    epochs.AdvanceAndWait();
    drained.store(true, std::memory_order_release);
  });
  // The publisher must be stuck behind the epoch-0 pin...
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load(std::memory_order_acquire));
  // ...while a NEW reader pins the advanced epoch without blocking and
  // without extending the drain.
  const EpochManager::Guard post = epochs.Pin();
  EXPECT_EQ(epochs.epoch(), 1u);
  EXPECT_EQ(epochs.pinned(1), 1u);
  pre.Release();
  publisher.join();
  EXPECT_TRUE(drained.load(std::memory_order_acquire));
  EXPECT_EQ(epochs.pinned(1), 1u);  // the post-swap reader is untouched
}

// The reclamation contract under a storm: a reader that pinned an epoch
// may dereference whatever root it loaded until it releases, no matter
// how many swaps land meanwhile. Retired nodes are stamped dead before
// deletion — a reader observing the stamp proves a premature drain.
TEST(EpochConcurrencyTest, ReadersNeverSeeAReclaimedNode) {
  constexpr uint64_t kLive = 0x4C49564556494C45ull;  // "LIVEVILE"
  constexpr uint64_t kDead = 0xDEADDEADDEADDEADull;
  struct Node {
    std::atomic<uint64_t> magic{kLive};
    uint64_t value = 0;
  };

  EpochManager epochs;
  std::atomic<Node*> root{new Node};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&epochs, &root, &stop, &reads, &violations] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const EpochManager::Guard guard = epochs.Pin();
        Node* node = root.load(std::memory_order_acquire);
        if (node->magic.load(std::memory_order_acquire) != kLive) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        const uint64_t value = node->value;
        if (value < last) {  // publications are monotone
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last = value;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Wait for the storm to actually be running before the first swap, so
  // the publisher provably contends with pinned readers.
  while (reads.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  const uint64_t reads_before_swaps = reads.load(std::memory_order_relaxed);
  for (uint64_t swap = 1; swap <= 200; ++swap) {
    Node* next = new Node;
    next->value = swap;
    Node* retired = root.exchange(next, std::memory_order_acq_rel);
    epochs.AdvanceAndWait();
    // Drained: no reader can still hold `retired`.
    retired->magic.store(kDead, std::memory_order_release);
    delete retired;
    // On a single core the publisher can land many swaps in one timeslice
    // with no reader pinned; insist the storm interleaves with the drains.
    if (swap % 16 == 0) {
      const uint64_t mark = reads.load(std::memory_order_relaxed);
      while (reads.load(std::memory_order_relaxed) == mark) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  delete root.load();

  EXPECT_EQ(violations.load(), 0u);
  // The storm kept making progress while the publisher drained: drains
  // never blocked the readers out of the structure.
  EXPECT_GT(reads.load(), reads_before_swaps);
}

// End-to-end: DurableEngine bulk loads republish the root while a query
// storm runs. Every answer must come from a complete pre- or post-swap
// structure (never a half-built one), and the storm must keep making
// progress through every drain.
TEST(EpochConcurrencyTest, EngineBulkLoadSwapsUnderQueryStorm) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 512);
  Result<std::unique_ptr<DurableEngine>> created = DurableEngine::Create(
      &pool, &disk,
      [](io::BufferPool* p) {
        return std::make_unique<TwoLevelIntervalIndex>(p);
      });
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<DurableEngine> engine = std::move(created.value());

  Rng rng(20260808);
  const auto universe = workload::GenMapLayer(rng, 400, 400 * 125);
  const auto box = workload::ComputeBoundingBox(universe);
  // Generations of strictly growing prefixes: any answer's id set must be
  // a subset of the universe, and sizes only ever step between published
  // generation sizes.
  ASSERT_TRUE(
      engine->BulkLoad({universe.data(), universe.size() / 4}).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&engine, &box, &stop, &answered, &failures, r] {
      Rng qrng(1000 + r);
      std::vector<geom::Segment> out;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t x0 = qrng.UniformInt(box.xmin, box.xmax);
        out.clear();
        const Status s = engine->Query(
            core::VerticalSegmentQuery::Line(x0), &out);
        if (!s.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publisher: republish growing prefixes; every BulkLoad drains the
  // pre-swap readers before destroying the retired structure.
  for (size_t gen = 1; gen <= 24; ++gen) {
    const size_t count =
        universe.size() / 4 + (gen * universe.size() * 3 / 4) / 24;
    const Status s =
        engine->BulkLoad({universe.data(), std::min(count, universe.size())});
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(answered.load(), 24u);
  EXPECT_EQ(engine->size(), universe.size());
  EXPECT_TRUE(engine->CheckInvariants().ok());
}

}  // namespace
}  // namespace segdb::core
