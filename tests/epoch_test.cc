// EpochManager coverage (DESIGN.md section 18): pin/release bookkeeping,
// guard move semantics, publisher drain, and the central liveness claims
// under real thread storms — readers pinned to the pre-swap epoch keep
// their structure alive until they drain, new readers are never blocked
// by a draining publisher, and a DurableEngine bulk-load swap runs under
// a concurrent query storm without a single blocked or wrong answer.
// The *Concurrency* suites match the CI thread-sanitizer filter
// (-R 'Concurrency|PoolStress'), so the reclamation protocol is TSan-gated.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_engine.h"
#include "core/epoch.h"
#include "core/two_level_interval_index.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "io/page.h"
#include "io/recovery.h"
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

// The same storm through a pool far smaller than one generation's index:
// every build spills dirty pages, and each commit's writeback (the pool's
// dirty frames, then the spilled pages) runs while the readers' misses
// evict frames and pull spilled pages back in. Every answer must be the
// exact answer over one published prefix, and the device must end up
// holding every committed page: a cold pool over it answers like the
// engine did.
TEST(EpochConcurrencyTest, EngineBulkLoadCommitsUnderQueryStormInTinyPool) {
  constexpr size_t kGenerations = 12;
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 24);
  const auto factory = [](io::BufferPool* p) {
    return std::make_unique<TwoLevelIntervalIndex>(p);
  };
  Result<std::unique_ptr<DurableEngine>> created =
      DurableEngine::Create(&pool, &disk, factory);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<DurableEngine> engine = std::move(created.value());

  Rng rng(20261020);
  const auto universe = workload::GenMapLayer(rng, 1200, 1200 * 125);
  const auto box = workload::ComputeBoundingBox(universe);
  std::vector<size_t> published = {universe.size() / 4};
  for (size_t gen = 1; gen <= kGenerations; ++gen) {
    published.push_back(universe.size() / 4 +
                        gen * (universe.size() - universe.size() / 4) /
                            kGenerations);
  }
  ASSERT_TRUE(engine->BulkLoad({universe.data(), published[0]}).ok());

  // An answer is right iff it is the stabbing set of one published
  // prefix: the first k stabbed universe positions, where the (k+1)-th
  // lies at or past that prefix's end.
  const auto matches_a_prefix = [&universe, &published](
                                    int64_t x0,
                                    std::vector<geom::Segment> answer) {
    std::vector<size_t> stabbed;
    for (size_t i = 0; i < universe.size(); ++i) {
      if (universe[i].x1 <= x0 && x0 <= universe[i].x2) stabbed.push_back(i);
    }
    std::sort(answer.begin(), answer.end(),
              [](const geom::Segment& a, const geom::Segment& b) {
                return a.id < b.id;
              });
    if (answer.size() > stabbed.size()) return false;
    for (size_t k = 0; k < answer.size(); ++k) {
      const geom::Segment& want = universe[stabbed[k]];
      const geom::Segment& got = answer[k];
      if (got.id != want.id || got.x1 != want.x1 || got.y1 != want.y1 ||
          got.x2 != want.x2 || got.y2 != want.y2) {
        return false;
      }
    }
    const size_t lo = answer.empty() ? 0 : stabbed[answer.size() - 1] + 1;
    const size_t hi = answer.size() == stabbed.size()
                          ? universe.size()
                          : stabbed[answer.size()];
    for (size_t count : published) {
      if (lo <= count && count <= hi) return true;
    }
    return false;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng qrng(2000 + r);
      std::vector<geom::Segment> out;
      while (!stop.load(std::memory_order_acquire)) {
        const int64_t x0 = qrng.UniformInt(box.xmin, box.xmax);
        out.clear();
        const Status s =
            engine->Query(core::VerticalSegmentQuery::Line(x0), &out);
        if (!s.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (!matches_a_prefix(x0, out)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Status loaded;
  for (size_t gen = 1; gen <= kGenerations && loaded.ok(); ++gen) {
    // Let the storm run into every build and commit.
    const uint64_t mark = answered.load(std::memory_order_relaxed);
    while (answered.load(std::memory_order_relaxed) == mark) {
      std::this_thread::yield();
    }
    loaded = engine->BulkLoad({universe.data(), published[gen]});
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(answered.load(), kGenerations);
  EXPECT_GT(pool.stats().spills, 0u);
  EXPECT_EQ(engine->writeback_failures(), 0u);
  EXPECT_EQ(engine->size(), universe.size());
  EXPECT_TRUE(engine->CheckInvariants().ok());

  // Every commit's writeback landed: with the pool emptied, answers come
  // from the device alone.
  ASSERT_TRUE(pool.EvictAll().ok());
  Rng probe(31);
  for (int q = 0; q < 64; ++q) {
    const int64_t x0 = probe.UniformInt(box.xmin, box.xmax);
    std::vector<geom::Segment> out;
    ASSERT_TRUE(engine->Query(core::VerticalSegmentQuery::Line(x0), &out).ok());
    std::sort(out.begin(), out.end(),
              [](const geom::Segment& a, const geom::Segment& b) {
                return a.id < b.id;
              });
    std::vector<uint64_t> want;
    for (const geom::Segment& seg : universe) {
      if (seg.x1 <= x0 && x0 <= seg.x2) want.push_back(seg.id);
    }
    ASSERT_EQ(out.size(), want.size()) << "x0=" << x0;
    for (size_t k = 0; k < want.size(); ++k) EXPECT_EQ(out[k].id, want[k]);
  }
}

// A device that runs a hook before each batch write: the hook stands in
// for a query's miss that lands in the middle of a commit's writeback.
class BatchHookDisk final : public io::SimDiskManager {
 public:
  using io::SimDiskManager::SimDiskManager;

  std::function<void()> before_batch;

  Status WritePages(std::span<io::PageWrite> writes) override {
    if (before_batch) before_batch();
    return io::SimDiskManager::WritePages(writes);
  }
};

// Solution B whose bulk load ends by taking scratch pages and freeing
// them, as a build's temporary pages die: the pool then holds free frames
// when the commit's writeback starts, although the build spilled.
class ScratchFreeingIndex final : public SegmentIndex {
 public:
  explicit ScratchFreeingIndex(io::BufferPool* pool)
      : pool_(pool), inner_(pool) {}

  Status BulkLoad(std::span<const geom::Segment> segments) override {
    SEGDB_RETURN_IF_ERROR(inner_.BulkLoad(segments));
    std::vector<io::PageId> scratch;
    for (int i = 0; i < 8; ++i) {
      Result<io::PageRef> ref = pool_->NewPage();
      if (!ref.ok()) return ref.status();
      scratch.push_back(ref.value().page_id());
    }
    for (io::PageId id : scratch) SEGDB_RETURN_IF_ERROR(pool_->FreePage(id));
    return Status::OK();
  }
  Status Insert(const geom::Segment& segment) override {
    return inner_.Insert(segment);
  }
  Status Query(const VerticalSegmentQuery& query,
               std::vector<geom::Segment>* out) const override {
    return inner_.Query(query, out);
  }
  uint64_t size() const override { return inner_.size(); }
  uint64_t page_count() const override { return inner_.page_count(); }
  std::string name() const override { return inner_.name(); }

 private:
  io::BufferPool* const pool_;
  TwoLevelIntervalIndex inner_;
};

// A query's miss can pull a spilled page back into the pool while the
// commit's writeback runs, after FlushAll listed its shard: that committed
// page is then dirty in RAM only, and a checkpoint would truncate its one
// durable copy. The checkpoint waits for a commit whose writeback no such
// pull overlapped; until then a crash recovers the page from the log.
TEST(EpochTest, CheckpointWaitsOutAPagePulledBackDuringWriteback) {
  constexpr uint32_t kPage = 1024;
  BatchHookDisk disk(kPage);
  io::BufferPool pool(&disk, 48);
  DurableEngineOptions options;
  options.checkpoint_every = 1;
  Result<std::unique_ptr<DurableEngine>> created = DurableEngine::Create(
      &pool, &disk,
      [](io::BufferPool* p) {
        return std::make_unique<ScratchFreeingIndex>(p);
      },
      options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<DurableEngine> engine = std::move(created.value());
  Rng rng(20261020);
  const auto universe = workload::GenMapLayer(rng, 1200, 1200 * 125);

  io::PageImage pulled;
  disk.before_batch = [&] {
    // FlushAll's batch is the first one after the commit's barrier.
    if (engine->wal_stats().commits != 1 || pulled.id != io::kInvalidPageId) {
      return;
    }
    // Pull a spilled page whose device copy is stale.
    std::vector<io::PageImage> spilled;
    engine->spill().CollectImages(&spilled);
    io::Page device(kPage);
    for (const io::PageImage& image : spilled) {
      ASSERT_TRUE(disk.PeekPage(image.id, &device).ok());
      if (std::memcmp(device.data(), image.bytes.data(), kPage) != 0) {
        pulled = image;
        break;
      }
    }
    ASSERT_NE(pulled.id, io::kInvalidPageId);
    Result<io::PageRef> ref = pool.Fetch(pulled.id);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  };
  ASSERT_TRUE(engine->BulkLoad(universe).ok());
  disk.before_batch = nullptr;
  ASSERT_NE(pulled.id, io::kInvalidPageId);
  // The page rides into the next commit; until then the log keeps it.
  EXPECT_EQ(engine->commits_since_checkpoint(), 1u);
  std::vector<io::PageImage> dirty;
  pool.CollectDirty(&dirty);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].id, pulled.id);

  const io::PageId anchor = engine->wal_anchor();
  engine->SimulateCrash();
  engine.reset();
  Result<io::RecoveryResult> recovered = io::Recover(&disk, anchor);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  io::Page page(kPage);
  ASSERT_TRUE(disk.PeekPage(pulled.id, &page).ok());
  EXPECT_EQ(std::memcmp(page.data(), pulled.bytes.data(), kPage), 0);
}

}  // namespace
}  // namespace segdb::core
