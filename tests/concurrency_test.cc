// Concurrent read-path tests: Fetch/Release storms against the sharded
// buffer pool (hot/cold mixes, eviction pressure, prefetch interleaving)
// and parallel QueryEngine batches against both two-level structures with
// oracle-checked results. Run under the `tsan` CMake preset to verify the
// synchronization, and in every build to verify the semantics:
// CheckInvariants() must hold once quiesced, and cold-cache I/O counts
// must not depend on the shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/query_engine.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/predicates.h"
#include "geom/filter_kernel.h"
#include "io/buffer_pool.h"
#include "io/columnar_page_view.h"
#include "io/disk_manager.h"
#include "io/fault_injection.h"
#include "io/file_disk_manager.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb {
namespace {

using core::VerticalSegmentQuery;
using geom::Segment;

uint64_t Stamp(io::PageId id) { return 0x9e3779b97f4a7c15ULL * (id + 1); }

// A disk full of pages whose contents are a function of their id, flushed
// and quiesced so storms are pure read-path traffic.
std::vector<io::PageId> FillPages(io::BufferPool* pool, size_t count) {
  std::vector<io::PageId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto ref = pool->NewPage();
    EXPECT_TRUE(ref.ok());
    ref.value().page().WriteAt<uint64_t>(0, Stamp(ref.value().page_id()));
    ref.value().MarkDirty();
    ids.push_back(ref.value().page_id());
  }
  EXPECT_TRUE(pool->FlushAll().ok());
  return ids;
}

// Runs `threads` readers over `ids` and returns how many fetches failed
// with `tolerated` (all-frames-pinned by default, which is legal under
// pressure). A failure with any other code, or a wrong stamp, fails the
// test: never silent decay.
uint64_t FetchStorm(io::BufferPool* pool, const std::vector<io::PageId>& ids,
                    size_t threads, size_t fetches_per_thread,
                    StatusCode tolerated = StatusCode::kResourceExhausted) {
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> failed{0};
  // Pins `id` and checks its stamp; an invalid ref means the fetch failed.
  auto fetch = [&](io::PageId id) {
    auto ref = pool->Fetch(id);
    if (!ref.ok()) {
      if (ref.status().code() == tolerated) {
        ++failed;
      } else {
        ++bad;
      }
      return io::PageRef();
    }
    if (ref.value().page().ReadAt<uint64_t>(0) != Stamp(id)) ++bad;
    return std::move(ref.value());
  };
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < fetches_per_thread; ++i) {
        // Mixed hot/cold: mostly a small hot set, sometimes any page.
        const io::PageId id = rng.Bernoulli(0.7)
                                  ? ids[rng.Uniform(32)]
                                  : ids[rng.Uniform(ids.size())];
        const io::PageRef ref = fetch(id);
        // Occasionally hold a second overlapping pin on another page.
        if (ref.valid() && i % 7 == 0) fetch(ids[rng.Uniform(ids.size())]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
  return failed.load();
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

// A page-cache file device small enough for a test directory.
std::unique_ptr<io::FileDiskManager> OpenFileDevice(const std::string& path) {
  io::FileDiskManagerOptions options;
  options.max_pages = 4096;
  options.direct = io::FileDiskManagerOptions::Direct::kOff;
  auto opened = io::FileDiskManager::Open(path, options);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return opened.ok() ? std::move(opened.value()) : nullptr;
}

// Holds ReadPage of one page until the test opens the gate; every other
// call goes straight to the base device.
class GatedDisk final : public io::DiskManager {
 public:
  explicit GatedDisk(io::DiskManager* base)
      : io::DiskManager(base->page_size()), base_(base) {}

  void Close(io::PageId id) {
    util::MutexLock lock(&mu_);
    gated_ = id;
  }
  void Open() {
    util::MutexLock lock(&mu_);
    gated_ = io::kInvalidPageId;
    cv_.NotifyAll();
  }
  // Whether a reader reached the gate before the deadline.
  bool WaitParked(const util::Deadline& deadline) {
    util::MutexLock lock(&mu_);
    while (!parked_ && !deadline.expired()) cv_.WaitUntil(mu_, deadline.when());
    return parked_;
  }

  Status ReadPage(io::PageId id, io::Page* out) override {
    {
      util::MutexLock lock(&mu_);
      if (id == gated_) {
        parked_ = true;
        cv_.NotifyAll();
        while (id == gated_) cv_.Wait(mu_);
      }
    }
    return base_->ReadPage(id, out);
  }
  Result<io::PageId> AllocatePage() override { return base_->AllocatePage(); }
  Status FreePage(io::PageId id) override { return base_->FreePage(id); }
  Status PeekPage(io::PageId id, io::Page* out) const override {
    return base_->PeekPage(id, out);
  }
  Status WritePage(io::PageId id, const io::Page& page) override {
    return base_->WritePage(id, page);
  }
  Status WritePagePrefix(io::PageId id, const io::Page& page,
                         uint32_t prefix_bytes) override {
    return base_->WritePagePrefix(id, page, prefix_bytes);
  }
  void PrefetchPages(std::span<const io::PageId> ids) override {
    base_->PrefetchPages(ids);
  }
  uint64_t pages_in_use() const override { return base_->pages_in_use(); }
  uint64_t high_water_pages() const override {
    return base_->high_water_pages();
  }

 private:
  io::DiskManager* const base_;
  util::Mutex mu_;
  util::CondVar cv_;
  io::PageId gated_ SEGDB_GUARDED_BY(mu_) = io::kInvalidPageId;
  bool parked_ SEGDB_GUARDED_BY(mu_) = false;
};

TEST(ConcurrencyTest, FetchStormShardedPool) {
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 4096);  // 16 shards
  ASSERT_GT(pool.shard_count(), 1u);
  auto ids = FillPages(&pool, 1024);
  FetchStorm(&pool, ids, 8, 2000);
  ASSERT_TRUE(pool.CheckInvariants().ok());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.fetches);
  EXPECT_GE(stats.fetches, 8u * 2000u);
}

TEST(ConcurrencyTest, FetchStormUnderEvictionPressure) {
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 64);  // 1 shard, working set 8x the frames
  ASSERT_EQ(pool.shard_count(), 1u);
  auto ids = FillPages(&pool, 512);
  FetchStorm(&pool, ids, 4, 2000);
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

TEST(ConcurrencyTest, CrossShardEvictionStorm) {
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 128);  // 2 shards, evicting on both
  ASSERT_EQ(pool.shard_count(), 2u);
  auto ids = FillPages(&pool, 256);
  FetchStorm(&pool, ids, 6, 2000);
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

// A miss reads its page with no shard lock held: while one page's read is
// parked on the device, a hit and a miss on other pages of the same (only)
// shard complete. The wait is bounded, so a pool that holds the shard
// across the read fails here instead of hanging.
TEST(ConcurrencyTest, MissDoesNotBlockItsShard) {
  io::SimDiskManager base(256);
  GatedDisk disk(&base);
  io::BufferPool pool(&disk, 16);
  ASSERT_EQ(pool.shard_count(), 1u);
  const auto ids = FillPages(&pool, 32);
  ASSERT_TRUE(pool.EvictAll().ok());
  ASSERT_TRUE(pool.Fetch(ids[0]).ok());  // resident: the hit below

  constexpr uint64_t kWaitMicros = 5'000'000;
  disk.Close(ids[1]);
  std::atomic<uint64_t> bad{0};
  auto fetch = [&](io::PageId id) {
    auto ref = pool.Fetch(id);
    if (!ref.ok() || ref.value().page().ReadAt<uint64_t>(0) != Stamp(id)) {
      ++bad;
    }
  };
  std::thread parked([&] { fetch(ids[1]); });
  const bool reached =
      disk.WaitParked(util::Deadline::AfterMicros(kWaitMicros));
  util::Mutex mu;
  util::CondVar cv;
  bool done = false;
  std::thread other([&] {
    fetch(ids[0]);
    fetch(ids[2]);
    util::MutexLock lock(&mu);
    done = true;
    cv.NotifyAll();
  });
  bool finished = false;
  {
    const util::Deadline deadline = util::Deadline::AfterMicros(kWaitMicros);
    util::MutexLock lock(&mu);
    while (!done && !deadline.expired()) cv.WaitUntil(mu, deadline.when());
    finished = done;
  }
  disk.Open();
  parked.join();
  other.join();
  EXPECT_TRUE(reached) << "the gated read never started";
  EXPECT_TRUE(finished) << "a hit and a miss waited for another page's read";
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_TRUE(pool.CheckInvariants().ok());
}

// Readers miss through a small pool over the real file device, so the
// lock-free device reads and the claim/fill/install path run concurrently.
TEST(ConcurrencyTest, FileDeviceReadStorm) {
  const std::string path = TempPath("concurrency_file_storm.segdb");
  auto file = OpenFileDevice(path);
  ASSERT_NE(file, nullptr);
  io::BufferPool pool(file.get(), 64);
  const auto ids = FillPages(&pool, 512);  // working set 8x the frames
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  file->ResetStats();
  EXPECT_EQ(FetchStorm(&pool, ids, 4, 2000), 0u);
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.message();
  EXPECT_EQ(pool.stats().misses, file->stats().reads);
  EXPECT_GT(pool.stats().misses, 0u);
  file.reset();
  std::remove(path.c_str());
}

// The same storm with about 5% of device reads failing: every failed Fetch
// reports the IoError and leaves no half-installed frame behind.
TEST(ConcurrencyTest, FileDeviceReadStormWithReadFaults) {
  const std::string path = TempPath("concurrency_file_fault_storm.segdb");
  auto file = OpenFileDevice(path);
  ASSERT_NE(file, nullptr);
  io::FaultPlan plan;
  plan.seed = 22;
  plan.read_fault_rate = 0.05;
  io::FaultInjectingDiskManager faulty(file.get(), plan);
  faulty.set_enabled(false);
  io::BufferPool pool(&faulty, 64);
  const auto ids = FillPages(&pool, 512);
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  file->ResetStats();
  faulty.set_enabled(true);
  const uint64_t failed =
      FetchStorm(&pool, ids, 4, 2000, StatusCode::kIoError);
  faulty.set_enabled(false);  // the audit's own reads must not fault
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(failed, faulty.faults_injected());
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.message();
  // A failed read is a charged miss that the device never served.
  EXPECT_EQ(pool.stats().misses, file->stats().reads + failed);
  file.reset();
  std::remove(path.c_str());
}

TEST(ConcurrencyTest, ConcurrentPrefetchAndFetch) {
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 4096);
  auto ids = FillPages(&pool, 2048);
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(2000 + t);
      std::vector<io::PageId> span;
      for (size_t i = 0; i < 1500; ++i) {
        if (t % 2 == 0) {
          // Prefetcher: stage a small random run of pages.
          span.clear();
          const size_t base = rng.Uniform(ids.size() - 4);
          for (size_t k = 0; k < 4; ++k) span.push_back(ids[base + k]);
          pool.Prefetch(span);
        } else {
          const io::PageId id = ids[rng.Uniform(ids.size())];
          auto ref = pool.Fetch(id);
          if (!ref.ok() ||
              ref.value().page().ReadAt<uint64_t>(0) != Stamp(id)) {
            ++bad;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
  ASSERT_TRUE(pool.CheckInvariants().ok());
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.fetches);
}

TEST(ConcurrencyTest, ColdIoCountsIndependentOfShardCount) {
  // The acceptance bar for the sharded stats: cold-cache per-query miss
  // counts must equal the single-shard counters. Each query's pages fit in
  // one shard's frames, so no query evicts and the split cannot matter.
  auto run = [](size_t frames, size_t* shards, std::vector<uint64_t>* ios) {
    io::SimDiskManager disk(1024);
    io::BufferPool pool(&disk, frames);
    *shards = pool.shard_count();
    const size_t shard_frames = frames / pool.shard_count();
    Rng rng(91);
    auto segs = workload::GenMapLayer(rng, 1500, 120000);
    core::TwoLevelIntervalIndex index(&pool);
    ASSERT_TRUE(index.BulkLoad(segs).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    auto box = workload::ComputeBoundingBox(segs);
    Rng qrng(7);
    auto queries = workload::GenVsQueries(qrng, 25, box, 0.01);
    for (const auto& q : queries) {
      ASSERT_TRUE(pool.EvictAll().ok());
      pool.ResetStats();
      std::vector<Segment> out;
      ASSERT_TRUE(
          index.Query(VerticalSegmentQuery{q.x0, q.ylo, q.yhi}, &out).ok());
      ios->push_back(pool.stats().misses);
      ASSERT_LE(ios->back(), shard_frames);
    }
  };
  size_t shards_small = 0, shards_large = 0;
  std::vector<uint64_t> ios_small, ios_large;
  run(127, &shards_small, &ios_small);    // single shard
  run(8192, &shards_large, &ios_large);   // sharded
  EXPECT_EQ(shards_small, 1u);
  EXPECT_GT(shards_large, 1u);
  EXPECT_EQ(ios_small, ios_large);
}

std::vector<uint64_t> SortedIds(const std::vector<Segment>& segs) {
  std::vector<uint64_t> ids;
  for (const Segment& s : segs) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename Index>
void RunEngineAgainstOracle(uint64_t seed) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 1 << 13);
  Rng rng(seed);
  auto segs = workload::GenMapLayer(rng, 2000, 100000);
  Index index(&pool);
  ASSERT_TRUE(index.BulkLoad(segs).ok());

  auto box = workload::ComputeBoundingBox(segs);
  Rng qrng(seed + 1);
  auto vs = workload::GenVsQueries(qrng, 120, box, 0.02);
  std::vector<VerticalSegmentQuery> queries;
  for (const auto& q : vs) queries.push_back({q.x0, q.ylo, q.yhi});

  // Serial reference, the plain Query loop.
  std::vector<std::vector<Segment>> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(index.Query(queries[i], &serial[i]).ok());
  }

  // Single-thread engine: bit-identical to the loop.
  core::QueryEngine one({.threads = 1});
  std::vector<std::vector<Segment>> single;
  ASSERT_TRUE(one.QueryBatch(index, queries, &single).ok());
  ASSERT_EQ(single.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(single[i], serial[i]) << "query " << i;
  }

  // Parallel engine: same per-query answers, order preserved.
  core::QueryEngine four({.threads = 4});
  std::vector<std::vector<Segment>> parallel;
  ASSERT_TRUE(four.QueryBatch(index, queries, &parallel).ok());
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "query " << i;
  }

  // And all of it against the brute-force oracle.
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<uint64_t> expect;
    for (const Segment& s : segs) {
      if (geom::IntersectsVerticalSegment(s, queries[i].x0, queries[i].ylo,
                                          queries[i].yhi)) {
        expect.push_back(s.id);
      }
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(SortedIds(parallel[i]), expect) << "query " << i;
  }

  ASSERT_TRUE(pool.CheckInvariants().ok());
  ASSERT_TRUE(index.CheckInvariants().ok());
}

TEST(ConcurrencyTest, QueryEngineSolutionAMatchesOracle) {
  RunEngineAgainstOracle<core::TwoLevelBinaryIndex>(301);
}

TEST(ConcurrencyTest, QueryEngineSolutionBMatchesOracle) {
  RunEngineAgainstOracle<core::TwoLevelIntervalIndex>(302);
}

TEST(ConcurrencyTest, QueryEnginePropagatesFirstError) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 1 << 10);
  Rng rng(303);
  auto segs = workload::GenMapLayer(rng, 500, 50000);
  core::TwoLevelBinaryIndex index(&pool);
  ASSERT_TRUE(index.BulkLoad(segs).ok());
  std::vector<VerticalSegmentQuery> queries(64,
                                            VerticalSegmentQuery{0, -10, 10});
  queries[5] = VerticalSegmentQuery{0, 10, -10};  // ylo > yhi
  core::QueryEngine engine({.threads = 4});
  std::vector<std::vector<Segment>> results;
  const Status status = engine.QueryBatch(index, queries, &results);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ConcurrencyTest, QueryEngineEmptyBatch) {
  io::SimDiskManager disk(1024);
  io::BufferPool pool(&disk, 64);
  core::TwoLevelBinaryIndex index(&pool);
  core::QueryEngine engine({.threads = 4});
  std::vector<std::vector<Segment>> results{{Segment{}}};
  ASSERT_TRUE(engine.QueryBatch(index, {}, &results).ok());
  EXPECT_TRUE(results.empty());
}

// Regression for a PR 4 lock-discipline finding surfaced by the
// thread-safety annotations: CheckInvariants walked every shard's page
// table and stats without holding the shard mutexes, so an audit
// overlapping a read storm raced the map mutations (a TSan hit, and a
// potential crash on a rehash). The audit now locks each shard while
// inspecting it, making it legal concurrently with the *pure* read path
// (clean pages, no writers); frames claimed by in-flight misses are
// audited as `staging`, never compared with the disk.
TEST(ConcurrencyTest, AuditConcurrentWithReadStorm) {
  io::SimDiskManager disk(256);
  // 16 shards with a working set twice the frames: the storm must keep
  // evicting, i.e. keep mutating the page tables the audit walks — with
  // an all-resident working set the map never changes and the pre-fix
  // race would not fire.
  io::BufferPool pool(&disk, 2048);
  auto ids = FillPages(&pool, 4096);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(4000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const io::PageId id = ids[rng.Uniform(ids.size())];
        auto ref = pool.Fetch(id);
        if (!ref.ok()) {
          if (ref.status().code() != StatusCode::kResourceExhausted) ++bad;
          continue;
        }
        if (ref.value().page().ReadAt<uint64_t>(0) != Stamp(id)) ++bad;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const Status audit = pool.CheckInvariants();
    EXPECT_TRUE(audit.ok()) << audit.message();
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  ASSERT_TRUE(pool.CheckInvariants().ok());
}

TEST(ConcurrencyTest, StatsConsistentDuringFetchStorm) {
  // stats() sums each shard's locked counters and its frames' lock-free hit
  // counts under the shard lock; polled mid-storm it must always satisfy
  // hits + misses == fetches and stay monotone. A locked fetch updates its
  // shard's triple under the mutex, and a lock-free hit is one count that
  // stats() adds to both hits and fetches, so every snapshot balances.
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 4096);
  auto ids = FillPages(&pool, 512);
  pool.ResetStats();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(5000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto ref = pool.Fetch(ids[rng.Uniform(ids.size())]);
        if (!ref.ok()) continue;  // all-pinned under pressure is legal
      }
    });
  }
  uint64_t last_fetches = 0;
  for (int i = 0; i < 500; ++i) {
    const auto s = pool.stats();
    EXPECT_EQ(s.hits + s.misses, s.fetches);
    EXPECT_GE(s.fetches, last_fetches);
    last_fetches = s.fetches;
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, s.fetches);
}

// Lock-free hits interleaved with frame reuse in one shard. Hot readers pin
// a small set of stamped pages and check every stamp, lock-free once the
// page is resident; missers fetch the other pages through 64 frames, so
// CLOCK victims, frames freed and reclaimed, and re-installs of a page
// into another frame keep racing the hot readers' table probes and pin
// CASes. A pin that landed on a frame mid-change would read another
// page's stamp.
TEST(ConcurrencyTest, LockFreeHitsRaceFrameReuse) {
  io::SimDiskManager disk(256);
  io::BufferPool pool(&disk, 64);
  ASSERT_EQ(pool.shard_count(), 1u);
  auto ids = FillPages(&pool, 512);
  pool.ResetStats();
  const std::vector<io::PageId> hot(ids.begin(), ids.begin() + 8);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> hot_fetches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(6000 + t);
      uint64_t done = 0;
      while (!stop.load(std::memory_order_relaxed) || done < 20000) {
        const io::PageId id = hot[rng.Uniform(hot.size())];
        auto ref = pool.Fetch(id);
        if (!ref.ok()) {
          if (ref.status().code() != StatusCode::kResourceExhausted) ++bad;
          continue;
        }
        if (ref.value().page().ReadAt<uint64_t>(0) != Stamp(id)) ++bad;
        ++done;
      }
      hot_fetches += done;
    });
  }
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      for (int i = 0; i < 20000; ++i) {
        const io::PageId id = ids[8 + rng.Uniform(ids.size() - 8)];
        auto ref = pool.Fetch(id);
        if (!ref.ok()) {
          if (ref.status().code() != StatusCode::kResourceExhausted) ++bad;
          continue;
        }
        if (ref.value().page().ReadAt<uint64_t>(0) != Stamp(id)) ++bad;
      }
    });
  }
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(bad.load(), 0u);
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.message();
  const auto s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, s.fetches);
  EXPECT_GE(s.fetches, hot_fetches.load());
  // The missers alone could hit only by chance; the hot set is resident.
  EXPECT_GT(s.hits, hot_fetches.load() / 2);
}

// Decode-slot fills racing each other and frame reuse in one shard. Every
// page holds a columnar region whose lanes are a function of its id. Hot
// readers scan a few pages through strips(), so their first fills race;
// missers scan the rest through 64 frames, so frames change pages, and
// their slots drop and refill, between the hot readers' probes. A reader
// served another page's lanes, or a half-filled slot, sees a wrong lane.
TEST(ConcurrencyTest, DecodeSlotFillsRaceFrameReuse) {
  constexpr uint32_t kPage = 512;
  constexpr uint32_t kOff = 8;
  const uint32_t cap = io::ColumnarRegionCapacity(kPage - kOff);
  auto record = [](io::PageId id, uint32_t i) {
    const int64_t x = int64_t{id} * 64 + i;
    return Segment::Make({x, i}, {x + 1 + i, int64_t{id}}, Stamp(id) + i);
  };
  io::SimDiskManager disk(kPage);
  io::BufferPool pool(&disk, 64);
  ASSERT_EQ(pool.shard_count(), 1u);
  std::vector<io::PageId> ids;
  for (int n = 0; n < 512; ++n) {
    auto ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    const io::PageId id = ref.value().page_id();
    std::vector<Segment> segs;
    for (uint32_t i = 0; i < cap; ++i) segs.push_back(record(id, i));
    io::ColumnarPageView(&ref.value().page(), kOff, cap)
        .WriteRange(0, segs.data(), cap);
    ref.value().MarkDirty();
    ids.push_back(id);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  const std::vector<io::PageId> hot(ids.begin(), ids.begin() + 8);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  auto scan = [&](io::PageId id) {
    auto ref = pool.Fetch(id);
    if (!ref.ok()) {
      if (ref.status().code() != StatusCode::kResourceExhausted) ++bad;
      return;
    }
    const io::ConstColumnarPageView view(ref.value().page(), kOff, cap);
    const geom::SegmentStrips s = view.strips();
    for (uint32_t i = 0; i < cap; ++i) {
      const Segment want = record(id, i);
      if (geom::StripLane(s.x1, i) != want.x1 ||
          geom::StripLane(s.x2, i) != want.x2 ||
          geom::StripLane(s.y1, i) != want.y1 ||
          geom::StripLane(s.y2, i) != want.y2 || view.Get(i) != want) {
        ++bad;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(8000 + t);
      for (int done = 0; !stop.load(std::memory_order_relaxed) || done < 5000;
           ++done) {
        scan(hot[rng.Uniform(hot.size())]);
      }
    });
  }
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + t);
      for (int i = 0; i < 5000; ++i) {
        scan(ids[8 + rng.Uniform(ids.size() - 8)]);
      }
    });
  }
  for (size_t t = 2; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(bad.load(), 0u);
  const Status audit = pool.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.message();
}

TEST(ConcurrencyTest, ThreadPoolRunsEverySubmittedTask) {
  util::ThreadPool tp(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    tp.Submit([&sum, i] { sum.fetch_add(i); });
  }
  // Destructor drains the queue before joining.
  {
    util::ThreadPool drain(2);
    for (int i = 0; i < 10; ++i) drain.Submit([&sum] { sum.fetch_add(1000); });
  }
  // Give the first pool's tasks a bounded wait via destruction too.
  {
    util::ThreadPool sync(1);
    sync.Submit([] {});
  }
  while (sum.load() < 5050 + 10000) std::this_thread::yield();
  EXPECT_EQ(sum.load(), 5050 + 10000);
}

}  // namespace
}  // namespace segdb
