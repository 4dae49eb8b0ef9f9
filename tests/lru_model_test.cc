// BufferPool eviction conformance: the pool's hit/miss pattern must match a
// reference CLOCK model over randomized fetch traces — the experiments'
// cold/warm distinction depends on this being exact.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "util/random.h"

namespace segdb::io {
namespace {

// Reference second-chance CLOCK over page ids, following the pool's rules
// for one shard: free frames fill in frame order; every access (pin and
// unpin alike) sets the page's reference bit; a miss with no free frame
// sweeps from the hand — which starts at frame 0 — clearing set bits until
// it meets a clear one, evicts that page and leaves the hand one past it.
class ModelClock {
 public:
  explicit ModelClock(size_t capacity) : slots_(capacity) {}

  // Returns true on hit.
  bool Touch(PageId id) {
    auto it = where_.find(id);
    if (it != where_.end()) {
      slots_[it->second].referenced = true;
      return true;
    }
    size_t slot = used_;
    if (used_ < slots_.size()) {
      ++used_;
    } else {
      while (slots_[hand_].referenced) {
        slots_[hand_].referenced = false;
        hand_ = (hand_ + 1) % slots_.size();
      }
      slot = hand_;
      hand_ = (hand_ + 1) % slots_.size();
      where_.erase(slots_[slot].id);
    }
    slots_[slot] = Slot{id, true};
    where_[id] = slot;
    return false;
  }

 private:
  struct Slot {
    PageId id = kInvalidPageId;
    bool referenced = false;
  };
  std::vector<Slot> slots_;
  size_t used_ = 0;
  size_t hand_ = 0;
  std::unordered_map<PageId, size_t> where_;
};

TEST(LruModelTest, HitMissPatternMatchesReference) {
  constexpr size_t kFrames = 16;
  SimDiskManager disk(256);
  // Tier pinned off: this is the single-tier miss-pattern reference; with a
  // compressed tier, evicted-page re-fetches become promotions, not misses.
  BufferPool pool(&disk, kFrames, BufferPoolOptions{});
  ASSERT_EQ(pool.shard_count(), 1u);
  ModelClock model(kFrames);

  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref.value().page_id());
    ref.value().Release();
    model.Touch(ids.back());  // NewPage makes the page resident
  }

  Rng rng(181);
  for (int step = 0; step < 5000; ++step) {
    // Skewed access pattern: mostly a hot set, sometimes anything.
    const PageId id = rng.Bernoulli(0.7)
                          ? ids[rng.Uniform(8)]
                          : ids[rng.Uniform(ids.size())];
    const uint64_t misses_before = pool.stats().misses;
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    ref.value().Release();
    const bool pool_hit = pool.stats().misses == misses_before;
    const bool model_hit = model.Touch(id);
    ASSERT_EQ(pool_hit, model_hit) << "step " << step << " page " << id;
  }
}

TEST(LruModelTest, PinnedPagesAreNotEvicted) {
  constexpr size_t kFrames = 4;
  SimDiskManager disk(256);
  BufferPool pool(&disk, kFrames);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref.value().page_id());
  }
  // Pin one page and thrash the rest: the pinned page must stay a hit.
  auto pinned = pool.Fetch(ids[0]);
  ASSERT_TRUE(pinned.ok());
  Rng rng(182);
  for (int step = 0; step < 200; ++step) {
    auto ref = pool.Fetch(ids[1 + rng.Uniform(7)]);
    ASSERT_TRUE(ref.ok());
  }
  const uint64_t misses_before = pool.stats().misses;
  {
    auto again = pool.Fetch(ids[0]);
    ASSERT_TRUE(again.ok());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
}

TEST(LruModelTest, WritebackOnlyForDirtyVictims) {
  constexpr size_t kFrames = 2;
  SimDiskManager disk(256);
  BufferPool pool(&disk, kFrames);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto ref = pool.NewPage();
    ASSERT_TRUE(ref.ok());
    ids.push_back(ref.value().page_id());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.ResetStats();
  disk.ResetStats();
  // Clean evictions: cycle through pages read-only.
  for (int round = 0; round < 3; ++round) {
    for (PageId id : ids) {
      auto ref = pool.Fetch(id);
      ASSERT_TRUE(ref.ok());
    }
  }
  EXPECT_EQ(pool.stats().writebacks, 0u);
  EXPECT_EQ(disk.stats().writes, 0u);
  // Now dirty one page; its eviction must write exactly once.
  {
    auto ref = pool.Fetch(ids[0]);
    ASSERT_TRUE(ref.ok());
    ref.value().MarkDirty();
  }
  for (PageId id : ids) {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool.stats().writebacks, 1u);
  EXPECT_EQ(disk.stats().writes, 1u);
}

}  // namespace
}  // namespace segdb::io
