// A CLOCK buffer pool over the simulated disk. All index structures access
// pages through PageRef pins obtained here, so the pool's miss counter is
// exactly the number of I/O operations in the paper's cost model. The pool
// has one tier of frames, and every fetch is a hit or a miss.
//
// Measurement protocol used by tests and benchmarks:
//   build structure -> pool.FlushAll() -> pool.EvictAll() -> pool.ResetStats()
//   -> run query -> pool.stats().misses  == cold-cache query I/Os.
//
// Concurrency model (DESIGN.md section 10). The read path — Fetch of
// already-written pages, PageRef::page() const access, Release, Prefetch —
// is safe from any number of threads. The page table is sharded by size
// (S = clamp(frames/64, 1, 16); pages hash to shards by id; each shard owns
// a disjoint set of frames, its own mutex and its own CLOCK hand), so
// readers on different shards never serialize. A miss never holds its
// shard during the device read: it claims a frame under the shard lock,
// fills it with no lock held, and re-locks to install it. Everything that
// mutates pages or the page set — NewPage, FreePage, MarkDirty plus writes
// through page(), FlushAll, EvictAll, ResetStats — requires external
// synchronization: a single writer with no concurrent readers
// (quiescence). Stats are kept per shard and aggregated by stats(), so the
// miss counter still equals the paper's I/O count.
//
// Dirty lists. Each shard lists the frames that went clean -> dirty since
// its last FlushAll, so a commit's CollectDirty and FlushAll cost its dirty
// pages, not the pool. A frame is appended on that edge — by MarkDirty,
// NewPage, or a spilled page's re-entry in Fetch — and at most once
// (Frame::listed). An entry whose frame was since spilled, written back,
// freed or reused is stale; the walks skip it by the frame's dirty bit, and
// FlushAll drops it.
//
// Lock discipline (compile-time checked on Clang, DESIGN.md section 12).
// Each Shard::mu is a capability guarding that shard's page_table, free
// list, dirty list, CLOCK hand, stats, and the shard-owned frames'
// non-atomic metadata (Frame::id, Frame::prefetched, Frame::staging,
// Frame::listed). Shard mutexes are leaves and are never nested — every
// public method locks at most one shard at a time (the quiescent sweeps
// lock shards strictly one after another), and nothing that holds one
// calls MarkDirty.
// Three fields deliberately live OUTSIDE the capability as atomics:
//   - Frame::pin_count: decremented lock-free by PageRef::Release from any
//     thread (taking the shard lock on every unpin would serialize readers
//     that never touch the page table); its release/acquire pairing with
//     the CLOCK sweep is documented at the use sites.
//   - Frame::referenced: the CLOCK reference bit, set on pin and unpin;
//     the hand reads and clears it only for *unpinned* frames under the
//     shard lock, and pins only grow under that lock, so no set is lost.
//   - Frame::dirty: set by MarkDirty through a pinned PageRef; the pin
//     itself keeps eviction away, and the unpin release-store publishes it
//     to the next sweep. Only the clean -> dirty edge takes the shard lock,
//     to list the frame; marking a dirty frame again stays lock-free.
#ifndef SEGDB_IO_BUFFER_POOL_H_
#define SEGDB_IO_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "io/disk_manager.h"
#include "io/page.h"
#include "util/status.h"
#include "util/sync.h"

namespace segdb::io {

class BufferPool;

// RAII pin on a buffered page. While a PageRef is live the frame cannot be
// evicted. Move-only; releases the pin on destruction. Self-move-assignment
// is a no-op; a moved-from PageRef is !valid() and may be reassigned or
// Release()d freely.
class PageRef {
 public:
  PageRef() = default;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_), page_id_(other.page_id_) {
    other.pool_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  Page& page();
  const Page& page() const;

  // Marks the frame dirty so eviction/flush writes it back to disk. The
  // clean -> dirty edge takes the frame's shard lock to put the frame on
  // the shard's dirty list; a frame already dirty costs one atomic.
  void MarkDirty();

  // Drops the pin early (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), page_id_(id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
};

// Where dirty evictions go when a durability layer owns writeback ordering
// (NO-STEAL): instead of writing an uncommitted page to the device, the pool
// hands the bytes to the sink, re-fills later fetches from it, and defers
// device frees to it. io::DirtyPageSpill (wal.h) is the implementation; the
// pool sees only this interface so it does not depend on the WAL layer.
// Methods are called under a shard mutex — implementations must be
// internally synchronized and must not call back into the pool.
class WritebackSink {
 public:
  virtual ~WritebackSink() = default;

  // A dirty frame is being evicted: take ownership of the page's current
  // bytes (replacing any earlier spill of the same id). Must not fail —
  // the spill is RAM-to-RAM.
  virtual void CaptureEviction(PageId id, const Page& page) = 0;

  // If `id` was spilled, move its bytes into *out (removing the spill
  // entry) and return true. The caller marks the frame dirty: the device
  // copy is stale until commit-time writeback.
  virtual bool TakeSpilled(PageId id, Page* out) = 0;

  virtual bool Contains(PageId id) const = 0;

  // The pool is freeing `id`: drop any spilled bytes and remember the id so
  // the device-level free can be applied after the owning commit (keeping
  // the device free list a function of committed state only).
  virtual void DeferFree(PageId id) = 0;
};

struct BufferPoolStats {
  uint64_t fetches = 0;     // logical page requests
  uint64_t hits = 0;        // served from a resident frame
  uint64_t misses = 0;      // a demand read the paper's model charges
  uint64_t writebacks = 0;  // dirty evictions / flushes
  uint64_t prefetches = 0;  // pages staged by Prefetch (uncharged reads)
  uint64_t spills = 0;      // dirty evictions diverted to a WritebackSink
};

// Construction options: none. The pool has one eviction policy and one
// tier of frames. The struct stays because callers, perfbench among them,
// pass BufferPoolOptions{}. Add a field only with a benchmark that shows
// it earns its lines.
struct BufferPoolOptions {};

class BufferPool {
 public:
  // `frame_count` bounds resident pages; fetching past it evicts an
  // unpinned frame chosen by its shard's CLOCK hand. Pools under 128
  // frames get a single shard.
  BufferPool(DiskManager* disk, size_t frame_count,
             BufferPoolOptions options = {});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  DiskManager* disk() { return disk_; }
  uint32_t page_size() const { return page_size_; }
  size_t frame_count() const { return frames_.size(); }
  size_t shard_count() const { return shards_.size(); }

  // Pins the page, reading it from disk on a miss. Thread-safe. A miss
  // claims a frame (a free one first, else the CLOCK victim), reads into it
  // with no lock held, then installs it; if another thread installed the
  // same page meanwhile, the claim is released and that frame is pinned
  // instead (both reads stay charged, so misses still equal device reads).
  // A failed read returns the claimed frame to the free list.
  Result<PageRef> Fetch(PageId id);

  // Allocates a fresh zeroed page on disk and pins it (dirty). Writer path.
  Result<PageRef> NewPage();

  // Frees a disk page. The page must not be pinned. Writer path.
  Status FreePage(PageId id);

  // Read-ahead hint: stages absent pages into *free* frames of their
  // shards, unpinned and uncharged — the first demand Fetch of a staged
  // page still counts one miss (the I/O the paper's model charges) but
  // needs no physical read. Never evicts; pages that don't fit or fail to
  // read are silently skipped. Thread-safe.
  //
  // Completion-based: frames are claimed first (pinned, `staging`), then
  // every claimed page is filled in ONE DiskManager::PeekPagesBatch — on
  // the file backend that is a single batched async submission through
  // the I/O scheduler — and installed as fills complete. Cold I/O counts
  // are unchanged: the batch is uncounted, and each staged page's miss is
  // still charged at its first demand Fetch.
  void Prefetch(std::span<const PageId> ids);

  // Writes back all dirty frames (pages stay resident), walking only the
  // dirty lists, each in frame order. Quiescent only.
  Status FlushAll();

  // Writes back and drops every unpinned frame — simulates a cold cache.
  // Fails if any page is still pinned. Quiescent only.
  Status EvictAll();

  // Attaches (or detaches, with nullptr) the dirty-writeback sink. While a
  // sink is attached, dirty evictions spill to it instead of the device,
  // misses re-fill from it, and FreePage defers the device free to it —
  // the NO-STEAL discipline the WAL's recovery proof needs. FlushAll and
  // EvictAll deliberately still write to the device: they ARE the commit-
  // time writeback the sink exists to order. Quiescent only.
  void set_writeback_sink(WritebackSink* sink) { sink_ = sink; }
  WritebackSink* writeback_sink() const { return sink_; }

  // Copies every dirty resident frame into *out, ascending by page id (a
  // canonical order, so WAL byte streams are reproducible run-to-run).
  // Walks only the dirty lists. Quiescent only; spilled pages are the
  // sink's to report.
  void CollectDirty(std::vector<PageImage>* out) const;

  // Aggregates the per-shard counters. The sums reproduce exactly the
  // single-threaded counters for any serial trace.
  BufferPoolStats stats() const;
  void ResetStats();

  // Audits the pool: page-table/frame agreement, pin and CLOCK bookkeeping,
  // dirty lists (every dirty frame listed by its shard, no frame listed
  // twice), stats consistency, and clean resident frames matching their
  // on-disk contents (via DiskManager::PeekPage, so no I/O is counted).
  // Takes each shard's mutex while auditing it, so it may run concurrently
  // with the pure read path (Fetch/Release/Prefetch of clean pages). It
  // must still not overlap writers: the clean-frame-vs-disk byte compare
  // races with writes through a pinned PageRef, which no pool lock can
  // exclude.
  Status CheckInvariants() const;

 private:
  friend class PageRef;
  // Tests only: brute-force walks over every frame, to check what the
  // dirty lists report.
  friend class BufferPoolPeer;

  // One cache line per frame: pins and unpins of neighbouring frames from
  // different threads never share a line, and the EvictAll and audit walks
  // stride evenly (a 40-byte frame walked a third slower).
  struct alignas(64) Frame {
    explicit Frame(uint32_t page_size) : page(page_size) {}
    Page page;
    PageId id = kInvalidPageId;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    // CLOCK reference bit: set on every pin and unpin, cleared by the hand
    // as it passes an unpinned frame (second chance).
    std::atomic<bool> referenced{false};
    // Resident via Prefetch but not yet demand-fetched: the first Fetch
    // charges the miss and clears this. Guarded by the owning shard's
    // mutex — a per-frame fact the annotation language cannot name from
    // here (the frame does not know its shard), so the guard is enforced
    // by SEGDB_REQUIRES on every helper that touches it instead of
    // SEGDB_GUARDED_BY.
    bool prefetched = false;
    // Claimed by an in-flight fill — a demand miss or a batched Prefetch:
    // the frame holds the claimer's pin and its id, but is NOT in the page
    // table until the fill completes and installs it (or releases the
    // frame on a failed read / lost race). Same guard story as
    // `prefetched`.
    bool staging = false;
    // On its shard's dirty_frames. Same guard story as `prefetched`.
    bool listed = false;
  };

  struct Shard {
    // mutable: stats() and CheckInvariants() aggregate under it from
    // const context.
    mutable util::Mutex mu;
    // page id -> global frame index; all mapped frames belong to `frames`.
    std::unordered_map<PageId, size_t> page_table SEGDB_GUARDED_BY(mu);
    // Global frame indices owned by the shard. Fixed at construction,
    // read-only afterwards — no guard needed.
    std::vector<size_t> frames;
    // Frames with no page and no claim, taken from the back. A fresh or
    // emptied shard holds `frames` reversed, so it fills in frame order.
    std::vector<size_t> free_frames SEGDB_GUARDED_BY(mu);
    // The dirty list (see the file comment): global frame indices, each at
    // most once, stale entries allowed.
    std::vector<size_t> dirty_frames SEGDB_GUARDED_BY(mu);
    // CLOCK hand: the position in `frames` the next sweep starts at.
    size_t hand SEGDB_GUARDED_BY(mu) = 0;
    BufferPoolStats stats SEGDB_GUARDED_BY(mu);
  };

  Shard& ShardFor(PageId id) { return shards_[id % shards_.size()]; }

  void Pin(Frame& f) {
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    f.referenced.store(true, std::memory_order_relaxed);
  }
  void Unpin(size_t frame);
  // Takes a free frame of `shard`, else evicts the CLOCK victim, writing it
  // back first if dirty. The frame comes back unmapped, unpinned and clean.
  Result<size_t> GrabFrame(Shard& shard) SEGDB_REQUIRES(shard.mu);
  // Marks a grabbed frame as claimed for `id`: pinned by the claimer,
  // `staging`, not in the page table. The caller holds the frame's shard
  // mutex, which the frame alone cannot name for the annotation.
  void Claim(Frame& f, PageId id);
  // Whether an in-flight fill of `id` holds a claim in `shard`.
  bool Claimed(const Shard& shard, PageId id) const SEGDB_REQUIRES(shard.mu);
  // Returns an unmapped frame (a released claim, a freed page) to the free
  // list: no id, no pin, clean.
  void FreeFrame(Shard& shard, size_t frame) SEGDB_REQUIRES(shard.mu);
  // Every frame free, in construction order, the hand at the start, and
  // the dirty list empty.
  void ResetFrames(Shard& shard) SEGDB_REQUIRES(shard.mu);
  // Puts a frame that just went dirty on its shard's dirty list, unless it
  // is there already.
  void ListDirty(Shard& shard, size_t frame) SEGDB_REQUIRES(shard.mu);

  DiskManager* disk_;
  const uint32_t page_size_;  // hoisted off the disk for the fetch path
  // deque: Frame holds atomics (immovable), and element addresses must be
  // stable while other threads touch them.
  std::deque<Frame> frames_;
  std::vector<Shard> shards_;
  // Set/cleared only while quiescent; read by the concurrent fetch path.
  // Not an atomic on purpose: attaching a sink mid-storm is outside the
  // pool's contract, same as every other writer-path operation.
  WritebackSink* sink_ = nullptr;
};

}  // namespace segdb::io

#endif  // SEGDB_IO_BUFFER_POOL_H_
