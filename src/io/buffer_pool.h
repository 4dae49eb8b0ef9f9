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
// is safe from any number of threads. Pages hash to shards by id (S =
// clamp(frames/64, 1, 16)); each shard owns a disjoint set of frames, its
// own mutex, page table and CLOCK hand. A hit takes no lock: Fetch probes
// its shard's page table, a fixed array of atomic (page id, frame) words,
// and pins the frame with a CAS on the frame's pin word, which carries the
// id of the page the frame holds readable beside its pin count, so the pin
// succeeds only if the frame still holds that page. A probe that finds
// nothing, or a pin that loses a race, falls back to the locked path; no
// thread ever waits for another's pin. A miss never holds its shard during
// the device read: it claims a frame under the shard lock, fills it with
// no lock held, and re-locks to install it. Everything that mutates pages
// or the page set — NewPage, FreePage, MarkDirty plus writes through
// page(), FlushAll, EvictAll, ResetStats — requires external
// synchronization: a single writer. Of these only FlushAll may run beside
// the read path (a durable commit writes back while queries run): its
// batch pins the frames it writes, so no miss evicts one under it. The
// rest need quiescence. Stats are kept per shard, plus a per-frame count
// of lock-free hits, and summed by stats(), so the miss counter still
// equals the paper's I/O count.
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
// Each Shard::mu is a capability guarding that shard's free list, dirty
// list, CLOCK hand, stats, every write to its page table, and the
// shard-owned frames' non-atomic metadata (Frame::id, Frame::prefetched,
// Frame::staging, Frame::listed). Shard mutexes are leaves and are never
// nested — every public method locks at most one shard at a time (the
// quiescent sweeps lock shards strictly one after another), and nothing
// that holds one calls MarkDirty.
// Six fields deliberately live OUTSIDE the capability as atomics:
//   - Shard::table's words: written only under the shard mutex, probed
//     lock-free by Fetch. A probe may miss an entry a writer is moving
//     (the locked path then finds it) or name a frame that has since
//     changed its page (the pin's id check then fails); it never pins a
//     frame that does not hold the page.
//   - Frame::pin_word: the readable page's id and the pin count. Pins grow
//     lock-free (a hit's CAS) and under the lock (a miss, a staged page's
//     first fetch, FlushAll); PageRef::Release drops them lock-free. Every
//     change to it is a read-modify-write, never a store, so no pin is
//     lost, a frame changes its page only by a CAS from zero pins, and the
//     release of an install (or of an unpin after page writes) reaches
//     every later pin's acquire.
//   - Frame::hits: the fetches this frame served without the lock, on the
//     cache line the pin already writes; stats() adds them to hits and
//     fetches.
//   - Frame::referenced: the CLOCK reference bit, set on pin and unpin;
//     the hand reads and clears it only for unpinned frames under the
//     shard lock.
//   - Frame::dirty: set by MarkDirty through a pinned PageRef; the pin
//     itself keeps eviction away, and the unpin release-decrement
//     publishes it to the next sweep. Only the clean -> dirty edge takes
//     the shard lock, to list the frame; marking a dirty frame again stays
//     lock-free.
//   - The state word of Frame::page's decode slot (io/page.h): readers
//     fill the slot under their pin, by a CAS from empty, with no lock.
//     It drops back to empty only on a write of the page's bytes, so only
//     under the single-writer contract or on a frame taken at zero pins
//     (a fill, a spill refill, NewPage's zeroing), never under a reader.
//     The lane buffer stays with the frame across its residencies.
#ifndef SEGDB_IO_BUFFER_POOL_H_
#define SEGDB_IO_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
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
  // copy is stale until commit-time writeback. May wait while that
  // writeback of `id` is in flight.
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

  // Pins the page, reading it from disk on a miss. Thread-safe. A hit on a
  // readable frame takes no lock: a probe of the shard's page table and a
  // CAS on the frame's pin word. Everything else takes the shard lock: a
  // staged page's first fetch, a hit whose probe or pin lost a race, and a
  // miss. A miss claims a frame (a free one first, else the CLOCK victim),
  // reads into it with no lock held, then installs it; if another thread
  // installed the same page meanwhile, the claim is released and that
  // frame is pinned instead (both reads stay charged, so misses still
  // equal device reads). A failed read returns the claimed frame to the
  // free list.
  Result<PageRef> Fetch(PageId id);

  // Allocates a fresh zeroed page on disk and pins it (dirty). Writer path.
  Result<PageRef> NewPage();

  // Frees a disk page. Writer path. A pinned page is refused with
  // FailedPrecondition, whichever path pinned it.
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

  // Writes back all dirty frames (pages stay resident) in one
  // DiskManager::WritePages batch: the dirty lists shard by shard, each in
  // frame order. Exactly the frames whose write landed turn clean; the
  // rest stay dirty and listed for the next flush. Returns the batch's
  // first failure. Writer-only, but safe beside concurrent Fetches: the
  // batch runs with no shard lock held, its frames pinned until it lands.
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

  // Aggregates the per-shard counters and the per-frame lock-free hit
  // counts (O(frames)). The sums reproduce exactly the single-threaded
  // counters for any serial trace, and every snapshot, even mid-storm,
  // has hits + misses == fetches.
  BufferPoolStats stats() const;
  void ResetStats();

  // Audits the pool: page-table/frame agreement, pin and CLOCK bookkeeping,
  // dirty lists (every dirty frame listed by its shard, no frame listed
  // twice), stats consistency, clean resident frames matching their
  // on-disk contents (via DiskManager::PeekPage, so no I/O is counted), and
  // every resident frame's ready decode matching its bytes decoded afresh
  // (a write that skipped the slot's drop).
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
    // The pin word: high 32 bits the id + 1 of the page the frame holds
    // installed and readable (0 while it is free, claimed by an in-flight
    // fill, or staged by Prefetch and not yet demand-fetched), low 32 bits
    // the pin count. A lock-free hit pins by a CAS that expects its page's
    // id, so the pin is its own check. See the file comment.
    std::atomic<uint64_t> pin_word{0};
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
    // Fetches this frame served without the shard lock, whatever page it
    // held; stats() adds them to hits and fetches.
    std::atomic<uint64_t> hits{0};
  };
  static_assert(sizeof(Frame) == 64, "a frame is one cache line");

  struct Shard {
    // mutable: stats() and CheckInvariants() aggregate under it from
    // const context.
    mutable util::Mutex mu;
    // The page table: open addressing with linear probing over a fixed
    // power-of-two array of words (id + 1) << 32 | frame, 0 when empty.
    // Twice the shard's frame count, so it never grows and is at most half
    // full; a deletion shifts the rest of its run back, so there are no
    // tombstones. Written only under `mu` (MapPage, UnmapPage), probed
    // without it (Lookup). Fixed at construction, like the two below.
    std::unique_ptr<std::atomic<uint64_t>[]> table;
    size_t table_mask = 0;
    // 64 - log2(table size): the multiplicative hash keeps the top bits.
    int table_shift = 0;
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
    // A FlushAll batch in flight holds pins on some of `frames`; a miss
    // that finds every frame pinned waits on `flushed` for it to land.
    bool flushing SEGDB_GUARDED_BY(mu) = false;
    util::CondVar flushed;
    // Fetches that took the lock; lock-free hits are on their frames.
    BufferPoolStats stats SEGDB_GUARDED_BY(mu);
  };

  static constexpr size_t kNoFrame = ~size_t{0};

  Shard& ShardFor(PageId id) { return shards_[id % shards_.size()]; }

  // The frame `shard`'s table maps `id` to, or kNoFrame. Exact under the
  // shard mutex. Without it a concurrent deletion may hide the entry (the
  // caller's locked path then finds it), and the frame named may since
  // hold another page (the caller's pin then fails its id check).
  size_t Lookup(const Shard& shard, PageId id) const;
  // Adds `id` -> `frame` to the table; `id` must be absent.
  void MapPage(Shard& shard, PageId id, size_t frame)
      SEGDB_REQUIRES(shard.mu);
  // Removes `id`'s entry, which must be present.
  void UnmapPage(Shard& shard, PageId id) SEGDB_REQUIRES(shard.mu);
  // The lock-free hit: pins `f` if it holds `id` installed and readable,
  // and counts the hit on the frame. False sends the caller to the locked
  // path; it never waits.
  bool TryPin(Frame& f, PageId id);
  // Pins a mapped frame under its shard's mutex. A staged frame's first
  // pin also makes it readable to lock-free hits.
  void PinMapped(Shard& shard, Frame& f) SEGDB_REQUIRES(shard.mu);
  void Unpin(size_t frame);
  // Makes a mapped, unpinned frame unreadable so its page may change: a
  // CAS from zero pins, which fails if any pin holds the frame. Under the
  // frame's shard mutex.
  bool TakeFrame(Frame& f);
  // Takes a free frame of `shard`, else evicts the CLOCK victim, writing it
  // back first if dirty. The frame comes back unmapped, unpinned, clean and
  // unreadable. If every frame is pinned while a FlushAll batch holds some
  // of them, waits for the batch to land rather than fail.
  Result<size_t> GrabFrame(Shard& shard) SEGDB_REQUIRES(shard.mu);
  // Marks a grabbed frame as claimed for `id`: pinned by the claimer,
  // `staging`, unreadable, not in the page table. The caller holds the
  // frame's shard mutex, which the frame alone cannot name for the
  // annotation.
  void Claim(Frame& f, PageId id);
  // Ends a claim whose page is ready: the frame becomes readable, keeps
  // the claimer's pin and enters the page table.
  void Install(Shard& shard, size_t frame) SEGDB_REQUIRES(shard.mu);
  // Ends a claim whose fill failed or lost its race: drops the claimer's
  // pin and frees the frame.
  void ReleaseClaim(Shard& shard, size_t frame) SEGDB_REQUIRES(shard.mu);
  // Whether an in-flight fill of `id` holds a claim in `shard`.
  bool Claimed(const Shard& shard, PageId id) const SEGDB_REQUIRES(shard.mu);
  // Returns an unmapped, unpinned, unreadable frame (a released claim, a
  // freed page) to the free list: no id, clean.
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
