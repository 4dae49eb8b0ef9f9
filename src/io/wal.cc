#include "io/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.h"
#include "util/clock.h"
#include "util/crc32.h"

namespace segdb::io {

namespace {

// Chain page header: magic u32 | crc u32 | generation u64 | seq u64 |
// next u32 | used u32. The crc covers the whole page with the crc field
// zeroed.
constexpr uint32_t kPageMagic = 0x57414C50;  // "WALP"
constexpr uint32_t kPageHeaderBytes = 32;
constexpr uint32_t kOffMagic = 0;
constexpr uint32_t kOffCrc = 4;
constexpr uint32_t kOffGeneration = 8;
constexpr uint32_t kOffSeq = 16;
constexpr uint32_t kOffNext = 24;
constexpr uint32_t kOffUsed = 28;

// Record header: type u8 | lsn u64 | payload_len u32 | payload_crc u32.
constexpr uint32_t kRecordHeaderBytes = 17;

// Anchor slot: magic u32 | generation u64 | head u32 | crc u32 (crc over
// the first 16 bytes). Two slots ping-pong at offsets 0 and page_size/2.
constexpr uint32_t kAnchorMagic = 0x57414E43;  // "WANC"
constexpr uint32_t kAnchorSlotBytes = 20;

// Two anchor slots in one page, plus a header and at least one payload
// byte per chain page.
constexpr uint32_t kMinPageSize = 2 * kAnchorSlotBytes + kAnchorSlotBytes;

struct AnchorSlot {
  bool valid = false;
  uint64_t generation = 0;
  PageId head = kInvalidPageId;
};

AnchorSlot ParseAnchorSlot(const Page& page, uint32_t off) {
  AnchorSlot slot;
  if (page.ReadAt<uint32_t>(off + 0) != kAnchorMagic) return slot;
  if (util::Crc32(page.data() + off, 16) != page.ReadAt<uint32_t>(off + 16)) {
    return slot;
  }
  slot.valid = true;
  slot.generation = page.ReadAt<uint64_t>(off + 4);
  slot.head = page.ReadAt<PageId>(off + 12);
  return slot;
}

void WriteAnchorSlot(Page* page, uint32_t off, uint64_t generation,
                     PageId head) {
  page->WriteAt<uint32_t>(off + 0, kAnchorMagic);
  page->WriteAt<uint64_t>(off + 4, generation);
  page->WriteAt<PageId>(off + 12, head);
  page->WriteAt<uint32_t>(off + 16, util::Crc32(page->data() + off, 16));
}

// Chain pages stamped before they go to the device in one WritePages
// call. A bound on the writer's RAM, not on I/O overlap: a batch of any
// size (a bulk load's commit logs thousands of pages) holds at most this
// many page buffers, and the device splits each call into its own
// submission waves.
constexpr size_t kChainPagesPerWrite = 32;

// Packs a batch's record stream into its chain pages as the records are
// produced: bytes land in the current page body, and each full body, and
// the last partial one at Finish(), is stamped for the next of the batch's
// ids. Stamped pages go to the device together, kChainPagesPerWrite per
// WritePages call, in chain order.
class ChainPageWriter {
 public:
  ChainPageWriter(DiskManager* disk, uint64_t generation, uint64_t start_seq,
                  const std::vector<PageId>& ids, PageId next_head)
      : disk_(disk),
        generation_(generation),
        start_seq_(start_seq),
        ids_(ids),
        next_head_(next_head),
        capacity_(disk->page_size() - kPageHeaderBytes),
        pages_(std::min(ids.size(), kChainPagesPerWrite),
               Page(disk->page_size())) {}

  Status Append(const void* data, size_t n) {
    const uint8_t* src = static_cast<const uint8_t*>(data);
    while (n > 0) {
      const uint32_t take =
          static_cast<uint32_t>(std::min<size_t>(n, capacity_ - used_));
      std::memcpy(page().data() + kPageHeaderBytes + used_, src, take);
      used_ += take;
      src += take;
      n -= take;
      if (used_ == capacity_) SEGDB_RETURN_IF_ERROR(StampPage());
    }
    return Status::OK();
  }

  // A record header: type u8 | lsn u64 | payload_len u32 | payload_crc u32.
  Status AppendHeader(uint8_t type, uint64_t lsn, uint32_t payload_len,
                      uint32_t payload_crc) {
    uint8_t header[kRecordHeaderBytes];
    header[0] = type;
    std::memcpy(header + 1, &lsn, sizeof(lsn));
    std::memcpy(header + 9, &payload_len, sizeof(payload_len));
    std::memcpy(header + 13, &payload_crc, sizeof(payload_crc));
    return Append(header, sizeof(header));
  }

  // Stamps the last, partly filled page, if any, and writes every stamped
  // page still held.
  Status Finish() {
    if (used_ != 0) SEGDB_RETURN_IF_ERROR(StampPage());
    return WriteStamped();
  }

  size_t pages_written() const { return written_; }

 private:
  Page& page() { return pages_[stamped_ - written_]; }

  Status StampPage() {
    SEGDB_CHECK(stamped_ < ids_.size());
    Page& p = page();
    std::memset(p.data() + kPageHeaderBytes + used_, 0, capacity_ - used_);
    p.WriteAt<uint32_t>(kOffMagic, kPageMagic);
    p.WriteAt<uint32_t>(kOffCrc, 0);
    p.WriteAt<uint64_t>(kOffGeneration, generation_);
    p.WriteAt<uint64_t>(kOffSeq, start_seq_ + stamped_);
    p.WriteAt<PageId>(kOffNext, stamped_ + 1 < ids_.size()
                                    ? ids_[stamped_ + 1]
                                    : next_head_);
    p.WriteAt<uint32_t>(kOffUsed, used_);
    p.WriteAt<uint32_t>(kOffCrc, util::Crc32(p.data(), p.size()));
    ++stamped_;
    used_ = 0;
    return stamped_ - written_ == pages_.size() ? WriteStamped()
                                                : Status::OK();
  }

  Status WriteStamped() {
    if (stamped_ == written_) return Status::OK();
    std::vector<PageWrite> writes;
    writes.reserve(stamped_ - written_);
    for (size_t i = written_; i < stamped_; ++i) {
      writes.push_back(PageWrite{ids_[i], &pages_[i - written_], Status::OK()});
    }
    SEGDB_RETURN_IF_ERROR(disk_->WritePages(writes));
    written_ = stamped_;
    return Status::OK();
  }

  DiskManager* const disk_;
  const uint64_t generation_;
  const uint64_t start_seq_;
  const std::vector<PageId>& ids_;
  const PageId next_head_;
  const uint32_t capacity_;
  // The pages stamped since the last write, then the one being filled.
  std::vector<Page> pages_;
  uint32_t used_ = 0;
  size_t stamped_ = 0;
  size_t written_ = 0;
};

Status Poisoned() {
  return Status::FailedPrecondition(
      "WAL is poisoned after a device error; recover from the log");
}

}  // namespace

// --- DirtyPageSpill ---

void DirtyPageSpill::CaptureEviction(PageId id, const Page& page) {
  util::MutexLock lock(&mu_);
  spilled_.insert_or_assign(id, page);
}

bool DirtyPageSpill::TakeSpilled(PageId id, Page* out) {
  util::MutexLock lock(&mu_);
  // The device copy of a page in a FlushToDevice batch is not yet the
  // spilled one: wait for the batch, then take the page if its write
  // failed and re-armed it.
  while (writing_.find(id) != writing_.end()) landed_.Wait(mu_);
  auto it = spilled_.find(id);
  if (it == spilled_.end()) return false;
  SEGDB_CHECK(it->second.size() == out->size());
  std::memcpy(out->data(), it->second.data(), it->second.size());
  spilled_.erase(it);
  ++pages_taken_;
  return true;
}

bool DirtyPageSpill::Contains(PageId id) const {
  util::MutexLock lock(&mu_);
  return spilled_.find(id) != spilled_.end() ||
         writing_.find(id) != writing_.end();
}

void DirtyPageSpill::DeferFree(PageId id) {
  util::MutexLock lock(&mu_);
  // A freed page's bytes are garbage; any spilled image of it is dead.
  spilled_.erase(id);
  deferred_frees_.push_back(id);
}

void DirtyPageSpill::CollectImages(std::vector<PageImage>* out) const {
  util::MutexLock lock(&mu_);
  for (const auto& [id, page] : spilled_) {
    PageImage image;
    image.id = id;
    image.bytes.assign(page.data(), page.data() + page.size());
    out->push_back(std::move(image));
  }
}

Status DirtyPageSpill::FlushToDevice(DiskManager* disk) {
  // The batch reads the pages in writing_ with no lock held; they stay
  // there, visible to TakeSpilled and Contains, until it lands. Only this
  // writer changes writing_ itself.
  std::vector<PageWrite> writes;
  {
    util::MutexLock lock(&mu_);
    SEGDB_DCHECK(writing_.empty());
    writing_.swap(spilled_);
    writes.reserve(writing_.size());
    for (const auto& [id, page] : writing_) {
      writes.push_back(PageWrite{id, &page, Status::OK()});
    }
  }
  const Status s = disk->WritePages(writes);
  util::MutexLock lock(&mu_);
  // Re-arm exactly the pages that did not land; drop the rest.
  for (const PageWrite& write : writes) {
    if (!write.status.ok()) spilled_.insert(writing_.extract(write.id));
  }
  writing_.clear();
  landed_.NotifyAll();
  return s;
}

void DirtyPageSpill::ApplyDeferredFrees(DiskManager* disk) {
  std::vector<PageId> frees;
  {
    util::MutexLock lock(&mu_);
    frees.swap(deferred_frees_);
  }
  for (PageId id : frees) disk->FreePage(id).IgnoreError();
}

size_t DirtyPageSpill::spilled_pages() const {
  util::MutexLock lock(&mu_);
  return spilled_.size();
}

uint64_t DirtyPageSpill::pages_taken() const {
  util::MutexLock lock(&mu_);
  return pages_taken_;
}

size_t DirtyPageSpill::deferred_free_count() const {
  util::MutexLock lock(&mu_);
  return deferred_frees_.size();
}

// --- WriteAheadLog ---

WriteAheadLog::WriteAheadLog(DiskManager* disk, PageId anchor,
                             const WalOptions& options)
    : disk_(disk), anchor_(anchor), options_(options) {}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Create(
    DiskManager* disk, const WalOptions& options) {
  if (disk->page_size() < kMinPageSize) {
    return Status::InvalidArgument("WAL needs larger pages");
  }
  Result<PageId> anchor = disk->AllocatePage();
  if (!anchor.ok()) return anchor.status();
  Result<PageId> head = disk->AllocatePage();
  if (!head.ok()) return head.status();
  // The head reads as zeros (= no valid page, empty chain) until the first
  // batch writes it; only the anchor is formatted. Its medium may still
  // hold a stale chain page from an older generation, which the chain walk
  // rejects (see "Stale pages" in wal.h).
  SEGDB_RETURN_IF_ERROR(PublishAnchor(disk, anchor.value(), 1, head.value()));
  std::unique_ptr<WriteAheadLog> log(
      new WriteAheadLog(disk, anchor.value(), options));
  util::MutexLock lock(&log->mu_);
  log->generation_ = 1;
  log->head_ = head.value();
  log->next_write_page_ = head.value();
  return log;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    DiskManager* disk, PageId anchor, const WalOptions& options) {
  if (disk->page_size() < kMinPageSize) {
    return Status::InvalidArgument("WAL needs larger pages");
  }
  Result<ChainState> chain = ReadChain(disk, anchor);
  if (!chain.ok()) return chain.status();
  const ChainState& state = chain.value();
  if (!state.records.empty() || state.torn_tail_bytes != 0) {
    return Status::FailedPrecondition(
        "WAL chain holds unreplayed records; run Recover() first");
  }
  std::unique_ptr<WriteAheadLog> log(
      new WriteAheadLog(disk, anchor, options));
  util::MutexLock lock(&log->mu_);
  log->generation_ = state.generation;
  log->head_ = state.head;
  log->chain_pages_ = state.pages;
  log->next_write_page_ = state.tail_next;
  log->next_seq_ = state.next_seq;
  log->next_lsn_ = state.next_lsn;
  return log;
}

Result<uint64_t> WriteAheadLog::Commit(std::span<const PageImage> images,
                                       std::span<const uint8_t> payload) {
  PendingCommit me;
  me.images = images;
  me.payload = payload;

  mu_.Lock();
  if (failed_) {
    mu_.Unlock();
    return Poisoned();
  }
  pending_.push_back(&me);
  // Wake a leader holding the group-commit window open: its batch grew.
  cv_.NotifyAll();
  while (!me.done && leader_active_) cv_.Wait(mu_);
  if (!me.done) {
    // Leader duty: everything queued right now (self included) is the
    // batch. Hold the door briefly if the batch is just us.
    leader_active_ = true;
    if (options_.group_commit_window_us > 0 && pending_.size() == 1) {
      const util::Deadline window =
          util::Deadline::AfterMicros(options_.group_commit_window_us);
      while (pending_.size() == 1 && cv_.WaitUntil(mu_, window.when())) {
      }
    }
    std::vector<PendingCommit*> batch;
    batch.swap(pending_);
    if (failed_) {
      // A previous leader poisoned the log while we queued.
      for (PendingCommit* p : batch) {
        p->done = true;
        p->status = Poisoned();
      }
      leader_active_ = false;
      cv_.NotifyAll();
    } else {
      BatchIo io;
      io.start_page = next_write_page_;
      io.start_seq = next_seq_;
      io.start_lsn = next_lsn_;
      io.generation = generation_;
      // All device I/O runs unlocked: the single active leader is the only
      // writer, and committers queueing behind it must not block on the
      // device.
      mu_.Unlock();
      BatchResult result;
      Status s = WriteBatch(batch, io, &result);
      mu_.Lock();
      if (s.ok()) {
        chain_pages_.insert(chain_pages_.end(), result.pages_written.begin(),
                            result.pages_written.end());
        next_write_page_ = result.new_next_head;
        next_seq_ = io.start_seq + result.pages_written.size();
        next_lsn_ = result.end_lsn;
        stats_.commits += batch.size();
        stats_.syncs += 1;
        stats_.records += result.records;
        stats_.pages_written += result.pages_written.size();
      } else {
        // The device may hold any prefix of the batch; that is exactly a
        // crash. Refuse all further commits — the caller recovers.
        failed_ = true;
      }
      for (PendingCommit* p : batch) {
        p->done = true;
        p->status = s;
      }
      leader_active_ = false;
      cv_.NotifyAll();
    }
  }
  Status s = me.status;
  const uint64_t lsn = me.lsn;
  mu_.Unlock();
  if (!s.ok()) return s;
  return lsn;
}

Status WriteAheadLog::WriteBatch(const std::vector<PendingCommit*>& batch,
                                 const BatchIo& io, BatchResult* out) {
  // The batch's record stream: image records first, then the owning
  // commit record, per committer in queue order. Size it first, so the
  // page ids are allocated before any page is written.
  uint64_t stream_bytes = 0;
  for (const PendingCommit* p : batch) {
    for (const PageImage& image : p->images) {
      stream_bytes += kRecordHeaderBytes + sizeof(PageId) + image.bytes.size();
    }
    stream_bytes += kRecordHeaderBytes + p->payload.size();
  }

  // The first page lands on the pre-allocated next_write_page_ (already
  // linked from the synced tail); continuation pages and the NEXT batch's
  // head are allocated fresh, so no synced page is ever rewritten and a
  // crash mid-batch can only leave CRC-invalid pages past the old tail.
  const uint32_t capacity = disk_->page_size() - kPageHeaderBytes;
  const uint64_t n_pages = (stream_bytes + capacity - 1) / capacity;
  SEGDB_CHECK(n_pages >= 1);  // a batch holds at least one commit record
  std::vector<PageId> ids;
  ids.reserve(n_pages);
  ids.push_back(io.start_page);
  for (uint64_t i = 1; i < n_pages; ++i) {
    Result<PageId> id = disk_->AllocatePage();
    if (!id.ok()) return id.status();
    ids.push_back(id.value());
  }
  Result<PageId> next_head = disk_->AllocatePage();
  if (!next_head.ok()) return next_head.status();

  // Serialize straight into the chain pages. An image record's payload is
  // its id followed by its bytes, checksummed in those two pieces.
  ChainPageWriter writer(disk_, io.generation, io.start_seq, ids,
                         next_head.value());
  uint64_t lsn = io.start_lsn;
  uint64_t records = 0;
  for (PendingCommit* p : batch) {
    for (const PageImage& image : p->images) {
      const size_t n = image.bytes.size();
      const uint32_t crc =
          util::Crc32(image.bytes.data(), n,
                      util::Crc32(&image.id, sizeof(PageId)));
      SEGDB_RETURN_IF_ERROR(writer.AppendHeader(
          kRecordPageImage, lsn++, static_cast<uint32_t>(sizeof(PageId) + n),
          crc));
      SEGDB_RETURN_IF_ERROR(writer.Append(&image.id, sizeof(PageId)));
      SEGDB_RETURN_IF_ERROR(writer.Append(image.bytes.data(), n));
      ++records;
    }
    p->lsn = lsn;
    SEGDB_RETURN_IF_ERROR(writer.AppendHeader(
        kRecordCommit, lsn++, static_cast<uint32_t>(p->payload.size()),
        util::Crc32(p->payload.data(), p->payload.size())));
    SEGDB_RETURN_IF_ERROR(writer.Append(p->payload.data(), p->payload.size()));
    ++records;
  }
  SEGDB_RETURN_IF_ERROR(writer.Finish());
  SEGDB_CHECK(writer.pages_written() == n_pages);
  // The durability barrier: the batch's commits are acknowledged only once
  // every chain page above has reached stable storage.
  SEGDB_RETURN_IF_ERROR(disk_->Sync());

  out->new_next_head = next_head.value();
  out->pages_written = std::move(ids);
  out->records = records;
  out->end_lsn = lsn;
  return Status::OK();
}

Status WriteAheadLog::Checkpoint() {
  mu_.Lock();
  if (failed_) {
    mu_.Unlock();
    return Poisoned();
  }
  if (leader_active_ || !pending_.empty()) {
    mu_.Unlock();
    return Status::FailedPrecondition(
        "Checkpoint requires a quiescent log (commit in flight)");
  }
  // Hold the door: committers arriving during the anchor swap queue behind
  // us exactly as behind a commit leader.
  leader_active_ = true;
  const uint64_t new_generation = generation_ + 1;
  std::vector<PageId> old_pages = chain_pages_;
  const PageId old_next = next_write_page_;
  mu_.Unlock();

  // Barrier first: truncating the log is only sound once every committed
  // page the caller wrote back has reached stable storage. A failed
  // barrier (or allocation) publishes nothing — the old chain is still
  // anchored and intact, so the caller may simply retry later.
  Status s = disk_->Sync();
  bool device_touched = false;
  PageId fresh_head = kInvalidPageId;
  if (s.ok()) {
    Result<PageId> fresh = disk_->AllocatePage();
    if (!fresh.ok()) {
      s = fresh.status();
    } else {
      fresh_head = fresh.value();
      device_touched = true;
      s = PublishAnchor(disk_, anchor_, new_generation, fresh_head);
      if (s.ok()) {
        // The new generation is live: the old chain (and its
        // pre-allocated next page) is garbage.
        for (PageId id : old_pages) disk_->FreePage(id).IgnoreError();
        if (old_next != kInvalidPageId) {
          disk_->FreePage(old_next).IgnoreError();
        }
      }
      // On a PublishAnchor failure NOTHING is freed: the device may hold
      // either generation in the anchor (both are consistent — the new
      // one is an empty chain over already-written-back data, the old one
      // replays idempotently), so every page either anchor references
      // must stay allocated.
    }
  }

  mu_.Lock();
  if (s.ok()) {
    generation_ = new_generation;
    head_ = fresh_head;
    next_write_page_ = fresh_head;
    next_seq_ = 0;
    chain_pages_.clear();
    ++stats_.checkpoints;
  } else if (device_touched) {
    // In-memory tail state no longer matches whichever anchor slot the
    // device kept. Poison; recovery re-derives everything from the device.
    failed_ = true;
  }
  leader_active_ = false;
  cv_.NotifyAll();
  mu_.Unlock();
  return s;
}

WalStats WriteAheadLog::stats() const {
  util::MutexLock lock(&mu_);
  return stats_;
}

std::vector<PageId> WriteAheadLog::OwnedPages() const {
  util::MutexLock lock(&mu_);
  std::vector<PageId> pages;
  pages.reserve(chain_pages_.size() + 2);
  pages.push_back(anchor_);
  pages.insert(pages.end(), chain_pages_.begin(), chain_pages_.end());
  if (next_write_page_ != kInvalidPageId) pages.push_back(next_write_page_);
  std::sort(pages.begin(), pages.end());
  return pages;
}

Result<WriteAheadLog::ChainState> WriteAheadLog::ReadChain(
    const DiskManager* disk, PageId anchor) {
  Page apage(disk->page_size());
  Status s = disk->PeekPage(anchor, &apage);
  if (!s.ok()) return Status::Corruption("WAL anchor page unreadable");
  const AnchorSlot a = ParseAnchorSlot(apage, 0);
  const AnchorSlot b = ParseAnchorSlot(apage, disk->page_size() / 2);
  if (!a.valid && !b.valid) {
    return Status::Corruption("WAL anchor holds no valid slot");
  }
  const AnchorSlot& best =
      (a.valid && (!b.valid || a.generation >= b.generation)) ? a : b;

  ChainState state;
  state.generation = best.generation;
  state.head = best.head;

  // Walk the chain, concatenating record bytes until the first page that
  // fails validation — an unwritten pre-allocated head, a torn write, a
  // stale generation — which is by construction the torn tail.
  std::vector<uint8_t> stream;
  PageId cursor = best.head;
  uint64_t seq = 0;
  while (true) {
    Page page(disk->page_size());
    if (!disk->PeekPage(cursor, &page).ok()) break;
    if (page.ReadAt<uint32_t>(kOffMagic) != kPageMagic) break;
    const uint32_t stored_crc = page.ReadAt<uint32_t>(kOffCrc);
    page.WriteAt<uint32_t>(kOffCrc, 0);
    if (util::Crc32(page.data(), page.size()) != stored_crc) break;
    if (page.ReadAt<uint64_t>(kOffGeneration) != state.generation) break;
    if (page.ReadAt<uint64_t>(kOffSeq) != seq) break;
    const uint32_t used = page.ReadAt<uint32_t>(kOffUsed);
    if (used > disk->page_size() - kPageHeaderBytes) break;
    stream.insert(stream.end(), page.data() + kPageHeaderBytes,
                  page.data() + kPageHeaderBytes + used);
    state.pages.push_back(cursor);
    ++seq;
    cursor = page.ReadAt<PageId>(kOffNext);
  }
  state.tail_next = cursor;
  state.next_seq = seq;

  // Parse complete records; anything trailing is the torn tail.
  size_t off = 0;
  while (off + kRecordHeaderBytes <= stream.size()) {
    uint8_t type = 0;
    uint64_t lsn = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&type, stream.data() + off, 1);
    std::memcpy(&lsn, stream.data() + off + 1, sizeof(lsn));
    std::memcpy(&len, stream.data() + off + 9, sizeof(len));
    std::memcpy(&crc, stream.data() + off + 13, sizeof(crc));
    if (type != kRecordPageImage && type != kRecordCommit) break;
    if (off + kRecordHeaderBytes + len > stream.size()) break;
    const uint8_t* payload = stream.data() + off + kRecordHeaderBytes;
    if (util::Crc32(payload, len) != crc) break;
    ParsedRecord record;
    record.type = type;
    record.lsn = lsn;
    record.payload.assign(payload, payload + len);
    state.records.push_back(std::move(record));
    off += kRecordHeaderBytes + len;
  }
  state.torn_tail_bytes = stream.size() - off;
  state.next_lsn =
      state.records.empty() ? 0 : state.records.back().lsn + 1;
  return state;
}

Status WriteAheadLog::PublishAnchor(DiskManager* disk, PageId anchor,
                                    uint64_t generation, PageId head) {
  Page page(disk->page_size());
  SEGDB_RETURN_IF_ERROR(disk->PeekPage(anchor, &page));
  const AnchorSlot a = ParseAnchorSlot(page, 0);
  const AnchorSlot b = ParseAnchorSlot(page, disk->page_size() / 2);
  // Overwrite the OLDER (or invalid) slot. The newer slot's bytes are
  // rewritten unchanged, so even a torn write of this page leaves one
  // valid slot: any prefix either preserves the newer slot verbatim or
  // lands the updated slot whole.
  uint32_t target = 0;
  if (a.valid && (!b.valid || a.generation > b.generation)) {
    target = disk->page_size() / 2;
  }
  WriteAnchorSlot(&page, target, generation, head);
  SEGDB_RETURN_IF_ERROR(disk->WritePage(anchor, page));
  return disk->Sync();
}

}  // namespace segdb::io
