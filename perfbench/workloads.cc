#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "baseline/oracle.h"
#include "core/durable_engine.h"
#include "core/query_engine.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "decorators.h"
#include "io/buffer_pool.h"
#include "io/column_codec.h"
#include "io/file_disk_manager.h"
#include "io/io_scheduler.h"
#include "io/wal.h"
#include "trace.h"
#include "util/clock.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

namespace core = segdb::core;
namespace geom = segdb::geom;
namespace io = segdb::io;
using segdb::Rng;
using segdb::Status;
using Query = core::VerticalSegmentQuery;

constexpr uint32_t kPageSize = 4096;
constexpr int64_t kMapWidth = int64_t{1} << 22;
constexpr double kSegmentBytes = 40.0;  // one raw segment row
// Far above every workload's p99, so a missed deadline means a stall.
constexpr uint64_t kServeDeadlineUs = 2'000'000;
// A failed request counts as missing any latency limit.
constexpr double kFailedLatencyUs = 1e12;

enum class Kind { kWarmA, kColdB, kDurableB };

Kind KindOf(const std::string& name) {
  if (name == "warm_a") return Kind::kWarmA;
  if (name == "cold_b") return Kind::kColdB;
  return Kind::kDurableB;
}

// Independent deterministic stream `stream` of the run's seed.
Rng Stream(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL);
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

uint64_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// Peak resident set of the process so far, in MiB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// --- Query generation -----------------------------------------------------

struct QueryShape {
  Kind kind = Kind::kWarmA;
  segdb::workload::BoundingBox box;
  // cold_b: x ranges that 4 in 5 queries fall into.
  std::vector<std::pair<int64_t, int64_t>> hot;
};

// cold_b's hot set: many narrow ranges covering 4% of the x-extent
// together. With a few wide ones the cost of a run hung on where they
// happened to land (4 ranges: +-35% ops/s between seeds).
constexpr int kHotRanges = 64;

// `count` queries of the workload's mix: segments spanning 1% of the
// y-extent. On warm_a every 50th query is an upward ray or a full line
// instead (alternating), so each list holds exactly 2% of them; on cold_b
// 4 in 5 take their x0 from a hot range unless `skewed` is false.
std::vector<Query> MakeQueries(Rng rng, const QueryShape& shape,
                               uint64_t count, bool skewed = true) {
  const segdb::workload::BoundingBox& b = shape.box;
  const int64_t height = std::max<int64_t>(1, (b.ymax - b.ymin) / 100);
  std::vector<Query> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int64_t x0 = rng.UniformInt(b.xmin, b.xmax);
    if (shape.kind == Kind::kWarmA && i % 50 == 49) {
      out.push_back((i / 50) % 2 == 0
                        ? Query::Line(x0)
                        : Query::UpRay(x0, rng.UniformInt(b.ymin, b.ymax)));
      continue;
    }
    if (skewed && !shape.hot.empty() && rng.Uniform(5) != 0) {
      const auto& range = shape.hot[rng.Uniform(shape.hot.size())];
      x0 = rng.UniformInt(range.first, range.second);
    }
    const int64_t ylo =
        rng.UniformInt(b.ymin, std::max(b.ymin, b.ymax - height));
    out.push_back(Query::Segment(x0, ylo, ylo + height));
  }
  return out;
}

// The map: kSheets GenMapLayer sheets of n / kSheets segments, each from
// its own stream of the seed, stacked in y so every vertical line crosses
// all of them. Sheets average out the per-seed layout of one sheet (its
// shared chain x-grid), which otherwise moves space and cost by ~10%.
constexpr uint64_t kSheets = 8;

std::vector<geom::Segment> GenerateMap(uint64_t seed, uint64_t n) {
  std::vector<geom::Segment> map;
  map.reserve(n);
  int64_t y_offset = 0;
  for (uint64_t k = 0; k < kSheets; ++k) {
    const uint64_t first_id = map.size();
    const uint64_t count = n / kSheets + (k < n % kSheets ? 1 : 0);
    Rng rng = Stream(seed, 10 + k);
    std::vector<geom::Segment> sheet =
        segdb::workload::GenMapLayer(rng, count, kMapWidth, first_id);
    const segdb::workload::BoundingBox box =
        segdb::workload::ComputeBoundingBox(sheet);
    const int64_t shift = y_offset - box.ymin;
    for (geom::Segment& s : sheet) {
      s.y1 += shift;
      s.y2 += shift;
      map.push_back(s);
    }
    y_offset += box.ymax - box.ymin + 1024;
  }
  return map;
}

// --- The system under test ------------------------------------------------

struct Instance {
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    durable.reset();  // detaches its spill sink from the pool
    index.reset();    // frees pages through the pool
    pool.reset();
    traced.reset();
    base.reset();
    if (!path.empty()) std::remove(path.c_str());
  }

  std::string path;  // data file of the file-backed workloads
  std::unique_ptr<io::DiskManager> base;
  io::FileDiskManager* file = nullptr;  // base, when file-backed
  std::unique_ptr<TracedDisk> traced;
  io::DiskManager* disk = nullptr;  // what the pool, WAL and engine call
  std::unique_ptr<io::BufferPool> pool;
  std::unique_ptr<core::SegmentIndex> index;
  std::unique_ptr<core::DurableEngine> durable;
  core::SegmentIndex* serving = nullptr;

  QueryShape shape;
  std::vector<geom::Segment> loaded;     // the bulk-loaded set
  std::vector<geom::Segment> held_back;  // durable_b's insert pool
  std::vector<std::vector<Query>> client_queries;

  double heap_mb = 0;
  io::CodecStats codec;  // the bulk load's encodes
};

std::unique_ptr<core::SegmentIndex> MakeIndex(Kind kind, io::BufferPool* pool,
                                              bool trace) {
  std::unique_ptr<core::SegmentIndex> index;
  if (kind == Kind::kWarmA) {
    index = std::make_unique<core::TwoLevelBinaryIndex>(pool);
  } else {
    index = std::make_unique<core::TwoLevelIntervalIndex>(pool);
  }
  if (trace) index = std::make_unique<TracedIndex>(std::move(index));
  return index;
}

Status Generate(const RunConfig& cfg, Kind kind, uint32_t clients,
                Instance* inst) {
  Rng data_rng = Stream(cfg.seed, 1);
  std::vector<geom::Segment> segs = GenerateMap(cfg.seed, cfg.n);
  inst->shape.kind = kind;
  inst->shape.box = segdb::workload::ComputeBoundingBox(segs);
  if (kind == Kind::kColdB) {
    Rng hot_rng = Stream(cfg.seed, 2);
    const segdb::workload::BoundingBox& b = inst->shape.box;
    const int64_t width =
        std::max<int64_t>(1, (b.xmax - b.xmin) / (25 * kHotRanges));
    for (int i = 0; i < kHotRanges; ++i) {
      const int64_t lo = hot_rng.UniformInt(b.xmin, b.xmax - width);
      inst->shape.hot.emplace_back(lo, lo + width);
    }
  }
  if (kind == Kind::kDurableB) {
    // Hold back a random eighth: inserts come from it, so the stored set
    // is always a subset of one NCT set and stays NCT.
    for (size_t i = segs.size(); i > 1; --i) {
      std::swap(segs[i - 1], segs[data_rng.Uniform(i)]);
    }
    const size_t keep = segs.size() - segs.size() / 8;
    inst->held_back.assign(segs.begin() + static_cast<ptrdiff_t>(keep),
                           segs.end());
    segs.resize(keep);
  }
  inst->loaded = std::move(segs);
  inst->client_queries.clear();
  for (uint32_t c = 0; c < clients; ++c) {
    inst->client_queries.push_back(MakeQueries(
        Stream(cfg.seed, 100 + c), inst->shape, cfg.queries_per_client));
  }
  return Status::OK();
}

Status Build(const RunConfig& cfg, Kind kind, Instance* inst) {
  if (kind == Kind::kWarmA) {
    inst->base = std::make_unique<io::SimDiskManager>(kPageSize);
  } else {
    inst->path = cfg.data_dir + "/" + cfg.workload + ".segdb";
    std::remove(inst->path.c_str());
    io::FileDiskManagerOptions options;
    options.page_size = kPageSize;
    options.engine.kind = cfg.io_engine;
    // cold_b reads through the page cache: with O_DIRECT its misses waited
    // on the host's shared disk, whose latency drifted by 20-30% from one
    // minute to the next. durable_b keeps O_DIRECT where the filesystem
    // allows it; its barriers reach the disk either way.
    if (kind == Kind::kColdB) {
      options.direct = io::FileDiskManagerOptions::Direct::kOff;
    }
    auto opened = io::FileDiskManager::Open(inst->path, options);
    if (!opened.ok()) return opened.status();
    inst->file = opened.value().get();
    inst->base = std::move(opened.value());
  }
  inst->disk = inst->base.get();
  if (cfg.trace) {
    inst->traced = std::make_unique<TracedDisk>(inst->disk);
    inst->disk = inst->traced.get();
  }
  const size_t frames =
      kind == Kind::kColdB ? cfg.cold_frames : cfg.warm_frames;
  // Explicit options: the two-argument constructor reads the compressed
  // tier's budget from the environment.
  inst->pool = std::make_unique<io::BufferPool>(inst->disk, frames,
                                                io::BufferPoolOptions{});

  io::ResetGlobalCodecStats();
  const uint64_t heap_before = HeapBytes();
  const uint64_t pages_before = inst->base->high_water_pages();
  if (kind == Kind::kDurableB) {
    const bool trace = cfg.trace;
    auto created = core::DurableEngine::Create(
        inst->pool.get(), inst->disk, [trace](io::BufferPool* pool) {
          return MakeIndex(Kind::kDurableB, pool, trace);
        });
    if (!created.ok()) return created.status();
    inst->durable = std::move(created.value());
    SEGDB_RETURN_IF_ERROR(inst->durable->BulkLoad(inst->loaded));
    inst->serving = inst->durable.get();
  } else {
    inst->index = MakeIndex(kind, inst->pool.get(), cfg.trace);
    SEGDB_RETURN_IF_ERROR(inst->index->BulkLoad(inst->loaded));
    SEGDB_RETURN_IF_ERROR(inst->pool->FlushAll());
    inst->serving = inst->index.get();
  }
  // Index heap: allocator growth across the build, minus RAM-device pages
  // (the pool's frames were allocated before).
  uint64_t heap = HeapBytes() - std::min(HeapBytes(), heap_before);
  if (inst->file == nullptr) {
    const uint64_t device_bytes =
        (inst->base->high_water_pages() - pages_before) * uint64_t{kPageSize};
    heap -= std::min(heap, device_bytes);
  }
  inst->heap_mb = static_cast<double>(heap) / (1024.0 * 1024.0);
  inst->codec = io::GlobalCodecStats();
  return Status::OK();
}

// Brings the pool to the workload's steady state before timing.
Status Warm(const RunConfig& cfg, Kind kind, Instance* inst) {
  if (kind == Kind::kColdB) {
    // The pool holds a tenth of the index: run the workload until its
    // resident set has turned over.
    const std::vector<Query> queries = MakeQueries(
        Stream(cfg.seed, 5), inst->shape, cfg.cold_b_warm_queries);
    std::vector<geom::Segment> out;
    for (const Query& q : queries) {
      out.clear();
      SEGDB_RETURN_IF_ERROR(inst->serving->Query(q, &out));
    }
    return Status::OK();
  }
  // The pool holds the whole index: make every live data page resident.
  std::unordered_set<io::PageId> wal_pages;
  if (inst->durable != nullptr) {
    for (io::PageId id : inst->durable->wal()->OwnedPages()) {
      wal_pages.insert(id);
    }
  }
  std::vector<io::PageId> ids;
  const uint64_t extent = inst->base->high_water_pages();
  for (uint64_t id = 0; id < extent; ++id) {
    const auto page = static_cast<io::PageId>(id);
    if (wal_pages.count(page) == 0) ids.push_back(page);
  }
  constexpr size_t kBatch = 256;
  for (size_t at = 0; at < ids.size(); at += kBatch) {
    const size_t count = std::min(kBatch, ids.size() - at);
    inst->pool->Prefetch(std::span<const io::PageId>(ids.data() + at, count));
  }
  for (io::PageId id : ids) {
    // Ids the device no longer holds fail here and are skipped.
    auto ref = inst->pool->Fetch(id);
    (void)ref.ok();
  }
  return Status::OK();
}

// --- Measurement helpers --------------------------------------------------

struct Snapshot {
  io::BufferPoolStats pool;
  io::DiskStats disk;
  io::IoSchedulerStats sched;
  io::WalStats wal;
  io::CodecStats codec;
  uint64_t commits = 0;
};

Snapshot Take(const Instance& inst) {
  Snapshot s;
  s.pool = inst.pool->stats();
  s.disk = inst.base->stats();
  if (inst.file != nullptr) s.sched = inst.file->scheduler_stats();
  if (inst.durable != nullptr) {
    s.wal = inst.durable->wal_stats();
    s.commits = inst.durable->commits_acked();
  }
  s.codec = io::GlobalCodecStats();
  return s;
}

struct ColdResult {
  double ios_per_query = 0;
  double fetches_per_query = 0;
  double results_per_query = 0;
};

// The paper's cost model: before each query flush, evict every frame and
// reset the counters; the query's pool misses are its I/Os.
Status RunColdSample(Instance* inst, std::span<const Query> sample,
                     ColdResult* result) {
  uint64_t misses = 0;
  uint64_t fetches = 0;
  uint64_t results = 0;
  std::vector<geom::Segment> out;
  for (const Query& q : sample) {
    SEGDB_RETURN_IF_ERROR(inst->pool->FlushAll());
    SEGDB_RETURN_IF_ERROR(inst->pool->EvictAll());
    inst->pool->ResetStats();
    out.clear();
    SEGDB_RETURN_IF_ERROR(inst->serving->Query(q, &out));
    const io::BufferPoolStats s = inst->pool->stats();
    misses += s.misses;
    fetches += s.fetches;
    results += out.size();
  }
  const double n = static_cast<double>(sample.size());
  result->ios_per_query = Ratio(static_cast<double>(misses), n);
  result->fetches_per_query = Ratio(static_cast<double>(fetches), n);
  result->results_per_query = Ratio(static_cast<double>(results), n);
  return Status::OK();
}

// What the timed window produced.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t queries = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  std::vector<double> query_us;
  std::vector<double> write_us;
  core::ServingStats serving;
  Snapshot before;
  Snapshot after;
  // durable_b: the first durable_prefix_ops operations, a deterministic
  // single-threaded phase whose counts repeat exactly for a seed.
  Snapshot prefix_end;
  uint64_t prefix_writes = 0;
  uint64_t prefix_pages = 0;
  uint64_t prefix_size = 0;
  // durable_b, traced: encodes paid by queries alone.
  uint64_t query_encodes = 0;
  // durable_b: acknowledged mutations, in order (true = insert).
  std::vector<std::pair<bool, geom::Segment>> log;
};

uint32_t RequestId(uint32_t client, uint64_t seq) {
  return (client << 24) | static_cast<uint32_t>(seq & 0xFFFFFF);
}

// warm_a and cold_b: `clients` closed-loop clients call Serve until the
// window closes.
void RunReadWindow(const RunConfig& cfg, Instance* inst, uint32_t clients,
                   Window* w) {
  core::QueryEngineOptions options;
  options.threads = 1;  // Serve runs on the client threads
  options.max_concurrent = clients;
  core::QueryEngine engine(options);

  struct ClientLog {
    std::vector<double> lat_us;
    uint64_t failed = 0;
  };
  std::vector<ClientLog> logs(clients);
  std::atomic<bool> go{false};
  std::atomic<uint64_t> deadline_ns{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Query>& queries = inst->client_queries[c];
      ClientLog& log = logs[c];
      log.lat_us.reserve(size_t{1} << 16);
      std::vector<geom::Segment> out;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t end = deadline_ns.load(std::memory_order_acquire);
      for (uint64_t i = 0;; ++i) {
        if (NowNs() >= end) break;
        out.clear();
        SetCurrentRequest(RequestId(c, i));
        const uint64_t t0 = NowNs();
        Status s;
        {
          ScopedSpan span(SpanKind::kServe);
          s = engine.Serve(*inst->serving, queries[i % queries.size()], &out,
                           segdb::util::Deadline::AfterMicros(kServeDeadlineUs));
        }
        const uint64_t t1 = NowNs();
        if (s.ok()) {
          log.lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        } else {
          ++log.failed;
          log.lat_us.push_back(kFailedLatencyUs);
        }
      }
    });
  }
  w->before = Take(*inst);
  if (inst->file != nullptr) inst->file->ResetSchedulerStats();
  w->start_ns = NowNs();
  deadline_ns.store(w->start_ns + static_cast<uint64_t>(cfg.seconds * 1e9),
                    std::memory_order_release);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  w->end_ns = NowNs();
  w->after = Take(*inst);
  w->serving = engine.serving_stats();
  for (ClientLog& log : logs) {
    w->queries += log.lat_us.size();
    w->failed += log.failed;
    w->query_us.insert(w->query_us.end(), log.lat_us.begin(),
                       log.lat_us.end());
  }
}

// durable_b: one closed-loop client; one operation in five is a durable
// insert or erase, the rest are Serve queries.
void RunDurableWindow(const RunConfig& cfg, Instance* inst, Window* w) {
  core::QueryEngineOptions options;
  options.threads = 1;
  options.max_concurrent = 1;
  core::QueryEngine engine(options);

  Rng ops_rng = Stream(cfg.seed, 3);
  std::vector<geom::Segment> available = inst->held_back;
  std::vector<geom::Segment> inserted;
  const std::vector<Query>& queries = inst->client_queries[0];
  std::vector<geom::Segment> out;
  w->query_us.reserve(size_t{1} << 16);
  w->write_us.reserve(size_t{1} << 14);

  w->before = Take(*inst);
  if (inst->file != nullptr) inst->file->ResetSchedulerStats();
  w->start_ns = NowNs();
  const uint64_t end = w->start_ns + static_cast<uint64_t>(cfg.seconds * 1e9);
  uint64_t next_query = 0;
  for (uint64_t op = 0;; ++op) {
    if (op == cfg.durable_prefix_ops) {
      w->prefix_end = Take(*inst);
      w->prefix_writes = w->writes;
      w->prefix_pages = inst->durable->page_count();
      w->prefix_size = inst->durable->size();
    }
    if (op >= cfg.durable_prefix_ops && NowNs() >= end) break;
    SetCurrentRequest(RequestId(0, op));
    if (ops_rng.Uniform(5) != 0) {
      out.clear();
      const uint64_t encodes_before =
          TracingEnabled() ? io::GlobalCodecStats().regions : 0;
      const uint64_t t0 = NowNs();
      Status s;
      {
        ScopedSpan span(SpanKind::kServe);
        s = engine.Serve(*inst->serving, queries[next_query++ % queries.size()],
                         &out,
                         segdb::util::Deadline::AfterMicros(kServeDeadlineUs));
      }
      const uint64_t t1 = NowNs();
      if (TracingEnabled()) {
        w->query_encodes += io::GlobalCodecStats().regions - encodes_before;
      }
      ++w->queries;
      if (s.ok()) {
        w->query_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      } else {
        ++w->failed;
        w->query_us.push_back(kFailedLatencyUs);
      }
      continue;
    }
    // Insert a held-back segment, or erase an earlier insert, so the
    // stored set stays NCT and near its bulk-loaded size.
    const bool insert =
        inserted.empty() || (!available.empty() && ops_rng.Bernoulli(0.5));
    std::vector<geom::Segment>& from = insert ? available : inserted;
    std::vector<geom::Segment>& to = insert ? inserted : available;
    const size_t pick = ops_rng.Uniform(from.size());
    const geom::Segment seg = from[pick];
    const uint64_t t0 = NowNs();
    Status s;
    {
      ScopedSpan span(SpanKind::kMutation);
      s = insert ? inst->durable->Insert(seg) : inst->durable->Erase(seg);
    }
    const uint64_t t1 = NowNs();
    ++w->writes;
    if (s.ok()) {
      w->write_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      from[pick] = from.back();
      from.pop_back();
      to.push_back(seg);
      w->log.emplace_back(insert, seg);
    } else {
      ++w->failed;
      w->write_us.push_back(kFailedLatencyUs);
    }
  }
  w->end_ns = NowNs();
  w->after = Take(*inst);
  w->serving = engine.serving_stats();
}

std::vector<geom::Segment> SortedAnswer(std::vector<geom::Segment> v) {
  std::sort(v.begin(), v.end(), [](const geom::Segment& a,
                                   const geom::Segment& b) {
    return std::tie(a.id, a.x1, a.y1, a.x2, a.y2) <
           std::tie(b.id, b.x1, b.y1, b.x2, b.y2);
  });
  return v;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

// --- Per-layer metrics from the trace ---------------------------------------

struct SpanTotals {
  std::vector<double> serve_wait_us;
  std::vector<double> query_self_us;
  std::vector<double> mutation_self_us;
  std::vector<double> index_write_us;
  std::vector<double> read_us;
  std::vector<double> batch_us;
  std::vector<double> write_us;
  std::vector<double> sync_us;
  std::vector<double> bulk_load_s;
  double read_total_s = 0;
  uint64_t dropped = 0;
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

SpanTotals SummarizeTrace(uint64_t window_start, uint64_t window_end) {
  SpanTotals t;
  for (const ThreadSpans& thread : CollectSpans()) {
    t.dropped += thread.dropped;
    const std::vector<uint64_t> self = SelfTimes(thread.spans);
    for (size_t i = 0; i < thread.spans.size(); ++i) {
      const Span& s = thread.spans[i];
      const double dur_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      if (s.kind == SpanKind::kBulkLoad) {
        t.bulk_load_s.push_back(dur_us * 1e-6);
        continue;
      }
      if (s.start_ns < window_start || s.end_ns > window_end) continue;
      const double self_us = static_cast<double>(self[i]) * 1e-3;
      switch (s.kind) {
        case SpanKind::kServe:
          t.serve_wait_us.push_back(self_us);
          break;
        case SpanKind::kQuery:
          t.query_self_us.push_back(self_us);
          break;
        case SpanKind::kMutation:
          t.mutation_self_us.push_back(self_us);
          break;
        case SpanKind::kIndexWrite:
          t.index_write_us.push_back(dur_us);
          break;
        case SpanKind::kReadPage:
          t.read_us.push_back(dur_us);
          t.read_total_s += dur_us * 1e-6;
          break;
        case SpanKind::kPeekBatch:
          t.batch_us.push_back(dur_us);
          break;
        case SpanKind::kWritePage:
          t.write_us.push_back(dur_us);
          break;
        case SpanKind::kSync:
          t.sync_us.push_back(dur_us);
          break;
        default:
          break;
      }
    }
  }
  return t;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "warm_a" || name == "cold_b" || name == "durable_b";
}

uint64_t CountMismatches(const core::SegmentIndex& index,
                         const core::SegmentIndex& oracle,
                         std::span<const Query> queries) {
  uint64_t mismatches = 0;
  std::vector<geom::Segment> got;
  std::vector<geom::Segment> want;
  for (const Query& q : queries) {
    got.clear();
    want.clear();
    if (!index.Query(q, &got).ok() || !oracle.Query(q, &want).ok() ||
        SortedAnswer(got) != SortedAnswer(want)) {
      ++mismatches;
    }
  }
  return mismatches;
}

RunResult RunWorkload(const RunConfig& cfg) {
  RunResult result;
  const Kind kind = KindOf(cfg.workload);
  uint32_t clients = cfg.clients != 0
                         ? cfg.clients
                         : std::max(1u, std::thread::hardware_concurrency());
  if (kind == Kind::kDurableB) clients = 1;
  if (cfg.trace) EnableTracing();

  auto fail = [&result](const std::string& what, const Status& s) {
    result.error = what + ": " + s.ToString();
    return result;
  };

  // Set up several times; the last instance is kept and measured. The
  // paper's cold protocol runs on it between build and warm-up, outside
  // the set-up time.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::unique_ptr<Instance> inst;
  ColdResult cold;
  for (uint32_t rep = 0; rep < std::max(1u, cfg.setup_reps); ++rep) {
    inst.reset();
    inst = std::make_unique<Instance>();
    const bool last = rep + 1 == std::max(1u, cfg.setup_reps);
    const uint64_t t0 = NowNs();
    Status s = Generate(cfg, kind, clients, inst.get());
    if (!s.ok()) return fail("generate", s);
    const uint64_t t1 = NowNs();
    s = Build(cfg, kind, inst.get());
    if (!s.ok()) return fail("build", s);
    const uint64_t t2 = NowNs();
    if (last) {
      // The workload's query mix without cold_b's hot-range skew: every
      // query starts cold, and the skew would only weight the cost by
      // where the hot ranges happened to land.
      const std::vector<Query> sample = MakeQueries(
          Stream(cfg.seed, 4), inst->shape, cfg.cold_sample, false);
      s = RunColdSample(inst.get(), sample, &cold);
      if (!s.ok()) return fail("cold sample", s);
    }
    const uint64_t t3 = NowNs();
    s = Warm(cfg, kind, inst.get());
    if (!s.ok()) return fail("warm-up", s);
    const uint64_t t4 = NowNs();
    gen_s.push_back(Seconds(t0, t1));
    setup_s.push_back(Seconds(t0, t2) + Seconds(t3, t4));
  }

  Window w;
  if (kind == Kind::kDurableB) {
    RunDurableWindow(cfg, inst.get(), &w);
  } else {
    RunReadWindow(cfg, inst.get(), clients, &w);
  }
  // Read before the gate runs, as the end of the timed window.
  const double rss_mb = PeakRssMb();
  const double window_s = Seconds(w.start_ns, w.end_ns);
  const uint64_t ops = w.queries + w.writes;
  double space_amp = 0;
  if (kind == Kind::kDurableB) {
    space_amp = Ratio(static_cast<double>(w.prefix_pages) * kPageSize,
                      static_cast<double>(w.prefix_size) * kSegmentBytes);
  } else {
    space_amp =
        Ratio(static_cast<double>(inst->serving->page_count()) * kPageSize,
              static_cast<double>(inst->serving->size()) * kSegmentBytes);
  }

  // Correctness gate: the same final segment set in the oracle, a fixed
  // query sample of the workload's mix plus lines and rays, and every
  // structural audit.
  segdb::baseline::OracleIndex oracle;
  Status s = oracle.BulkLoad(inst->loaded);
  for (const auto& [insert, seg] : w.log) {
    if (!s.ok()) break;
    s = insert ? oracle.Insert(seg) : oracle.Erase(seg);
  }
  if (!s.ok()) return fail("oracle", s);
  std::vector<Query> gate =
      MakeQueries(Stream(cfg.seed, 6), inst->shape, cfg.gate_sample);
  {
    Rng rng = Stream(cfg.seed, 7);
    const segdb::workload::BoundingBox& b = inst->shape.box;
    for (int i = 0; i < 8; ++i) {
      gate.push_back(Query::Line(rng.UniformInt(b.xmin, b.xmax)));
      gate.push_back(Query::UpRay(rng.UniformInt(b.xmin, b.xmax),
                                  rng.UniformInt(b.ymin, b.ymax)));
    }
  }
  const uint64_t mismatches = CountMismatches(*inst->serving, oracle, gate);
  std::string audit = "ok";
  Status check = inst->serving->CheckInvariants();
  if (check.ok()) check = inst->pool->CheckInvariants();
  if (check.ok() && inst->serving->size() != oracle.size()) {
    check = Status::Corruption("index size differs from the oracle's");
  }
  if (!check.ok()) audit = check.ToString();

  result.correct = mismatches == 0 && check.ok();
  result.attempted = ops + gate.size();
  result.failed = w.failed + mismatches + (check.ok() ? 0 : 1);

  // End-to-end metrics (reported with tracing off), over the whole window:
  // the host's slow spells come and go within a run, and pooling mixes
  // them where a median over one-second slices picked one.
  const double query_p50 = Percentile(w.query_us, 50);
  const double query_p99 = Percentile(w.query_us, 99);
  const double ops_s = Ratio(static_cast<double>(ops), window_s);
  result.end_to_end = {
      {"ops_s", ops_s, "ops/s"},
      {"query_p50_us", query_p50, "us"},
      {"query_p99_us", query_p99, "us"},
      {"cold_ios_per_query", cold.ios_per_query, "pages"},
      {"space_amp", space_amp, "ratio"},
      {"rss_mb", rss_mb, "MiB"},
      {"setup_s", Median(setup_s), "s"},
  };

  // Counts of the deterministic phases: the durable prefix, the cold
  // sample and the bulk load.
  const Snapshot& p0 = w.before;
  const Snapshot& p1 = w.prefix_end;
  const double prefix_writes = static_cast<double>(w.prefix_writes);
  const double prefix_commits = static_cast<double>(p1.commits - p0.commits);
  const double write_amp =
      Ratio(static_cast<double>(p1.disk.writes - p0.disk.writes) * kPageSize,
            prefix_writes * kSegmentBytes);
  const double codec_ratio =
      Ratio(static_cast<double>(inst->codec.raw_bytes),
            static_cast<double>(inst->codec.encoded_bytes));
  std::vector<Metric> durable_counts;
  if (kind == Kind::kDurableB) {
    durable_counts = {
        {"core.durable.images_per_write",
         Ratio(static_cast<double>((p1.wal.records - p0.wal.records) -
                                   (p1.wal.commits - p0.wal.commits)),
               prefix_commits),
         "pages"},
        {"core.durable.write_amp", write_amp, "ratio"},
        {"io.pool.writebacks_per_write",
         Ratio(static_cast<double>(p1.pool.writebacks - p0.pool.writebacks),
               prefix_writes),
         "pages"},
        {"io.device.writes_per_write",
         Ratio(static_cast<double>(p1.disk.writes - p0.disk.writes),
               prefix_writes),
         "pages"},
        {"io.device.syncs_per_write",
         Ratio(static_cast<double>(p1.disk.syncs - p0.disk.syncs),
               prefix_writes),
         "count"},
        {"io.wal.pages_per_commit",
         Ratio(static_cast<double>(p1.wal.pages_written -
                                   p0.wal.pages_written),
               prefix_commits),
         "pages"},
        {"io.wal.checkpoints_per_commit",
         Ratio(static_cast<double>(p1.wal.checkpoints - p0.wal.checkpoints),
               prefix_commits),
         "count"},
        {"io.codec.encodes_per_write",
         Ratio(static_cast<double>(p1.codec.regions - p0.codec.regions),
               prefix_writes),
         "regions"},
    };
  }
  result.exact_counts = {
      {"cold_ios_per_query", cold.ios_per_query, "pages"},
      {"space_amp", space_amp, "ratio"},
      {"core.index.fetches_per_query", cold.fetches_per_query, "pages"},
      {"core.index.results_per_query", cold.results_per_query, "segments"},
      {"io.codec.ratio", codec_ratio, "ratio"},
  };
  result.exact_counts.insert(result.exact_counts.end(), durable_counts.begin(),
                             durable_counts.end());

  const double write_p50 = Percentile(w.write_us, 50);
  const double write_p99 = Percentile(w.write_us, 99);

  if (cfg.trace) {
    const SpanTotals t = SummarizeTrace(w.start_ns, w.end_ns);
    const Snapshot& a = w.before;
    const Snapshot& b = w.after;
    const double queries = static_cast<double>(w.queries);
    const double fetches = static_cast<double>(b.pool.fetches - a.pool.fetches);
    const double hits = static_cast<double>(b.pool.hits - a.pool.hits);
    const double misses = static_cast<double>(b.pool.misses - a.pool.misses);
    const double staged =
        static_cast<double>(b.pool.prefetches - a.pool.prefetches);
    const double reads = static_cast<double>(b.disk.reads - a.disk.reads);
    const double query_encodes =
        kind == Kind::kDurableB
            ? static_cast<double>(w.query_encodes)
            : static_cast<double>(b.codec.regions - a.codec.regions);
    result.per_layer = {
        {"traced.ops_s", ops_s, "ops/s"},
        {"traced.query_p50_us", query_p50, "us"},
        {"traced.query_p99_us", query_p99, "us"},
        {"core.serve.wait_us", Mean(t.serve_wait_us), "us"},
        {"core.serve.failed",
         static_cast<double>(w.serving.shed_overload +
                             w.serving.deadline_exceeded + w.failed),
         "count"},
        {"core.index.query_self_us", Mean(t.query_self_us), "us"},
        {"core.index.query_self_p99_us", Percentile(t.query_self_us, 99),
         "us"},
        {"core.index.fetches_per_query", cold.fetches_per_query, "pages"},
        {"core.index.results_per_query", cold.results_per_query, "segments"},
        {"core.index.build_s", Median(t.bulk_load_s), "s"},
        {"core.index.heap_mb", inst->heap_mb, "MiB"},
        {"core.durable.write_p50_us", write_p50, "us"},
        {"core.durable.write_p99_us", write_p99, "us"},
        {"core.durable.index_write_us", Mean(t.index_write_us), "us"},
        {"core.durable.write_self_us", Mean(t.mutation_self_us), "us"},
        {"io.pool.hit_rate", Ratio(hits, fetches), "ratio"},
        {"io.pool.misses_per_query", Ratio(misses, queries), "pages"},
        {"io.pool.prefetch_per_query", Ratio(staged, queries), "pages"},
        {"io.pool.prefetch_useful", Ratio(misses - reads, staged), "ratio"},
        {"io.device.reads_per_query", Ratio(reads, queries), "pages"},
        {"io.device.read_us", Mean(t.read_us), "us"},
        {"io.device.read_p99_us", Percentile(t.read_us, 99), "us"},
        {"io.device.read_share",
         Ratio(t.read_total_s, static_cast<double>(clients) * window_s),
         "ratio"},
        {"io.device.batch_us", Mean(t.batch_us), "us"},
        {"io.device.write_us", Mean(t.write_us), "us"},
        {"io.device.sync_us", Mean(t.sync_us), "us"},
        {"io.sched.pages_per_submission",
         Ratio(static_cast<double>(b.sched.pages),
               static_cast<double>(b.sched.submissions)),
         "pages"},
        {"io.sched.max_inflight", static_cast<double>(b.sched.max_inflight),
         "ops"},
        {"io.codec.encodes_per_query", Ratio(query_encodes, queries),
         "regions"},
        {"io.codec.ratio", codec_ratio, "ratio"},
        {"workload.gen_s", Median(gen_s), "s"},
    };
    // Durable-path counts exist on durable_b only; elsewhere they are 0.
    const char* kDurableNames[] = {
        "core.durable.images_per_write", "core.durable.write_amp",
        "io.pool.writebacks_per_write",  "io.device.writes_per_write",
        "io.device.syncs_per_write",     "io.wal.pages_per_commit",
        "io.wal.checkpoints_per_commit", "io.codec.encodes_per_write"};
    const char* kDurableUnits[] = {"pages", "ratio", "pages",  "pages",
                                   "count", "pages", "count", "regions"};
    for (size_t i = 0; i < std::size(kDurableNames); ++i) {
      double value = 0;
      for (const Metric& m : durable_counts) {
        if (m.name == kDurableNames[i]) value = m.value;
      }
      result.per_layer.push_back({kDurableNames[i], value, kDurableUnits[i]});
    }
    if (t.dropped > 0) {
      std::fprintf(stderr, "perfbench: %llu spans dropped past the cap\n",
                   static_cast<unsigned long long>(t.dropped));
    }
  }

  // Run stamp: what was measured, on what, with how many samples.
  std::ostringstream stamp;
  stamp.precision(17);
  stamp << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
        << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"n\": " << cfg.n
        << ", \"clients\": " << clients
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"io_engine\": \""
        << (inst->file != nullptr ? inst->file->engine_name() : "sim")
        << "\", \"direct_io\": "
        << (inst->file != nullptr && inst->file->direct_io() ? "true"
                                                               : "false")
        << ", \"pool_frames\": " << inst->pool->frame_count()
        << ", \"pool_shards\": " << inst->pool->shard_count()
        << ", \"window_s\": " << window_s
        << ", \"query_samples\": " << w.query_us.size()
        << ", \"write_samples\": " << w.write_us.size()
        << ", \"setup_reps\": " << setup_s.size()
        << ", \"cold_sample\": " << cfg.cold_sample
        << ", \"gate_queries\": " << gate.size()
        << ", \"gate_mismatches\": " << mismatches << ", \"audit\": \""
        << Escape(audit) << "\", \"durable_prefix_ops\": "
        << (kind == Kind::kDurableB ? cfg.durable_prefix_ops : 0);
  // End-to-end metrics that are 0 by construction on some workload, so
  // they cannot sit in the result line's fixed set: the failure share
  // (0 on a clean run) and, on durable_b, the write path's.
  std::vector<Metric> own = {
      {"fail_frac",
       Ratio(static_cast<double>(result.failed),
             static_cast<double>(result.attempted)),
       "fraction"}};
  if (kind == Kind::kDurableB) {
    own.push_back({"write_p50_us", write_p50, "us"});
    own.push_back({"write_p99_us", write_p99, "us"});
    own.push_back({"write_amp", write_amp, "ratio"});
  }
  stamp << ", \"workload_metrics\": {";
  for (size_t i = 0; i < own.size(); ++i) {
    stamp << (i > 0 ? ", " : "") << "\"" << own[i].name
          << "\": {\"value\": " << own[i].value << ", \"unit\": \""
          << own[i].unit << "\"}";
  }
  stamp << "}}";
  result.stamp_json = stamp.str();
  return result;
}

}  // namespace perfbench
