// CPU microbenchmarks (google-benchmark): exact predicates, page
// serialization, buffer-pool hits and misses at 1 and 4 threads, index
// build throughput, in-memory query latency, the line-PST query layer,
// the segment page-list scan, and one device-bound row, a WAL commit on
// a real file.
// These complement the I/O-count experiments (E1-E11): the paper's model
// charges only block transfers, but a practical release should also show
// the constant factors are sane.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "geom/decode_kernel.h"
#include "geom/filter_kernel.h"
#include "io/column_codec.h"
#include "geom/predicates.h"
#include "io/columnar_page_view.h"
#include "io/page.h"
#include "geom/sweep.h"
#include "io/buffer_pool.h"
#include "io/disk_manager.h"
#include "io/file_disk_manager.h"
#include "io/segment_page_list.h"
#include "io/wal.h"
#include "pst/point_pst.h"
#include "pst/line_pst.h"
#include "util/crc32.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb {
namespace {

void BM_Orientation(benchmark::State& state) {
  Rng rng(1);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 3 * 1024; ++i) {
    pts.push_back({rng.UniformInt(-geom::kMaxCoord, geom::kMaxCoord),
                   rng.UniformInt(-geom::kMaxCoord, geom::kMaxCoord)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geom::Orientation(pts[i], pts[i + 1], pts[i + 2]));
    i = (i + 3) % (pts.size() - 3);
  }
}
BENCHMARK(BM_Orientation);

void BM_IntersectsVerticalSegment(benchmark::State& state) {
  Rng rng(2);
  auto segs = workload::GenMapLayer(rng, 1024, 1 << 20);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::IntersectsVerticalSegment(
        segs[i], 1 << 19, -1000, 1000));
    i = (i + 1) % segs.size();
  }
}
BENCHMARK(BM_IntersectsVerticalSegment);

void BM_PageRoundTrip(benchmark::State& state) {
  io::SimDiskManager disk(4096);
  auto id = disk.AllocatePage();
  io::Page page(4096);
  Rng rng(3);
  for (uint32_t i = 0; i < 4096 / 8; ++i) {
    page.WriteAt<uint64_t>(i * 8, rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.WritePage(id.value(), page).ok());
    benchmark::DoNotOptimize(disk.ReadPage(id.value(), &page).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_PageRoundTrip);

void BM_BuildSolutionA(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Rng rng(4);
  auto segs = workload::GenMapLayer(rng, n, 1 << 22);
  for (auto _ : state) {
    io::SimDiskManager disk(4096);
    io::BufferPool pool(&disk, 1 << 14);
    core::TwoLevelBinaryIndex index(&pool);
    benchmark::DoNotOptimize(index.BulkLoad(segs).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BuildSolutionA)->Arg(1 << 12)->Arg(1 << 14);

void BM_BuildSolutionB(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Rng rng(5);
  auto segs = workload::GenMapLayer(rng, n, 1 << 22);
  for (auto _ : state) {
    io::SimDiskManager disk(4096);
    io::BufferPool pool(&disk, 1 << 14);
    core::TwoLevelIntervalIndex index(&pool);
    benchmark::DoNotOptimize(index.BulkLoad(segs).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BuildSolutionB)->Arg(1 << 12)->Arg(1 << 14);

template <typename Index>
void QueryLatency(benchmark::State& state) {
  const uint64_t n = 1 << 15;
  Rng rng(6);
  auto segs = workload::GenMapLayer(rng, n, 1 << 22);
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 1 << 14);
  Index index(&pool);
  if (!index.BulkLoad(segs).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  Rng qrng(7);
  auto box = workload::ComputeBoundingBox(segs);
  auto queries = workload::GenVsQueries(qrng, 256, box, 0.01);
  size_t i = 0;
  for (auto _ : state) {
    std::vector<geom::Segment> out;
    const auto& q = queries[i];
    benchmark::DoNotOptimize(
        index.Query({q.x0, q.ylo, q.yhi}, &out).ok());
    benchmark::DoNotOptimize(out.size());
    i = (i + 1) % queries.size();
  }
}

void BM_QuerySolutionA(benchmark::State& state) {
  QueryLatency<core::TwoLevelBinaryIndex>(state);
}
BENCHMARK(BM_QuerySolutionA);

void BM_QuerySolutionB(benchmark::State& state) {
  QueryLatency<core::TwoLevelIntervalIndex>(state);
}
BENCHMARK(BM_QuerySolutionB);

void BM_SweepValidate(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  Rng rng(8);
  auto segs = workload::GenMapLayer(rng, n, 1 << 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::FindProperCrossing(segs).has_value());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(segs.size()));
}
BENCHMARK(BM_SweepValidate)->Arg(1 << 12)->Arg(1 << 15);

// Stabbing intervals [lo, hi] stored as points (lo, hi): the 3-sided query
// lo <= q, hi >= q that the two-level indexes' C_i structures run.
void BM_IntervalStab(benchmark::State& state) {
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 1 << 14);
  pst::PointPst index(&pool);
  Rng rng(9);
  std::vector<pst::PointRecord> ivs;
  for (uint64_t i = 0; i < (1u << 15); ++i) {
    const int64_t lo = rng.UniformInt(0, 1 << 20);
    ivs.push_back(pst::PointRecord{lo, lo + rng.UniformInt(0, 500), i});
  }
  if (!index.BulkLoad(ivs).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  for (auto _ : state) {
    std::vector<pst::PointRecord> out;
    const int64_t q = rng.UniformInt(0, 1 << 20);
    benchmark::DoNotOptimize(
        index.Query3Sided(-(geom::kMaxCoord + 1), q, q, &out).ok());
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_IntervalStab);

// --- scan_kernel: in-page filtering, rows vs columnar vs SIMD ------------
// The tentpole comparison: the same VS-intersection filter over the same
// records, as (a) a row-major page scan through the exact __int128
// predicate (the pre-columnar hot loop), (b) the branchless scalar kernel
// over columnar strips, and (c) the runtime-dispatched SIMD kernel.
// items_per_second == segments filtered per second.

struct ScanWorkload {
  explicit ScanWorkload(uint32_t n)
      : rows(n * static_cast<uint32_t>(sizeof(geom::Segment))),
        cols(n * static_cast<uint32_t>(sizeof(geom::Segment))) {
    Rng rng(11);
    segs = workload::GenMapLayer(rng, n, 1 << 20);
    rows.WriteArray<geom::Segment>(0, segs.data(), n);
    io::ColumnarPageView view(&cols, 0, n);
    view.WriteRange(0, segs.data(), n);
    Rng qrng(12);
    queries = workload::GenVsQueries(
        qrng, 64, workload::ComputeBoundingBox(segs), 0.02);
  }

  std::vector<geom::Segment> segs;
  io::Page rows;
  io::Page cols;
  std::vector<workload::VsQuery> queries;
};

void BM_ScanKernelRows(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const ScanWorkload w(n);
  std::vector<geom::Segment> out;
  size_t qi = 0;
  for (auto _ : state) {
    out.clear();
    const auto& q = w.queries[qi];
    for (uint32_t i = 0; i < n; ++i) {
      const geom::Segment s = w.rows.ReadAt<geom::Segment>(
          i * static_cast<uint32_t>(sizeof(geom::Segment)));
      if (geom::IntersectsVerticalSegment(s, q.x0, q.ylo, q.yhi)) {
        out.push_back(s);
      }
    }
    benchmark::DoNotOptimize(out.data());
    qi = (qi + 1) % w.queries.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ScanKernelRows)->Arg(1 << 10)->Arg(1 << 14);

void ScanKernelColumnar(benchmark::State& state,
                        const geom::FilterKernel& kernel) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const ScanWorkload w(n);
  const io::ConstColumnarPageView view(w.cols, 0, n);
  const geom::SegmentStrips strips = view.strips();
  geom::ResultBuffer& scratch = geom::GetThreadFilterScratch();
  std::vector<geom::Segment> out;
  size_t qi = 0;
  for (auto _ : state) {
    out.clear();
    const auto& q = w.queries[qi];
    uint32_t* idx = scratch.ReserveIndices(n);
    const uint32_t hits =
        kernel.filter_vs(strips, n, q.x0, q.ylo, q.yhi, idx);
    view.AppendMatches(idx, hits, &out);
    benchmark::DoNotOptimize(out.data());
    qi = (qi + 1) % w.queries.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(kernel.name);
}

void BM_ScanKernelColumnar(benchmark::State& state) {
  ScanKernelColumnar(state, geom::ScalarFilterKernel());
}
BENCHMARK(BM_ScanKernelColumnar)->Arg(1 << 10)->Arg(1 << 14);

void BM_ScanKernelSimd(benchmark::State& state) {
  if (geom::SimdFilterKernel() == nullptr) {
    state.SkipWithError("SIMD kernel not supported by this CPU");
    return;
  }
  ScanKernelColumnar(state, *geom::SimdFilterKernel());
}
BENCHMARK(BM_ScanKernelSimd)->Arg(1 << 10)->Arg(1 << 14);

// --- decode_kernel: bit-packed column decode, scalar vs SIMD -------------
// The compressed-page hot loop: UnpackLaneBits-style FOR decode of one
// column (ref + width-bit payloads) into int64 lanes. The raw baseline is
// the legacy 8-byte strip memcpy the packed format replaced. The width
// argument sweeps the payload sizes that dominate real regions: 16 (dense
// clustered coords), 34 (the worst-case coordinate slot), 56 (the widest
// kernel-eligible id column). items_per_second == lanes decoded per second.

struct DecodeWorkload {
  DecodeWorkload(uint32_t n, uint32_t width)
      : packed((size_t{n} * width + 7) / 8 + 8, 0), raw(n), out(n) {
    Rng rng(13);
    const uint64_t mask =
        width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t v = rng.Next() & mask;
      if (width > 0) geom::PackLaneBits(packed.data(), i, width, v);
      raw[i] = static_cast<int64_t>(v);
    }
  }
  std::vector<uint8_t> packed;
  std::vector<int64_t> raw;
  std::vector<int64_t> out;
};

void BM_DecodeKernelRaw(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  DecodeWorkload w(n, 64);
  for (auto _ : state) {
    std::memcpy(w.out.data(), w.raw.data(), size_t{n} * sizeof(int64_t));
    benchmark::DoNotOptimize(w.out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_DecodeKernelRaw)->Arg(1 << 14);

void DecodeKernelUnpack(benchmark::State& state, geom::UnpackAddFn fn,
                        const char* label) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const uint32_t width = static_cast<uint32_t>(state.range(1));
  DecodeWorkload w(n, width);
  for (auto _ : state) {
    fn(w.packed.data(), n, width, /*ref=*/-123456789, w.out.data());
    benchmark::DoNotOptimize(w.out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(label);
}

void BM_DecodeKernelScalar(benchmark::State& state) {
  DecodeKernelUnpack(state, geom::ScalarUnpackAdd(), "scalar");
}
BENCHMARK(BM_DecodeKernelScalar)
    ->Args({1 << 14, 16})->Args({1 << 14, 34})->Args({1 << 14, 56});

void BM_DecodeKernelSimd(benchmark::State& state) {
  if (geom::SimdUnpackAdd() == nullptr) {
    state.SkipWithError("SIMD kernel not supported by this CPU");
    return;
  }
  DecodeKernelUnpack(state, geom::SimdUnpackAdd(), "simd");
}
BENCHMARK(BM_DecodeKernelSimd)
    ->Args({1 << 14, 16})->Args({1 << 14, 34})->Args({1 << 14, 56});

// Full-region decode (all five columns through the parsed header) across
// the distributions the indexes actually store. The label reports the
// compression ratio (raw 40-byte rows vs encoded bytes) per distribution.
void BM_DecodeKernelRegion(benchmark::State& state) {
  constexpr uint32_t kCap = 161;  // a full 4096-byte leaf region
  const int dist = static_cast<int>(state.range(0));
  Rng rng(14);
  std::vector<int64_t> lanes(size_t{io::kColumnarColumns} * kCap);
  const char* label = "";
  for (uint32_t i = 0; i < kCap; ++i) {
    int64_t x1, y1;
    switch (dist) {
      case 0:  // clustered map tiles: nearby coords, dense ids
        label = "clustered";
        x1 = 500000 + static_cast<int64_t>(rng.Uniform(4096));
        y1 = -250000 + static_cast<int64_t>(rng.Uniform(4096));
        lanes[size_t{4} * kCap + i] = 900000 + i;
        break;
      default:  // uniform over the full coordinate domain
        label = "uniform";
        x1 = rng.UniformInt(-geom::kMaxCoord, geom::kMaxCoord);
        y1 = rng.UniformInt(-geom::kMaxCoord, geom::kMaxCoord);
        lanes[size_t{4} * kCap + i] = static_cast<int64_t>(rng.Next());
        break;
    }
    lanes[size_t{0} * kCap + i] = x1;
    lanes[size_t{1} * kCap + i] = x1 + static_cast<int64_t>(rng.Uniform(2000));
    lanes[size_t{2} * kCap + i] = y1;
    lanes[size_t{3} * kCap + i] = y1 + static_cast<int64_t>(rng.Uniform(2000));
  }
  std::vector<uint8_t> region(io::ColumnarRegionBytes(kCap), 0);
  io::ResetGlobalCodecStats();
  io::EncodeColumnarRegion(region.data(), kCap, lanes.data());
  const io::CodecStats cs = io::GlobalCodecStats();
  std::vector<int64_t> out(lanes.size());
  for (auto _ : state) {
    io::DecodeColumnarRegion(region.data(), kCap, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kCap);
  state.counters["ratio"] = cs.encoded_bytes == 0
      ? 0.0
      : static_cast<double>(cs.raw_bytes) /
            static_cast<double>(cs.encoded_bytes);
  state.SetLabel(label);
}
BENCHMARK(BM_DecodeKernelRegion)->Arg(0)->Arg(1);

// Line-PST layer: one LinePst::Query per iteration over 2^15 line-based
// segments, every page resident, cycling 256 pre-generated queries of 1%
// of the set's extent on the base line (the fan's bounding box is ~800x
// taller), each centered on a stored segment where it reaches so that it
// reports. The two fence walks, the node scans and the report traversal
// are all in the timed loop. Arg: fanout (2 = the paper's binary PST,
// 0 = auto, B-proportional). Every thread queries one shared PST, each from
// its own point of the query cycle, warm_a's access pattern; real time, so
// the 4-thread rows show how resident-page reads scale with clients.
struct LinePstFixture {
  explicit LinePstFixture(uint32_t fanout)
      : pst(&pool, 0, pst::Direction::kRight, Options(fanout)) {
    Rng rng(51);
    const auto segs = workload::GenLineBasedSorted(rng, 1 << 15, 0, 1 << 20);
    ok = pst.BulkLoad(segs).ok();
    const int64_t h = (segs.back().y1 - segs.front().y1) / 100;
    for (int q = 0; q < 256; ++q) {
      const geom::Segment& s = segs[rng.Uniform(segs.size())];
      const int64_t d = rng.UniformInt(0, s.x2 - s.x1);
      const int64_t y = s.y1 + (s.y2 - s.y1) * d / (s.x2 - s.x1);
      queries.push_back({s.x1 + d, y - h / 2, y + h / 2});
    }
  }
  static pst::LinePstOptions Options(uint32_t fanout) {
    pst::LinePstOptions opts;
    opts.fanout = fanout;
    return opts;
  }

  io::SimDiskManager disk{4096};
  io::BufferPool pool{&disk, 1 << 14};
  pst::LinePst pst;
  bool ok = false;
  std::vector<workload::VsQuery> queries;
};

// One fixture per fanout, built on its first use and shared by every
// thread.
const LinePstFixture& SharedLinePst(uint32_t fanout) {
  if (fanout == 2) {
    static const LinePstFixture binary(2);
    return binary;
  }
  static const LinePstFixture auto_fanout(0);
  return auto_fanout;
}

void BM_LinePstQuery(benchmark::State& state) {
  const LinePstFixture& fix =
      SharedLinePst(static_cast<uint32_t>(state.range(0)));
  if (!fix.ok) {
    state.SkipWithError("build failed");
    return;
  }
  const std::vector<workload::VsQuery>& queries = fix.queries;
  std::vector<geom::Segment> out;
  uint64_t results = 0;
  size_t i = (static_cast<size_t>(state.thread_index()) * 64) % queries.size();
  for (auto _ : state) {
    out.clear();
    const auto& q = queries[i];
    benchmark::DoNotOptimize(fix.pst.Query(q.x0, q.ylo, q.yhi, &out).ok());
    benchmark::DoNotOptimize(out.data());
    results += out.size();
    i = (i + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["results_per_query"] = benchmark::Counter(
      static_cast<double>(results), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LinePstQuery)
    ->Arg(2)
    ->Arg(0)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// Page-list layer: one SegmentPageList::Scan per iteration over a list of
// one 4 KiB page holding `fill` records, the page resident, cycling 64
// queries of 5% of the records' extent. The page's 161-slot region is
// decoded once per residency, by the first scan after the page's miss,
// which decodes all 161 slots whatever the fill; later scans read the
// page's decode slot, so a resident page costs its filter over `fill`
// lanes, and fill 4 shows what a nearly empty first-level leaf page costs
// against a full one (Arg: fill).
void BM_SegmentPageListScan(benchmark::State& state) {
  const uint32_t fill = static_cast<uint32_t>(state.range(0));
  io::SimDiskManager disk(4096);
  io::BufferPool pool(&disk, 64);
  io::SegmentPageList list(&pool);
  Rng rng(61);
  const auto segs = workload::GenMapLayer(rng, fill, 1 << 20);
  if (!list.BulkLoad(segs).ok() || list.page_count() != 1) {
    state.SkipWithError("build failed");
    return;
  }
  Rng qrng(62);
  const auto queries = workload::GenVsQueries(
      qrng, 64, workload::ComputeBoundingBox(segs), 0.05);
  std::vector<geom::Segment> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const auto& q = queries[i];
    benchmark::DoNotOptimize(list.Scan(q.x0, q.ylo, q.yhi, &out).ok());
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentPageListScan)->Arg(4)->Arg(161);

// Buffer-pool layer: one Fetch and Release per iteration, over uniformly
// random pages, each thread with its own sequence. Real time, so the
// items/s at 4 threads against 1 shows how the pool scales with clients.
std::vector<io::PageId> FillPool(io::BufferPool* pool, size_t pages) {
  std::vector<io::PageId> ids;
  for (size_t i = 0; i < pages; ++i) {
    auto ref = pool->NewPage();
    if (!ref.ok()) return {};
    ids.push_back(ref.value().page_id());
  }
  if (!pool->FlushAll().ok()) return {};
  return ids;
}

void FetchLoop(benchmark::State& state, io::BufferPool* pool,
               const std::vector<io::PageId>& ids) {
  if (ids.empty()) {
    state.SkipWithError("pool fixture failed");
    return;
  }
  Rng rng(100 + state.thread_index());
  for (auto _ : state) {
    auto ref = pool->Fetch(ids[rng.Uniform(ids.size())]);
    if (!ref.ok()) {
      state.SkipWithError("fetch failed");
      break;
    }
    // Const access: a reader never drops a shared page's decode slot.
    benchmark::DoNotOptimize(std::as_const(ref.value()).page().data());
  }
  state.SetItemsProcessed(state.iterations());
}

// Every page resident (1,024 pages in 2,048 frames, 16 shards): the hit
// path alone — the lock-free page-table probe, the pin CAS and the unpin.
void BM_PoolFetchHit(benchmark::State& state) {
  struct Fixture {
    io::SimDiskManager disk{4096};
    io::BufferPool pool{&disk, 2048};
    std::vector<io::PageId> ids = FillPool(&pool, 1024);
  };
  static Fixture fixture;
  FetchLoop(state, &fixture.pool, fixture.ids);
}
BENCHMARK(BM_PoolFetchHit)->Threads(1)->Threads(4)->UseRealTime();

// Every thread fetches the same 8 resident pages, the pattern of warm_a's
// clients starting each query at the same first-level and PST root pages:
// the hit path when its frames' cache lines are shared between threads.
void BM_PoolFetchHitHot(benchmark::State& state) {
  struct Fixture {
    io::SimDiskManager disk{4096};
    io::BufferPool pool{&disk, 2048};
    std::vector<io::PageId> ids = FillPool(&pool, 8);
  };
  static Fixture fixture;
  FetchLoop(state, &fixture.pool, fixture.ids);
}
BENCHMARK(BM_PoolFetchHitHot)->Threads(1)->Threads(4)->UseRealTime();

// 10,240 pages of a page-cache file behind a pool a tenth that size
// (1,024 frames, 16 shards of 64, cold_b's shape): nearly every fetch
// evicts a CLOCK victim and reads the device.
void BM_PoolFetchMiss(benchmark::State& state) {
  struct Fixture {
    Fixture() {
      const char* tmp = std::getenv("TMPDIR");
      path = std::string(tmp != nullptr ? tmp : "/tmp") +
             "/segdb_bench_micro_pool.segdb";
      std::remove(path.c_str());
      io::FileDiskManagerOptions options;
      options.direct = io::FileDiskManagerOptions::Direct::kOff;
      auto opened = io::FileDiskManager::Open(path, options);
      if (!opened.ok()) return;
      disk = std::move(opened.value());
      pool = std::make_unique<io::BufferPool>(disk.get(), 1024);
      ids = FillPool(pool.get(), 10240);
    }
    ~Fixture() {
      pool.reset();
      disk.reset();
      std::remove(path.c_str());
    }
    std::string path;
    std::unique_ptr<io::FileDiskManager> disk;
    std::unique_ptr<io::BufferPool> pool;
    std::vector<io::PageId> ids;
  };
  static Fixture fixture;
  FetchLoop(state, fixture.pool.get(), fixture.ids);
}
BENCHMARK(BM_PoolFetchMiss)->Threads(1)->Threads(4)->UseRealTime();

// The WAL's checksum over one page-sized buffer (bytes/s): every chain
// page and every page image record pays one of these per commit.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  Rng rng(41);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(4096);

// A durable commit's pool work (durable_b's shape: 32,768 frames, every
// page resident): dirty 4 pages, then CollectDirty and FlushAll. With dirty
// lists this costs the 4 pages, not a walk over every frame.
void BM_CommitCollectFlush(benchmark::State& state) {
  struct Fixture {
    io::SimDiskManager disk{4096};
    io::BufferPool pool{&disk, 32768};
    std::vector<io::PageId> ids = FillPool(&pool, 32768);
  };
  static Fixture fixture;
  if (fixture.ids.empty()) {
    state.SkipWithError("pool fixture failed");
    return;
  }
  Rng rng(43);
  std::vector<io::PageImage> images;
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) {
      auto ref = fixture.pool.Fetch(
          fixture.ids[rng.Uniform(fixture.ids.size())]);
      if (!ref.ok()) {
        state.SkipWithError("fetch failed");
        return;
      }
      ref.value().page().WriteAt<uint64_t>(0, rng.Next());
      ref.value().MarkDirty();
    }
    images.clear();
    fixture.pool.CollectDirty(&images);
    if (!fixture.pool.FlushAll().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    benchmark::DoNotOptimize(images.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitCollectFlush);

// A durable commit's log writes on a real device: one WriteAheadLog::Commit
// of k 4 KiB page images and a 45-byte payload (durable_b's op descriptor)
// per iteration, on a FileDiskManager in $TMPDIR with O_DIRECT where the
// filesystem allows it. As in DurableEngine, the log checkpoints every 8
// commits (untimed), so later commits log onto reused pages. This times
// the host's disk, not the CPU: it stays out of CI's bench-smoke filter
// (Arg: images per commit).
void BM_WalCommitFile(benchmark::State& state) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                           "/segdb_bench_micro_wal.segdb";
  std::remove(path.c_str());
  {
    auto opened = io::FileDiskManager::Open(path);
    if (!opened.ok()) {
      state.SkipWithError("device open failed");
      return;
    }
    io::FileDiskManager& disk = *opened.value();
    auto wal = io::WriteAheadLog::Create(&disk);
    if (!wal.ok()) {
      state.SkipWithError("WAL create failed");
      return;
    }
    Rng rng(47);
    std::vector<io::PageImage> images;
    for (int64_t i = 0; i < state.range(0); ++i) {
      auto id = disk.AllocatePage();
      if (!id.ok()) {
        state.SkipWithError("page allocation failed");
        return;
      }
      io::PageImage image;
      image.id = id.value();
      image.bytes.resize(disk.page_size());
      for (uint8_t& b : image.bytes) b = static_cast<uint8_t>(rng.Next());
      images.push_back(std::move(image));
    }
    const std::vector<uint8_t> payload(45, 7);
    int since_checkpoint = 0;
    for (auto _ : state) {
      if (!wal.value()->Commit(images, payload).ok()) {
        state.SkipWithError("commit failed");
        break;
      }
      if (++since_checkpoint == 8) {
        state.PauseTiming();
        const bool checkpointed = wal.value()->Checkpoint().ok();
        since_checkpoint = 0;
        state.ResumeTiming();
        if (!checkpointed) {
          state.SkipWithError("checkpoint failed");
          break;
        }
      }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["direct_io"] = disk.direct_io() ? 1 : 0;
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_WalCommitFile)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace segdb

// Custom main instead of BENCHMARK_MAIN(): adds a --repeat N convenience
// flag (mapped onto --benchmark_repetitions=N) for quick variance checks,
// e.g. `bench_micro --repeat 5 --benchmark_filter=ScanKernel`.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repeat" && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_repetitions=") +
                        argv[++i]);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      storage.push_back("--benchmark_repetitions=" +
                        arg.substr(std::strlen("--repeat=")));
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
