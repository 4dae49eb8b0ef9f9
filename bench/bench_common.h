// Shared measurement harness for the experiment binaries (E1-E13).
//
// I/O-count protocol: build the structure through the buffer pool, flush,
// evict everything (cold cache), reset counters, run one query, read the
// miss counter — misses are exactly the I/O operations of the paper's cost
// model, and stay exact under the sharded pool (per-shard counters sum to
// the serial trace). Each experiment averages over a query batch and
// prints one table row per parameter point; EXPERIMENTS.md records the
// expected shapes.
//
// Throughput protocol (the parallel sections of E3/E4): warm the pool by
// running the batch once, then time repeated QueryEngine batches at a
// fixed worker count — wall-clock ns and queries/sec, no eviction between
// queries. Cold I/O counts and warm throughput are reported separately;
// one measures the model, the other the implementation.
//
// Every experiment binary accepts `--json <path>` (or `--json=<path>`) and
// then also writes its records as machine-readable JSON — see JsonWriter
// below and tools/bench.sh, which tracks BENCH_*.json across PRs.
#ifndef SEGDB_BENCH_BENCH_COMMON_H_
#define SEGDB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query_engine.h"
#include "core/segment_index.h"
#include "io/buffer_pool.h"
#include "io/column_codec.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/queries.h"

namespace segdb::bench {

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

struct QueryCost {
  double avg_ios = 0;     // cold buffer-pool misses per query
  double max_ios = 0;
  double avg_output = 0;  // reported segments per query
};

// Cold-cache cost of a query batch against any SegmentIndex.
inline QueryCost MeasureQueries(io::BufferPool* pool,
                                const core::SegmentIndex& index,
                                std::span<const workload::VsQuery> queries) {
  QueryCost cost;
  Check(pool->FlushAll(), "flush");
  for (const workload::VsQuery& q : queries) {
    Check(pool->EvictAll(), "evict");
    pool->ResetStats();
    std::vector<geom::Segment> out;
    Check(index.Query(core::VerticalSegmentQuery{q.x0, q.ylo, q.yhi}, &out),
          "query");
    const double ios = static_cast<double>(pool->stats().misses);
    cost.avg_ios += ios;
    cost.max_ios = std::max(cost.max_ios, ios);
    cost.avg_output += static_cast<double>(out.size());
  }
  if (!queries.empty()) {
    cost.avg_ios /= static_cast<double>(queries.size());
    cost.avg_output /= static_cast<double>(queries.size());
  }
  return cost;
}

// What updates cost later queries (E7, E12): the cold protocol over one
// fixed sample of 256 queries of 1% height, run on an index after its
// write phase and on a fresh index bulk-loaded with the same final set.
struct UpdatedColdCost {
  double after_writes = 0;  // cold I/O per query after the writes
  double fresh = 0;         // the same after a fresh BulkLoad
};

inline std::vector<workload::VsQuery> UpdatedColdSample(
    const workload::BoundingBox& box) {
  Rng rng(909);
  return workload::GenVsQueries(rng, 256, box, 0.01);
}

// The fresh index gets its own disk and a pool of the same size as `pool`.
template <typename Index>
UpdatedColdCost MeasureUpdatedCold(io::BufferPool* pool, const Index& index,
                                   std::span<const geom::Segment> final_set,
                                   std::span<const workload::VsQuery> queries) {
  UpdatedColdCost cost;
  cost.after_writes = MeasureQueries(pool, index, queries).avg_ios;
  io::SimDiskManager disk(pool->page_size());
  io::BufferPool fresh_pool(&disk, pool->frame_count());
  Index fresh(&fresh_pool);
  Check(fresh.BulkLoad(final_set), "fresh bulk load");
  cost.fresh = MeasureQueries(&fresh_pool, fresh, queries).avg_ios;
  return cost;
}

struct BatchThroughput {
  double wall_ns = 0;           // total wall time of the measured repeats
  double queries_per_sec = 0;
  uint64_t reported = 0;        // total segments reported (sanity check)
};

// Warm-pool throughput of QueryEngine batches: one untimed warm-up pass,
// then `repeats` timed passes over the whole batch.
inline BatchThroughput MeasureBatchThroughput(
    core::QueryEngine* engine, const core::SegmentIndex& index,
    std::span<const workload::VsQuery> queries, int repeats) {
  std::vector<core::VerticalSegmentQuery> batch;
  batch.reserve(queries.size());
  for (const workload::VsQuery& q : queries) {
    batch.push_back(core::VerticalSegmentQuery{q.x0, q.ylo, q.yhi});
  }
  std::vector<std::vector<geom::Segment>> results;
  Check(engine->QueryBatch(index, batch, &results), "warm-up batch");
  BatchThroughput t;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    Check(engine->QueryBatch(index, batch, &results), "timed batch");
    for (const auto& out : results) t.reported += out.size();
  }
  const auto end = std::chrono::steady_clock::now();
  t.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  const double total_queries =
      static_cast<double>(queries.size()) * static_cast<double>(repeats);
  if (t.wall_ns > 0) t.queries_per_sec = total_queries / (t.wall_ns * 1e-9);
  return t;
}

// One machine-readable measurement row (tools/bench.sh trajectory files).
struct BenchRecord {
  std::string experiment;  // e.g. "E3-cold" / "E3-parallel"
  std::string structure;   // index.name()
  uint64_t n = 0;          // segments stored
  uint32_t page_size = 0;  // block size in bytes (determines B)
  uint64_t num_queries = 0;
  double avg_ios = 0;
  double max_ios = 0;
  double wall_ns = 0;
  double queries_per_sec = 0;
  uint32_t threads = 1;
  // Column-codec telemetry: raw 40-byte-row bytes over encoded bytes for
  // every leaf region this process encoded (0 = not measured).
  double compression_ratio = 0;
  // Serving/device telemetry (the E14 records). Zero or empty fields are
  // OMITTED from the JSON — same rule as wall_ns/queries_per_sec on cold
  // records, so a record only carries the measurements it actually made.
  double p50_ns = 0;  // per-request latency percentiles (Serve calls)
  double p95_ns = 0;
  double p99_ns = 0;
  uint64_t queue_depth = 0;  // peak queue/in-flight depth during the run
  std::string io_backend;    // async engine name: "uring"|"threads"|"sync"
  double io_speedup = 0;     // batched over one-syscall-per-page wall time
};

// p-th percentile (0..100) by nearest-rank over a copy of `samples`.
inline double PercentileNs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// Process-wide codec compression ratio so far (0 until something encoded).
inline double CodecCompressionRatio() {
  const io::CodecStats stats = io::GlobalCodecStats();
  if (stats.encoded_bytes == 0) return 0;
  return static_cast<double>(stats.raw_bytes) /
         static_cast<double>(stats.encoded_bytes);
}

// Accumulates BenchRecords and writes them as one JSON document when
// destroyed. Enabled by `--json <path>` / `--json=<path>`; otherwise all
// calls are no-ops and the binary prints tables exactly as before.
class JsonWriter {
 public:
  JsonWriter(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        path_ = argv[i + 1];
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      }
    }
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  ~JsonWriter() { Flush(); }

  bool enabled() const { return !path_.empty(); }

  void Add(BenchRecord record) {
    if (enabled()) records_.push_back(std::move(record));
  }

 private:
  void Flush() {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL --json: cannot open %s\n", path_.c_str());
      std::abort();
    }
    std::fprintf(f, "{\n  \"hardware_threads\": %u,\n  \"records\": [",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(
          f,
          "%s\n    {\"experiment\": \"%s\", \"structure\": \"%s\", "
          "\"n\": %llu, \"page_size\": %u, \"num_queries\": %llu, "
          "\"avg_ios\": %.4f, \"max_ios\": %.1f, ",
          i == 0 ? "" : ",", r.experiment.c_str(), r.structure.c_str(),
          static_cast<unsigned long long>(r.n), r.page_size,
          static_cast<unsigned long long>(r.num_queries), r.avg_ios,
          r.max_ios);
      // A record that measured no wall time (the cold I/O-count rows)
      // carries no wall fields at all — a literal 0 would read as "zero
      // nanoseconds measured", which tools/check_bench_json.py rejects.
      if (r.wall_ns > 0) {
        std::fprintf(f, "\"wall_ns\": %.0f, \"queries_per_sec\": %.2f, ",
                     r.wall_ns, r.queries_per_sec);
      }
      if (r.p99_ns > 0) {
        std::fprintf(f,
                     "\"p50_ns\": %.0f, \"p95_ns\": %.0f, \"p99_ns\": %.0f, ",
                     r.p50_ns, r.p95_ns, r.p99_ns);
      }
      if (r.queue_depth > 0) {
        std::fprintf(f, "\"queue_depth\": %llu, ",
                     static_cast<unsigned long long>(r.queue_depth));
      }
      if (!r.io_backend.empty()) {
        std::fprintf(f, "\"io_backend\": \"%s\", ", r.io_backend.c_str());
      }
      if (r.io_speedup > 0) {
        std::fprintf(f, "\"io_speedup\": %.3f, ", r.io_speedup);
      }
      std::fprintf(f, "\"threads\": %u, \"compression_ratio\": %.4f}",
                   r.threads, r.compression_ratio);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  std::string path_;
  std::vector<BenchRecord> records_;
};

// Repeats rows with a standard experiment banner.
inline void PrintHeader(const char* id, const char* claim) {
  std::printf("==== %s ====\n%s\n\n", id, claim);
}

inline void PrintTable(const TablePrinter& table) {
  table.Print(std::cout);
  std::printf("\n");
}

// Benchmarks honor SEGDB_BENCH_SCALE (e.g. 0.1 for smoke runs).
inline double Scale() {
  const char* s = std::getenv("SEGDB_BENCH_SCALE");
  return s != nullptr ? std::atof(s) : 1.0;
}

inline uint64_t Scaled(uint64_t n) {
  const double v = static_cast<double>(n) * Scale();
  return v < 64 ? 64 : static_cast<uint64_t>(v);
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Worker counts for the parallel sections. The default covers the tracked
// trajectory files; `--scaling` (tools/bench.sh --scaling) extends the
// sweep in powers of two past the hardware thread count to expose the
// saturation knee.
inline std::vector<uint32_t> ParallelThreadCounts(bool scaling) {
  if (!scaling) return {1u, 2u, 4u, 8u};
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 8;
  std::vector<uint32_t> counts;
  for (uint32_t t = 1; t <= 2 * hw || t <= 8; t *= 2) counts.push_back(t);
  return counts;
}

}  // namespace segdb::bench

#endif  // SEGDB_BENCH_BENCH_COMMON_H_
