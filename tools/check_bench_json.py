#!/usr/bin/env python3
"""Schema validation for the tracked BENCH_*.json files (CI bench smoke).

Usage: tools/check_bench_json.py [--min-ratio X] BENCH.json [required ...]

Two formats are auto-detected:

google-benchmark output (BENCH_micro.json, top-level `benchmarks`):
  * top level has `context` and a non-empty `benchmarks` list;
  * context names the host (`host_name`) and CPU count (`num_cpus`);
  * every benchmark entry has a name, iterations >= 1, finite non-negative
    real_time/cpu_time, and a time unit;
  * aggregate rows (from --repeat) are allowed and recognized;
  * benchmarks that errored (`error_occurred`) fail validation unless the
    error is the documented SIMD-unavailable skip;
  * each extra argv substring must match at least one benchmark name
    (defaults to requiring the scan_kernel and decode_kernel sections).

segdb experiment records (BENCH_e3/e4/e14.json, top-level `records`):
  * top level has `hardware_threads` and a non-empty `records` list;
  * every record names its experiment/structure and has finite
    non-negative n/page_size/num_queries/avg_ios;
  * wall fields are optional (cold I/O-count rows omit them entirely —
    a literal `"wall_ns": 0` is rejected); when present, wall_ns and
    queries_per_sec must appear together, finite and positive;
  * latency percentiles are all-or-none: p50_ns/p95_ns/p99_ns must appear
    together, finite positive and ordered p50 <= p95 <= p99; any record
    whose experiment name contains "serving" must carry them along with a
    positive integer queue_depth;
  * io_backend (when present) is a non-empty string; io_speedup and
    queue_depth (when present) are finite positive;
  * each extra argv substring must match at least one experiment name;
  * with --min-ratio X, at least one record must report a column-codec
    compression_ratio, and every reported ratio must be >= X (the
    acceptance floor is 1.3);
  * with --min-io-speedup X, at least one record must report io_speedup
    (batched async cold reads over one-syscall-per-page wall time), and
    every reported speedup must be >= X (the acceptance floor is 1.3).
"""
import json
import math
import sys


def fail(msg: str) -> None:
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def finite_nonneg(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v >= 0


def finite_pos(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


def check_record_wall(r: dict, exp: str) -> None:
    """Wall/latency/io fields: omitted entirely or present and meaningful."""
    has_wall = "wall_ns" in r or "queries_per_sec" in r
    if has_wall:
        for key in ("wall_ns", "queries_per_sec"):
            if not finite_pos(r.get(key)):
                fail(f"{exp}: bad {key} {r.get(key)!r} "
                     "(omit wall fields on unmeasured records)")
    pct = ("p50_ns", "p95_ns", "p99_ns")
    has_pct = any(k in r for k in pct)
    if has_pct:
        for key in pct:
            if not finite_pos(r.get(key)):
                fail(f"{exp}: bad {key} {r.get(key)!r} "
                     "(percentiles are all-or-none)")
        if not r["p50_ns"] <= r["p95_ns"] <= r["p99_ns"]:
            fail(f"{exp}: percentiles not ordered "
                 f"({r['p50_ns']}, {r['p95_ns']}, {r['p99_ns']})")
    if "queue_depth" in r:
        qd = r["queue_depth"]
        if not (isinstance(qd, int) and qd > 0):
            fail(f"{exp}: bad queue_depth {qd!r}")
    if "io_backend" in r:
        if not isinstance(r["io_backend"], str) or not r["io_backend"]:
            fail(f"{exp}: bad io_backend {r['io_backend']!r}")
    if "io_speedup" in r and not finite_pos(r["io_speedup"]):
        fail(f"{exp}: bad io_speedup {r['io_speedup']!r}")
    # Serving records exist to carry the latency telemetry; a serving row
    # without it is a silent regression, not a valid shape.
    if "serving" in exp:
        if not has_pct:
            fail(f"{exp}: serving record without latency percentiles")
        if "queue_depth" not in r:
            fail(f"{exp}: serving record without queue_depth")


def check_records(doc: dict, path: str, required, min_ratio,
                  min_io_speedup) -> None:
    if "hardware_threads" not in doc:
        fail("records file missing hardware_threads")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail("records missing or empty")
    names = []
    ratios = []
    speedups = []
    for r in records:
        exp = r.get("experiment")
        if not isinstance(exp, str) or not exp:
            fail("record without an experiment name")
        if not isinstance(r.get("structure"), str) or not r["structure"]:
            fail(f"{exp}: missing structure")
        for key in ("n", "page_size", "num_queries", "avg_ios"):
            if not finite_nonneg(r.get(key)):
                fail(f"{exp}: bad {key} {r.get(key)!r}")
        check_record_wall(r, exp)
        names.append(exp)
        ratio = r.get("compression_ratio", 0)
        if not finite_nonneg(ratio):
            fail(f"{exp}: bad compression_ratio {ratio!r}")
        if ratio:
            ratios.append((exp, ratio))
        if "io_speedup" in r:
            speedups.append((exp, r["io_speedup"]))
    for sub in required:
        if not any(sub in n for n in names):
            fail(f"no record matching {sub!r}")
    if min_ratio is not None:
        if not ratios:
            fail("no record reports a compression_ratio")
        for exp, ratio in ratios:
            if ratio < min_ratio:
                fail(f"{exp}: compression_ratio {ratio:.4f} < {min_ratio}")
    if min_io_speedup is not None:
        if not speedups:
            fail("no record reports an io_speedup")
        for exp, speedup in speedups:
            if speedup < min_io_speedup:
                fail(f"{exp}: io_speedup {speedup:.3f} < {min_io_speedup}")
    print(f"check_bench_json: OK: {len(names)} records in {path}")


def main() -> None:
    args = sys.argv[1:]
    thresholds = {"--min-ratio": None, "--min-io-speedup": None}
    while args and args[0] in thresholds:
        flag = args[0]
        if len(args) < 2:
            fail(f"{flag} needs a value")
        try:
            thresholds[flag] = float(args[1])
        except ValueError:
            fail(f"bad {flag} value {args[1]!r}")
        args = args[2:]
    min_ratio = thresholds["--min-ratio"]
    min_io_speedup = thresholds["--min-io-speedup"]
    if not args:
        fail("usage: check_bench_json.py [--min-ratio X] "
             "[--min-io-speedup X] BENCH.json [required-substring ...]")
    path = args[0]

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if not isinstance(doc, dict):
        fail("top level is not an object")
    if "records" in doc:
        check_records(doc, path, args[1:], min_ratio, min_io_speedup)
        return
    if min_ratio is not None or min_io_speedup is not None:
        fail("--min-ratio/--min-io-speedup only apply to segdb records "
             "files")
    required = args[1:] or ["ScanKernel", "DecodeKernel"]
    context = doc.get("context")
    if not isinstance(context, dict):
        fail("missing context object")
    for key in ("host_name", "num_cpus", "date"):
        if key not in context:
            fail(f"context.{key} missing")

    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail("benchmarks missing or empty")

    allowed_skip = "SIMD kernel not supported by this CPU"
    names = []
    for b in benches:
        name = b.get("name")
        if not isinstance(name, str) or not name:
            fail("benchmark without a name")
        if b.get("error_occurred"):
            if b.get("error_message") == allowed_skip:
                continue
            fail(f"{name}: error_occurred: {b.get('error_message')}")
        names.append(name)
        if b.get("run_type") == "aggregate":
            continue  # mean/median/stddev rows from --repeat
        iters = b.get("iterations")
        if not isinstance(iters, int) or iters < 1:
            fail(f"{name}: bad iterations {iters!r}")
        for key in ("real_time", "cpu_time"):
            v = b.get(key)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                fail(f"{name}: bad {key} {v!r}")
        if b.get("time_unit") not in ("ns", "us", "ms", "s"):
            fail(f"{name}: bad time_unit {b.get('time_unit')!r}")

    for sub in required:
        if not any(sub in n for n in names):
            fail(f"no successful benchmark matching {sub!r}")

    print(f"check_bench_json: OK: {len(names)} benchmarks in {path}")


if __name__ == "__main__":
    main()
