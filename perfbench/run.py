#!/usr/bin/env python3
"""Build and run the SegDB benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload warm_a --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

Each run compiles the library from ./src and the benchmark program
(segbench, in this directory) with CMake, Release, into ./.bench_build,
then runs one workload. segbench prints a run-stamp line and, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. The exit status is segbench's: 0 when its correctness
gate passes, non-zero otherwise. Build output goes to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DATA_DIR = os.path.join(BUILD_ROOT, "data")
BINARY = os.path.join(BUILD_DIR, "segbench")
# A first run builds, then measures; both must end within 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_process(cmd, timeout, stdout):
    """Runs cmd in its own process group and returns (exit code, output).

    On timeout the whole group (a build's compilers included) is killed
    and waited for, and the exit code is None.
    """
    proc = subprocess.Popen(cmd, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SegDB sources under src/; nothing to build")
        return False
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # Build output goes to stderr: stdout carries only segbench's result.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = run_process(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                               "-DCMAKE_BUILD_TYPE=Release"],
                              deadline - time.monotonic(), sys.stderr)
        if code != 0:
            log("cmake configure failed")
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    code, _ = run_process(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          deadline - time.monotonic(), sys.stderr)
    if code != 0:
        log("build failed")
        return False
    return os.path.isfile(BINARY)


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha():
    # Only the checkout's own repository: never a parent directory's.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 2
    os.makedirs(DATA_DIR, exist_ok=True)
    if args.selftest:
        cmd = [BINARY, "--selftest", "--data-dir", DATA_DIR]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", DATA_DIR, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    code, out = run_process(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
