#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/bench.cpp) and
libfdb are built with CMake in Release into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally.
stdout carries the harness's human-readable rows, then one
{"meta": {...}} provenance line, then the result JSON as the last line.
The exit code is the harness's: 0 only if every trial passed its checks.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails on nonzero."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"failed: {' '.join(cmd)}", 1)


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no fdb source tree at {ROOT}; run from a checkout")
    start = time.monotonic()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    # A build directory configured from another checkout would rebuild
    # and run that checkout's sources under this one's name.
    home = cmake_cache(out).get("CMAKE_HOME_DIRECTORY", "")
    if os.path.realpath(home) != os.path.realpath(HERE):
        fail(f"{out} was configured for {home or 'an unknown tree'}, not "
             f"{HERE}; point CARGO_TARGET_DIR at a directory of its own", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target",
               "fdb_perfbench"],
              max(1, BUILD_TIMEOUT_S - (time.monotonic() - start)))
    return os.path.join(out, "fdb_perfbench")


def cmake_cache(out):
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def first_line(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=10).stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest():
    """sha256 over the library and harness sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".cpp", ".hpp", ".txt", ".py"))]
    files.append(os.path.join(ROOT, "CMakeLists.txt"))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    try:
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return sha, None
    return sha, bool(status.strip())


def meta(args, out):
    cache = cmake_cache(out)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        "-Wall -Wextra",
        "-march=native" if cache.get("FDB_NATIVE") == "ON" else "") if f)
    sha, dirty = git_state()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                "--version"]),
        "cxx_flags": flags,
        "build_type": build_type,
        "isa": "native" if cache.get("FDB_NATIVE") == "ON" else "portable",
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
    }


def main(argv):
    args = parse_args(argv)
    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail(f"harness exited {proc.returncode} without a result", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"meta": meta(args, out)}))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
