#!/usr/bin/env python3
"""Builds and runs the sketching-stack benchmark.

    python3 perfbench/run.py --workload fd_local --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the library sources under src/ plus the sketchbench
driver) with CMake into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs one workload. DS_THREADS is pinned to at most nproc (default
min(4, nproc)) and recorded in the output. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}; the line before
it is a record with the seed, DS_THREADS, SIMD backend, nproc and commit.
Exits non-zero without a result when the build fails, and non-zero with a
result naming the check when an output check fails.

Extra flags for the benchmark's own tests: --tiny (small shapes) and
--corrupt-sketch (perturbs one returned sketch; the checks must trip).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fd_local", "fanout_cs", "service_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir, jobs):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs),
           "--target", "sketchbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def commit_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-sketch", action="store_true")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    nproc = os.cpu_count() or 1
    threads = min(int(os.environ.get("DS_THREADS", min(4, nproc))), nproc)
    threads = max(threads, 1)

    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return 3
    if not build(root, build_dir, min(4, nproc)):
        log("build failed")
        return 3

    tmp_dir = os.path.join(build_dir, f"tmp-{os.getpid()}")
    cmd = [os.path.join(build_dir, "sketchbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(root), "--tmp", tmp_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_sketch:
        cmd.append("--corrupt-sketch")
    env = dict(os.environ, DS_THREADS=str(threads))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: timed out after {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"{args.workload}: sketchbench exited with {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
