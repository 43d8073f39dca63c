#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the resmatch libraries it pulls in from src/) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload in its own process. The binary's output passes through unchanged;
its last line is the JSON result. Extra flags (--tiny, --perturb,
--queue-capacity N) are forwarded. Exits non-zero, without a result line,
when the build fails or the sources are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-stream-fcfs", "sim-mr-backfill", "svc-net-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the benchmark target; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("resmatch sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the benchmarked and benchmarking sources, so results
    from a checkout without git history still name the code they ran."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(os.path.abspath(build_dir), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    # Relative to ROOT: the service's Unix socket path must stay short.
    work_dir = os.path.relpath(
        os.path.join(build_dir, "run", f"{args.workload}-trace{args.trace}"), ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha(),
           "--source-digest", source_digest()] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        proc.kill()
        proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
