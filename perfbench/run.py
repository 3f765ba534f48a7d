#!/usr/bin/env python3
"""Repository benchmark: build the program from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics" (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). Build output and the
human-readable tables go to standard error.

    python3 perfbench/run.py --self-test   # statistics unit tests
    python3 perfbench/run.py --smoke       # every workload on tiny inputs

Everything the benchmark writes stays under .bench_build/ (the build) and
.bench_run/ (per-run state: the run's own tile-tuner cache, output digests
and the chrome trace of traced runs) in the current directory.
"""
import argparse
import fcntl
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("scan", "train-search", "serve-sim")
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
RUN_DIR = pathlib.Path(".bench_run")
# A run sets up three times and measures for --seconds; anything slower
# than this is hung.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets` incrementally. Returns their paths."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: program sources (src/) not found next to "
                         f"{HERE.name}/; run from the root of a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                        "--target", *targets], stdout=sys.stderr, check=True)
    return [BUILD_DIR / t for t in targets]


def run_benchmark(binary, workload, seed, seconds, trace, smoke=False):
    # Runs of one workload and seed share a directory: each checks that it
    # reproduces the outputs the first one recorded there.
    run_dir = RUN_DIR / f"{workload}-{seed}{'-smoke' if smoke else ''}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", str(run_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish within "
                         f"{RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited with "
                         f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no result")
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics unit tests")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs")
    args = parser.parse_args()

    if args.self_test:
        (selftest,) = build(["perfbench_selftest"])
        return subprocess.run([str(selftest)], timeout=60).returncode
    if args.smoke:
        (binary,) = build(["dcn_perfbench"])
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = json.loads(run_benchmark(binary, workload, 1, 1,
                                                  trace, smoke=True))
                ok = result["correct"] and result["attempted"] >= 1
                log(f"smoke {workload} trace={trace}: "
                    f"{'ok' if ok else 'FAILED'}")
                if not ok:
                    return 1
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    (binary,) = build(["dcn_perfbench"])
    print(run_benchmark(binary, args.workload, args.seed, args.seconds,
                     args.trace), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"perfbench: {e.cmd[0]} failed with {e.returncode}")
