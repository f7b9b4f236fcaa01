#!/usr/bin/env python3
"""Build the load generator from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload kernel_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
`mt` library and the load generator (CMake, Release) into the directory
named by CARGO_TARGET_DIR, or `.bench_build`; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
load generator's JSON result. With --trace 1 the spans of the run are
written to <build>/spans/<workload>.csv (the latest traced run of each
workload).

Exits non-zero, printing no result, when the sources are missing or the
build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mt sources next to perfbench/; run from a checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{args.workload}.csv")]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.exit(f"perfbench: load generator exited with {result.returncode}")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
