#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the repository's libraries
from source) under $CARGO_TARGET_DIR or .bench_build; later calls reuse the
build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 when every
correctness check passed, 1 when one failed, 2 on a build or set-up error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_features", "inproc_programs", "attack_campaign")
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slo-p99-ms", type=float, default=50.0,
                    help="p99 latency limit of the rate ladder")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench-build")
    work_dir = os.path.join(out_root, "perfbench-work")

    if args.selftest:
        if not build(build_dir, "perfbench_tests"):
            return 2
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode

    if not build(build_dir, "perfbench"):
        return 2
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--slo-p99-ms", repr(args.slo_p99_ms), "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        # No result: show what the benchmark printed, but not as stdout.
        sys.stderr.write(out)
        return proc.returncode or 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
