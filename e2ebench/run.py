#!/usr/bin/env python3
"""Builds the program and the e2ebench binary, then runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run it from the root of a checkout. The first run configures and builds
(CMake, Release) into .bench_build/e2ebench; later runs only re-check the
build. The last stdout line is e2ebench's JSON result. Exit status:
e2ebench's (0 when every check passed), 2 when the program's sources or the
toolchain are missing or the build fails. --self-test builds and runs the
benchmark's tests of its own correctness checks instead of a workload.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "e2ebench")
WORKLOADS = ["paper_52w", "aimix_storm", "service_mix", "fabric_grid"]


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/exp/session.h", "tools/hs_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"program source {needed} not found under {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        build()
        sys.exit(subprocess.run([os.path.join(BUILD, "e2ebench_checks_test")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    bench = subprocess.Popen([
        os.path.join(BUILD, "e2ebench"), f"--workload={args.workload}",
        f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--work-dir={WORK}"])

    def forward(signum, _frame):
        bench.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, forward)
    sys.exit(bench.wait())


if __name__ == "__main__":
    main()
