#!/usr/bin/env python3
"""Builds and runs the popbean end-to-end benchmark.

    python3 perfbench/run.py --workload fig3|thm41|serve_tcp \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls rebuild incrementally.
Build output goes to <build dir>/build.log. The benchmark binary's own
stdout is passed through unchanged: a report, then one JSON line.

--selftest builds and runs the load generator's self-test instead.

Exit codes: the benchmark's own (0 ok, 1 an output check failed, 2 usage,
3 runtime error), 4 when the build fails, 5 when the run times out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, target))


def build(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "perfbench")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(4)


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 5


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["fig3", "thm41", "serve_tcp"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    build(out_dir)
    if args.selftest:
        sys.exit(run([os.path.join(out_dir, "perfbench_loadgen_test")]))
    sys.exit(run([os.path.join(out_dir, "perfbench"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace)]))


if __name__ == "__main__":
    main()
