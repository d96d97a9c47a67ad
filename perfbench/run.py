#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload warm-repeat --seed 1 --seconds 15 --trace 0

Builds the distapx library, distapx_cli and the perfbench program (Release)
into $CARGO_TARGET_DIR, default .bench_build, then runs perfbench. Build
output goes to stderr; perfbench's last stdout line is the result JSON.
`python3 perfbench/run.py --probe` prints the per-run cost of every
table1-cold catalogue row instead.
"""
import os
import shutil
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", bench_dir, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            sys.exit("perfbench: configure failed")
    build_cmd = ["cmake", "--build", build, "-j", jobs,
                 "--target", "perfbench", "distapx_cli"]
    if subprocess.call(build_cmd, stdout=sys.stderr, env=env) != 0:
        sys.exit("perfbench: build failed")
    bench = [os.path.join(build, "perfbench"),
             "--cli", os.path.join(build, "distapx", "distapx_cli")]
    sys.exit(subprocess.call(bench + sys.argv[1:]))


if __name__ == "__main__":
    main()
