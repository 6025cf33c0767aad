#!/usr/bin/env python3
"""Build the campaign benchmark from source, then run one workload.

usage: python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the xlv
library, the xlv_campaign / xlv_campaignd tools and the benchmark binary into
.bench_build/ (Release); later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The binary parses its own arguments strictly; see campaignbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "campaignbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("campaignbench: build step failed: " + " ".join(cmd))


def main():
    build()
    os.chdir(ROOT)
    binary = os.path.join(BUILD, "campaignbench")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
