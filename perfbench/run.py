#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload tick|durable|sweep --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Builds the server under test (bin/rrs.exe) and the benchmark harness
(perfbench/rrsbench.exe) from source with dune, then runs the harness
from the root of the checkout: one workload, or without --workload all
three in turn. For one workload the last line of standard output is
its JSON result; build output goes to standard error. Extra arguments
(such as --perturb, the gate's negative test) are passed on.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join("_build", "default", "perfbench", "rrsbench.exe")
RRS = os.path.join("_build", "default", "bin", "rrs.exe")
WORKLOADS = ["tick", "durable", "sweep"]
DEFAULTS = {"--seed": "1", "--seconds": "30", "--trace": "0"}


def main():
    os.chdir(ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/rrs.exe", "./perfbench/rrsbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    workdir = os.path.join(".bench_run", str(os.getpid()))
    args = sys.argv[1:]
    if "--workload" in args:
        return subprocess.run([HARNESS, "--rrs", RRS, "--workdir", workdir] + args).returncode
    for flag, value in DEFAULTS.items():
        if flag not in args:
            args += [flag, value]
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code = subprocess.run(
            [HARNESS, "--rrs", RRS, "--workdir", workdir, "--workload", workload] + args
        ).returncode
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
