#!/usr/bin/env python3
"""The benchmark command: build, then run every workload.

Run from the repository root:

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--reps K] [--quick]

It builds the benchmark program (benchmark/bench.exe) and the endpoint
daemon (bin/dvsd.exe) from source with dune, then hands every argument
to bench.exe, which runs each workload in a fresh process, prints each
metric with its unit, writes _build/bench_out/result.json and prints a
one-line JSON summary last.  The exit status is bench.exe's: nonzero
when a correctness check fails.  Build output goes to stderr.
"""

import os
import subprocess
import sys


def main() -> int:
    # No shared dune cache: the build reads and writes only this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./benchmark/bench.exe", "./bin/dvsd.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    bench = os.path.join("_build", "default", "benchmark", "bench.exe")
    return subprocess.run([bench, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
