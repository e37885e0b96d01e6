#!/usr/bin/env python3
"""Build and run the pmemspec end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 pmbench/run.py --workload fig09_matrix --seed 1 --seconds 20 --trace 0

The first call configures and builds the driver (pmbench/CMakeLists.txt,
Release, against the repository's src/ tree) into .bench_build/pmbench;
later calls only re-run the incremental build. Build output goes to
stderr, so the driver's last stdout line -- one JSON object -- stays the
last line. With --trace 1 the spans of the last traced batch are written
to .bench_build/pmbench/spans-<workload>.tsv.

Exit status is the driver's (see pmbench/src/main.cc), or 2 when the
repository sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pmbench"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"pmbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {HERE.name}/ "
             "(run from the root of a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pmbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "pmbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", str(BUILD / f"spans-{args.workload}.tsv")]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
