#!/usr/bin/env python3
"""Build the benchmark driver from source, run one workload, print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The driver (perfbench/driver.cpp) and the
library it links are built with CMake into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); a build that is up to date
costs a second.  Build output goes to stderr, so the last stdout line is
the driver's result object.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("q10_ihc", "q10_ihc_shards2", "q6_multihop_bg",
             "q8_dead_node_recovery")


def build(root: Path) -> Path:
    src = root / "perfbench"
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = root / out
    out = out / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.exit("error: library sources (src/) not found; run from the "
                 "repository root")
    configure = ["cmake", "-S", str(src), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(out), "-j", jobs,
                 "--target", "ihc_perfbench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"error: build step failed: {' '.join(cmd)}")
    return out / "ihc_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path.cwd()
    driver = build(root)
    cmd = [str(driver), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-dir", str(driver.parent / "traces")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
