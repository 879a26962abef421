#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload arpanet_dspf_flow --seed 1 \
        --seconds 10 --trace 0

The script builds perfbench/bench.exe (and bin/replay.exe, which checks
traced runs' span files) with dune from the sources in the tree, stamps
the run with the source revision and processor count, and runs the
benchmark.  The last line of standard output is the result object; the
exit code is non-zero when the build, a correctness check or the span
file digest fails.  Records and span files land in .bench_out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = [
    "arpanet_dspf_flow",
    "mesh200_hnspf_megaflow",
    "arpanet_hnspf_packet_hbh",
    "paper_sweep",
]

# What the benchmark builds from and reads: without these there is
# nothing to measure.
REQUIRED = ["dune-project", "lib", "bin", "scenarios/paper_sweep.json"]

SOURCE_DIRS = ["lib", "bin", "perfbench", "scenarios"]

OUT_DIR = ".bench_out"
BENCH_EXE = "_build/default/perfbench/bench.exe"
REPLAY_EXE = "_build/default/bin/replay.exe"


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-1 over every source file the benchmark builds from."""
    h = hashlib.sha1()
    files = ["dune-project", "dune"]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def revision():
    """The git revision, marked when the tree differs from it; outside a
    git checkout, a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and head.stdout.strip():
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30)
            dirty = "+dirty" if status.stdout.strip() else ""
            return head.stdout.strip() + dirty
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "src-sha1:" + source_digest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a repository checkout (missing %s); run from its root"
             % ", ".join(missing))

    # The build stays inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe",
         "./bin/replay.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
    if build.returncode != 0:
        fail("build failed", build.returncode or 2)

    nproc = len(os.sched_getaffinity(0))
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", revision(), "--nproc", str(nproc), "--out-dir", OUT_DIR]
    bench = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=175)
    if bench.returncode != 0:
        print(bench.stdout, end="", flush=True)
        fail("benchmark failed (exit %d)" % bench.returncode,
             bench.returncode)
    lines = bench.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)

    if args.trace == 1:
        # The span file must digest in the replay tool.
        span_file = os.path.join(OUT_DIR, args.workload + ".trace.json")
        replay = subprocess.run([REPLAY_EXE, span_file], stdout=sys.stdout,
                                stderr=sys.stderr, timeout=60)
        if replay.returncode != 0:
            fail("replay could not digest " + span_file, 1)

    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
