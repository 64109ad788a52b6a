#!/usr/bin/env python3
"""Runs one workload of the IFAQ end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package
(release, offline, into $CARGO_TARGET_DIR or .bench_build), generates the
workload's seeded star export in a scratch directory under the build
directory, runs the measuring process on it with the program's
environment settings pinned, removes the export and prints the measuring
process's result line last. Build output and the generator's output go
to stderr. A traced run also writes its spans and metrics to
<build dir>/e2ebench-results/<workload>-seed<n>.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["retailer-linreg", "favorita-stream", "retailer-serve"]

# Settings the program reads from the environment (thread count, chunk
# size, verification level), and the allocator's: glibc keeps freed
# memory instead of handing it back to the kernel, so how many page
# faults a run takes does not depend on where trimming happened to fall.
# Pinned so that no caller's environment can change a measurement.
PINNED_ENV = {
    "IFAQ_THREADS": "1",
    "IFAQ_CHUNK_ROWS": "2048",
    "IFAQ_VERIFY": "on",
    "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=4294967295:glibc.malloc.mmap_threshold=33554432",
}


def main():
    # A termination request unwinds through subprocess.run, which kills
    # and waits for the running child, and through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("e2ebench: terminated"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "e2ebench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target, **PINNED_ENV)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", manifest],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("e2ebench: build failed")
    binary = os.path.join(target, "release", "ifaq_e2ebench")

    data = os.path.join(target, "e2ebench-data", "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(data, ignore_errors=True)
    # Temporary files (the C++ compiler's, in a traced linreg run) stay
    # inside the build directory too.
    env["TMPDIR"] = os.path.join(data, "tmp")
    os.makedirs(env["TMPDIR"])
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--data", data]
        gen = subprocess.run([binary, "gen"] + common, cwd=root, env=env, stdout=sys.stderr)
        if gen.returncode != 0:
            sys.exit("e2ebench: input generation failed")
        results = os.path.join(target, "e2ebench-results", "%s-seed%d.json" % (args.workload, args.seed))
        # The measuring process counts its set-up from this moment.
        started = ["--started-ns", str(time.time_ns())]
        run = subprocess.run(
            [binary, "run"] + common + started
            + ["--seconds", str(args.seconds), "--trace", args.trace, "--results", results],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("e2ebench: the measuring process failed (exit code %d)" % run.returncode)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
