#!/usr/bin/env python3
"""Build and run one osoffload benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness in perfbench/harness is built
in release mode (into $CARGO_TARGET_DIR, default .bench_build) and run
once per workload, each workload in its own process. The last line of
standard output is the harness's JSON result; with --workload all it is
one JSON object keyed by workload, after a table of every metric.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["sweep-fig4", "sweep-fig6", "serve-warm", "serve-mixed"]
HARNESS = os.path.join("perfbench", "harness")
BINARY = "osoffload-perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_checkout():
    """The benchmark builds the program from the checkout's sources."""
    needed = ["Cargo.toml", os.path.join("crates", "runner", "Cargo.toml"),
              os.path.join(HARNESS, "Cargo.toml")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print("perfbench: run from the repository root; missing "
              + ", ".join(missing), file=sys.stderr)
        sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HARNESS, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", BINARY)


def run_one(binary, workload, args, commit):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    # A fixed mmap threshold turns off glibc's dynamic one, which after a
    # large free keeps later large blocks on the heap; without it VmHWM
    # swings with allocation order instead of tracking live memory.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"{workload} result has keys {sorted(result)}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    check_checkout()
    commit = source_id()
    binary = build()
    if args.workload != "all":
        notes, result = run_one(binary, args.workload, args, commit)
        print("\n".join(notes))
        print(json.dumps(result))
        return
    results = {}
    for workload in WORKLOADS:
        notes, results[workload] = run_one(binary, workload, args, commit)
        print("\n".join(notes), flush=True)
    print(f"{'workload':<12} {'metric':<34} {'value':>14}  unit")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(f"{workload:<12} {name:<34} {m['value']:>14.4f}  {m['unit']}")
        print(f"{workload:<12} {'failed/attempted':<34} "
              f"{result['failed']:>7}/{result['attempted']:<6}  "
              f"correct={result['correct']}")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
