#!/usr/bin/env python3
"""Same-runner perf gate: perfbench on a baseline tree and a change tree.

    python3 .github/perf_gate.py BASE_DIR CHANGE_DIR

Each tree runs perfbench's own command, `python3 perfbench/run.py
--workload W --seed S --seconds <run_seconds> --trace 0`, once per gated
workload and seed; run.py builds the tree's harness into
CARGO_TARGET_DIR=<tree>/.bench_build, so the sides never share a build.
The two runs of a pair go back to back, and which side runs first
alternates from pair to pair, so host drift lands on both. The gate's
parameters are the "gate" block of CHANGE_DIR/results/BENCH_perfbench.json;
run_seconds comes from CHANGE_DIR/BENCHMARK.json.

The gate fails if any run exits non-zero, is incorrect or has a failed
request, or if for some gated (workload, metric) the median over pairs of
change / base exceeds 1 + max_regression. It prints both sides' medians and
quartiles with that ratio, and writes the table and the same numbers as
JSON to CHANGE_DIR/results/perf-gate/gate.{txt,json}.
"""

import json
import os
import statistics
import subprocess
import sys

STATISTIC = "median over pairs of change / base"


def fail(message):
    print(f"perf-gate: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        return json.load(f)


def run(tree, env, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{tree}: {workload} seed {seed} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{tree}: {workload} seed {seed} incorrect or failed "
             f"({result['failed']}/{result['attempted']} requests failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    trees = {"base": os.path.abspath(sys.argv[1]), "change": os.path.abspath(sys.argv[2])}
    gate = load(os.path.join(trees["change"], "results", "BENCH_perfbench.json"))["gate"]
    seconds = load(os.path.join(trees["change"], "BENCHMARK.json"))["run_seconds"]
    if gate["statistic"] != STATISTIC:
        fail(f"unknown statistic {gate['statistic']!r}")
    envs = {side: dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
            for side, tree in trees.items()}

    runs = {side: {w: [] for w in gate["workloads"]} for side in trees}
    for pair in range(gate["pairs"]):
        seed = pair + 1
        order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
        for workload in gate["workloads"]:
            for side in order:
                metrics = run(trees[side], envs[side], workload, seed, seconds)
                runs[side][workload].append(metrics)
                print(f"pair {pair + 1} seed {seed} {workload:<11} {side:<6} "
                      + "  ".join(f"{m} {metrics[m]:.3f}" for m in gate["metrics"]),
                      flush=True)

    rows = []
    for workload in gate["workloads"]:
        for metric in gate["metrics"]:
            side = {s: [r[metric] for r in runs[s][workload]] for s in trees}
            ratios = [c / b for b, c in zip(side["base"], side["change"])]
            ratio = statistics.median(ratios)
            ok = ratio <= 1 + gate["max_regression"]
            rows.append({"workload": workload, "metric": metric,
                         "base": spread(side["base"]), "change": spread(side["change"]),
                         "ratio": ratio, "pair_ratios": ratios, "pass": ok,
                         "base_runs": side["base"], "change_runs": side["change"]})

    def cell(s):
        return f"{s['median']:.2f} [{s['q1']:.2f}, {s['q3']:.2f}]"

    table = [f"{'workload':<11} {'metric':<15} {'base median [q1, q3]':<28} "
             f"{'change median [q1, q3]':<28} ratio"]
    table += [f"{r['workload']:<11} {r['metric']:<15} {cell(r['base']):<28} "
              f"{cell(r['change']):<28} {r['ratio']:.3f} {'ok' if r['pass'] else 'FAIL'}"
              for r in rows]
    print("\n" + "\n".join(table))
    out_dir = os.path.join(trees["change"], "results", "perf-gate")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "gate.txt"), "w") as f:
        f.write("\n".join(table) + "\n")
    with open(os.path.join(out_dir, "gate.json"), "w") as f:
        json.dump({"gate": gate, "run_seconds": seconds, "rows": rows}, f, indent=1)
    failed = [f"{r['workload']} {r['metric']}" for r in rows if not r["pass"]]
    if failed:
        fail(f"regressed by more than {gate['max_regression']:.0%}: {', '.join(failed)}")
    print(f"perf-gate: pass ({gate['pairs']} pairs, bound {gate['max_regression']:.0%})")


if __name__ == "__main__":
    main()
