#!/usr/bin/env python3
"""Compares two checkouts on the end-to-end benchmark.

  python3 bench/e2e/compare.py PARENT CHANGE [--pairs 10] [--seed 42]

PARENT and CHANGE are checkout roots that both hold bench/e2e/run.py. For
every workload of the parent's BENCHMARK.json the script runs
`run.py --workload W --seconds T`, with T its run_seconds, in both, --pairs
times, alternating which side goes first. Per (metric, workload) it
prints each side's median and quartiles, the share of pairs each side won
(ties count for neither), and a verdict against the bounds of the parent's
BENCHMARK.json:

  improved    the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's quartile spread
  regressed   the change's median is worse than the parent's by more than
              the bound, and the runs resolve it (spread within the bound,
              or every change run worse than every parent run)
  unresolved  the parent's own spread is wider than the bound and not every
              change run reads better than every parent run
  unchanged   otherwise

The last line of stdout is one JSON object holding every run made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    # run.py exits 1 on an incorrect session but still prints its result;
    # no result line at all means it failed to build or run.
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"compare.py: {root}: run.py failed for {workload}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Judges one (metric, workload) from paired runs, per the rules above."""
    sign = 1 if better == "lower" else -1

    def good(x):  # larger reads better
        return -sign * x

    gains = [good(c) - good(p) for p, c in zip(parent, change)]
    change_wins = sum(g > 0 for g in gains) / len(gains)
    parent_wins = sum(g < 0 for g in gains) / len(gains)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    spread = p_q3 - p_q1
    worse_share = sign * (c_med - p_med) / p_med if p_med else 0.0
    all_better = min(map(good, change)) > max(map(good, parent))
    all_worse = max(map(good, change)) < min(map(good, parent))
    if change_wins >= WIN_SHARE and sign * (p_med - c_med) > spread:
        label = "improved"
    elif worse_share > bound and (spread <= bound * p_med or all_worse):
        label = "regressed"
    elif spread > bound * p_med and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"verdict": label, "change_wins": change_wins, "parent_wins": parent_wins,
            "parent": [p_med, p_q1, p_q3], "change": [c_med, *quartiles(change)]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed to claim anything")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[workload][side].append(run_side(root, workload, args.seed, seconds))
            print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins c/p':>9s}  verdict")
    report = {}
    for workload in workloads:
        sides = runs[workload]
        if not all(r["correct"] for r in sides["parent"] + sides["change"]):
            print(f"{workload:16s} {'-':12s} incorrect runs: no verdict")
            report[workload] = {"verdict": "incorrect"}
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in sides["parent"]]
            change = [r["metrics"][name] for r in sides["change"]]
            v = verdict(parent, change, metric["better"], metric["bound"])
            report.setdefault(workload, {})[name] = v
            fmt = lambda m: f"{m[0]:.5g} [{m[1]:.5g}, {m[2]:.5g}] {metric['unit']}"
            print(f"{workload:16s} {name:12s} {fmt(v['parent']):>34s} {fmt(v['change']):>34s} "
                  f"{v['change_wins']:.1f}/{v['parent_wins']:.1f}  {v['verdict']}")
    print(json.dumps({"seed": args.seed, "seconds": seconds, "runs": runs, "verdicts": report}))


if __name__ == "__main__":
    main()
