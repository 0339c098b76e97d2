#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results: a parent and a change.

    python3 bench/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files or directories of them. A result file
holds one JSON object per line, as dart_e2e writes them to bench/e2e/out/
({"workload", "seed", "trace", "smoke", "seconds", "result"}); traced and
smoke runs are skipped. Runs pair up by workload and seed, so run the two
commits alternately, one seed at a time, with the same --seconds.

One row per workload x end-to-end metric:
  gain        the change won at least 9/10 of the pairs (ties count for
              neither side), the medians differ by more than the parent's
              interquartile range, and no more operations failed;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) exceeds the bound,
              unless every change run reads better than every parent run;
  no change   otherwise.
The exit code is 1 when any row is a regression.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    files = []
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith((".json", ".jsonl")))
    else:
        files = [path]
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                run = json.loads(line)
                if run.get("trace") or run.get("smoke"):
                    continue
                runs[(run["workload"], run["seed"])] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, p, c, failed_parent, failed_change):
    """Classifies paired parent runs `p` and change runs `c` of one metric."""
    better_is_lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    spread = (p3 - p1) / pm if pm else float("inf")
    worse = ((cm - pm) if better_is_lower else (pm - cm)) / pm if pm else 0.0
    wins = sum(1 for a, b in zip(p, c) if (b < a if better_is_lower else b > a))
    all_better = (max(c) < min(p)) if better_is_lower else (min(c) > max(p))
    if (wins >= 0.9 * len(p) and abs(cm - pm) > p3 - p1 and worse < 0
            and failed_change <= failed_parent):
        label = "gain"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    else:
        label = "no change"
    return {"parent": (p1, pm, p3), "change": cm, "delta": -worse, "wins": wins,
            "pairs": len(p), "spread": spread, "label": label}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("compare.py: no (workload, seed) pair present on both sides", file=sys.stderr)
        return 2

    print(f"{'workload':11s} {'metric':17s} {'parent median [q1, q3]':>34s} {'change':>12s} "
          f"{'delta':>8s} {'wins':>6s} {'spread':>7s} {'bound':>6s}  verdict")
    regressions = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        keys = [k for k in pairs if k[0] == workload]
        if not keys:
            continue
        failed_p = sum(parent[k]["result"]["failed"] for k in keys)
        failed_c = sum(change[k]["result"]["failed"] for k in keys)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [parent[k]["result"]["metrics"][name]["value"] for k in keys]
            c = [change[k]["result"]["metrics"][name]["value"] for k in keys]
            v = verdict(metric, p, c, failed_p, failed_c)
            regressions += v["label"] == "regression"
            q1, pm, q3 = v["parent"]
            print(f"{workload:11s} {name:17s} {pm:12.5g} [{q1:9.5g}, {q3:9.5g}] {v['change']:12.5g} "
                  f"{v['delta']:+8.2%} {v['wins']:>2d}/{v['pairs']:<3d} {v['spread']:7.2%} "
                  f"{metric['bound']:6.0%}  {v['label']}")
        print(f"{workload:11s} {'failed':17s} {failed_p:12d} {'':22s} {failed_c:12d}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
