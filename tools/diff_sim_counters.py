#!/usr/bin/env python3
"""Diffs the deterministic fields of two bench JSON snapshots.

Usage: diff_sim_counters.py <baseline.json> <candidate.json> [--ignore PATTERN]...

Schema-agnostic: the two files are compared recursively, field by field,
and any leaf mismatch is reported with its full path (e.g.
``configs[2].counters.pf_issued``). Works for every committed baseline —
bench_sim_throughput.json, bench_batch_inference.json — and any future
bench that separates deterministic counters from host-dependent
measurements.

Host-dependent fields are excluded by key name. The default ignore set
covers the conventions used across the repo's bench JSON schemas:

  host          whole subtree of machine facts (shards, hardware_threads)
  perf          whole subtree of throughput/latency measurements
  *_per_sec     inline rate fields (accesses_per_sec, queries_per_sec)
  speedup_vs_*  ratios of rate fields

``--ignore`` (repeatable, fnmatch patterns against key names) extends the
set for ad-hoc comparisons. Exit code: 0 when all compared fields match,
1 on any drift (with a per-field report), 2 on usage errors.
"""
import fnmatch
import json
import sys

DEFAULT_IGNORES = ["host", "perf", "*_per_sec", "speedup_vs_*"]


def ignored(key, patterns):
    return any(fnmatch.fnmatchcase(str(key), p) for p in patterns)


def diff(base, cand, patterns, path, failures):
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in base:
            if ignored(key, patterns):
                continue
            sub = f"{path}.{key}" if path else str(key)
            if key not in cand:
                failures.append(f"{sub}: missing from candidate")
            else:
                diff(base[key], cand[key], patterns, sub, failures)
        for key in cand:
            if not ignored(key, patterns) and key not in base:
                failures.append(f"{path + '.' if path else ''}{key}: not in baseline")
    elif isinstance(base, list) and isinstance(cand, list):
        if len(base) != len(cand):
            failures.append(f"{path}: length {len(base)} vs {len(cand)}")
        for i, (b, c) in enumerate(zip(base, cand)):
            diff(b, c, patterns, f"{path}[{i}]", failures)
    elif base != cand:
        failures.append(f"{path}: baseline {base!r}, candidate {cand!r}")


def count_leaves(value, patterns):
    if isinstance(value, dict):
        return sum(count_leaves(v, patterns) for k, v in value.items()
                   if not ignored(k, patterns))
    if isinstance(value, list):
        return sum(count_leaves(v, patterns) for v in value)
    return 1


def main():
    argv = sys.argv[1:]
    paths, patterns = [], list(DEFAULT_IGNORES)
    i = 0
    while i < len(argv):
        if argv[i] == "--ignore":
            if i + 1 >= len(argv):
                print(__doc__)
                return 2
            patterns.append(argv[i + 1])
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 2:
        print(__doc__)
        return 2
    with open(paths[0]) as f:
        base = json.load(f)
    with open(paths[1]) as f:
        cand = json.load(f)
    failures = []
    diff(base, cand, patterns, "", failures)
    if failures:
        print("deterministic counter drift vs committed baseline:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"counters identical across {count_leaves(base, patterns)} compared fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
