#!/usr/bin/env python3
"""Collects and compares sets of avqdb benchmark runs.

Collect a set of runs of the checkout this script lives in:

    python3 perfbench/compare.py collect --out parent.jsonl --runs 10

appends one line per untraced run ({"workload", "seed", "exit", "result"})
for every workload of BENCHMARK.json, with seeds 1 .. --runs. A run that
exits non-zero is recorded with its exit code and a null result. Collect
the change the same way, ideally alternating which side runs first, then
compare:

    python3 perfbench/compare.py diff parent.jsonl change.jsonl

For every workload and end-to-end metric it prints both sides' medians
and quartiles, the pairs (same seed) the change won, and a verdict
against the metric's bound in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more
              than the bound;
  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile spread;
  unresolved  the parent's quartile spread exceeds the bound and not
              every change run beats every parent run;
  same        none of the above.

Exits 1 when any metric regressed, or when either side has a run that
failed, was incorrect or is missing for a seed the other side ran; else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(args):
    spec = load_spec()
    with open(args.out, "a") as out:
        for workload in [w["name"] for w in spec["workloads"]]:
            for seed in range(1, args.runs + 1):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                result = None
                if proc.returncode == 0:
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                else:
                    print("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode),
                          file=sys.stderr)
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "exit": proc.returncode,
                                      "result": result}) + "\n")
                out.flush()
    return 0


def read_runs(path):
    """{workload: {seed: result}}; a failed run's result is None."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], {})[row["seed"]] = \
                    row["result"]
    return runs


def ok(result):
    return (result is not None and result["correct"] and
            result["failed"] == 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(metric, parent, change, pairs):
    lower_better = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = (cm - pm) if lower_better else (pm - cm)
    if pm != 0 and worse / abs(pm) > bound:
        return "regressed"
    won = sum(1 for p, c in pairs if (c < p if lower_better else c > p))
    if pairs and won >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        return "improved" if worse < 0 else "same"
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if spread > bound:
        all_better = (max(change) < min(parent) if lower_better
                      else min(change) > max(parent))
        if not all_better:
            return "unresolved"
    return "same"


def diff(args):
    spec = load_spec()
    parent = read_runs(args.parent)
    change = read_runs(args.change)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_all = parent.get(workload, {})
        c_all = change.get(workload, {})
        for side, runs, other in (("parent", p_all, c_all),
                                  ("change", c_all, p_all)):
            bad = sorted(s for s, r in runs.items() if not ok(r))
            missing = sorted(set(other) - set(runs))
            if bad or missing:
                print("%s: %s has failed or incorrect runs at seeds %s, "
                      "no run at seeds %s" % (workload, side, bad, missing))
                status = 1
        p_runs = {s: r for s, r in p_all.items() if ok(r)}
        c_runs = {s: r for s, r in c_all.items() if ok(r)}
        if not p_runs or not c_runs:
            print("%s: no good runs on one side" % workload)
            status = 1
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        print("%s (%d parent runs, %d change runs, %d pairs)" % (
            workload, len(p_runs), len(c_runs), len(seeds)))
        print("  %-18s %-6s %31s %31s %7s  %s" % (
            "metric", "unit", "parent q1 / median / q3",
            "change q1 / median / q3", "won", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"]) for s in seeds]
            won = sum(1 for p, c in pairs
                      if (c < p if metric["better"] == "lower" else c > p))
            v = verdict(metric, pv, cv, pairs)
            if v == "regressed":
                status = 1
            print("  %-18s %-6s %9.4g / %9.4g / %9.4g %9.4g / %9.4g / %9.4g "
                  "%3d/%-3d  %s" % ((name, metric["unit"]) + quartiles(pv) +
                                    quartiles(cv) + (won, len(pairs), v)))
    return status


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    return collect(args) if args.mode == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
