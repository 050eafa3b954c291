#!/usr/bin/env python3
"""Runs the benchmark N times per workload and prints each metric's spread.

    python3 e2ebench/stability.py --workload paper_52w --runs 10
    python3 e2ebench/stability.py --workload all --runs 10 --trace 0
    python3 e2ebench/stability.py --workload all --runs 10 --sets 2
    python3 e2ebench/stability.py --workload fabric_grid --runs 10 \\
        --tree /path/to/parent-checkout --tree /path/to/change-checkout

Each run gets its own seed (--seed-base + i). With two --tree options the
runs alternate between the trees, in pairs on the same seed, the first
tree going first in even pairs and second in odd ones. With --sets 2 and
one tree, two sets of runs of the same code alternate the same way, the
second set on seeds --seed-base + runs + i. Either way the report gives
each tree's (or set's) figures, the ratio of their medians and whether the
second is worse than the first by more than the metric's bound.

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) /
median, and, for end-to-end metrics, the bound from BENCHMARK.json and
whether the spread is below a third of it. It also checks that every run
was correct and that the failed share of operations is the same in every
run. Exit status 1 when a run failed or reported incorrect results.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(arm, workload, seed, seconds, trace):
    tree = arm["tree"]
    command = [sys.executable, os.path.join(tree, "e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-3000:])
    return {"arm": arm["label"], "workload": workload, "seed": seed, "exit": proc.returncode,
            "elapsed_s": elapsed, "result": result}


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(runs, arms, bounds, better):
    ok = True
    for workload in sorted({r["workload"] for r in runs}, key=lambda w: w):
        print(f"\n== {workload}")
        per_arm = {a["label"]: [r for r in runs
                                if r["workload"] == workload and r["arm"] == a["label"]]
                   for a in arms}
        all_shares = set()
        for label, rs in per_arm.items():
            good = [r for r in rs if r["result"] is not None]
            if len(good) != len(rs) or any(r["exit"] != 0 for r in rs):
                ok = False
            if any(not r["result"]["correct"] for r in good):
                ok = False
            shares = {r["result"]["failed"] / r["result"]["attempted"] for r in good}
            all_shares |= shares
            elapsed = [r["elapsed_s"] for r in rs]
            print(f"-- {label}: {len(good)}/{len(rs)} runs with a result, "
                  f"correct {sum(r['result']['correct'] for r in good)}, "
                  f"failed shares {sorted(shares)}, "
                  f"wall {min(elapsed):.1f}-{max(elapsed):.1f} s")
            if len(shares) > 1:
                ok = False
            if not good:
                continue
            names = list(good[0]["result"]["metrics"])
            print(f"   {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>7s} {'bound':>6s}")
            for name in names:
                values = [r["result"]["metrics"][name]["value"] for r in good]
                unit = good[0]["result"]["metrics"][name]["unit"]
                median, q1, q3, s = spread(values)
                bound = bounds.get(name)
                verdict = ""
                if bound is not None:
                    verdict = "ok" if s < bound / 3 else ("within" if s < bound else "WIDE")
                print(f"   {name + ' [' + unit + ']':40s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{s:7.3f} {'' if bound is None else bound:>6} {verdict}")
        if len(all_shares) > 1:
            print(f"-- failed shares differ between runs: {sorted(all_shares)}")
            ok = False
        if len(arms) == 2 and all(per_arm[a["label"]] for a in arms):
            a, b = (per_arm[x["label"]] for x in arms)
            print(f"-- ratio of medians, second / first")
            for name in a[0]["result"]["metrics"] if a[0]["result"] else []:
                va = [r["result"]["metrics"][name]["value"] for r in a if r["result"]]
                vb = [r["result"]["metrics"][name]["value"] for r in b if r["result"]]
                ma, mb = statistics.median(va), statistics.median(vb)
                ratio = mb / ma if ma else float("nan")
                verdict = ""
                if name in bounds:
                    worse = ratio - 1 if better[name] == "lower" else 1 - ratio
                    verdict = "WORSE" if worse > bounds[name] else "ok"
                    ok = ok and verdict == "ok"
                print(f"   {name:40s} {ratio:8.4f} {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name, repeatable, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tree", action="append", default=None,
                        help="checkout root to run in (repeat for an A/B); default: this one")
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1,
                        help="with one tree: alternate two sets of runs on different seeds")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    selected = workloads if "all" in args.workload else args.workload
    for w in selected:
        if w not in workloads:
            parser.error(f"unknown workload {w}")
    trees = [os.path.abspath(t) for t in (args.tree or [root])]
    if len(trees) > 2:
        parser.error("at most two --tree options")
    if len(trees) == 2 and args.sets == 2:
        parser.error("--sets 2 takes one tree")
    if len(trees) == 2:
        arms = [{"label": t, "tree": t, "offset": 0} for t in trees]
    else:
        arms = [{"label": f"set {k + 1}", "tree": trees[0], "offset": k * args.runs}
                for k in range(args.sets)]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if args.trace == 0 else {}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs = []
    for i in range(args.runs):
        order = arms if i % 2 == 0 else list(reversed(arms))
        for workload in selected:
            for arm in order:
                seed = args.seed_base + arm["offset"] + i
                r = run_once(arm, workload, seed, seconds, args.trace)
                runs.append(r)
                print(f"run {i} {workload} seed {seed} {arm['label']}: exit {r['exit']} "
                      f"{r['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if report(runs, arms, bounds, better) else 1)


if __name__ == "__main__":
    main()
