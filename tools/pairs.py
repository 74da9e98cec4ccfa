"""Paired benchmark runs of two sibling source trees, and the claim rule.

    python3 tools/pairs.py --parent DIR --change DIR --workload W --pairs N
                           [--seconds S]

Each pair runs `python3 perfbench/run.py --workload W --seconds S --trace 0`
once in each tree, as a fresh process with the tree as its working
directory and the caller's environment unchanged. The parent goes first in
even pairs and the change in odd ones. Both trees are byte-compiled
(compileall) before the first run, so that no timed run pays for it.

The two trees must be siblings, two different directories under one
parent directory, so that their paths have the same depth and neither
contains the other.

For each end-to-end metric of BENCHMARK.json (read from the parent tree)
it prints the medians of both sides, the parent's interquartile range, the
pairs the change wins and the verdict of the claim rule: the change is
better in at least nine of every ten pairs, and its median is better than
the parent's by more than the parent's interquartile range. The last line
of standard output is one JSON object with the same numbers, every run,
and the last line and `# manifest` line of both runs of the first pair
(record). A pair with a failed run counts in failed_pairs, not in the
verdict, and the exit status is then 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

# a claim needs a win in this share of the pairs: nine of ten
WIN_SHARE = 0.9


def sibling_trees(parent, change):
    """The real paths of the two trees; ValueError unless they are two
    different directories under one directory."""
    parent, change = os.path.realpath(parent), os.path.realpath(change)
    for tree in (parent, change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            raise ValueError(f"{tree} has no perfbench/run.py")
    if parent == change or os.path.dirname(parent) != os.path.dirname(change):
        raise ValueError(f"{parent} and {change} are not sibling "
                         "directories under one directory")
    return parent, change


def quartiles(values):
    """(q1, q3) of the values, by linear interpolation between order
    statistics (statistics.quantiles, method inclusive)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent_runs, change_runs, better):
    """The claim rule on one metric's paired runs (pair i is
    parent_runs[i], change_runs[i]); better is "lower" or "higher".

    Returns a dict of the medians, the parent's quartiles, the change's
    wins and losses, and claim: True when the change wins at least
    WIN_SHARE of the pairs and its median is better than the parent's by
    more than the parent's interquartile range."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one or more pairs of runs")
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p_med = statistics.median(parent_runs)
    c_med = statistics.median(change_runs)
    q1, q3 = quartiles(parent_runs)
    needed = math.ceil(WIN_SHARE * len(gains))
    claim = wins >= needed and sign * (c_med - p_med) > q3 - q1
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_vs_parent": (c_med - p_med) / p_med if p_med else None,
        "parent_iqr": [q1, q3],
        "change_wins": wins,
        "change_losses": losses,
        "wins_needed": needed,
        "claim": claim,
    }


def compile_tree(tree):
    """Byte-compile the sources a benchmark run imports."""
    for sub in ("src", "perfbench"):
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(tree, sub)], check=True)


def run_once(tree, workload, seconds):
    """(metrics, record) of one perfbench/run.py process in tree: metric
    name -> value, and its last line and manifest line as printed; None
    when it fails or reports incorrect output."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        return None
    record = {"last_json_line": lines[-1], "manifest_line": next(
        (line for line in lines if line.startswith("# manifest ")), None)}
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def end_to_end(tree):
    """name -> better, for the end-to-end metrics of tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        parent, change = sibling_trees(args.parent, args.change)
    except ValueError as err:
        parser.error(str(err))
    metrics = end_to_end(parent)
    for tree in (parent, change):
        compile_tree(tree)

    runs = {"parent": [], "change": []}
    record = None  # the run records of the first pair without a failure
    failed = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            tree = parent if side == "parent" else change
            pair[side] = run_once(tree, args.workload, args.seconds)
        print(f"# pair {i} " + json.dumps(
            {side: r and r[0] for side, r in pair.items()}), flush=True)
        if pair["parent"] is None or pair["change"] is None:
            failed += 1
            continue
        for side in runs:
            runs[side].append(pair[side][0])
        if record is None:
            record = {side: pair[side][1] for side in runs}

    summary = {"workload": args.workload, "pairs": len(runs["parent"]),
               "failed_pairs": failed, "record": record, "metrics": {}}
    print(f"{'metric':<12} {'parent':>12} {'change':>12} "
          f"{'parent IQR':>25} {'wins':>6}  claim")
    for name, better in metrics.items():
        p_runs = [r[name] for r in runs["parent"] if name in r]
        c_runs = [r[name] for r in runs["change"] if name in r]
        if not p_runs or len(p_runs) != len(c_runs):
            continue
        v = verdict(p_runs, c_runs, better)
        v.update(parent_runs=p_runs, change_runs=c_runs)
        summary["metrics"][name] = v
        q1, q3 = v["parent_iqr"]
        print(f"{name:<12} {v['parent_median']:>12.6g} "
              f"{v['change_median']:>12.6g} "
              f"{f'[{q1:.6g}, {q3:.6g}]':>25} "
              f"{v['change_wins']:>3}/{len(p_runs):<2}  "
              f"{'yes' if v['claim'] else 'no'}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
