"""Paired benchmark runs of two sibling source trees, and the claim rule.

    python3 tools/pairs.py --parent DIR --change DIR --workload W --pairs N
                           [--seconds S]
    python3 tools/pairs.py --parent DIR --change DIR --identity [--workload W]

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

With --identity nothing is timed. Each workload of the parent's
perfbench/workloads.py (or W alone) runs its `ehdg solve` arguments
(Workload.solve_args) once per tree, each a fresh `python3 -m ehdg.cli`
process on the tree's src at OPENBLAS_NUM_THREADS=1, writing into a
temporary directory. The two runs' exit codes, stdout and the sha256 of
every output file are compared (compare_runs). Per workload it prints
"identical" or what differs, with the largest relative difference of the
field dumps; the last line is one JSON object with every hash and the
parent's stdout. The exit status is 1 when any workload differs or any
solve fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

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


def load_workloads(tree):
    """The WORKLOADS of tree's perfbench/workloads.py, by name."""
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_identity_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through its module's entry
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def solve_outputs(tree, args):
    """(exit code, stdout) of `ehdg solve` with args on tree's source: a
    fresh process at OPENBLAS_NUM_THREADS=1, with tree's src first on the
    path and the tree as its working directory."""
    src = os.path.join(tree, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-m", "ehdg.cli", *args],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_field(path):
    """The value rows of an `ehdg solve` field dump: every line that is
    not a '#' comment, without its leading element index."""
    with open(path) as fh:
        return [[float(v) for v in line.split()[1:]]
                for line in fh if not line.startswith("#")]


def field_difference(path_a, path_b):
    """max |a - b| / max |a| over the values of two field dumps; inf when
    their shapes differ, or when a is zero and b is not."""
    a, b = read_field(path_a), read_field(path_b)
    if [len(row) for row in a] != [len(row) for row in b]:
        return math.inf
    diff = max((abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)),
               default=0.0)
    scale = max((abs(x) for row in a for x in row), default=0.0)
    if diff == 0:
        return 0.0
    return diff / scale if scale else math.inf


def compare_runs(parent, change):
    """How two runs of one workload differ; each is (outdir, exit code,
    stdout). Returns a dict: identical, the two exit codes, whether stdout
    matches, the sha256 pair of every file in either outdir (None where a
    side lacks it), the files that differ, and field_difference: the
    largest field_difference over the differing field dumps
    (*-field.txt) that both sides wrote, or None when there is none."""
    (p_dir, p_code, p_out), (c_dir, c_code, c_out) = parent, change
    names = sorted(set(os.listdir(p_dir)) | set(os.listdir(c_dir)))
    hashes = {}
    for name in names:
        paths = [os.path.join(d, name) for d in (p_dir, c_dir)]
        hashes[name] = [sha256(f) if os.path.isfile(f) else None
                        for f in paths]
    differ = [name for name, (a, b) in hashes.items() if a != b]
    fields = [field_difference(os.path.join(p_dir, name),
                               os.path.join(c_dir, name))
              for name in differ
              if name.endswith("-field.txt") and None not in hashes[name]]
    stdout = p_out == c_out
    return {
        "identical": p_code == c_code and stdout and not differ,
        "exit_codes": [p_code, c_code],
        "stdout_identical": stdout,
        "files": hashes,
        "differing_files": differ,
        "field_difference": max(fields) if fields else None,
    }


def identity(parent, change, names=None):
    """Run and compare the workloads (all of the parent's when names is
    None) in both trees; returns the exit status."""
    workloads = load_workloads(parent)
    results = {}
    for name in names or workloads:
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for side, tree in (("parent", parent), ("change", change)):
                outdir = os.path.join(tmp, side)
                os.mkdir(outdir)
                args = workloads[name].solve_args(outdir)
                runs.append((outdir, *solve_outputs(tree, args)))
            result = results[name] = compare_runs(*runs)
        result["stdout"] = runs[0][2]
        if result["exit_codes"] != [0, 0]:
            line = f"failed (exit codes {result['exit_codes']})"
        elif result["identical"]:
            line = "identical"
        else:
            what = [] if result["stdout_identical"] else ["stdout"]
            line = "differs: " + ", ".join(what + result["differing_files"])
            if result["field_difference"] is not None:
                line += ("; largest relative field difference "
                         f"{result['field_difference']:.3g}")
        print(f"{name}: {line}", flush=True)
    print(json.dumps({"identity": results}))
    ok = all(r["identical"] and r["exit_codes"] == [0, 0]
             for r in results.values())
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--identity", action="store_true",
                        help="compare the outputs of the two trees' solves "
                             "instead of timing them")
    args = parser.parse_args(argv)
    if args.identity and args.pairs is not None:
        parser.error("--identity runs no pairs: drop --pairs")
    if not args.identity and (args.workload is None or args.pairs is None):
        parser.error("--workload and --pairs are needed without --identity")
    if args.pairs is not None and args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        parent, change = sibling_trees(args.parent, args.change)
    except ValueError as err:
        parser.error(str(err))
    if args.identity:
        names = None if args.workload is None else [args.workload]
        if names and names[0] not in load_workloads(parent):
            parser.error(f"unknown workload {args.workload!r}")
        return identity(parent, change, names)
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
