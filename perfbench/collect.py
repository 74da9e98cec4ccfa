"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 1-10 [--trace 0|1]
                                 [--out perfbench/baseline.json]
                                 [--against perfbench/baseline.json]

Runs `run.py` once per (workload, seed), exactly as a single benchmark run
is made; the runs of one workload follow each other, as when two commits
are compared on one workload. For each end-to-end metric it reports the
median over the runs, the quartiles (`statistics.quantiles(n=4)`), the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json,
and, pooled over the raw per-process samples, the highest percentile that
still has ten samples beyond it. With --out the summary is written as
JSON; that file is the committed baseline. With --against an earlier
summary, each metric also gets its median's shift from that summary's
median, (new - old) / old, which a later commit must keep within the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    samples = [json.loads(l[len("# sample "):]) for l in lines
               if l.startswith("# sample ")]
    return json.loads(lines[-1]), samples, wall


def pooled_tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10  # samples at or below it
    return {"percentile": round(100.0 * k / n, 1),
            "value": sorted(values)[k - 1], "n": n}


def summarise(runs, bounds, old=None):
    out = {}
    for name in runs[0][0]["metrics"]:
        vals = [r[0]["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        raw = [[s[name] for s in r[1] if s.get("ok") and name in s]
               for r in runs]
        entry = {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
                 "values": vals, "samples": raw}
        if med:
            entry["spread"] = (q3 - q1) / med
        if name in bounds:
            entry["bound"] = bounds[name]
        if old is not None:
            entry["shift"] = (med - old[name]["median"]) / old[name]["median"]
        tail = pooled_tail([v for per_run in raw for v in per_run])
        if tail is not None:
            entry["pooled_tail"] = tail
        out[name] = entry
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--against", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    old = None
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)["workloads"]
    runs = {n: [] for n in names}
    walls = {n: [] for n in names}
    for name in names:
        for seed in args.seeds:
            result, samples, wall = one_run(name, seed, spec["run_seconds"],
                                            args.trace)
            runs[name].append((result, samples))
            walls[name].append(wall)
            print(f"seed {seed} {name}: {wall:.1f}s correct="
                  f"{result['correct']} {result['failed']}/"
                  f"{result['attempted']} failed", flush=True)
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": args.seeds, "against": args.against,
               "workloads": {}}
    for name in names:
        rows = summarise(runs[name], bounds if not args.trace else {},
                         old[name]["metrics"] if old else None)
        summary["workloads"][name] = {
            "wall_s_per_run": statistics.median(walls[name]),
            "all_correct": all(r[0]["correct"] for r in runs[name]),
            "failed": sum(r[0]["failed"] for r in runs[name]),
            "attempted": sum(r[0]["attempted"] for r in runs[name]),
            "metrics": rows,
        }
        print(f"\n{name}  (wall {statistics.median(walls[name]):.1f}s/run)")
        for metric, e in rows.items():
            spread = e.get("spread")
            bound = e.get("bound")
            flag = ""
            if spread is not None and bound is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
            if "shift" in e:
                flag += f"  shift {e['shift']:+.4f}"
                if bound is not None and e["shift"] > bound:
                    flag += " WORSE"
            print(f"  {metric:32s} median {e['median']:<12.6g} spread "
                  f"{'' if spread is None else f'{spread:.4f}':8s} "
                  f"bound {'' if bound is None else bound!s:6s} {flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
