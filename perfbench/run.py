"""ehdg benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: one `ehdg solve` process at a time, each a
fresh interpreter on the CLI path (`ehdg.cli.main`, see child.py), started
with the caller's environment unchanged. The inputs are the fixed catalog
cases of workloads.py; the seed only shuffles the order of the processes
of a traced run.

--trace 0  start full solves until S seconds have passed (at least one),
           then set-up-only processes until there are three set-up
           samples and the set-up-only processes have taken three
           seconds; report the median of each end-to-end metric.
--trace 1  one untraced solve, one traced solve and one solve pinned to one
           thread (OPENBLAS_NUM_THREADS=1 EHDG_WORKERS=1), in seeded order;
           report the per-layer metrics of the traced one.

Before timing, and untimed, the correctness gate (gate.py) checks a
reduced cell of the workload's case against the dense direct solve. Every
timed process is checked too: exit code 0, a finite field, the expected
number of steps, and a final error within the workload's tolerance.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it start with '#' and
carry the gate, the run manifest and the raw samples. Scratch output goes
to .bench_out/ in the checkout and is removed after each process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CLOCK = time.monotonic  # CLOCK_MONOTONIC, as in child.py
SETUP_SAMPLES = 3
SETUP_SECONDS = 3.0  # short set-ups are noisy per process: take more
PINNED = {"OPENBLAS_NUM_THREADS": "1", "EHDG_WORKERS": "1"}

sys.path.insert(0, HERE)
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def _tail(path, n=2000):
    with open(path, errors="replace") as fh:
        return fh.read()[-n:]


def run_gate(w):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "gate.py"), json.dumps(asdict(w))],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"correctness gate did not run:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def check_outputs(w, outdir, dim):
    """(passes, problems, bytes written) from the files one solve wrote."""
    names = os.listdir(outdir)
    problems = []

    def one(suffix):
        hits = [n for n in names if n.endswith(suffix)]
        if len(hits) != 1:
            problems.append(f"expected one *{suffix}, found {hits}")
            return None
        return os.path.join(outdir, hits[0])

    field, conv = one("-field.txt"), one("-convergence.csv")
    steps = one("-steps.csv") if w.steps is not None else None
    if problems:
        return 0, problems, 0
    if steps is not None:
        rows = _read_csv(steps)
        passes = sum(int(r["iterations"]) for r in rows)
        if len(rows) != w.steps:
            problems.append(f"{len(rows)} steps written, {w.steps} asked")
    else:
        rows = _read_csv(conv)
        passes = len(rows)
    if w.error_tol is not None:
        last = rows[-1]["error_vs_exact"] if rows else ""
        err = float(last) if last else math.nan
        if not err <= w.error_tol:
            problems.append(f"final error {err:.3e} > {w.error_tol:.1e}")
    with open(field, "rb") as fh:
        data = fh.read().lower()
    if b"nan" in data or b"inf" in data:
        problems.append("non-finite value in the field dump")
    n_rows = sum(1 for line in data.splitlines() if not line.startswith(b"#"))
    if n_rows != w.nel ** dim:
        problems.append(f"field dump has {n_rows} element rows")
    written = sum(os.path.getsize(os.path.join(outdir, n)) for n in names)
    return passes, problems, written


def launch(w, mode, tag, dim, env=None):
    """Run one child process and return its sample dict."""
    run_dir = os.path.join(OUT, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return _child_sample(w, mode, run_dir, dim, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _child_sample(w, mode, run_dir, dim, env):
    outdir = os.path.join(run_dir, "out")
    record_path = os.path.join(run_dir, "record.json")
    log_path = os.path.join(run_dir, "log.txt")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, record_path,
           *w.solve_args(outdir)]
    with open(log_path, "w") as log:
        t0 = CLOCK()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    sample = {"mode": mode, "exit": code,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    record = None
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    if code != 0 or record is None:
        sample["problems"].append(f"exit code {code}: {_tail(log_path)}")
    if record is not None:
        marks = record["marks"]
        if "setup_end" in marks:
            sample["setup_s"] = marks["setup_end"] - t0
        if mode != "setup" and "write_start" in marks:
            sample["total_s"] = marks["end"] - t0
            sample["solve_s"] = marks["write_start"] - marks["setup_end"]
    if mode != "setup":
        if code == 0:
            passes, problems, written = check_outputs(w, outdir, dim)
            sample["problems"] += problems
            sample["passes"] = passes
            sample["bytes_written"] = written
            if passes and "solve_s" in sample:
                sample["pass_ms"] = 1e3 * sample["solve_s"] / passes
        if mode == "traced" and record is not None and not sample["problems"]:
            sample["record"] = record
    sample["ok"] = not sample["problems"]
    return sample


def _median(samples, key):
    vals = [s[key] for s in samples if key in s]
    return statistics.median(vals) if vals else None


def measure(w, seconds, tag, dim, names):
    """--trace 0: full solves for `seconds`, then set-up-only samples."""
    full, setups = [], []
    start = CLOCK()
    while not full or CLOCK() - start < seconds:
        full.append(launch(w, "plain", f"{tag}-{len(full)}", dim))
    setup_start = CLOCK()
    while (len(full) + len(setups) < SETUP_SAMPLES
           or CLOCK() - setup_start < SETUP_SECONDS):
        setups.append(launch(w, "setup", f"{tag}-s{len(setups)}", dim))
    good = [s for s in full if s["ok"]] or full
    metrics = {k: _median(good, k) for k in names}
    metrics["setup_s"] = _median(
        [s for s in full + setups if s["ok"]] or full + setups, "setup_s")
    return metrics, full + setups, {}


def measure_traced(w, seed, tag, dim):
    """--trace 1: untraced, traced and single-threaded solves."""
    env_1t = dict(os.environ, **PINNED)
    order = ["plain", "traced", "baseline_1t"]
    random.Random(seed).shuffle(order)
    got = {}
    for kind in order:
        mode = "plain" if kind == "baseline_1t" else kind
        env = env_1t if kind == "baseline_1t" else None
        got[kind] = launch(w, mode, f"{tag}-{kind}", dim, env)
    samples = [got[k] for k in order]
    traced, plain, pinned = got["traced"], got["plain"], got["baseline_1t"]
    if not all(s["ok"] for s in samples):
        return None, samples, {"all processes ok": False}
    record = traced.pop("record")
    metrics, checks = layer_metrics(record)
    checks["traced passes == untraced passes"] = (
        metrics["driver.passes"] == traced["passes"] == plain["passes"])
    metrics.update({
        # 0 when the fit is undefined (too few points before the floor)
        "driver.rate": record["rate"] if record["rate"] is not None else 0.0,
        "cli.bytes_written": traced["bytes_written"],
        "trace.overhead": traced["total_s"] / plain["total_s"],
        "baseline_1t.total_s": pinned["total_s"],
        "baseline_1t.pass_ms": pinned["pass_ms"],
        "baseline_1t.pass_ratio": plain["pass_ms"] / pinned["pass_ms"],
    })
    return metrics, samples, checks


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "ehdg", "cli.py")):
        raise BenchError(f"no ehdg sources under {ROOT}/src")
    w = WORKLOADS[workload] if isinstance(workload, str) else workload
    end_to_end, per_layer = metric_units()
    units = per_layer if trace else end_to_end
    gate = run_gate(w)
    dim = gate["manifest"]["dim"]
    print("# gate " + json.dumps(gate["checks"]))
    print("# manifest " + json.dumps(dict(gate["manifest"],
                                          git_revision=git_revision())))
    tag = f"{w.name}-{seed}-{os.getpid()}"
    if trace:
        metrics, samples, checks = measure_traced(w, seed, tag, dim)
    else:
        metrics, samples, checks = measure(w, seconds, tag, dim, end_to_end)
    for s in samples:
        print("# sample " + json.dumps(s))
    if checks:
        print("# checks " + json.dumps(checks))
    failed = sum(1 for s in samples if not s["ok"])
    if metrics is None or any(v is None for v in metrics.values()):
        raise BenchError("no usable sample: every process failed")
    if set(metrics) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json")
    correct = gate["ok"] and failed == 0 and all(checks.values())
    return {
        "correct": bool(correct),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and
    # reaped in launch() instead of outliving the launcher
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
