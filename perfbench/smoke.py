"""Tiny-size self-test of the launcher, the tracer and the gate.

    python3 perfbench/smoke.py

Runs each kind of case (steady and transient transport, shallow water, a
case without an exact solution) at a tiny size through the same code as
the benchmark, untraced and traced, and checks the result format, the
call-count checks, that a wrong answer and solve time outside every span
are caught, and that the benchmark refuses to run without the ehdg
sources. Takes about ten seconds. It is not named test_*.py so that the
repository's pytest run does not collect it.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# each benchmark workload at a tiny size; the error tolerances are loose
# because p=2 on two to four elements per axis is far from converged
TINY = tuple(
    replace(w, name=f"tiny-{w.name}", nel=nel, p=2, gate_nel=nel,
            steps=2 if w.steps else None,
            error_tol=None if w.error_tol is None else 1.0)
    for w, nel in zip(WORKLOADS.values(), (2, 2, 4, 4))
)


def quiet(fn, *args):
    with redirect_stdout(io.StringIO()):
        return fn(*args)


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def test_spec_matches_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads == workloads.py")


def test_self_times():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["d", 5.0, 6.0, 0]]
    check(self_times(spans) == [6.0, 2.0, 1.0, 1.0], "self times of a tree")


def test_uncovered_time_is_checked():
    def uncovered_ok(spans):
        record = {"spans": spans, "counters": {},
                  "marks": {"setup_end": 0.0, "write_start": 1.0}}
        checks = layer_metrics(record)[1]
        return next(ok for name, ok in checks.items()
                    if name.startswith("uncovered"))
    check(uncovered_ok([["driver.solve", 0.0, 0.99, -1]])
          and not uncovered_ok([["driver.solve", 0.0, 0.5, -1]]),
          "solve time outside every span (an unwrapped layer) fails the run")


def test_workload(w):
    result = quiet(run.run, w, 0, 0.1, 0)
    metrics = result["metrics"]
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= run.SETUP_SAMPLES,
          f"{w.name}: untraced run correct, {result['attempted']} attempted")
    end_to_end, per_layer = run.metric_units()
    check(set(metrics) == set(end_to_end)
          and all(m["value"] > 0 for m in metrics.values()),
          f"{w.name}: every end-to-end metric present and positive")
    traced = quiet(run.run, w, 1, 0.1, 1)
    check(traced["correct"] and set(traced["metrics"]) == set(per_layer),
          f"{w.name}: traced run correct with every per-layer metric")
    layer = {k: m["value"] for k, m in traced["metrics"].items()}
    check(layer["driver.passes"] == metrics["passes"]["value"],
          f"{w.name}: traced pass count == untraced pass count")


def test_wrong_answer_is_caught():
    w = replace(TINY[0], name="tiny-wrong", error_tol=1e-30)
    result = quiet(run.run, w, 0, 0.1, 0)
    check(not result["correct"] and result["failed"] >= 1,
          "an error above the workload tolerance fails the run")


def test_refuses_without_sources():
    bare = os.path.join(run.OUT, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disc2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "no result and a nonzero exit without the ehdg sources")


def main():
    test_spec_matches_code()
    test_self_times()
    test_uncovered_time_is_checked()
    for w in TINY:
        test_workload(w)
    test_wrong_answer_is_caught()
    test_refuses_without_sources()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
