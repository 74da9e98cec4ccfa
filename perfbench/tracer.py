"""Spans around the public entry points of each ehdg layer, from outside.

`Tracer.install` replaces functions and methods of the imported `ehdg`
modules with wrappers that record one span (name, start, end, parent) per
call. Spans stay in memory and are written once at the end of the process;
`layer_metrics` turns them into per-layer self times and counts. Nothing
inside `src/ehdg` is changed on disk, and the untraced benchmark runs never
import this module's wrapping code.

Only the main thread calls the wrapped entry points (the element worker
threads of `solve_cells` run inside one wrapped call), so one span stack is
enough.
"""

from __future__ import annotations

import functools
import time

CLOCK = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

# spans whose self time inside the solve window is a pass-phase metric
PASS_PHASES = (
    "transport.rhs", "transport.solve_cells", "transport.update_trace",
    "shallow.rhs", "shallow.solve_cells", "shallow.update_trace",
    "shallow.norms", "driver.norms", "problems.callables",
)
# most solve-window time that no span may cover: a share of the window plus
# a few milliseconds of per-step glue that matter only at tiny sizes. More
# means a layer entry point is not wrapped (about 0.4 % at full size).
UNCOVERED_SHARE = 0.02
UNCOVERED_SLACK_S = 0.005


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}  # name -> number
        self.marks = {}     # setup_end, write_start

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, after=None):
        """fn with a span per call; after(result, args) runs inside it."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, CLOCK(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                stack.pop()
                spans[idx][2] = CLOCK()

        return traced

    def install(self, cli):
        """Wrap the layer entry points reachable from the ehdg.cli module."""
        import ehdg.driver as driver
        import ehdg.mesh as mesh
        from ehdg.basis import TensorBasis
        from ehdg.problems import case_identifiers, catalog
        from ehdg.shallow import ShallowOperators
        from ehdg.transport import TransportOperators

        def patch(owner, attr, name, after=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

        # setup layers; modules that imported a name by value get it too
        built_mesh = self.wrap("mesh.build", mesh.build_mesh)
        mesh.build_mesh = cli.build_mesh = built_mesh
        patch(TensorBasis, "__init__", "basis.build")

        def constructed(_result, args):
            ops = args[0]
            self.marks.setdefault("setup_end", CLOCK())
            self.count("a_inv_bytes", ops.a_inv.nbytes)

        def solved_cells(result, args):
            ops, rhs = args[0], args[1]
            n = rhs.shape[1]
            # computed from array sizes, not measured: one n x n matvec per
            # element; a_inv read once, rhs read and the result written
            self.count("solve_cells_flop", 2 * rhs.shape[0] * n * n)
            self.count("solve_cells_bytes", ops.a_inv.nbytes + 2 * rhs.nbytes)

        for cls, layer in ((TransportOperators, "transport"),
                           (ShallowOperators, "shallow")):
            patch(cls, "__init__", f"{layer}.assemble", constructed)
            patch(cls, "element_matrix", f"{layer}.element_matrix")
            patch(cls, "rhs", f"{layer}.rhs")
            patch(cls, "solve_cells", f"{layer}.solve_cells", solved_cells)
            patch(cls, "update_trace", f"{layer}.update_trace")

        # norms: the error evaluators return closures that are spanned too
        def evaluator(name, make):
            def make_traced(*args, **kwargs):
                err = make(*args, **kwargs)
                return None if err is None else self.wrap(name, err)
            return self.wrap(name, make_traced)

        for attr in ("diff_norm", "skeleton_norm"):
            patch(ShallowOperators, attr, "shallow.norms")
        ShallowOperators.error_eval = evaluator(
            "shallow.norms", ShallowOperators.error_eval)
        traced_eval = evaluator("driver.norms", driver.transport_error_eval)
        driver.transport_error_eval = cli.transport_error_eval = traced_eval
        for attr in ("volume_l2", "transport_skeleton_norm", "trace_diff_norm"):
            patch(driver, attr, "driver.norms")

        def solved(result, _args):
            self.count("passes", result[2].iterations)
            self.count("solves", 1)
            self.counters["passes_per_step_max"] = max(
                self.counters.get("passes_per_step_max", 0),
                result[2].iterations)

        traced_solve = self.wrap(
            "driver.solve", driver.iterate_to_fixed_point, solved)
        driver.iterate_to_fixed_point = traced_solve
        cli.iterate_to_fixed_point = traced_solve

        # the case's own field callables, nested under whichever layer
        # evaluates them
        for ident in case_identifiers():
            problem = catalog(ident).problem
            for attr in ("velocity", "div_velocity", "forcing", "inflow",
                         "exact", "wind"):
                fn = getattr(problem, attr, None)
                if fn is not None:
                    setattr(problem, attr,
                            self.wrap("problems.callables", fn))

        def write_started(fn):
            def first(*args, **kwargs):
                self.marks.setdefault("write_start", CLOCK())
                return fn(*args, **kwargs)
            return self.wrap("cli.write", first)

        cli.write_field_dump = write_started(cli.write_field_dump)
        cli._write_steps_csv = write_started(cli._write_steps_csv)
        driver.ConvergenceLog.write_csv = write_started(
            driver.ConvergenceLog.write_csv)

    def record(self):
        return {"spans": self.spans, "counters": self.counters,
                "marks": self.marks}


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_n, start, end, _p), c in zip(spans, covered)]


def layer_metrics(record):
    """Per-layer times and counts of one traced process.

    Set-up layers (mesh, basis, assembly, element_matrix) and writers are
    inclusive durations. Pass phases are self times inside the solve
    window [setup_end, write_start]; their sum plus driver.self_s (the self
    time of the driver.solve spans) and driver.uncovered_s (time no span
    covers) is the traced solve_s. Returns (metrics, checks), checks being
    name -> bool.
    """
    spans, counters, marks = record["spans"], record["counters"], record["marks"]
    lo, hi = marks["setup_end"], marks["write_start"]
    selfs = self_times(spans)

    def inclusive(name):
        return sum(e - s for n, s, e, _p in spans if n == name)

    def calls(name):
        return sum(1 for n, *_rest in spans if n == name)

    in_window = [i for i, (_n, s, e, _p) in enumerate(spans)
                 if s >= lo and e <= hi]
    window_self = {}
    for i in in_window:
        name = spans[i][0]
        window_self[name] = window_self.get(name, 0.0) + selfs[i]
    roots = sum(spans[i][2] - spans[i][1] for i in in_window
                if spans[i][3] < 0)
    solve_s = hi - lo
    # solve-window time outside every span: the CLI's march loop glue, and
    # any layer entry point the tracer does not wrap
    uncovered = solve_s - roots
    phase = {name: window_self.get(name, 0.0) for name in PASS_PHASES}

    kind = "transport" if calls("transport.assemble") else "shallow"
    passes = counters.get("passes", 0)
    solves = counters.get("solves", 0)
    sc_s = phase[f"{kind}.solve_cells"]
    sc_flop = counters.get("solve_cells_flop", 0)
    sc_bytes = counters.get("solve_cells_bytes", 0)
    transport_sc = kind == "transport" and sc_s > 0
    norms = phase["driver.norms"] + phase["shallow.norms"]
    metrics = {
        "mesh.build_s": inclusive("mesh.build"),
        "basis.build_s": inclusive("basis.build"),
        "transport.assemble_s": inclusive("transport.assemble"),
        "transport.element_matrix_s": inclusive("transport.element_matrix"),
        "transport.factor_s": (inclusive("transport.assemble")
                               - inclusive("transport.element_matrix")),
        "transport.a_inv_mb": (counters.get("a_inv_bytes", 0) / 2**20
                               if kind == "transport" else 0.0),
        "transport.rhs_s": phase["transport.rhs"],
        "transport.rhs_calls": calls("transport.rhs"),
        "transport.solve_cells_s": phase["transport.solve_cells"],
        "transport.solve_cells_calls": calls("transport.solve_cells"),
        "transport.update_trace_s": phase["transport.update_trace"],
        "transport.update_trace_calls": calls("transport.update_trace"),
        "transport.solve_cells_flop": sc_flop if transport_sc else 0,
        "transport.solve_cells_bytes": sc_bytes if transport_sc else 0,
        "transport.solve_cells_gflop_s": (sc_flop / sc_s / 1e9
                                          if transport_sc else 0.0),
        "transport.solve_cells_gb_s": (sc_bytes / sc_s / 1e9
                                       if transport_sc else 0.0),
        "shallow.assemble_s": inclusive("shallow.assemble"),
        "shallow.rhs_s": phase["shallow.rhs"],
        "shallow.solve_cells_s": phase["shallow.solve_cells"],
        "shallow.update_trace_s": phase["shallow.update_trace"],
        "shallow.norms_s": phase["shallow.norms"],
        "driver.norms_s": phase["driver.norms"],
        "driver.norm_share": norms / solve_s,
        "driver.self_s": window_self.get("driver.solve", 0.0),
        "driver.uncovered_s": uncovered,
        "driver.solve_s": solve_s,
        "driver.steps": solves,
        "driver.passes": passes,
        "driver.passes_per_step_max": counters.get("passes_per_step_max", 0),
        "problems.callables_s": phase["problems.callables"],
        "cli.write_s": inclusive("cli.write"),
    }
    checks = {
        "rhs_calls == passes": calls(f"{kind}.rhs") == passes,
        "update_trace_calls == passes + solves":
            calls(f"{kind}.update_trace") == passes + solves,
        "spans nest: no negative self time":
            min((selfs[i] for i in in_window), default=0.0) >= -1e-9,
        f"uncovered time <= {UNCOVERED_SHARE:.0%} of solve_s + 5 ms":
            uncovered <= UNCOVERED_SHARE * solve_s + UNCOVERED_SLACK_S,
    }
    return metrics, checks
