"""Fixed-point driver: element solves, trace rebuild, stopping tests.

One pass of the iteration is one call, ops.apply_pass, with two phases
separated by a barrier: first every element solves its local system against
the current trace buffer into the one state array, which no pass reads, then
the trace is rebuilt from the fresh element solutions into a second buffer,
and the driver swaps the buffers. Element work is chunked in a fixed
order, so norms and results are identical whether or not the local solves
run on a thread pool.

Stopping modes:
  error-difference      |  ||u_k - u_e|| - ||u_{k-1} - u_e||  | < tol
  successive-difference ||u_k - u_{k-1}|| < tol
  trace-residual        skeleton L2 of (trace_k - trace_{k-1}) < tol
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

ERROR_DIFFERENCE = "error-difference"
SUCCESSIVE_DIFFERENCE = "successive-difference"
TRACE_RESIDUAL = "trace-residual"
STOPPING_MODES = (ERROR_DIFFERENCE, SUCCESSIVE_DIFFERENCE, TRACE_RESIDUAL)
# the default cap is 10 * n_el passes, but never below this: a cold-start
# steady solve needs 30-73 passes on meshes of 1-27 elements
MIN_ITERATION_CAP = 200
# a level whose successive difference has grown this many passes in a row
# diverges: ConvergenceFailure. Shallow water at nel=2 p=2 dt=0.1 grows for
# 169 passes in a row up to the cap; on no cell of table 1 or 2 does the
# successive difference grow even once
GROWTH_PASSES = 10


class ConvergenceFailure(Exception):
    pass


@dataclass
class IterationConfig:
    tol: float = 1e-10
    stopping: str = ERROR_DIFFERENCE
    max_iters: Optional[int] = None

    def __post_init__(self):
        if self.stopping not in STOPPING_MODES:
            raise ValueError(f"unknown stopping mode {self.stopping!r}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {self.tol}")
        if self.max_iters is not None and not (
                isinstance(self.max_iters, numbers.Integral)
                and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")

    def iteration_cap(self, mesh):
        if self.max_iters is not None:
            return self.max_iters
        return max(10 * mesh.n_el, MIN_ITERATION_CAP)


@dataclass
class ConvergenceLog:
    stopping: str
    tol: float
    t: float = 0.0                                  # the level's solve time
    iterations: int = 0
    converged: bool = False
    errors: list = field(default_factory=list)      # vs exact, nan if unknown
    successive: list = field(default_factory=list)  # ||u_k - u_{k-1}||
    skeleton: list = field(default_factory=list)    # weighted skeleton norm

    def write_csv(self, stream):
        stream.write("iteration,error_vs_exact,successive_diff,skeleton_norm\n")
        rows = zip(self.errors, self.successive, self.skeleton)
        for k, values in enumerate(rows, start=1):
            cells = [str(k)] + ["" if math.isnan(v) else "%.17g" % v
                                for v in values]
            stream.write(",".join(cells) + "\n")


def volume_l2(mesh, basis, u):
    vals = u @ basis.eval_vol.T
    return float(np.sqrt(mesh.jac * np.sum(basis.quad_w * vals * vals)))


def trace_diff_norm(mesh, basis, t1, t2):
    """Skeleton L2 norm of t1 - t2 over every face."""
    dq = (t1 - t2) @ basis.face_eval.T
    w = mesh.face_jac[mesh.face_axis, None] * basis.face_quad_w
    return float(np.sqrt(np.sum(w * dq * dq)))


# The transport norms live on the operators (LocalOperators.error_eval and
# skeleton_norm). These two names only call them: the benchmark tracer in
# perfbench/tracer.py wraps them by name.


def transport_error_eval(ops, t):
    return ops.error_eval(t)


def transport_skeleton_norm(ops, u):
    return ops.skeleton_norm(u)


@dataclass
class LevelWorkspace:
    """The buffers a level writes besides its state: the two traces, the
    local solution of the source (base) and the norms
    (LocalOperators.pass_norms). Each is None until the first level that
    uses the workspace allocates it, and every later level rewrites it,
    so one workspace serves every level of a march (solve)."""

    traces: Optional[tuple] = None
    base: Optional[np.ndarray] = None
    norms: Optional[object] = None


def _check_finite(k, err, succ, exact_known):
    """Fail fast: a non-finite iterate never passes a stopping test, so it
    would otherwise run on to the pass cap."""
    if not math.isfinite(succ):
        raise ConvergenceFailure(
            f"pass {k}: successive difference is {succ}"
        )
    if exact_known and not math.isfinite(err):
        raise ConvergenceFailure(f"pass {k}: error vs exact is {err}")


def _check_state(ops, name, state):
    """Fail fast on a state that is not one row of ops.state_width values
    per element, before any operator method reads it."""
    want = (ops.mesh.n_el, ops.state_width)
    if state is not None and np.shape(state) != want:
        raise ValueError(f"{name} must have shape {want}, "
                         f"got {np.shape(state)}")


def iterate_to_fixed_point(ops, config, u0=None, t=0.0, state_prev=None,
                           out=None, workspace=None):
    """Run passes until the stopping test is satisfied.

    Returns (u, trace, log). The iteration count is the number of element
    solve passes performed, counting the pass whose stopping check fired,
    and log.t is t.

    The iterate is a float64 copy of u0 (zero when None) that every pass
    overwrites. With out, the passes write into out instead: the start
    state is u0 copied into out, or out's own values when u0 is None or
    out itself. u0 and state_prev may both be out, as in a march (solve),
    because they are read only before the first pass: by
    ops.initial_trace, by the initial coordinates inside ops.pass_norms
    and by ops.solve_source.

    The level writes its traces, base and norms into workspace
    (a LevelWorkspace), and into a fresh one when None. A workspace whose
    norms an earlier level filled must have been handed that level's
    final state as the start state: its coordinates of that state are
    this level's start (ops.pass_norms with out), so they are not
    computed again.

    The error-difference test compares the errors of two computed iterates,
    so it cannot fire before the second pass; no error is assigned to the
    initial guess. The successive-difference and trace-residual tests
    compare iterate k against iterate k-1 with the initial guess standing
    in at k=1, so they can fire on the first pass.

    An error-difference test without an exact solution raises ValueError
    before any work, and so do a u0, state_prev or out that is not one
    row of ops.state_width values per element and an out that is not a
    float64 array. Work that does not change within the solve is done
    once before the first pass: the boundary data (ops.initial_trace, in
    both traces), the exact solution's coordinates (inside the norms) and
    the local solution of the trace-independent part of the right-hand
    side (ops.solve_source). Each pass is one ops.apply_pass: the local
    solves against the current trace, with the source's solution as
    their base, into the state, and the rebuild of the other trace from
    it. A non-finite error or successive difference raises
    ConvergenceFailure at once, and so does a successive difference that
    has grown GROWTH_PASSES passes in a row without the stopping test
    firing.
    """
    exact_known = ops.problem.exact is not None
    if config.stopping == ERROR_DIFFERENCE and not exact_known:
        raise ValueError(
            "error-difference stopping needs an exact solution; "
            "use successive-difference or trace-residual"
        )
    for name, state in (("u0", u0), ("state_prev", state_prev), ("out", out)):
        _check_state(ops, name, state)
    if out is not None and not (isinstance(out, np.ndarray)
                                and out.dtype == np.float64):
        raise ValueError(f"out is written in place, so it must be a float64 "
                         f"array, got {getattr(out, 'dtype', type(out))}")
    mesh = ops.mesh
    if out is None:
        u = ops.zero_state() if u0 is None else np.array(u0, dtype=float)
    else:
        u = out
        if u0 is not None and u0 is not out:
            u[...] = u0
    ws = LevelWorkspace() if workspace is None else workspace
    trace, trace_next = ws.traces or (None, None)
    # both traces hold the level's boundary data, which no pass writes
    trace = ops.initial_trace(u, t, out=trace)
    if trace_next is None:
        trace_next = trace.copy()
    else:
        trace_next[...] = trace
    ws.traces = (trace, trace_next)

    norms = ws.norms = ops.pass_norms(t, u, out=ws.norms)
    base = ws.base = ops.solve_source(t, state_prev, out=ws.base)
    log = ConvergenceLog(stopping=config.stopping, tol=config.tol, t=t)
    e_prev = succ_prev = float("nan")
    growth = 0

    cap = config.iteration_cap(mesh)
    for k in range(1, cap + 1):
        ops.apply_pass(trace, trace_next, u, base)

        e_k, succ, skel = norms(u)
        _check_finite(k, e_k, succ, exact_known)
        log.errors.append(e_k)
        log.successive.append(succ)
        log.skeleton.append(skel)

        if config.stopping == ERROR_DIFFERENCE:
            crit = abs(e_k - e_prev)
        elif config.stopping == SUCCESSIVE_DIFFERENCE:
            crit = succ
        else:
            crit = trace_diff_norm(mesh, ops.basis, trace_next, trace)

        trace, trace_next = trace_next, trace
        e_prev = e_k
        log.iterations = k
        if crit < config.tol:
            log.converged = True
            break
        growth = growth + 1 if succ > succ_prev else 0
        succ_prev = succ
        if growth == GROWTH_PASSES:
            raise ConvergenceFailure(
                f"pass {k}: the successive difference grew {growth} passes "
                f"in a row, to {succ:.3e}; the iteration diverges")
    return u, trace, log


def check_steps(steps):
    """Refuse a time-stepping solve without a positive step count."""
    if steps is None or steps < 1:
        raise ValueError("steps must be positive for a time-stepping solve, "
                         f"got {steps}")


def solve(ops, config, state0=None, steps=1):
    """Run a case: one steady solve, or `steps` backward-Euler steps.

    With ops.dt None this is one fixed-point solve at t=0 started from
    state0 (zero when None), and steps is not read. Otherwise level m
    (m = 0, 1, ...) is warm-started at the state of the level before it,
    state0 for the first, and solved at t = m * dt + dt.

    A state0 that is not one row of ops.state_width values per element
    raises ValueError before any work. A march holds one state: state0 is
    copied once, as float64 (and never written),
    and every pass of every level writes into that copy. A level reads
    its start state, the state of the level before it, only before its
    first pass (iterate_to_fixed_point with out), so no level allocates a
    state of its own. The march also holds one LevelWorkspace, which
    every level writes, so from the second level on no level allocates
    its traces, base or norms either, and each starts from the
    coordinates of the level before's last pass.

    Returns (state, trace, logs): the last level's state and trace and one
    ConvergenceLog per level run. The march stops after the first level
    that does not converge; nothing is raised at the pass cap, so the
    caller decides by logs[-1].converged.
    """
    _check_state(ops, "state0", state0)
    # iterate_to_fixed_point is looked up as a module global at each call,
    # so a wrapped driver.iterate_to_fixed_point sees every level
    if ops.dt is None:
        state, trace, log = iterate_to_fixed_point(ops, config, u0=state0)
        return state, trace, [log]
    check_steps(steps)
    state = None if state0 is None else np.array(state0, dtype=float)
    logs = []
    workspace = LevelWorkspace()
    for m in range(steps):
        state, trace, log = iterate_to_fixed_point(
            ops, config, u0=state, t=m * ops.dt + ops.dt, state_prev=state,
            out=state, workspace=workspace)
        logs.append(log)
        if not log.converged:
            break
    return state, trace, logs


@dataclass
class RateFit:
    """Least-squares exponential decay fit over the pre-floor window."""

    rate: Optional[float]
    r_squared: Optional[float]
    n_points: int
    floor_index: Optional[int]
    defined: bool


def fit_exponential_rate(norms, floor_ratio=0.99, min_points=5):
    """Fit ln(norm) vs iteration up to the stagnation floor.

    The floor starts at the first index whose successive ratio exceeds
    floor_ratio; points from there on are excluded. Fewer than min_points
    usable points, or nonpositive values inside the window, give an
    undefined fit.
    """
    v = np.asarray([float(x) for x in norms])
    floor_index = None
    for k in range(1, len(v)):
        if not (v[k - 1] > 0) or not np.isfinite(v[k]):
            floor_index = k - 1
            break
        if v[k] > floor_ratio * v[k - 1]:
            floor_index = k - 1
            break
    window = v[: floor_index + 1] if floor_index is not None else v
    if len(window) < min_points or np.any(window <= 0):
        return RateFit(
            rate=None,
            r_squared=None,
            n_points=len(window),
            floor_index=floor_index,
            defined=False,
        )
    k = np.arange(len(window), dtype=float)
    y = np.log(window)
    slope, intercept = np.polyfit(k, y, 1)
    resid = y - (slope * k + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        rate=float(slope),
        r_squared=r2,
        n_points=len(window),
        floor_index=floor_index,
        defined=True,
    )
