"""Fixed-point driver: element solves, trace rebuild, stopping tests.

One pass of the iteration has two phases separated by a barrier: first every
element solves its local system against the current trace buffer, then the
trace is rebuilt from the fresh element solutions into a second buffer and
the buffers swap. Element work is chunked in a fixed order, so norms and
results are identical whether or not the local solves run on a thread pool.

Stopping modes:
  error-difference      |  ||u_k - u_e|| - ||u_{k-1} - u_e||  | < tol
  successive-difference ||u_k - u_{k-1}|| < tol
  trace-residual        skeleton L2 of (trace_k - trace_{k-1}) < tol
"""

from __future__ import annotations

import math
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
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def iteration_cap(self, mesh):
        if self.max_iters is not None:
            return self.max_iters
        return max(10 * mesh.n_el, MIN_ITERATION_CAP)


@dataclass
class ConvergenceLog:
    stopping: str
    tol: float
    iterations: int = 0
    converged: bool = False
    errors: list = field(default_factory=list)      # vs exact, nan if unknown
    successive: list = field(default_factory=list)  # ||u_k - u_{k-1}||
    skeleton: list = field(default_factory=list)    # weighted skeleton norm

    def write_csv(self, stream):
        stream.write("iteration,error_vs_exact,successive_diff,skeleton_norm\n")
        for k in range(len(self.errors)):
            cells = [str(k + 1)]
            for seq in (self.errors, self.successive, self.skeleton):
                v = seq[k]
                cells.append("" if v is None or (isinstance(v, float) and math.isnan(v)) else "%.17g" % v)
            stream.write(",".join(cells) + "\n")


def volume_l2(mesh, basis, u):
    vals = u @ basis.eval_vol.T
    return float(np.sqrt(mesh.jac * np.sum(basis.quad_w * vals * vals)))


def trace_diff_norm(mesh, basis, t1, t2):
    total = 0.0
    for a in range(mesh.dim):
        dq = (t1[a] - t2[a]) @ basis.face_eval.T
        total += mesh.face_jac[a] * np.sum(basis.face_quad_w * dq * dq)
    return float(np.sqrt(total))


# The transport norms live on the operators (LocalOperators.error_eval and
# skeleton_norm). These two names only call them: the benchmark tracer in
# perfbench/tracer.py wraps them by name.


def transport_error_eval(ops, t):
    return ops.error_eval(t)


def transport_skeleton_norm(ops, u):
    return ops.skeleton_norm(u)


def _check_finite(k, err, succ, exact_known):
    """Fail fast: a non-finite iterate never passes a stopping test, so it
    would otherwise run on to the pass cap."""
    if not math.isfinite(succ):
        raise ConvergenceFailure(
            f"pass {k}: successive difference is {succ}"
        )
    if exact_known and not math.isfinite(err):
        raise ConvergenceFailure(f"pass {k}: error vs exact is {err}")


def iterate_to_fixed_point(ops, config, u0=None, t=0.0, state_prev=None):
    """Run passes until the stopping test is satisfied.

    Returns (u, trace, log). The iteration count is the number of element
    solve passes performed, counting the pass whose stopping check fired.

    The error-difference test compares the errors of two computed iterates,
    so it cannot fire before the second pass; no error is assigned to the
    initial guess. The successive-difference and trace-residual tests
    compare iterate k against iterate k-1 with the initial guess standing
    in at k=1, so they can fire on the first pass.

    Work that does not change within the solve is done once before the
    first pass: the exact solution at the quadrature points (inside the
    norms) and the trace-independent part of the right-hand side
    (ops.source). A non-finite error or successive difference raises
    ConvergenceFailure at once.
    """
    mesh = ops.mesh
    u = ops.zero_state() if u0 is None else np.array(u0)
    trace = ops.initial_trace(u, t)
    trace_next = ops.new_trace()
    u_next = np.empty_like(u)

    norms = ops.pass_norms(t, u)
    exact_known = ops.problem.exact is not None
    if config.stopping == ERROR_DIFFERENCE and not exact_known:
        raise ValueError(
            "error-difference stopping needs an exact solution; "
            "use successive-difference or trace-residual"
        )
    source = ops.source(t, state_prev)
    log = ConvergenceLog(stopping=config.stopping, tol=config.tol)
    e_prev = float("nan")

    cap = config.iteration_cap(mesh)
    for k in range(1, cap + 1):
        rhs = ops.rhs(trace, source)
        ops.solve_cells(rhs, out=u_next)
        ops.update_trace(u_next, trace_next, t)

        e_k, succ, skel = norms(u_next, u)
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

        u, u_next = u_next, u
        trace, trace_next = trace_next, trace
        e_prev = e_k
        log.iterations = k
        if crit < config.tol:
            log.converged = True
            break
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

    Returns (state, trace, logs): the last level's state and trace and one
    ConvergenceLog per level run. The march stops after the first level
    that does not converge; nothing is raised at the pass cap, so the
    caller decides by logs[-1].converged.
    """
    # iterate_to_fixed_point is looked up as a module global at each call,
    # so a wrapped driver.iterate_to_fixed_point sees every level
    if ops.dt is None:
        state, trace, log = iterate_to_fixed_point(ops, config, u0=state0)
        return state, trace, [log]
    check_steps(steps)
    state, logs = state0, []
    for m in range(steps):
        state, trace, log = iterate_to_fixed_point(
            ops, config, u0=state, t=m * ops.dt + ops.dt, state_prev=state
        )
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
