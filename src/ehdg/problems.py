"""Benchmark problem catalog.

Five fixed cases: two steady 2D transports (one smooth manufactured
solution, one with discontinuous inflow data), a steady 3D transport, a
shallow-water standing wave in a closed basin, and a transient 3D Gaussian
advected along the cube diagonal. Identifiers are the CLI vocabulary.

All field callables take points of shape (N, dim) plus a time and
broadcast over N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as meshes
from .basis import TensorBasis
from .driver import ConvergenceFailure, IterationConfig, check_steps, solve
from .shallow import ShallowOperators, ShallowProblem
from .transport import TransportOperators, TransportProblem

PI = math.pi


@dataclass(frozen=True)
class ProblemCase:
    identifier: str
    dim: int
    kind: str  # "transport" or "shallow"
    bounds: tuple
    problem: object
    dt_default: float | None = None
    n_steps_default: int | None = None


def _smooth2d():
    def beta(pts):
        return np.stack([pts[:, 1], pts[:, 0]], axis=1)

    def exact(pts, t=0.0):
        return (1.0 / PI) * np.sin(PI * pts[:, 0]) * np.cos(PI * pts[:, 1])

    def forcing(pts, t=0.0):
        x, y = pts[:, 0], pts[:, 1]
        return (
            y * np.cos(PI * x) * np.cos(PI * y)
            - x * np.sin(PI * x) * np.sin(PI * y)
        )

    problem = TransportProblem(
        dim=2, velocity=beta, forcing=forcing, inflow=exact, exact=exact,
    )
    return ProblemCase(
        identifier="transport2d-smooth", dim=2, kind="transport",
        bounds=((0.0, 1.0), (0.0, 1.0)), problem=problem,
    )


def _discontinuous2d():
    def beta(pts):
        return np.stack(
            [1.0 + np.sin(0.5 * PI * pts[:, 1]), np.full(len(pts), 2.0)],
            axis=1,
        )

    def inflow(pts, t=0.0):
        x = pts[:, 0]
        hump = np.sin(PI * x) ** 6
        return np.where(x == 0.0, 1.0, np.where(x <= 1.0, hump, 0.0))

    problem = TransportProblem(dim=2, velocity=beta, inflow=inflow)
    return ProblemCase(
        identifier="transport2d-discontinuous", dim=2, kind="transport",
        bounds=((0.0, 2.0), (0.0, 2.0)), problem=problem,
    )


def _steady3d():
    def beta(pts):
        return np.stack([pts[:, 2], pts[:, 0], pts[:, 1]], axis=1)

    def exact(pts, t=0.0):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        return (1.0 / PI) * np.sin(PI * x) * np.cos(PI * y) * np.sin(PI * z)

    def forcing(pts, t=0.0):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        sx, cx = np.sin(PI * x), np.cos(PI * x)
        sy, cy = np.sin(PI * y), np.cos(PI * y)
        sz, cz = np.sin(PI * z), np.cos(PI * z)
        return z * cx * cy * sz - x * sx * sy * sz + y * sx * cy * cz

    problem = TransportProblem(
        dim=3, velocity=beta, forcing=forcing, inflow=exact, exact=exact,
    )
    return ProblemCase(
        identifier="transport3d-steady", dim=3, kind="transport",
        bounds=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), problem=problem,
    )


def _standing_wave():
    omega = math.sqrt(2.0) * PI

    def exact(pts, t=0.0):
        x, y = pts[:, 0], pts[:, 1]
        cx, sx = np.cos(PI * x), np.sin(PI * x)
        cy, sy = np.cos(PI * y), np.sin(PI * y)
        phi = cx * cy * np.cos(omega * t)
        amp = np.sin(omega * t) / math.sqrt(2.0)
        return np.stack([phi, sx * cy * amp, cx * sy * amp], axis=1)

    problem = ShallowProblem(phi_mean=1.0, exact=exact)
    return ProblemCase(
        identifier="shallow-standing-wave", dim=2, kind="shallow",
        bounds=((0.0, 1.0), (0.0, 1.0)), problem=problem,
        dt_default=1e-6, n_steps_default=100,
    )


def _gaussian3d():
    speed = 0.2

    def beta(pts):
        return np.full((len(pts), 3), speed)

    def exact(pts, t=0.0):
        c = speed * t
        # far from the centre the square overflows to inf: exp(-inf) = 0
        with np.errstate(over="ignore"):
            r2 = np.sum((pts - c) ** 2, axis=1)
        return np.exp(-5.0 * r2)

    problem = TransportProblem(
        dim=3, velocity=beta, inflow=exact, exact=exact,
        constant_velocity=True,
    )
    return ProblemCase(
        identifier="transport3d-gaussian", dim=3, kind="transport",
        bounds=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), problem=problem,
        dt_default=0.01, n_steps_default=240,
    )


_CASES = {
    c.identifier: c
    for c in (
        _smooth2d(),
        _discontinuous2d(),
        _steady3d(),
        _standing_wave(),
        _gaussian3d(),
    )
}


def case_identifiers():
    return tuple(_CASES)


def catalog(identifier):
    try:
        return _CASES[identifier]
    except KeyError:
        known = ", ".join(_CASES)
        raise KeyError(f"unknown case {identifier!r} (known: {known})") from None


@dataclass
class StudyRow:
    nel: int
    p: int
    h: float
    error: float
    order: float  # nan on the coarsest mesh of its p-series
    iterations: int


def convergence_study(case, nel_list, p_list, config=None, dt=None,
                      n_steps=None):
    """L2 errors, observed orders, and iteration counts over a mesh sweep.

    Each point is one run_cell: steady cases solve once per mesh; transient
    cases march n_steps of dt and report the final-time error with the
    summed iteration count. A mesh may appear once in nel_list: an order
    between two equal meshes is undefined.
    """
    if case.problem.exact is None:
        raise ValueError(f"case {case.identifier} has no exact solution")
    for i, nel in enumerate(nel_list):
        if nel in nel_list[:i]:
            raise ValueError(f"nel {nel} appears more than once in the "
                             "mesh list")
    config = config or IterationConfig()
    rows = []
    for p in p_list:
        prev = None
        for nel in nel_list:
            ops, logs = run_cell(case, nel, p, config, dt, n_steps)
            # the error the last pass's norms took of the returned state
            err, h = logs[-1].errors[-1], ops.mesh.h_max
            iters = sum(log.iterations for log in logs)
            order = math.nan
            if prev is not None:
                order = math.log(prev[0] / err) / math.log(prev[1] / h)
            rows.append(StudyRow(nel=nel, p=p, h=h, error=err,
                                 order=order, iterations=iters))
            prev = (err, h)
    return rows


def build_case(case, nel, p, dt=None):
    """The operators of one catalog case and its initial state.

    nel is an int or a per-axis tuple. dt falls back to the case's default
    step; shallow water always steps, transport steps when a dt is known
    and is steady otherwise. Returns (ops, state0): state0 is the initial
    state of a time-stepping case, the nodal interpolant of the exact
    solution at t=0 where the case has one and zero otherwise, and None
    for a steady case (its solve starts from zero).
    """
    # through the module attribute, so a wrapped build_mesh is seen
    mesh = meshes.build_mesh(case.dim, nel, case.bounds)
    basis = TensorBasis(case.dim, p)
    dt = dt if dt is not None else case.dt_default
    operators = (ShallowOperators if case.kind == "shallow"
                 else TransportOperators)
    ops = operators(mesh, basis, case.problem, dt)
    if ops.dt is None:
        return ops, None
    if case.problem.exact is None:
        return ops, ops.zero_state()
    return ops, ops.interpolate(case.problem.exact, 0.0)


def time_levels(case, dt=None, steps=None):
    """(dt, steps) of a run of case: the given values, else the case's
    default step and step count.

    A stepping run (dt not None) needs a step count that passes
    check_steps; a steady run (dt None) has steps None, and a given steps
    would be ignored. Each refusal raises ValueError, and nothing is
    built."""
    dt = dt if dt is not None else case.dt_default
    if dt is None and steps is not None:
        raise ValueError(f"{case.identifier} is steady without a dt, so "
                         f"steps={steps} would be ignored")
    if dt is not None:
        steps = steps if steps is not None else case.n_steps_default
        check_steps(steps)
    return dt, steps


def run_cell(case, nel, p, config, dt=None, steps=None):
    """Build one cell of a sweep and solve it; returns (ops, logs).

    dt and steps fall back to the case's defaults (time_levels), whose
    refusals come before anything is built; a level that stops at the
    pass cap raises ConvergenceFailure naming the cell and the level.
    """
    dt, steps = time_levels(case, dt, steps)
    ops, state0 = build_case(case, nel, p, dt)
    _state, _trace, logs = solve(ops, config, state0, steps)
    if not logs[-1].converged:
        raise ConvergenceFailure(
            f"{case.identifier} nel={nel} p={p} dt={dt}: level {len(logs)} "
            "hit the iteration cap"
        )
    return ops, logs
