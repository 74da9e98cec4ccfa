"""Polynomial reproduction: a consistent HDG method returns a solution in
Q_p to round-off.

Each cell's exact solution lies in the element space at p >= 2, with the
forcing u_t + beta . grad(u) and the inflow data taken from it. The direct
solve and the iteration must then land on its nodal interpolant. Unlike the
oracle's comparison of the two solvers, which share element_matrix, this
checks the local operators, the source, the lift and the boundary data
against the PDE itself.
"""

import numpy as np
import pytest

from ehdg.basis import TensorBasis
from ehdg.driver import SUCCESSIVE_DIFFERENCE, IterationConfig, solve
from ehdg.mesh import build_mesh
from ehdg.oracle import direct_solve
from ehdg.transport import TransportOperators, TransportProblem


def _rotation(X):
    return np.stack([X[:, 1], X[:, 0]], axis=1)


def steady2d():
    # beta = (y, x) is divergence-free
    def u(X, t=0.0):
        x, y = X[:, 0], X[:, 1]
        return x * x * y + 3 * y * y - x

    def f(X, t=0.0):
        x, y = X[:, 0], X[:, 1]
        return y * (2 * x * y - 1) + x * (x * x + 6 * y)

    return TransportProblem(dim=2, velocity=_rotation, forcing=f, inflow=u,
                            exact=u)


def steady3d():
    # div beta = 1, declared through div_velocity
    def beta(X):
        x, y, z = X[:, 0], X[:, 1], X[:, 2]
        return np.stack([1 + x, z, 0.5 + x * y], axis=1)

    def u(X, t=0.0):
        x, y, z = X[:, 0], X[:, 1], X[:, 2]
        return x * y * z + z * z - 2 * y

    def f(X, t=0.0):
        x, y, z = X[:, 0], X[:, 1], X[:, 2]
        return ((1 + x) * y * z + z * (x * z - 2)
                + (0.5 + x * y) * (x * y + 2 * z))

    return TransportProblem(dim=3, velocity=beta, forcing=f, inflow=u,
                            exact=u, div_velocity=lambda X: np.ones(len(X)))


def transient2d():
    # linear in t, so each backward-Euler step is exact
    def u(X, t=0.0):
        x, y = X[:, 0], X[:, 1]
        return x * x * y - x + t * (y * y + x)

    def f(X, t=0.0):
        x, y = X[:, 0], X[:, 1]
        return (y * y + x) + y * (2 * x * y - 1 + t) + x * (x * x + 2 * t * y)

    return TransportProblem(dim=2, velocity=_rotation, forcing=f, inflow=u,
                            exact=u)


# (problem, nel, dt, steps); dt None is steady
CELLS = {
    "steady2d": (steady2d, 3, None, None),
    "steady3d": (steady3d, 2, None, None),
    "transient2d": (transient2d, 3, 0.1, 3),
}
PARAMS = [pytest.param(name, p, id=f"{name}-p{p}")
          for name in CELLS for p in (2, 3, 4)]


def build(name, p):
    """(ops, state0, steps, t_end) of one cell on the unit box."""
    make, nel, dt, steps = CELLS[name]
    problem = make()
    mesh = build_mesh(problem.dim, nel, [(0.0, 1.0)] * problem.dim)
    ops = TransportOperators(mesh, TensorBasis(problem.dim, p), problem, dt)
    if dt is None:
        return ops, None, None, 0.0
    return ops, ops.interpolate(problem.exact, 0.0), steps, steps * dt


def relative_error(ops, state, t):
    ref = ops.interpolate(ops.problem.exact, t)
    return np.abs(state - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("name,p", PARAMS)
def test_direct_solve_reproduces_the_polynomial(name, p):
    ops, state, steps, t_end = build(name, p)
    if steps is None:
        state = direct_solve(ops)[0]
    for m in range(1, (steps or 0) + 1):
        state = direct_solve(ops, state, m * ops.dt)[0]
    # measured at most 5.2e-15
    assert relative_error(ops, state, t_end) <= 1e-12


@pytest.mark.parametrize("name,p", PARAMS)
def test_iteration_reproduces_the_polynomial(name, p):
    ops, state0, steps, t_end = build(name, p)
    config = IterationConfig(tol=1e-14, stopping=SUCCESSIVE_DIFFERENCE)
    state, _trace, logs = solve(ops, config, state0, steps)
    assert all(log.converged for log in logs)
    assert len(logs) == (steps or 1)
    # measured at most 3.8e-13
    assert relative_error(ops, state, t_end) <= 1e-11
