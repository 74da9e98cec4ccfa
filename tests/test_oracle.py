"""Direct trace solves against the fixed-point iteration.

The direct path eliminates the element unknowns onto the interior trace,
solves one dense system, and recovers element fields. Its solutions are
single-valued by construction, which the jump residuals verify, and the
iterative solver must land on the same fields. Both run on one operator
set; the direct path condenses the boundary trace rules itself.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ehdg.basis import TensorBasis
from ehdg.driver import (
    IterationConfig,
    SUCCESSIVE_DIFFERENCE,
    solve,
    volume_l2,
)
from ehdg.mesh import build_mesh
from ehdg.operators import LocalOperators
from ehdg.oracle import (
    _PHYSICS,
    MAX_DENSE_UNKNOWNS,
    OracleSizeError,
    assemble_trace_system,
    check_dense_size,
    condensed_solve,
    direct_solve,
    direct_solve_shallow,
    direct_solve_transport,
    flux_jump_residual,
    jump_moments,
    verify_cell,
)
from ehdg.problems import catalog
from ehdg.shallow import ShallowOperators
from ehdg.transport import TransportOperators, TransportProblem

from conftest import interp_scalar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIGHT = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE, tol=1e-12)


def rel_l2(mesh, basis, diff, ref):
    return volume_l2(mesh, basis, diff) / volume_l2(mesh, basis, ref)


def operators(case, nel, p, dt=None):
    """The operators both the direct solve and the iteration run on."""
    mesh = build_mesh(case.dim, nel, case.bounds)
    basis = TensorBasis(case.dim, p)
    if case.kind == "shallow":
        return ShallowOperators(mesh, basis, case.problem, dt)
    return TransportOperators(mesh, basis, case.problem, dt=dt)


def _dead_face_problem():
    # with beta = (1, 0) the axis-1 faces carry no flux at all
    def beta(pts):
        return np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1)

    return TransportProblem(dim=2, velocity=beta,
                            inflow=lambda pts, t=0.0: pts[:, 1] ** 2,
                            constant_velocity=True)


class TestSteadyEquivalence:
    @pytest.mark.parametrize(
        "identifier,nel,p",
        [
            ("transport2d-smooth", 4, 2),
            ("transport2d-discontinuous", 4, 1),
            ("transport3d-steady", 2, 2),
        ],
    )
    def test_direct_matches_iterative(self, identifier, nel, p):
        ops = operators(catalog(identifier), nel, p)
        mesh, basis = ops.mesh, ops.basis
        u_dir, trace_dir, _system = direct_solve(ops)
        u_it, trace_it, [log] = solve(ops, TIGHT)
        assert log.converged
        assert rel_l2(mesh, basis, u_it - u_dir, u_dir) < 1e-10
        assert flux_jump_residual(ops, u_dir, trace_dir) < 1e-11
        assert flux_jump_residual(ops, u_it, trace_it) < 1e-9

    def test_transverse_dead_faces_stay_well_posed(self):
        # the axis-1 trace unknowns must be pinned rather than left
        # singular, and the solve reproduces the convected inflow profile
        # exactly
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = TransportOperators(mesh, basis, _dead_face_problem())
        u, _trace, _system = direct_solve(ops)
        expect = interp_scalar(mesh, basis, lambda q: q[:, 1] ** 2)
        assert np.allclose(u, expect, atol=1e-11)


class TestTransientEquivalence:
    def test_transport_step(self):
        case = catalog("transport3d-gaussian")
        dt = case.dt_default
        ops = operators(case, 4, 1, dt)
        mesh, basis = ops.mesh, ops.basis
        state0 = ops.interpolate_exact(0.0)
        u_dir, trace_dir, _system = direct_solve(ops, state0, dt)
        u_it, trace_it, [log] = solve(ops, TIGHT, state0)
        assert log.converged
        assert rel_l2(mesh, basis, u_it - u_dir, u_dir) < 1e-10
        assert flux_jump_residual(ops, u_dir, trace_dir) < 1e-11

    def test_shallow_step(self):
        case = catalog("shallow-standing-wave")
        dt = 1e-3
        ops = operators(case, 4, 1, dt)
        state0 = ops.interpolate(case.problem.exact, 0.0)
        s_dir, trace_dir, _system = direct_solve(ops, state0, dt)
        s_it, trace_it, [log] = solve(ops, TIGHT, state0)
        assert log.converged
        num = ops.diff_norm(s_it, s_dir)
        den = ops.diff_norm(s_dir, ops.zero_state())
        assert num / den < 1e-10
        assert flux_jump_residual(ops, s_dir, trace_dir) < 1e-11
        assert flux_jump_residual(ops, s_it, trace_it) < 1e-9


def _residual(ops, system, vec, state_prev, t):
    """Jump moments of the condensed local solves driven by the interior
    trace vec, through ops.rhs: the map whose Jacobian the prober writes
    down."""
    trace = ops.new_trace()
    if isinstance(ops, TransportOperators):
        ops.inflow_trace(trace, t)
    system.index.scatter(vec, trace)
    state = condensed_solve(ops, system.a_inv, trace,
                            ops.source(t, state_prev))
    return jump_moments(ops, state, trace)


class TestProbedSystem:
    @pytest.mark.parametrize("cell", ["steady2d", "transient3d", "shallow",
                                      "dead-faces"])
    def test_columns_are_residual_differences(self, cell):
        # each column of the probed matrix is r(e_j) - r(0), and the
        # right-hand side is -r(0), where r runs the operators' own rhs;
        # the prober's hand-written lifts and rows must agree with it
        state_prev, t = None, 0.0
        if cell == "dead-faces":
            mesh, basis = build_mesh(2, 3, [(0, 1), (0, 1)]), TensorBasis(2, 2)
            ops = TransportOperators(mesh, basis, _dead_face_problem())
        elif cell == "steady2d":
            ops = operators(catalog("transport2d-smooth"), 3, 2)
        elif cell == "transient3d":
            case = catalog("transport3d-gaussian")
            ops = operators(case, 2, 2, dt=1e-2)
            state_prev, t = ops.interpolate_exact(0.0), 1e-2
        else:
            case = catalog("shallow-standing-wave")
            ops = operators(case, 3, 2, dt=1e-3)
            state_prev, t = ops.interpolate(case.problem.exact, 0.0), 1e-3
        system = assemble_trace_system(ops, state_prev, t)
        index, n = system.index, system.index.n_unknowns
        assert system.matrix.shape == (n, n)

        r0 = _residual(ops, system, np.zeros(n), state_prev, t)
        assert np.abs(system.rhs + r0).max() <= 1e-12 * np.abs(r0).max()
        dead = np.zeros(n, dtype=bool)
        if isinstance(ops, TransportOperators):
            for a in range(ops.mesh.dim):
                for f in ops._int_faces[a][0]:
                    dead[index.rows(a, f)] = not np.any(ops.abs_bn[a][f])
        assert np.any(dead) == (cell == "dead-faces")
        scale = np.abs(system.matrix).max()
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            col = _residual(ops, system, e, state_prev, t) - r0
            if dead[j]:
                # no flux crosses the face: the column is pinned to e_j
                assert np.array_equal(system.matrix[:, j], e)
                assert np.abs(col).max() <= 1e-12 * scale
            else:
                assert np.abs(col - system.matrix[:, j]).max() <= 1e-12 * scale


def test_every_physics_defines_the_same_rules():
    names = [{n for n in vars(rules) if not n.startswith("_")}
             for rules in _PHYSICS.values()]
    assert len(names) == 2 and names[0] == names[1], names
    assert {"side", "trace_weight", "lift", "correction",
            "closure"} <= names[0]


class TestJumpResidual:
    def test_inconsistent_trace_has_large_jumps(self, rng):
        case = catalog("transport2d-smooth")
        mesh = build_mesh(2, 4, case.bounds)
        basis = TensorBasis(2, 2)
        ops = TransportOperators(mesh, basis, case.problem)
        u = rng.standard_normal((mesh.n_el, basis.n_p))
        trace = ops.new_trace()  # all-zero trace, unrelated to u
        assert flux_jump_residual(ops, u, trace) > 1e-3

    def test_rebuilt_trace_cancels_the_jump_for_any_field(self, rng):
        # the upwind average makes the one-sided numerical fluxes agree
        # identically, whatever the element fields are; this is why each
        # pass of the solver is locally conservative
        case = catalog("transport2d-smooth")
        mesh = build_mesh(2, 4, case.bounds)
        basis = TensorBasis(2, 2)
        ops = TransportOperators(mesh, basis, case.problem)
        for _ in range(5):
            u = rng.standard_normal((mesh.n_el, basis.n_p))
            trace = ops.initial_trace(u)
            assert flux_jump_residual(ops, u, trace) < 1e-12


def _no_operators(monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("operators assembled before the size check")

    monkeypatch.setattr(LocalOperators, "__init__", boom)


class TestSizeGuard:
    def test_unknown_count(self):
        ops = operators(catalog("transport2d-smooth"), 4, 2)
        system = assemble_trace_system(ops)
        assert system.index.n_unknowns == 2 * 4 * 3 * 3
        assert check_dense_size(ops.mesh, ops.basis).n_unknowns == 2 * 4 * 3 * 3

    def test_transport_guard_trips(self, monkeypatch):
        case = catalog("transport2d-smooth")
        mesh = build_mesh(2, 64, case.bounds)
        basis = TensorBasis(2, 3)
        expected = 2 * 64 * 63 * 4
        assert expected > MAX_DENSE_UNKNOWNS
        _no_operators(monkeypatch)
        with pytest.raises(OracleSizeError):
            direct_solve_transport(mesh, basis, case.problem)

    def test_shallow_guard_trips(self, monkeypatch):
        case = catalog("shallow-standing-wave")
        mesh = build_mesh(2, 64, case.bounds)
        basis = TensorBasis(2, 3)
        state0 = np.zeros((mesh.n_el, 3 * basis.n_p))
        _no_operators(monkeypatch)
        with pytest.raises(OracleSizeError):
            direct_solve_shallow(mesh, basis, case.problem, dt=1e-3,
                                 state_prev=state0, t=1e-3)


@pytest.mark.parametrize("identifier, dt", [("transport3d-gaussian", 1e-2),
                                            ("shallow-standing-wave", 1e-3)])
def test_verify_cell_assembles_one_operator_set(identifier, dt, monkeypatch):
    # the direct solve condenses the boundary trace rules on the operators
    # the iteration runs on, so a verify cell builds them once
    built = []
    init = LocalOperators.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(LocalOperators, "__init__", counting)
    config = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE, tol=1e-12)
    checks = verify_cell(catalog(identifier), 2, 2, dt, config)
    assert len(built) == 1
    assert all(ok for _name, ok, _detail in checks), checks


@pytest.mark.parametrize("name, nel", [("steady3d", 2), ("gaussian3d", 2),
                                       ("wave2d", 2), ("disc2d", 2)])
def test_benchmark_gate_passes_on_tiny_cells(name, nel):
    # perfbench/gate.py reaches the oracle through direct_solve_transport,
    # direct_solve_shallow and shallow_flux_jump_residual; run it on each
    # workload's case, dt and stopping at p=2
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    w = dataclasses.replace(WORKLOADS[name], nel=nel, gate_nel=nel, p=2)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "gate.py"),
         json.dumps(dataclasses.asdict(w))],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["ok"] is True, result["checks"]
