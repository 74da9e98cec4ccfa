"""Element-local transport operator checks.

The assembly tests rebuild element matrices and lift vectors by plain
quadrature loops over an unrelated (richer) Gauss rule; both forms are
exact for polynomial data, so they must agree to roundoff. The
sum-factorized element_matrix is also compared with the dense
(n_p x n_q) . (n_q x n_p) products it replaced, kept here as
dense_element_matrix.
"""

import gc
import math
import threading
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehdg.basis import TensorBasis, gauss_quadrature, lagrange_eval
from ehdg.driver import IterationConfig, SUCCESSIVE_DIFFERENCE, volume_l2
from ehdg.driver import solve
from ehdg.mesh import MeshError, build_mesh
from ehdg import operators
from ehdg.operators import ASSEMBLY_CHUNK, AssemblyError
from ehdg.oracle import condensed_matrices, full_rhs
from ehdg.transport import TransportOperators, TransportProblem

from conftest import (axis_interior_faces, cardinal_grads, cardinal_values,
                      interp_scalar, plane_faces, tensor_rule)


def rotating_problem(inflow=None, exact=None, forcing=None):
    """beta = (y, x), divergence free, inflow on the x = 0 and y = 0 sides."""

    def beta(pts):
        return np.stack([pts[:, 1], pts[:, 0]], axis=1)

    return TransportProblem(dim=2, velocity=beta, inflow=inflow,
                            exact=exact, forcing=forcing)


def constant_problem(bvec, dim=2, inflow=None, shared=False, exact=None):
    vec = np.asarray(bvec, dtype=float)

    def beta(pts):
        return np.tile(vec, (len(pts), 1))

    return TransportProblem(dim=dim, velocity=beta, inflow=inflow,
                            exact=exact, constant_velocity=shared)


def rotating_ops_17x16(dt=None):
    """Per-element p=1 transport operators in more than one
    ASSEMBLY_CHUNK, so the pooled path of solve_cells splits."""
    mesh = build_mesh(2, (17, 16), [(0, 1), (0, 1)])
    inflow = lambda pts, t=0.0: np.sin(3.0 * pts[:, 0]) + pts[:, 1]
    ops = TransportOperators(mesh, TensorBasis(2, 1),
                             rotating_problem(inflow=inflow), dt=dt)
    assert ops.a_inv.shape[0] == mesh.n_el > ASSEMBLY_CHUNK
    return ops


def counting_executors(monkeypatch):
    """The list of every thread pool built from now on."""
    built = []

    class CountingExecutor(futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # solve_cells looks the class up in concurrent.futures when it builds
    # a pool
    monkeypatch.setattr(futures, "ThreadPoolExecutor", CountingExecutor)
    return built


def shallow_ops_17x16(dt=1e-3):
    """A varying Coriolis parameter gives per-element shallow water
    operators, again more than one ASSEMBLY_CHUNK of them. At dt=1e-3 a
    step from random data takes about 10 passes."""
    from ehdg.shallow import ShallowOperators, ShallowProblem

    mesh = build_mesh(2, (17, 16), [(0, 1), (0, 1)])
    problem = ShallowProblem(phi_mean=1.0, coriolis_f0=1.0,
                             coriolis_beta=0.5, y_mid=0.5)
    ops = ShallowOperators(mesh, TensorBasis(2, 1), problem, dt=dt)
    assert ops.a_inv.shape[0] == mesh.n_el > ASSEMBLY_CHUNK
    return ops


def force_pool(monkeypatch, pooled):
    """Make solve_cells take the pooled path (pooled True) or the serial
    one, whatever the operator width and the CPUs of this process."""
    monkeypatch.setattr(operators, "POOL_MIN_WIDTH", 1 if pooled else 10**9)
    monkeypatch.setattr(operators, "usable_cpus", lambda: 2 if pooled else 1)


def assert_pool_changes_nothing(monkeypatch, ops, rhs, state0, steps=3):
    """solve_cells and a whole solve (state, trace and every level's log)
    give the same bits on the serial path and on the pooled one."""
    runs = []
    for pooled in (False, True):
        force_pool(monkeypatch, pooled)
        cells = ops.solve_cells(rhs.copy())
        config = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE)
        runs.append((cells, *solve(ops, config, state0, steps)))
    assert ops._pool is not None
    (c1, s1, t1, logs1), (c2, s2, t2, logs2) = runs
    assert np.array_equal(c1, c2)
    assert np.array_equal(s1, s2)
    assert all(np.array_equal(a, b) for a, b in zip(t1, t2))
    assert len(logs1) == len(logs2) == steps
    for a, b in zip(logs1, logs2):
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert a.converged and a.iterations > 1
        for seq in ("errors", "successive", "skeleton"):
            assert np.array_equal(getattr(a, seq), getattr(b, seq),
                                  equal_nan=True)


def brute_element_matrix(ops, el):
    """Loop-based assembly of one local matrix on an independent rule."""
    mesh, basis, prob = ops.mesh, ops.basis, ops.problem
    d = mesh.dim
    nq = basis.p + 4
    pts, wts = tensor_rule(d, nq)
    center, half = mesh.centers[el], mesh.half
    phys = center + half * pts
    V = np.asarray(prob.velocity(phys))
    phi = cardinal_values(basis, pts)
    A = np.zeros((basis.n_p, basis.n_p))
    for a in range(d):
        dphi = cardinal_grads(basis, pts, a) / half[a]
        A -= mesh.jac * (dphi.T * (wts * V[:, a])) @ phi
    if prob.div_velocity is not None:
        dv = np.asarray(prob.div_velocity(phys))
        A -= mesh.jac * (phi.T * (wts * dv)) @ phi
    for a in range(d):
        tp, tw = tensor_rule(d - 1, nq)
        fjac = float(np.prod([half[b] for b in range(d) if b != a]))
        for s in (0, 1):
            ref = np.zeros((len(tw), d))
            ref[:, a] = -1.0 if s == 0 else 1.0
            for i, b in enumerate([b for b in range(d) if b != a]):
                ref[:, b] = tp[:, i]
            bn = np.asarray(prob.velocity(center + half * ref))[:, a]
            bn = bn * (-1.0 if s == 0 else 1.0)
            fphi = cardinal_values(basis, ref)
            A += fjac * (fphi.T * (tw * (bn + np.abs(bn)))) @ fphi
    if ops.dt is not None:
        A += mesh.jac * (phi.T * wts) @ phi / ops.dt
    return A


def dense_element_matrix(ops, elements, condensed=False):
    """Reference assembly from the full tensor matrices on the same rule;
    with condensed=True, of the direct solve's matrices, whose outflow
    faces keep beta.n and drop |beta.n|."""
    mesh, basis, prob = ops.mesh, ops.basis, ops.problem
    d = mesh.dim
    els = np.asarray(elements)
    X = mesh.centers[els][:, None, :] + mesh.half * basis.quad_ref[None]
    V = prob.velocity(X.reshape(-1, d)).reshape(len(els), basis.n_q, d)
    A = np.zeros((len(els), basis.n_p, basis.n_p))
    for a in range(d):
        wb = basis.quad_w * V[:, :, a]
        tmp = wb[:, :, None] * basis.eval_vol[None]
        A -= (mesh.jac / mesh.half[a]) * np.matmul(
            basis.eval_grad[a].T[None], tmp
        )
    if prob.div_velocity is not None:
        dv = prob.div_velocity(X.reshape(-1, d)).reshape(len(els), basis.n_q)
        wd = basis.quad_w * dv
        A -= mesh.jac * np.matmul(
            basis.eval_vol.T[None], wd[:, :, None] * basis.eval_vol[None]
        )
    for a in range(d):
        for s in (0, 1):
            faces = mesh.etof[els, 2 * a + s]
            bn_el = ops.bn[faces]
            if s == 0:
                bn_el = -bn_el
            w = bn_el + np.abs(bn_el)
            if condensed:
                sel = ops.outflow[faces]
                w[sel] = bn_el[sel]
            wf = mesh.face_jac[a] * basis.face_quad_w * w
            R = basis.face_restrict[(a, s)]
            A += np.matmul(R.T[None], wf[:, :, None] * R[None])
    if ops.dt is not None:
        A += ops.mass_phys[None] / ops.dt
    return A


def varying_problem(dim):
    """beta_a = 1 + x_a x_(a+1), positive on the unit box, with its true
    divergence, so every element sees a different velocity."""

    def beta(pts):
        return 1.0 + pts * np.roll(pts, -1, axis=1)

    def div_beta(pts):
        return np.roll(pts, -1, axis=1).sum(axis=1)

    return TransportProblem(dim=dim, velocity=beta, div_velocity=div_beta,
                            inflow=lambda pts, t=0.0: np.zeros(len(pts)))


def assert_matches_dense(ops, elements, condensed=False):
    # float64 round-off of sums over at most (p + 2)^d products, fixed in
    # advance; the observed gap is below 1e-15 relative
    if condensed:
        A = condensed_matrices(ops, elements)
    else:
        A = ops.element_matrix(elements)
    ref = dense_element_matrix(ops, elements, condensed)
    assert A.shape == ref.shape
    assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()


def brute_lift(ops, trace, el):
    """Loop-based |beta.n|-weighted trace lift for one 2D element."""
    mesh, basis, prob = ops.mesh, ops.basis, ops.problem
    nq = basis.p + 4
    x1, w1 = gauss_quadrature(nq)
    center, half = mesh.centers[el], mesh.half
    E = lagrange_eval(basis.nodes_1d, x1)
    out = np.zeros(basis.n_p)
    for a in range(2):
        fjac = half[1 - a]
        for s in (0, 1):
            fid = mesh.etof[el, 2 * a + s]
            gq = E @ trace[fid]
            ref = np.zeros((nq, 2))
            ref[:, a] = -1.0 if s == 0 else 1.0
            ref[:, 1 - a] = x1
            bn = np.asarray(prob.velocity(center + half * ref))[:, a]
            bn = bn * (-1.0 if s == 0 else 1.0)
            fphi = cardinal_values(basis, ref)
            out += fjac * fphi.T @ (w1 * np.abs(bn) * gq)
    return out


class TestElementMatrix:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_brute_quadrature(self, p):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, p)
        ops = TransportOperators(mesh, basis, rotating_problem(
            inflow=lambda pts, t=0.0: np.zeros(len(pts))))
        A = ops.element_matrix(np.arange(mesh.n_el))
        for el in range(mesh.n_el):
            assert np.allclose(A[el], brute_element_matrix(ops, el),
                               atol=1e-12)

    def test_matches_brute_with_nonzero_divergence(self):
        def beta(pts):
            return np.stack([pts[:, 0] ** 2, pts[:, 0] * pts[:, 1]], axis=1)

        def div_beta(pts):
            return 3.0 * pts[:, 0]

        prob = TransportProblem(dim=2, velocity=beta, div_velocity=div_beta)
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        ops = TransportOperators(mesh, TensorBasis(2, 2), prob)
        A = ops.element_matrix(np.arange(mesh.n_el))
        for el in range(mesh.n_el):
            assert np.allclose(A[el], brute_element_matrix(ops, el),
                               atol=1e-12)

    def test_matches_brute_transient_3d(self):
        prob = constant_problem(
            [1.0, 0.5, 0.25], dim=3,
            inflow=lambda pts, t=0.0: np.zeros(len(pts)))
        mesh = build_mesh(3, 2, [(0, 1)] * 3)
        ops = TransportOperators(mesh, TensorBasis(3, 1), prob, dt=0.37)
        A = ops.element_matrix(np.arange(mesh.n_el))
        for el in (0, 3, 7):
            assert np.allclose(A[el], brute_element_matrix(ops, el),
                               atol=1e-12)

    def test_matches_brute_rotating_3d(self):
        # rotation about the box axis plus a constant axial drift; beta.n
        # changes sign along faces, so upwind weights switch mid-face
        def beta(pts):
            return np.stack([0.5 - pts[:, 1], pts[:, 0] - 0.5,
                             np.full(len(pts), 0.3)], axis=1)

        prob = TransportProblem(dim=3, velocity=beta,
                                inflow=lambda pts, t=0.0: np.zeros(len(pts)))
        mesh = build_mesh(3, 2, [(0, 1)] * 3)
        ops = TransportOperators(mesh, TensorBasis(3, 3), prob)
        A = ops.element_matrix(np.arange(mesh.n_el))
        for el in range(mesh.n_el):
            assert np.allclose(A[el], brute_element_matrix(ops, el),
                               atol=1e-12)

    def test_constant_state_is_discretely_exact(self):
        # A_K applied to the constant vector equals the |beta.n| lift of a
        # unit trace when beta is divergence free; this couples volume and
        # face quadratures of the real assembly
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = TransportOperators(mesh, basis, rotating_problem(
            inflow=lambda pts, t=0.0: np.zeros(len(pts))))
        trace = np.ones_like(ops.new_trace())
        rhs = full_rhs(ops, trace, ops.source())
        A = ops.element_matrix(np.arange(mesh.n_el))
        ones = np.ones(basis.n_p)
        assert np.allclose(A @ ones, rhs, atol=1e-12)


class TestSumFactorization:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", ["steady", "transient", "condensed"])
    def test_matches_dense_assembly(self, dim, p, variant):
        mesh = build_mesh(dim, 2 if dim == 3 else 3, [(0, 1)] * dim)
        ops = TransportOperators(
            mesh, TensorBasis(dim, p), varying_problem(dim),
            dt=0.37 if variant == "transient" else None)
        if variant == "condensed":
            assert np.any(ops.outflow)
        assert_matches_dense(ops, np.arange(mesh.n_el),
                             condensed=variant == "condensed")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_shared_operator_matches_dense(self, dim):
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        prob = constant_problem([1.0, -0.5, 0.25][:dim], dim=dim,
                                inflow=zero, shared=True)
        mesh = build_mesh(dim, 2, [(0, 1)] * dim)
        ops = TransportOperators(mesh, TensorBasis(dim, 3), prob, dt=0.1)
        assert ops.shared and ops.a_inv.shape[0] == 1
        assert_matches_dense(ops, [0])

    def test_element_subset_in_any_order(self):
        mesh = build_mesh(3, 2, [(0, 1)] * 3)
        ops = TransportOperators(mesh, TensorBasis(3, 2), varying_problem(3))
        assert_matches_dense(ops, [6, 1, 3])


class TestLift:
    def test_rhs_matches_brute_quadrature(self, rng):
        def beta(pts):
            return np.stack([pts[:, 1] + 2.0, pts[:, 0] + 3.0], axis=1)

        prob = TransportProblem(
            dim=2, velocity=beta,
            inflow=lambda pts, t=0.0: np.zeros(len(pts)))
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        ops = TransportOperators(mesh, TensorBasis(2, 2), prob)
        trace = rng.standard_normal(ops.new_trace().shape)
        rhs = full_rhs(ops, trace, ops.source())
        for el in (0, 4, 8):
            assert np.allclose(rhs[el], brute_lift(ops, trace, el),
                               atol=1e-12)

    def test_load_vector_integrates_forcing(self):
        # (f, phi_i) for f = 1 is the row sum of the physical mass matrix;
        # a steady source is the load alone
        prob = rotating_problem(
            inflow=lambda pts, t=0.0: np.zeros(len(pts)),
            forcing=lambda pts, t=0.0: np.ones(len(pts)))
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 3)
        ops = TransportOperators(mesh, basis, prob)
        load = ops.source()
        expect = (mesh.jac * basis.mass_ref).sum(axis=1)
        assert np.allclose(load, np.tile(expect, (mesh.n_el, 1)), atol=1e-13)


class TestTraceField:
    def test_zeros_shapes(self):
        mesh = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = TransportOperators(mesh, basis, constant_problem(
            (1.0, 0.0), inflow=lambda pts, t=0.0: np.zeros(len(pts))))
        tr = ops.new_trace()
        assert tr.shape == (mesh.n_faces, basis.n_face)
        assert mesh.n_faces == 4 * 2 + 3 * 3
        assert not np.any(tr)


def two_element_setup(bvec, inflow=None):
    mesh = build_mesh(2, (2, 1), [(0, 1), (0, 1)])
    basis = TensorBasis(2, 1)
    prob = constant_problem(bvec, inflow=inflow)
    ops = TransportOperators(mesh, basis, prob)
    u = np.zeros((2, basis.n_p))
    return mesh, basis, ops, u


class TestUpwindTrace:
    def test_downwind_face_takes_upstream_value(self):
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        _mesh, _basis, ops, u = two_element_setup([1.0, 0.0], inflow=zero)
        u[0], u[1] = 3.0, 8.0
        tr = ops.new_trace()
        ops.update_trace(u, tr)
        # the x-faces are faces 0, 1 and 2
        assert np.allclose(tr[1], 3.0)  # interior plane
        assert np.allclose(tr[2], 8.0)  # outflow copies interior
        assert np.allclose(tr[0], 0.0)  # inflow projection of g

    def test_reversed_velocity_picks_other_side(self):
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        _mesh, _basis, ops, u = two_element_setup([-1.0, 0.0], inflow=zero)
        u[0], u[1] = 3.0, 8.0
        tr = ops.new_trace()
        ops.update_trace(u, tr)
        assert np.allclose(tr[1], 8.0)
        assert np.allclose(tr[0], 3.0)  # now outflow on the left

    def test_tangential_velocity_averages(self):
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        _mesh, _basis, ops, u = two_element_setup([0.0, 1.0], inflow=zero)
        u[0], u[1] = 3.0, 8.0
        tr = ops.new_trace()
        ops.update_trace(u, tr)
        assert np.allclose(tr[1], 5.5)
        # beta.n = 0 on the x boundaries: characteristic, interior copy
        assert np.allclose(tr[0], 3.0)
        assert np.allclose(tr[2], 8.0)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        bx=st.floats(-2, 2, allow_nan=False),
    )
    def test_upwind_choice_property(self, a, b, bx):
        # the tangential unit component keeps the steady operator regular
        # even when bx vanishes; the tested face only sees beta.n = bx
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        _mesh, _basis, ops, u = two_element_setup([bx, 1.0], inflow=zero)
        u[0], u[1] = a, b
        tr = ops.new_trace()
        ops.update_trace(u, tr)
        if bx > 0:
            expect = a
        elif bx < 0:
            expect = b
        else:
            expect = 0.5 * (a + b)
        assert np.allclose(tr[1], expect, atol=1e-12)

    def test_continuous_polynomial_is_reproduced(self):
        # a globally continuous degree-p field has a single-valued trace;
        # upwinding and projection must return exactly that trace
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = TransportOperators(
            mesh, basis,
            rotating_problem(inflow=lambda pts, t=0.0: np.zeros(len(pts))))
        f = lambda pts: pts[:, 0] ** 2 + 2 * pts[:, 0] * pts[:, 1] - pts[:, 1]
        u = interp_scalar(mesh, basis, f)
        tr = ops.new_trace()
        ops.update_trace(u, tr)
        for a in range(2):
            fid, minus, _plus = axis_interior_faces(mesh, a)
            nodal = u[minus][:, basis.face_node_ids[(a, 1)]]
            assert np.allclose(tr[fid], nodal, atol=1e-12)

    def test_inflow_projection_reproduces_polynomial_data(self):
        g = lambda pts, t=0.0: 3.0 * pts[:, 1] - 1.0
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = TransportOperators(mesh, basis, rotating_problem(inflow=g))
        tr = ops.new_trace()
        ops.boundary_trace(tr)
        fid, els, _sign = plane_faces(mesh, 0, 0)
        nid = basis.face_node_ids[(0, 0)]
        X = mesh.centers[els][:, None, :] + mesh.half * basis.ref_nodes[nid][None]
        expect = g(X.reshape(-1, 2)).reshape(len(els), basis.n_face)
        assert np.allclose(tr[fid], expect, atol=1e-13)


class TestSolves:
    def test_constant_data_gives_constant_solution(self):
        c = 2.5
        ops = TransportOperators(
            build_mesh(2, 3, [(0, 1), (0, 1)]),
            TensorBasis(2, 2),
            rotating_problem(
                inflow=lambda pts, t=0.0: np.full(len(pts), c),
                exact=lambda pts, t=0.0: np.full(len(pts), c)),
        )
        cfg = IterationConfig(tol=1e-12)
        u, _trace, [log] = solve(ops, cfg)
        assert log.converged
        assert np.allclose(u, c, atol=1e-10)

    def test_huge_time_step_recovers_steady_solution(self):
        from ehdg.problems import catalog

        case = catalog("transport2d-smooth")
        mesh = build_mesh(2, 4, case.bounds)
        basis = TensorBasis(2, 2)
        cfg = IterationConfig(tol=1e-12)
        steady = TransportOperators(mesh, basis, case.problem)
        u_s, _t, [log] = solve(steady, cfg)
        assert log.converged
        trans = TransportOperators(mesh, basis, case.problem, dt=1e14)
        u_t, _t2, _l2 = solve(trans, cfg, np.zeros_like(u_s))
        assert volume_l2(mesh, basis, u_t - u_s) < 1e-9

    def test_solve_cells_matches_numpy_solve(self, rng):
        # transient: steady per-element operators keep only the lifted
        # rows of their inverses, so they solve no whole right-hand side
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = TransportOperators(
            mesh, basis,
            rotating_problem(inflow=lambda pts, t=0.0: np.zeros(len(pts))),
            dt=0.05)
        rhs = rng.standard_normal((mesh.n_el, basis.n_p))
        got = ops.solve_cells(rhs)
        A = ops.element_matrix(np.arange(mesh.n_el))
        for el in range(mesh.n_el):
            assert np.allclose(got[el], np.linalg.solve(A[el], rhs[el]),
                               atol=1e-11)

    def test_pool_does_not_change_results(self, monkeypatch, rng):
        ops = rotating_ops_17x16(dt=0.05)
        rhs = rng.standard_normal((ops.mesh.n_el, ops.state_width))
        assert_pool_changes_nothing(monkeypatch, ops, rhs,
                                    rng.standard_normal(rhs.shape))

    def test_shallow_pool_does_not_change_results(self, monkeypatch, rng):
        ops = shallow_ops_17x16()
        rhs = rng.standard_normal((ops.mesh.n_el, ops.state_width))
        assert_pool_changes_nothing(monkeypatch, ops, rhs,
                                    rng.standard_normal(rhs.shape))

    def test_one_executor_serves_every_pass(self, monkeypatch, rng):
        built = counting_executors(monkeypatch)
        force_pool(monkeypatch, True)
        ops = shallow_ops_17x16()
        state0 = rng.standard_normal((ops.mesh.n_el, ops.state_width))
        config = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE)
        _state, _trace, logs = solve(ops, config, state0, 3)
        assert len(logs) == 3 and all(log.converged for log in logs)
        assert sum(log.iterations for log in logs) > 3
        assert len(built) == 1

    @pytest.mark.parametrize("nel, p, beta, cpus, pooled", [
        ((17, 16), 4, 0.5, 2, True),   # two blocks of 75-wide operators
        ((17, 16), 1, 0.5, 2, False),  # 12 wide, below POOL_MIN_WIDTH
        ((16, 16), 4, 0.5, 2, False),  # one block
        ((17, 16), 4, 0.5, 1, False),  # one usable CPU
        ((17, 16), 4, 0.0, 2, False),  # one shared operator
    ])
    def test_pool_is_built_when_the_rule_says(self, monkeypatch, rng, nel, p,
                                              beta, cpus, pooled):
        from ehdg.shallow import ShallowOperators, ShallowProblem

        built = counting_executors(monkeypatch)
        monkeypatch.setattr(operators, "usable_cpus", lambda: cpus)
        mesh = build_mesh(2, nel, [(0, 1), (0, 1)])
        problem = ShallowProblem(phi_mean=1.0, coriolis_f0=1.0,
                                 coriolis_beta=beta, y_mid=0.5)
        ops = ShallowOperators(mesh, TensorBasis(2, p), problem, dt=1e-3)
        rhs = rng.standard_normal((mesh.n_el, ops.state_width))
        ops.solve_cells(rhs)
        ops.solve_cells(rhs)
        assert len(built) == int(pooled)

    def test_pool_threads_end_with_the_operators(self, monkeypatch, rng):
        gc.collect()  # pools of earlier tests held in reference cycles
        known = set(threading.enumerate())
        force_pool(monkeypatch, True)
        ops = shallow_ops_17x16()
        state0 = rng.standard_normal((ops.mesh.n_el, ops.state_width))
        solve(ops, IterationConfig(stopping=SUCCESSIVE_DIFFERENCE), state0, 2)
        started = [t for t in threading.enumerate() if t not in known]
        del ops
        gc.collect()
        assert started
        for t in started:
            t.join(timeout=10)
        assert set(threading.enumerate()) <= known

    def test_shared_operator_matches_per_element_assembly(self):
        g = lambda pts, t=0.0: pts[:, 1] + 0.5 * pts[:, 0]
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        cfg = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE, tol=1e-12)
        res = []
        for shared in (False, True):
            prob = constant_problem([1.0, 0.5], inflow=g, shared=shared)
            ops = TransportOperators(mesh, basis, prob)
            assert ops.a_inv.shape[0] == (1 if shared else mesh.n_el)
            u, _t, [log] = solve(ops, cfg)
            assert log.converged
            res.append(u)
        assert np.allclose(res[0], res[1], atol=1e-12)


class TestCondensedOutflow:
    def test_interior_elements_unchanged(self):
        from ehdg.problems import catalog

        case = catalog("transport2d-smooth")
        mesh = build_mesh(2, 4, case.bounds)
        basis = TensorBasis(2, 1)
        plain = TransportOperators(mesh, basis, case.problem)
        interior = [e for e in range(mesh.n_el)
                    if np.all((mesh.el_coords[e] > 0)
                              & (mesh.el_coords[e] < 3))]
        assert interior
        Ap = plain.element_matrix(interior)
        Ac = condensed_matrices(plain, interior)
        assert np.allclose(Ap, Ac, atol=1e-14)


class TestValidation:
    def test_missing_inflow_data_rejected(self):
        with pytest.raises(AssemblyError):
            TransportOperators(
                build_mesh(2, 2, [(0, 1), (0, 1)]),
                TensorBasis(2, 1),
                rotating_problem(),  # inflow faces exist, data missing
            )

    def test_mixed_sign_boundary_face_rejected(self):
        # beta.n = 0.5 - x changes sign inside the y = 0 face
        prob = TransportProblem(
            dim=2,
            velocity=lambda pts: np.stack(
                [np.ones(len(pts)), pts[:, 0] - 0.5], axis=1),
            inflow=lambda pts, t=0.0: np.zeros(len(pts)),
        )
        with pytest.raises(MeshError, match="mixed-sign"):
            TransportOperators(build_mesh(2, 1, [(0, 1), (0, 1)]),
                               TensorBasis(2, 1), prob)

    def test_dimension_mismatch_rejected(self):
        prob = constant_problem([1.0, 1.0, 1.0], dim=3,
                                inflow=lambda pts, t=0.0: np.zeros(len(pts)))
        with pytest.raises(AssemblyError):
            TransportOperators(
                build_mesh(2, 2, [(0, 1), (0, 1)]), TensorBasis(2, 1), prob)

    def test_declared_constant_velocity_must_be_constant(self, monkeypatch):
        # sharing element 0's operator under the rotating field would solve
        # the wrong system; it is refused before any assembly
        def assembled(self, elements):
            raise AssertionError("element_matrix called")

        monkeypatch.setattr(TransportOperators, "element_matrix", assembled)
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        prob = rotating_problem(inflow=zero)
        prob.constant_velocity = True
        with pytest.raises(AssemblyError, match="constant_velocity"):
            TransportOperators(build_mesh(2, 4, [(0, 1), (0, 1)]),
                               TensorBasis(2, 2), prob)

    def test_interpolate_exact_requires_exact(self):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 1)
        zero = lambda pts, t=0.0: np.zeros(len(pts))
        ops = TransportOperators(mesh, basis,
                                 constant_problem([0.0, 1.0], inflow=zero))
        exact_ops = TransportOperators(
            mesh, basis,
            constant_problem([0.0, 1.0], inflow=zero,
                             exact=lambda pts, t=0.0: pts[:, 0]))
        u = exact_ops.interpolate_exact(0.0)
        assert np.allclose(u, interp_scalar(mesh, basis, lambda q: q[:, 0]))
        with pytest.raises(Exception):
            ops.interpolate_exact(0.0)


class TestContract:
    """The LocalOperators rules both physics share: the time step, the
    field split and nodal interpolation."""

    @staticmethod
    def build(physics, dt):
        from ehdg.problems import catalog
        from ehdg.shallow import ShallowOperators

        if physics == "transport":
            case = catalog("transport3d-gaussian")
            kind = TransportOperators
        else:
            case = catalog("shallow-standing-wave")
            kind = ShallowOperators
        mesh = build_mesh(case.dim, 2, case.bounds)
        return kind(mesh, TensorBasis(case.dim, 1), case.problem, dt), case

    @pytest.mark.parametrize("physics", ["transport", "shallow"])
    @pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan, math.inf])
    def test_time_step_must_be_positive_and_finite(self, physics, dt):
        with pytest.raises(AssemblyError, match="positive and finite"):
            self.build(physics, dt)

    @pytest.mark.parametrize("physics", ["transport", "shallow"])
    def test_basis_dimension_must_match_the_mesh(self, physics, monkeypatch):
        # a 3D basis on a 2D mesh is refused before any face or assembly work
        from ehdg.mesh import StructuredMesh
        from ehdg.shallow import ShallowOperators, ShallowProblem

        def boom(*args):
            raise AssertionError("face or assembly work started")

        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        for name in ("interior_faces", "boundary_faces", "face_quad_points"):
            monkeypatch.setattr(StructuredMesh, name, boom)
        if physics == "transport":
            kind, prob = TransportOperators, constant_problem([1.0, 1.0])
        else:
            kind, prob = ShallowOperators, ShallowProblem(phi_mean=1.0)
        monkeypatch.setattr(kind, "element_matrix", boom)
        with pytest.raises(AssemblyError, match="dimension mismatch"):
            kind(mesh, TensorBasis(3, 1), prob, 0.1)

    def test_transport_interpolate_is_interpolate_exact(self):
        ops, case = self.build("transport", 0.01)
        assert np.array_equal(ops.interpolate(case.problem.exact, 0.3),
                              ops.interpolate_exact(0.3))

    @pytest.mark.parametrize("physics", ["transport", "shallow"])
    def test_split_of_interpolate_gives_each_field(self, physics):
        ops, case = self.build(physics, 0.01)
        mesh, basis = ops.mesh, ops.basis
        X = mesh.centers[:, None, :] + mesh.half * basis.ref_nodes[None]
        vals = case.problem.exact(X.reshape(-1, mesh.dim), 0.3)
        vals = vals.reshape(mesh.n_el, basis.n_p, len(ops.fields))
        state = ops.interpolate(case.problem.exact, 0.3)
        assert state.shape == (mesh.n_el, ops.state_width)
        parts = ops.split(state)
        assert len(parts) == len(ops.fields)
        for i, part in enumerate(parts):
            assert np.array_equal(part, vals[:, :, i])
