"""Linearized shallow water operator checks.

Element matrices are rebuilt by plain quadrature loops on a richer Gauss
rule; with polynomial Coriolis data both assemblies are exact and must
agree to roundoff. The wall tests pin the reflective trace rule through
its physical consequence: the normal continuity flux vanishes identically.
"""

import math
import warnings

import numpy as np
import pytest

from ehdg.basis import TensorBasis, gauss_quadrature, lagrange_eval
from ehdg.driver import IterationConfig, solve
from ehdg.mesh import build_mesh
from ehdg.operators import AssemblyError
from ehdg.oracle import condensed_matrices, full_rhs
from ehdg.problems import catalog
from ehdg.shallow import ShallowOperators, ShallowProblem, contraction_constants

from conftest import (axis_interior_faces, cardinal_grads, cardinal_values,
                      interp_scalar, plane_faces, tensor_rule)


def synthetic_problem():
    def wind(pts, t=0.0):
        return np.stack([pts[:, 0] + 2 * pts[:, 1], pts[:, 1] - pts[:, 0]],
                        axis=1)

    return ShallowProblem(
        phi_mean=2.0,
        coriolis_f0=0.3,
        coriolis_beta=0.7,
        y_mid=0.5,
        friction=0.05,
        wind=wind,
    )


def brute_shallow_matrix(ops, el, condensed=False):
    """Loop-based assembly of one local matrix on an independent rule;
    with condensed=True, of the direct solve's matrix, whose wall faces
    take the one-sided trace rule."""
    mesh, basis, prob = ops.mesh, ops.basis, ops.problem
    PHI, rp, dt, gam = (prob.phi_mean, math.sqrt(prob.phi_mean), ops.dt,
                        prob.friction)
    nq = basis.p + 4
    pts, wts = tensor_rule(2, nq)
    center, half = mesh.centers[el], mesh.half
    phys = center + half * pts
    phi = cardinal_values(basis, pts)
    n_p = basis.n_p
    M = mesh.jac * (phi.T * wts) @ phi
    S = []
    for a in range(2):
        dphi = cardinal_grads(basis, pts, a) / half[a]
        S.append(mesh.jac * (dphi.T * wts) @ phi)
    f = prob.coriolis_f0 + prob.coriolis_beta * (phys[:, 1] - prob.y_mid)
    Mf = mesh.jac * (phi.T * (wts * f)) @ phi

    wall = {}
    for a in range(2):
        for s in (0, 1):
            _fid, bels, _sg = plane_faces(mesh, a, s)
            wall[(a, s)] = el in set(bels.tolist())

    A = np.zeros((3 * n_p, 3 * n_p))
    b0 = slice(0, n_p)
    bv = [slice(n_p, 2 * n_p), slice(2 * n_p, 3 * n_p)]
    A[b0, b0] += M / dt
    for a in range(2):
        A[b0, bv[a]] -= PHI * S[a]
        A[bv[a], b0] -= PHI * S[a]
        A[bv[a], bv[a]] += PHI * (1.0 / dt + gam) * M
    A[bv[0], bv[1]] -= PHI * Mf
    A[bv[1], bv[0]] += PHI * Mf

    x1, w1 = gauss_quadrature(nq)
    for a in range(2):
        fjac = half[1 - a]
        for s in (0, 1):
            ref = np.zeros((nq, 2))
            ref[:, a] = -1.0 if s == 0 else 1.0
            ref[:, 1 - a] = x1
            fphi = cardinal_values(basis, ref)
            E = fjac * (fphi.T * w1) @ fphi
            nsig = -1.0 if s == 0 else 1.0
            if condensed and wall[(a, s)]:
                # reflective trace substituted into the momentum flux;
                # the continuity flux cancels exactly on the wall
                A[bv[a], b0] += nsig * PHI * E
                A[bv[a], bv[a]] += PHI * rp * E
            else:
                A[b0, b0] += rp * E
                A[b0, bv[a]] += nsig * PHI * E
    return A


class TestElementMatrix:
    @pytest.mark.parametrize("condense", [False, True])
    def test_matches_brute_quadrature(self, condense):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        ops = ShallowOperators(mesh, TensorBasis(2, 2), synthetic_problem(),
                               dt=0.37)
        els = np.arange(mesh.n_el)
        if condense:
            A = condensed_matrices(ops, els)
        else:
            A = ops.element_matrix(els)
        for el in range(mesh.n_el):
            assert np.allclose(A[el], brute_shallow_matrix(ops, el, condense),
                               atol=1e-12)

    def test_interior_element_without_coriolis_gradient(self):
        # constant-f problems share one operator; check it against brute
        # assembly on an interior element of a larger mesh
        prob = ShallowProblem(phi_mean=1.5, coriolis_f0=0.2, friction=0.1)
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        ops = ShallowOperators(mesh, TensorBasis(2, 1), prob, dt=0.1)
        el = 4  # the single interior element of the 3x3 grid
        A = ops.element_matrix([el])[0]
        assert np.allclose(A, brute_shallow_matrix(ops, el), atol=1e-12)

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_coriolis_mass_matches_dense_product(self, p):
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, p)
        prob = synthetic_problem()
        ops = ShallowOperators(mesh, basis, prob, dt=0.37)
        els = np.arange(mesh.n_el)
        X = mesh.centers[els][:, None, :] + mesh.half * basis.quad_ref[None]
        f = prob.coriolis_f0 + prob.coriolis_beta * (X[:, :, 1] - prob.y_mid)
        wf = basis.quad_w * f
        ref = mesh.jac * np.matmul(
            basis.eval_vol.T[None], wf[:, :, None] * basis.eval_vol[None])
        got = ops._coriolis_mass(els)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_shared_inverse_used_without_beta_plane(self):
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        flat = ShallowOperators(mesh, TensorBasis(2, 1),
                                ShallowProblem(phi_mean=1.0), dt=0.1)
        graded = ShallowOperators(
            mesh, TensorBasis(2, 1),
            ShallowProblem(phi_mean=1.0, coriolis_beta=0.5), dt=0.1)
        assert flat.a_inv.shape[0] == 1
        assert graded.a_inv.shape[0] == mesh.n_el

    def test_solve_cells_matches_numpy_solve(self, rng):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        ops = ShallowOperators(mesh, TensorBasis(2, 2), synthetic_problem(),
                               dt=0.37)
        rhs = rng.standard_normal((mesh.n_el, 3 * ops.n_p))
        got = ops.solve_cells(rhs)
        A = ops.element_matrix(np.arange(mesh.n_el))
        for el in range(mesh.n_el):
            assert np.allclose(got[el], np.linalg.solve(A[el], rhs[el]),
                               atol=1e-11)


class TestRightHandSide:
    def test_matches_brute_quadrature(self, rng):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, synthetic_problem(), dt=0.37)
        prob = ops.problem
        PHI, rp = prob.phi_mean, math.sqrt(prob.phi_mean)
        trace = rng.standard_normal(ops.new_trace().shape)
        prev = rng.standard_normal((mesh.n_el, 3 * basis.n_p))
        got = full_rhs(ops, trace, ops.source(0.0, prev))

        nq = basis.p + 4
        pts, wts = tensor_rule(2, nq)
        x1, w1 = gauss_quadrature(nq)
        E1 = lagrange_eval(basis.nodes_1d, x1)
        for el in range(mesh.n_el):
            center, half = mesh.centers[el], mesh.half
            phi = cardinal_values(basis, pts)
            M = mesh.jac * (phi.T * wts) @ phi
            tau = prob.wind(center + half * pts, 0.0)
            n_p = basis.n_p
            want = np.zeros(3 * n_p)
            pp, up, vp = (prev[el][:n_p], prev[el][n_p:2 * n_p],
                          prev[el][2 * n_p:])
            want[:n_p] += M @ pp / ops.dt
            want[n_p:2 * n_p] += PHI * (M @ up) / ops.dt
            want[2 * n_p:] += PHI * (M @ vp) / ops.dt
            want[n_p:2 * n_p] += mesh.jac * phi.T @ (wts * tau[:, 0])
            want[2 * n_p:] += mesh.jac * phi.T @ (wts * tau[:, 1])
            for a in range(2):
                fjac = half[1 - a]
                mom = slice(n_p, 2 * n_p) if a == 0 else slice(2 * n_p, None)
                for s in (0, 1):
                    fid = mesh.etof[el, 2 * a + s]
                    phq = E1 @ trace[fid]
                    ref = np.zeros((nq, 2))
                    ref[:, a] = -1.0 if s == 0 else 1.0
                    ref[:, 1 - a] = x1
                    fphi = cardinal_values(basis, ref)
                    lifted = fjac * fphi.T @ (w1 * phq)
                    nsig = -1.0 if s == 0 else 1.0
                    want[:n_p] += rp * lifted
                    want[mom] -= PHI * nsig * lifted
            assert np.allclose(got[el], want, atol=1e-12)

    def test_requires_previous_state(self):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        ops = ShallowOperators(mesh, TensorBasis(2, 1),
                               ShallowProblem(phi_mean=1.0), dt=0.1)
        with pytest.raises(ValueError):
            ops.source(0.0, None)


class TestTraceRule:
    def test_wall_flux_vanishes_identically(self, rng):
        # phihat = phi + sqrt(PHI) theta.n makes the wall continuity flux
        # PHI theta.n + sqrt(PHI)(phi - phihat) exactly zero
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, synthetic_problem(), dt=0.1)
        state = rng.standard_normal((mesh.n_el, 3 * basis.n_p))
        tr = ops.new_trace()
        ops.update_trace(state, tr)
        PHI, rp = ops.phi_mean, ops.root_phi
        phi, u, v = ops.split(state)
        vel = [u, v]
        for a in range(2):
            for s in (0, 1):
                fid, els, osign = plane_faces(mesh, a, s)
                nid = basis.face_node_ids[(a, s)]
                flux = (
                    PHI * osign * vel[a][els][:, nid]
                    + rp * (phi[els][:, nid] - tr[fid])
                )
                assert np.allclose(flux, 0.0, atol=1e-13)

    def test_interior_average_of_continuous_height(self):
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, ShallowProblem(phi_mean=1.0),
                               dt=0.1)
        state = ops.zero_state()
        phi, _u, _v = ops.split(state)
        phi[:] = interp_scalar(mesh, basis,
                               lambda q: q[:, 0] + q[:, 1] ** 2)
        tr = ops.new_trace()
        ops.update_trace(state, tr)
        for a in range(2):
            fid, minus, _plus = axis_interior_faces(mesh, a)
            nodal = phi[minus][:, basis.face_node_ids[(a, 1)]]
            assert np.allclose(tr[fid], nodal, atol=1e-13)

    def test_velocity_jump_enters_with_root_phi_weight(self):
        mesh = build_mesh(2, (2, 1), [(0, 1), (0, 1)])
        basis = TensorBasis(2, 1)
        ops = ShallowOperators(mesh, basis, ShallowProblem(phi_mean=4.0),
                               dt=0.1)
        state = ops.zero_state()
        _phi, u, _v = ops.split(state)
        u[0], u[1] = 1.0, 3.0
        tr = ops.new_trace()
        ops.update_trace(state, tr)
        fid, _m, _p = axis_interior_faces(mesh, 0)
        # 0.5 * sqrt(4) * (1 - 3) = -2
        assert np.allclose(tr[fid], -2.0, atol=1e-14)


class TestNorms:
    def test_skeleton_norm_constant_height(self):
        mesh = build_mesh(2, 4, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, ShallowProblem(phi_mean=1.0),
                               dt=0.1)
        state = ops.zero_state()
        phi, _u, _v = ops.split(state)
        phi[:] = 1.0
        # 16 elements x 4 faces x (0.25 face length) = 16
        assert math.isclose(ops.skeleton_norm(state), 4.0, rel_tol=1e-13)

    def test_skeleton_norm_weights_velocity_by_phi(self):
        mesh = build_mesh(2, 4, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, ShallowProblem(phi_mean=4.0),
                               dt=0.1)
        state = ops.zero_state()
        _phi, u, _v = ops.split(state)
        u[:] = 1.0
        assert math.isclose(ops.skeleton_norm(state), 8.0, rel_tol=1e-13)

    def test_error_vanishes_on_polynomial_exact_solution(self):
        def exact(pts, t=0.0):
            return np.stack(
                [pts[:, 0] + 2 * pts[:, 1], 0.5 * pts[:, 0], pts[:, 1] ** 2],
                axis=1,
            )

        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis,
                               ShallowProblem(phi_mean=2.0, exact=exact),
                               dt=0.1)
        state = ops.interpolate(exact, 0.0)
        assert ops.error_eval(0.0)(state) < 1e-13

    def test_error_weights_velocity_by_phi(self):
        def exact(pts, t=0.0):
            return np.stack(
                [np.zeros(len(pts)), pts[:, 0], np.zeros(len(pts))], axis=1)

        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        ops = ShallowOperators(mesh, TensorBasis(2, 2),
                               ShallowProblem(phi_mean=4.0, exact=exact),
                               dt=0.1)
        err = ops.error_eval(0.0)(ops.zero_state())
        assert math.isclose(err, 2.0 / math.sqrt(3.0), rel_tol=1e-12)

    def test_diff_norm_combines_fields(self):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        ops = ShallowOperators(mesh, TensorBasis(2, 1),
                               ShallowProblem(phi_mean=4.0), dt=0.1)
        s1 = ops.zero_state()
        phi, u, _v = ops.split(s1)
        phi[:] = 2.0
        u[:] = 1.0
        assert math.isclose(ops.diff_norm(s1, ops.zero_state()),
                            math.sqrt(8.0), rel_tol=1e-13)

    def test_total_mass_of_linear_height(self):
        mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 1)
        ops = ShallowOperators(mesh, basis, ShallowProblem(phi_mean=1.0),
                               dt=0.1)
        state = ops.zero_state()
        phi, _u, _v = ops.split(state)
        phi[:] = interp_scalar(mesh, basis, lambda q: q[:, 0])
        assert math.isclose(ops.total_mass(state), 0.5, rel_tol=1e-13)

    def test_interpolate_split_roundtrip(self):
        case = catalog("shallow-standing-wave")
        mesh = build_mesh(2, 3, case.bounds)
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, case.problem, dt=1e-3)
        t = 0.3
        state = ops.interpolate(case.problem.exact, t)
        phi, u, v = ops.split(state)
        X = mesh.centers[:, None, :] + mesh.half * basis.ref_nodes[None]
        vals = case.problem.exact(X.reshape(-1, 2), t).reshape(
            mesh.n_el, basis.n_p, 3)
        assert np.allclose(phi, vals[:, :, 0], atol=1e-14)
        assert np.allclose(u, vals[:, :, 1], atol=1e-14)
        assert np.allclose(v, vals[:, :, 2], atol=1e-14)


class TestMassConservation:
    def test_standing_wave_steps_conserve_height_integral(self):
        case = catalog("shallow-standing-wave")
        mesh = build_mesh(2, 8, case.bounds)
        basis = TensorBasis(2, 2)
        ops = ShallowOperators(mesh, basis, case.problem, dt=1e-3)
        state0 = ops.interpolate(case.problem.exact, 0.0)
        cfg = IterationConfig()
        scale = (2.0 / math.pi) ** 2  # integral of |phi(., 0)|
        masses = [ops.total_mass(state0)]
        for m in range(1, 4):
            state, _t, logs = solve(ops, cfg, state0, m)
            assert logs[-1].converged
            masses.append(ops.total_mass(state))
        for before, after in zip(masses, masses[1:]):
            assert abs(after - before) <= 1e-11 * scale


class TestContractionConstants:
    def test_unit_phi_frictionless(self):
        rep = contraction_constants(h=0.25, dt=1e-3, p=1, phi_mean=1.0)
        assert rep.a_const == 1.0
        assert math.isclose(rep.b_const, 125.0 / 3.0 - 1.0, rel_tol=1e-13)
        assert math.isclose(rep.c_ratio, 3.0 / 122.0, rel_tol=1e-13)
        assert rep.valid

    def test_phi_four(self):
        rep = contraction_constants(h=0.5, dt=1e-3, p=2, phi_mean=4.0)
        assert rep.a_const == 3.0
        assert math.isclose(rep.b_const, 0.5 / 0.012 - 1.5, rel_tol=1e-13)
        assert math.isclose(rep.c_ratio, 0.07468879668049792, rel_tol=1e-12)
        assert rep.valid

    def test_large_time_step_invalidates_bound(self):
        rep = contraction_constants(h=0.25, dt=1.0, p=1, phi_mean=1.0)
        assert not rep.valid
        assert rep.b_const < 0.0

    def test_ratio_at_least_one_invalidates_bound(self):
        # b > 0 but a/b >= 1: the bound proves nothing
        rep = contraction_constants(h=0.25, dt=0.25 / 9.0, p=1, phi_mean=1.0)
        assert rep.b_const > 0.0
        assert rep.c_ratio >= 1.0
        assert not rep.valid

    def test_friction_weakens_the_denominator_cap(self):
        lo = contraction_constants(h=0.25, dt=1e-3, p=1, phi_mean=1.0,
                                   friction=0.0)
        hi = contraction_constants(h=0.25, dt=1e-3, p=1, phi_mean=1.0,
                                   friction=1.2)
        assert hi.b_const > lo.b_const
        assert hi.c_ratio < lo.c_ratio

    @pytest.mark.parametrize("dts", [(1e-3, 1e-4), (1e-4, 1e-5)])
    def test_smaller_steps_tighten_the_ratio(self, dts):
        big, small = dts
        r1 = contraction_constants(h=0.25, dt=big, p=2, phi_mean=1.0)
        r2 = contraction_constants(h=0.25, dt=small, p=2, phi_mean=1.0)
        assert r2.c_ratio < r1.c_ratio

    @pytest.mark.parametrize("name, value, message", [
        ("h", 0.0, "h must be finite and positive"),
        ("h", math.inf, "h must be finite and positive"),
        ("dt", 0.0, "dt must be finite and positive"),
        ("dt", -1e-3, "dt must be finite and positive"),
        ("phi_mean", -1.0, "phi_mean must be finite and positive"),
        ("phi_mean", math.nan, "phi_mean must be finite and positive"),
        ("p", 0, "p must be finite and at least 1"),
        ("friction", -0.1, "friction must be finite and at least 0"),
        ("friction", math.nan, "friction must be finite and at least 0"),
    ])
    def test_refuses_invalid_arguments_by_name(self, name, value, message):
        args = dict(h=0.25, dt=1e-3, p=1, phi_mean=1.0, friction=0.0)
        args[name] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                contraction_constants(**args)


class TestValidation:
    def test_requires_time_step(self):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        with pytest.raises(AssemblyError):
            ShallowOperators(mesh, TensorBasis(2, 1),
                             ShallowProblem(phi_mean=1.0), dt=None)
        with pytest.raises(AssemblyError):
            ShallowOperators(mesh, TensorBasis(2, 1),
                             ShallowProblem(phi_mean=1.0), dt=-0.1)

    def test_rejects_3d_mesh(self):
        mesh = build_mesh(3, 2, [(0, 1)] * 3)
        with pytest.raises(AssemblyError):
            ShallowOperators(mesh, TensorBasis(3, 1),
                             ShallowProblem(phi_mean=1.0), dt=0.1)

    @pytest.mark.parametrize("phi_mean", [-1.0, math.nan, math.inf, 0.0])
    def test_rejects_nonpositive_or_non_finite_mean_geopotential(
            self, phi_mean, monkeypatch):
        # refused by name before any assembly: no numpy warning, and no
        # element matrix is built
        def assembled(self, elements):
            raise AssertionError("element_matrix called")

        monkeypatch.setattr(ShallowOperators, "element_matrix", assembled)
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssemblyError,
                               match="mean geopotential phi_mean must be "
                                     "positive and finite"):
                ShallowOperators(mesh, TensorBasis(2, 1),
                                 ShallowProblem(phi_mean=phi_mean), 1e-3)
