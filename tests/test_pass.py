"""One fixed-point pass: step-constant work hoisted, norms fused.

The pass takes its right-hand sides as source(t, state_prev) plus a trace
lift, rebuilds the trace from face-node reads, and logs the energy norms of
both physics from orthonormal coordinates it keeps between passes. Each
piece is checked here against the direct form it replaced, kept in this
file as a reference. The whole pass, apply_pass, is checked as a map of
the trace: linear, and contracting on every catalog case.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ehdg.basis import TensorBasis
from ehdg.cli import main
from ehdg.driver import (
    ConvergenceFailure,
    IterationConfig,
    iterate_to_fixed_point,
    solve,
    volume_l2,
)
from ehdg.mesh import build_mesh
from ehdg.oracle import full_rhs
from ehdg.problems import build_case, case_identifiers, catalog
from ehdg.shallow import ShallowOperators, ShallowProblem
from ehdg.transport import TransportOperators

from conftest import axis_interior_faces, plane_faces

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASES = {2: "transport2d-smooth", 3: "transport3d-steady"}


def transport_ops(dim, p, nel, dt=None, case=None):
    case = catalog(case or CASES[dim])
    mesh = build_mesh(dim, nel, case.bounds)
    return TransportOperators(mesh, TensorBasis(dim, p), case.problem, dt=dt)


def random_trace(ops, rng):
    return rng.standard_normal(ops.new_trace().shape)


# -- references: the direct forms the pass used before --------------------------


def reference_skeleton_norm(ops, u):
    mesh, basis = ops.mesh, ops.basis
    total = 0.0
    for a in range(mesh.dim):
        for s in (0, 1):
            vals = u @ basis.face_restrict[(a, s)].T
            w = np.abs(ops.bn[mesh.etof[:, 2 * a + s]])
            total += mesh.face_jac[a] * np.sum(
                basis.face_quad_w * w * vals * vals
            )
    return float(np.sqrt(total))


def reference_transport_error(ops, t):
    mesh, basis = ops.mesh, ops.basis
    ue = ops.sample(ops.problem.exact, t)

    def err(u):
        dv = u @ basis.eval_vol.T - ue
        return float(np.sqrt(mesh.jac * np.sum(basis.quad_w * dv * dv)))

    return err


def reference_shallow_error(ops, t):
    mesh, basis = ops.mesh, ops.basis
    ex = ops.sample(ops.problem.exact, t)
    PHI, jac, w = ops.phi_mean, mesh.jac, basis.quad_w
    Ev = basis.eval_vol

    def err(state):
        phi, u, v = ops.split(state)
        dp = phi @ Ev.T - ex[:, :, 0]
        du = u @ Ev.T - ex[:, :, 1]
        dv = v @ Ev.T - ex[:, :, 2]
        s = np.sum(w * (dp * dp + PHI * (du * du + dv * dv)))
        return float(np.sqrt(jac * s))

    return err


def reference_shallow_volume_norm(ops, state):
    mesh, basis = ops.mesh, ops.basis
    phi, u, v = ops.split(state)
    Ev, w = basis.eval_vol, basis.quad_w
    s = np.sum(
        w
        * (
            (phi @ Ev.T) ** 2
            + ops.phi_mean * ((u @ Ev.T) ** 2 + (v @ Ev.T) ** 2)
        )
    )
    return float(np.sqrt(mesh.jac * s))


def reference_shallow_skeleton_norm(ops, state):
    mesh, basis = ops.mesh, ops.basis
    phi, u, v = ops.split(state)
    total = 0.0
    for a in range(2):
        for s in (0, 1):
            R, w = basis.face_restrict[(a, s)], basis.face_quad_w
            pq = phi @ R.T
            uq = u @ R.T
            vq = v @ R.T
            total += mesh.face_jac[a] * np.sum(
                w * (pq * pq + ops.phi_mean * (uq * uq + vq * vq))
            )
    return float(np.sqrt(total))


def reference_update_trace(ops, u, trace_out, t=0.0):
    mesh, basis = ops.mesh, ops.basis
    for a in range(mesh.dim):
        fid, minus, plus = axis_interior_faces(mesh, a)
        um = u[minus] @ basis.face_restrict[(a, 1)].T
        up = u[plus] @ basis.face_restrict[(a, 0)].T
        s = np.sign(ops.bn[fid])
        uh = 0.5 * ((um + up) + s * (um - up))
        trace_out[fid] = uh @ basis.face_proj.T
    ops.boundary_trace(trace_out, t)
    for a in range(mesh.dim):
        for side in (0, 1):
            fid, els, _sign = plane_faces(mesh, a, side)
            out = ops.outflow[fid]
            nid = basis.face_node_ids[(a, side)]
            trace_out[fid[out]] = u[els[out]][:, nid]


def reference_transport_rhs(ops, trace, t=0.0, state_prev=None):
    basis = ops.basis
    out = np.zeros((ops.mesh.n_el, basis.n_p))
    if ops.problem.forcing is not None:
        out += ops.sample(ops.problem.forcing, t) @ ops.load_vec.T
    if ops.dt is not None:
        out += (state_prev @ ops.mass_phys.T) / ops.dt
    mesh = ops.mesh
    for a in range(mesh.dim):
        for s in (0, 1):
            f = mesh.etof[:, 2 * a + s]
            uh_q = trace[f] @ basis.face_eval.T
            w = mesh.face_jac[a] * basis.face_quad_w * np.abs(ops.bn[f])
            out += (w * uh_q) @ basis.face_restrict[(a, s)]
    return out


def reference_shallow_rhs(ops, trace, t, state_prev):
    mesh, basis = ops.mesh, ops.basis
    PHI, rp, dt = ops.phi_mean, ops.root_phi, ops.dt
    out = np.zeros((mesh.n_el, 3 * ops.n_p))
    r0, r1, r2 = ops.split(out)
    p_prev, u_prev, v_prev = ops.split(state_prev)
    r0 += (p_prev @ ops.mass_phys.T) / dt
    r1 += PHI * (u_prev @ ops.mass_phys.T) / dt
    r2 += PHI * (v_prev @ ops.mass_phys.T) / dt
    if ops.problem.wind is not None:
        tau = ops.sample(ops.problem.wind, t)
        r1 += tau[:, :, 0] @ ops.load_vec.T
        r2 += tau[:, :, 1] @ ops.load_vec.T
    for a in range(2):
        mom = r1 if a == 0 else r2
        for s in (0, 1):
            ph_q = trace[mesh.etof[:, 2 * a + s]] @ basis.face_eval.T
            w = mesh.face_jac[a] * basis.face_quad_w
            lifted = (w * ph_q) @ basis.face_restrict[(a, s)]
            nsig = -1.0 if s == 0 else 1.0
            r0 += rp * lifted
            mom -= PHI * nsig * lifted
    return out


# -- fused norms ----------------------------------------------------------------------


def record_iterates(ops):
    """Make ops.solve_cells keep a copy of every iterate it returns: the
    solves of a pass, which add the lift's solution to a base, not a
    level's solve of its source."""
    seen = []
    solve = ops.solve_cells

    def recording(rhs, out=None, base=None):
        result = solve(rhs, out=out, base=base)
        if base is not None:
            seen.append(result.copy())
        return result

    ops.solve_cells = recording
    return seen


def norm_cell(physics, dim, p, transient):
    """A small cell of a fused-norm check: (ops, t, u0, state_prev,
    references), references the direct (error, volume norm, skeleton
    norm) forms."""
    if physics == "shallow":
        # the standing wave at PHI = 2, so that the velocity weights show
        case = catalog("shallow-standing-wave")
        problem = dataclasses.replace(case.problem, phi_mean=2.0)
        ops = ShallowOperators(build_mesh(2, 3, case.bounds),
                               TensorBasis(2, p), problem, 1e-3)
        prev = ops.interpolate(problem.exact, 0.0)
        refs = (reference_shallow_error(ops, ops.dt),
                lambda s: reference_shallow_volume_norm(ops, s),
                lambda s: reference_shallow_skeleton_norm(ops, s))
        return ops, ops.dt, prev, prev, refs
    ops = transport_ops(dim, p, 3 if dim == 2 else 2,
                        dt=0.05 if transient else None)
    t, prev = 0.0, None
    if transient:
        prev = ops.interpolate(ops.problem.exact, 0.0)
        t = 0.05
    refs = (reference_transport_error(ops, t),
            lambda u: volume_l2(ops.mesh, ops.basis, u),
            lambda u: reference_skeleton_norm(ops, u))
    return ops, t, prev, prev, refs


NORM_CELLS = [
    pytest.param("transport", dim, p, transient, id=f"{transient}-{p}-{dim}")
    for transient in (False, True) for p in (1, 2, 3, 4) for dim in (2, 3)
] + [
    pytest.param("shallow", 2, p, True, id=f"shallow-{p}")
    for p in (1, 2, 3, 4)
]


@pytest.mark.parametrize("physics,dim,p,transient", NORM_CELLS)
def test_fused_norms_match_direct_norms(physics, dim, p, transient):
    ops, t, u0, prev, refs = norm_cell(physics, dim, p, transient)
    err, volume_norm, skeleton_norm = refs
    seen = record_iterates(ops)
    # a tolerance no pass meets, so every cell runs all five passes
    _u, _tr, log = iterate_to_fixed_point(
        ops, IterationConfig(tol=1e-30, max_iters=5), u0=u0, t=t,
        state_prev=prev)
    assert log.iterations == 5
    previous = [np.zeros_like(seen[0]) if u0 is None else u0] + seen[:-1]
    error_eval = ops.error_eval(t)
    for k, (u, u_prev) in enumerate(zip(seen, previous)):
        # tolerance fixed beforehand: 1e-12 of the iterate's own L2 norm
        tol = 1e-12 * volume_norm(u)
        assert log.errors[k] == error_eval(u)
        assert abs(log.errors[k] - err(u)) <= tol
        assert abs(log.successive[k] - volume_norm(u - u_prev)) <= tol
        assert abs(log.skeleton[k] - skeleton_norm(u)) <= tol


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_transport_norms_match_direct_forms(dim, p, rng):
    # the coordinates sum in another order than the quadrature-point forms
    ops = transport_ops(dim, p, 3 if dim == 2 else 2)
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    l2 = volume_l2(ops.mesh, ops.basis, u)
    assert abs(ops.diff_norm(u, 0) - l2) <= 1e-12 * l2
    assert abs(ops.error_eval(0.3)(u)
               - reference_transport_error(ops, 0.3)(u)) <= 1e-12 * l2


# -- the factors of the norms ------------------------------------------------------
#
# The norms sum squares of orthonormal coordinates: R (sqrt(quad_w) eval_vol
# = Q R) for the volume, S (S.T @ S = K, the face-weighted Gram matrix) for
# the skeleton under weights that are one row for every face.


def assert_factor(factor, gram):
    assert np.abs(factor.T @ factor - gram).max() <= 1e-13 * np.abs(gram).max()


def constant_transport(beta, p, nel=3):
    """Shared transport at the constant velocity beta on the unit box; a
    zero component makes that axis's faces weightless."""
    from ehdg.transport import TransportProblem

    dim = len(beta)
    problem = TransportProblem(
        dim=dim,
        velocity=lambda X: np.tile(beta, (len(X), 1)),
        inflow=lambda X, t=0.0: np.cos(X.sum(axis=1)),
        constant_velocity=True)
    mesh = build_mesh(dim, nel, [(0, 1)] * dim)
    return TransportOperators(mesh, TensorBasis(dim, p), problem)


def folded_rows(ops):
    """The face weights of element 0's sides, in etof column order: what
    folded operators fold into the lift and the skeleton factor."""
    mesh, basis = ops.mesh, ops.basis
    rows = []
    for k, (a, _s) in enumerate(ops._sides):
        w = mesh.face_jac[a] * basis.face_quad_w
        if isinstance(ops, TransportOperators):
            w = w * np.abs(ops.bn[mesh.etof[0, k]])
        rows.append(w)
    return rows


def face_gram(ops):
    basis = ops.basis
    return sum(basis.face_restrict[key].T
               @ (w[:, None] * basis.face_restrict[key])
               for key, w in zip(ops._sides, folded_rows(ops)))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_volume_factor_is_the_mass_matrix(dim, p):
    ops = transport_ops(dim, p, 2)
    assert_factor(ops._vol_r, ops.basis.mass_ref)


BETAS = [(1.0, 0.0), (1.0, 0.5), (0.2, 0.0, 0.2), (0.3, -0.2, 0.5)]


@pytest.mark.parametrize("beta", BETAS, ids=str)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_skeleton_factor_of_shared_transport(beta, p, rng):
    ops = constant_transport(beta, p)
    assert ops.shared
    assert_factor(ops._skeleton_s, face_gram(ops))
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    want = reference_skeleton_norm(ops, u)
    assert abs(ops.skeleton_norm(u) - want) <= 1e-13 * want


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_skeleton_factor_of_shallow_water(p, rng):
    ops, *_ = norm_cell("shallow", 2, p, True)
    assert_factor(ops._skeleton_s, face_gram(ops))
    state = rng.standard_normal((ops.mesh.n_el, ops.state_width))
    want = reference_shallow_skeleton_norm(ops, state)
    assert abs(ops.skeleton_norm(state) - want) <= 1e-13 * want


def l2_projection(ops, fn, t):
    """The L2 projection of fn(points, t) onto the element space, built
    from quadrature-point values and the mass matrix."""
    basis = ops.basis
    vals = ops.sample(fn, t).reshape(ops.mesh.n_el, basis.n_q, -1)
    state = ops.zero_state()
    for i, part in enumerate(ops.split(state)):
        moments = (vals[:, :, i] * basis.quad_w) @ basis.eval_vol
        part[:] = np.linalg.solve(basis.mass_ref, moments.T).T
    return state


@pytest.mark.parametrize("physics,dim,p,transient", NORM_CELLS)
def test_projection_error_is_the_perpendicular_part(physics, dim, p,
                                                    transient):
    ops, t, _u0, _prev, refs = norm_cell(physics, dim, p, transient)
    err, volume_norm, _skeleton = refs
    state = l2_projection(ops, ops.problem.exact, t)
    perp = [pp for _uc, pp in ops._exact_coordinates(t)]
    split = np.sqrt(ops.mesh.jac * np.dot(ops.energy, perp))
    assert abs(err(state) - split) <= 1e-12 * volume_norm(state)
    assert abs(ops.error_eval(t)(state) - split) <= 1e-12 * volume_norm(state)


# -- face-node trace rebuild -------------------------------------------------------
#
# The pass reads face nodes where the references evaluate and project at the
# face quadrature points, and sums the trace lift in another order, so the
# two agree to round-off rather than bit for bit.


def assert_round_off(got, want, scale):
    assert np.abs(got - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_face_node_update_trace_matches_reference(dim, p, rng):
    case = "transport2d-smooth" if dim == 2 else "transport3d-gaussian"
    ops = transport_ops(dim, p, 8, case=case)
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    got, want = ops.initial_trace(u, 0.3), ops.new_trace()
    reference_update_trace(ops, u, want, 0.3)
    assert_round_off(got, want, np.abs(u).max())


@pytest.mark.parametrize("nel", [2, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_face_node_update_trace_small_3d_meshes(nel, p, rng):
    ops = transport_ops(3, p, nel, case="transport3d-gaussian")
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    got, want = ops.initial_trace(u, 0.3), ops.new_trace()
    reference_update_trace(ops, u, want, 0.3)
    assert_round_off(got, want, np.abs(u).max())


def sheared_transport(nel, p, power):
    """beta = (x(1 - x)(y - 1/2)^power, 1) on the unit square. Every y-face
    is one-signed and the boundary x-faces are characteristic. The interior
    x-faces of the middle row are mixed: beta.n changes sign across y = 1/2
    (power 1) or touches zero there (power 2), at the middle one of an odd
    number of face quadrature points; the other interior x-faces are
    one-signed."""
    from ehdg.transport import TransportProblem

    def velocity(X):
        x, y = X[:, 0], X[:, 1]
        return np.stack([x * (1 - x) * (y - 0.5) ** power, np.ones_like(x)],
                        axis=1)

    problem = TransportProblem(
        dim=2, velocity=velocity,
        inflow=lambda X, t=0.0: np.sin(3 * X[:, 0]),
        div_velocity=lambda X: (1 - 2 * X[:, 0]) * (X[:, 1] - 0.5) ** power)
    mesh = build_mesh(2, nel, [(0, 1), (0, 1)])
    return TransportOperators(mesh, TensorBasis(2, p), problem)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("p", [1, 3])
def test_update_trace_on_one_signed_and_mixed_faces(p, power, rng):
    ops = sheared_transport(3, p, power)
    assert len(ops._mixed[0])
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    got, want = ops.initial_trace(u, 0.0), ops.new_trace()
    reference_update_trace(ops, u, want, 0.0)
    assert_round_off(got, want, np.abs(u).max())
    # a one-signed face is its upwind element's face polynomial, copied
    one_signed = 0
    for a in range(2):
        fid, minus, plus = axis_interior_faces(ops.mesh, a)
        sgn = np.sign(ops.bn[fid])
        for sel, els, side in ((np.all(sgn > 0, axis=1), minus, 1),
                               (np.all(sgn < 0, axis=1), plus, 0)):
            nid = ops.basis.face_node_ids[(a, side)]
            assert np.array_equal(got[fid[sel]], u[els[sel]][:, nid])
            one_signed += np.count_nonzero(sel)
    assert one_signed


# -- source / rhs split ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("transient", [False, True])
def test_transport_rhs_of_source_matches_reference(dim, transient, rng):
    dt = 0.05 if transient else None
    ops = transport_ops(dim, 3, 3 if dim == 2 else 2, dt=dt)
    prev = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    prev = prev if transient else None
    trace = random_trace(ops, rng)
    got = full_rhs(ops, trace, ops.source(0.4, prev))
    want = reference_transport_rhs(ops, trace, 0.4, prev)
    assert_round_off(got, want, np.abs(want).max())


def shallow_ops(nel, p):
    from test_shallow import synthetic_problem

    mesh = build_mesh(2, nel, [(0, 1), (0, 1)])
    return ShallowOperators(mesh, TensorBasis(2, p), synthetic_problem(),
                            dt=0.37)


def test_shallow_rhs_of_source_matches_reference(rng):
    ops = shallow_ops(3, 3)
    prev = rng.standard_normal((ops.mesh.n_el, 3 * ops.n_p))
    trace = random_trace(ops, rng)
    got = full_rhs(ops, trace, ops.source(0.2, prev))
    want = reference_shallow_rhs(ops, trace, 0.2, prev)
    assert_round_off(got, want, np.abs(want).max())


@pytest.mark.parametrize("form", ["shared", "shallow", "per-element"])
def test_rhs_in_several_lift_blocks(form, rng):
    # both forms of the stacked lift: folded weights (a shared transport
    # operator, shallow water) and per-face weights (per-element transport)
    if form == "shared":
        ops = transport_ops(3, 2, 5, dt=0.05, case="transport3d-gaussian")
        assert ops.shared
    elif form == "shallow":
        ops = shallow_ops(9, 2)
    else:
        ops = transport_ops(2, 3, 9, dt=0.05)
        assert not ops.shared
    assert (ops.face_w is None) == (form != "per-element")
    prev = rng.standard_normal((ops.mesh.n_el, ops.state_width))
    trace = random_trace(ops, rng)
    got = full_rhs(ops, trace, ops.source(0.2, prev))
    if form == "shallow":
        want = reference_shallow_rhs(ops, trace, 0.2, prev)
    else:
        want = reference_transport_rhs(ops, trace, 0.2, prev)
    assert_round_off(got, want, np.abs(want).max())


# -- face weights: one per-face array, folded when its values allow ----------------


def test_constant_velocity_folds_on_per_element_operators(rng):
    # constant_velocity is not declared, so the operator is not shared, but
    # every face of each axis carries one weight row: the weights fold
    from ehdg.transport import TransportProblem

    problem = TransportProblem(
        dim=2, velocity=lambda X: np.tile((0.7, -0.4), (len(X), 1)),
        inflow=lambda X, t=0.0: np.cos(X.sum(axis=1)))
    mesh = build_mesh(2, 5, [(0, 1), (0, 1)])
    ops = TransportOperators(mesh, TensorBasis(2, 3), problem, dt=0.05)
    assert not ops.shared and ops.face_w is None
    prev = rng.standard_normal((mesh.n_el, ops.state_width))
    trace = random_trace(ops, rng)
    got = full_rhs(ops, trace, ops.source(0.2, prev))
    want = reference_transport_rhs(ops, trace, 0.2, prev)
    assert_round_off(got, want, np.abs(want).max())


def test_varying_velocity_keeps_the_face_weights():
    ops = transport_ops(2, 2, 4)
    assert not ops.shared
    assert ops.face_w.shape == (ops.mesh.n_faces, ops.basis.n_fq)


def test_shallow_water_on_a_beta_plane_folds():
    ops = shallow_ops(3, 2)
    assert ops.problem.coriolis_beta != 0
    assert not ops.shared and ops.face_w is None


@pytest.mark.parametrize("form", ["shared", "per-element", "shallow"])
def test_physics_hold_one_face_weight_table(form):
    # each physics gives face_w and lift_coef; no per-side copies of the
    # face weights or of beta.n's size and sign are kept
    if form == "shallow":
        ops = shallow_ops(3, 2)
    elif form == "shared":
        ops = transport_ops(3, 2, 3, dt=0.05, case="transport3d-gaussian")
    else:
        ops = transport_ops(2, 2, 5)
    held = vars(ops)
    assert "face_w" in held and "lift_coef" in held
    assert not {"lift_w", "abs_bn", "sgn"} & set(held)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
        elif isinstance(value, dict):
            yield from arrays(list(value.values()))

    per_element = (ops.mesh.n_el, ops.basis.n_fq)
    assert not [a.shape for a in arrays(list(held.values()))
                if a.shape == per_element]


def test_source_is_reused_not_modified(rng):
    # a level solves its source once; each pass adds to that solution
    ops = transport_ops(2, 2, 3, dt=0.05)
    source = ops.source(0.1, rng.standard_normal((ops.mesh.n_el,
                                                  ops.basis.n_p)))
    kept = source.copy()
    base = ops.solve_cells(source)
    assert np.array_equal(source, kept)
    kept = base.copy()
    ops.solve_cells(ops.rhs(random_trace(ops, rng)), base=base)
    assert np.array_equal(base, kept)


# -- the lifted columns ----------------------------------------------------------------
#
# The trace lift reaches only face nodes (ops.lifted), so a pass solves
# base + A^-1[:, lifted] rhs with base = A^-1 source solved once per level.


def lifted_cell(form, p, forcing=None):
    """A cell whose right-hand side is the trace lift alone (no load, a
    zero previous state) unless a transport forcing is given: (ops,
    reference), the reference the lift's direct form as a callable of the
    trace."""
    if form.startswith("shallow"):
        beta = 0.5 if form == "shallow-per-element" else 0.0
        problem = ShallowProblem(phi_mean=2.0, coriolis_f0=1.0,
                                 coriolis_beta=beta, y_mid=0.5)
        ops = ShallowOperators(build_mesh(2, 3, [(0, 1), (0, 1)]),
                               TensorBasis(2, p), problem, 0.05)
        prev = ops.zero_state()
        return ops, lambda tr: reference_shallow_rhs(ops, tr, 0.0, prev)
    dim, ident = {"transport2d": (2, "transport2d-discontinuous"),
                  "transport3d-shared": (3, "transport3d-gaussian"),
                  "transport3d": (3, "transport3d-steady")}[form]
    case = catalog(ident)
    problem = dataclasses.replace(case.problem, forcing=forcing)
    ops = TransportOperators(build_mesh(dim, 2, case.bounds),
                             TensorBasis(dim, p), problem)
    return ops, lambda tr: reference_transport_rhs(ops, tr)


@pytest.mark.parametrize("form, shared, lifted, width", [
    ("transport3d", False, 98, 125),
    ("transport3d-shared", True, 98, 125),
    ("transport2d", False, 16, 25),
    ("shallow", True, 36, 75),
    ("shallow-per-element", False, 36, 75),
])
def test_lift_reaches_only_the_lifted_columns(form, shared, lifted, width,
                                              rng):
    ops, reference = lifted_cell(form, 4)
    assert ops.shared == shared
    assert (len(ops.lifted), ops.state_width) == (lifted, width)
    assert np.array_equal(ops._order[:lifted], ops.lifted)
    assert np.array_equal(np.sort(ops._order), np.arange(width))
    trace = random_trace(ops, rng)
    want = reference(trace)
    others = np.setdiff1d(np.arange(width), ops.lifted)
    assert np.all(want[:, others] == 0)
    assert_round_off(ops.rhs(trace), want[:, ops.lifted], np.abs(want).max())


@pytest.mark.parametrize("form", ["transport2d", "transport3d-shared",
                                  "shallow", "shallow-per-element"])
def test_lifted_pass_matches_a_whole_solve(form, rng):
    # one pass from a random trace and a random source, against
    # np.linalg.solve of each element's whole right-hand side. Steady
    # per-element operators (transport2d) solve no source but their own,
    # solved during assembly: theirs is a forcing's load, which the
    # reference includes
    own = form == "transport2d"
    forcing = lambda pts, t=0.0: np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2
    ops, reference = lifted_cell(form, 3, forcing if own else None)
    trace = random_trace(ops, rng)
    if own:
        assert np.any(ops.source() != 0)
        source, base = ops.zero_state(), ops.solve_source()
    else:
        source = rng.standard_normal((ops.mesh.n_el, ops.state_width))
        base = ops.solve_cells(source)
    got = ops.solve_cells(ops.rhs(trace), base=base)
    A = ops.element_matrix(np.arange(1 if ops.shared else ops.mesh.n_el))
    want = np.linalg.solve(A, (source + reference(trace))[:, :, None])[..., 0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def counted_calls(ops, names):
    """Make each named method of ops count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(ops, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        setattr(ops, name, counted)
    return calls


# a steady per-element transport cell, a transient shared transport cell
# and a shallow-water cell, as (case, dt, steps)
PASS_CELLS = [
    ("transport2d-smooth", None, 1),
    ("transport3d-gaussian", 1e-2, 3),
    ("shallow-standing-wave", 1e-3, 3),
]


@pytest.mark.parametrize("ident, dt, steps", PASS_CELLS)
def test_pass_call_counts(ident, dt, steps):
    # the counts the benchmark tracer checks: one lift per pass, one trace
    # rebuild per pass plus one per level, and one local solve per pass.
    # Steady per-element operators solved the source during assembly, and
    # shared ones solve it with their folded time term (solve_source), so
    # neither calls solve_cells for it
    ops, state0 = build_case(catalog(ident), 2, 2, dt)
    steady = ident == "transport2d-smooth"
    assert ops.shared == (not steady)
    calls = counted_calls(ops, ("rhs", "solve_source", "solve_cells",
                                "update_trace"))
    _state, _trace, logs = solve(
        ops, IterationConfig(stopping="successive-difference"), state0, steps)
    assert len(logs) == steps and all(log.converged for log in logs)
    passes = sum(log.iterations for log in logs)
    assert passes > steps
    assert calls == {"rhs": passes, "solve_source": steps,
                     "solve_cells": passes, "update_trace": passes + steps}


def test_per_element_levels_solve_their_source_with_solve_cells():
    # a transient per-element set has no folded time term: each level
    # solves its source with one more solve_cells call
    wave = catalog("shallow-standing-wave").problem
    beta_plane = dataclasses.replace(wave, coriolis_f0=1.0,
                                     coriolis_beta=0.5, y_mid=0.5)
    ops = ShallowOperators(build_mesh(2, 2, [(0, 1), (0, 1)]),
                           TensorBasis(2, 2), beta_plane, dt=1e-3)
    assert not ops.shared
    calls = counted_calls(ops, ("solve_source", "solve_cells"))
    _state, _trace, logs = solve(
        ops, IterationConfig(stopping="successive-difference"),
        ops.interpolate(wave.exact), 3)
    passes = sum(log.iterations for log in logs)
    assert passes > 3
    assert calls == {"solve_source": 3, "solve_cells": passes + 3}


@pytest.mark.parametrize("ident, dt, steps", PASS_CELLS)
def test_every_pass_of_a_level_solves_into_one_state(ident, dt, steps):
    # no pass reads the state, so a level holds one: each pass's local
    # solves write the array of the pass before, and the caller's initial
    # state is never written
    ops, state0 = build_case(catalog(ident), 2, 2, dt)
    initial = None if state0 is None else state0.copy()
    levels = []  # (base, [out of each pass]) per level
    solve_cells, solve_source = ops.solve_cells, ops.solve_source

    def level_started(*args, **kwargs):
        base = solve_source(*args, **kwargs)
        levels.append((base, []))
        return base

    def recording(rhs, out=None, base=None):
        if base is not None:
            assert base is levels[-1][0]
            levels[-1][1].append(out)
        return solve_cells(rhs, out=out, base=base)

    ops.solve_cells, ops.solve_source = recording, level_started
    state, _trace, logs = solve(
        ops, IterationConfig(stopping="successive-difference"), state0, steps)
    assert [len(outs) for _base, outs in levels] == [
        log.iterations for log in logs]
    for _base, outs in levels:
        assert all(out is outs[0] for out in outs)
        assert outs[0] is not state0
    assert levels[-1][1][0] is state
    if state0 is not None:
        assert np.array_equal(state0, initial)


# -- the trace rule is linear; the boundary data belongs to the level ---------------


@pytest.mark.parametrize("ident", case_identifiers())
def test_update_trace_is_linear(ident, rng):
    # the pass map's trace rule reads the state alone: T(2u - 3v) is
    # 2 T(u) - 3 T(v), and a zero state gives a zero trace
    ops, _state0 = build_case(catalog(ident), 2, 2)

    def rule(state):
        trace = ops.new_trace()
        ops.update_trace(state, trace)
        return trace

    u, v = (rng.standard_normal(ops.zero_state().shape) for _ in range(2))
    gap = np.abs(rule(2 * u - 3 * v) - (2 * rule(u) - 3 * rule(v))).max()
    assert gap <= 1e-14 * np.abs(rule(u)).max()
    assert not np.any(rule(ops.zero_state()))


@pytest.mark.parametrize("ident", case_identifiers())
def test_update_trace_leaves_the_boundary_faces(ident, rng):
    ops, _state0 = build_case(catalog(ident), 2, 2)
    _fn, faces = ops.boundary
    trace = np.full(ops.new_trace().shape, np.nan)
    ops.update_trace(rng.standard_normal(ops.zero_state().shape), trace)
    written = np.ones(len(trace), dtype=bool)
    written[faces] = False
    assert np.all(np.isnan(trace[faces]))
    assert np.all(np.isfinite(trace[written]))


def test_boundary_faces_hold_the_level_data_through_its_passes():
    # both traces of a level take the boundary data once, at the level's
    # t, and every pass's rebuild leaves it there
    ops, state0 = build_case(catalog("transport3d-gaussian"), 2, 2, 1e-2)
    _fn, faces = ops.boundary
    assert len(faces)
    t = 0.37
    want = ops.new_trace()
    ops.boundary_trace(want, t)
    assert np.any(want[faces])
    seen = []
    update_trace = ops.update_trace

    def recording(state, trace_out):
        update_trace(state, trace_out)
        seen.append((trace_out, trace_out[faces].copy()))

    ops.update_trace = recording
    _u, trace, log = iterate_to_fixed_point(
        ops, IterationConfig(stopping="successive-difference"), u0=state0,
        t=t, state_prev=state0)
    assert log.iterations > 2
    assert len({id(buffer) for buffer, _vals in seen[1:]}) == 2
    for _buffer, vals in seen:
        assert np.array_equal(vals, want[faces])
    assert np.array_equal(trace[faces], want[faces])


# -- the pass map -------------------------------------------------------------------------
#
# With a zero base, on a trace whose boundary faces are zero, one pass
# (apply_pass) is the linear map G of the trace on every other face. Its
# spectral radius is the asymptotic rate per pass, below 1 by the paper's
# exponential-convergence theorem.

# a small cell of every catalog case, as (nel, dt)
PASS_MAP_CELLS = {
    "shallow-standing-wave": (6, 1e-3),
    "transport2d-smooth": (6, None),
    "transport3d-gaussian": (2, 1e-2),
    "transport3d-steady": (2, None),
    "transport2d-discontinuous": (4, None),
}
# rho(G) for p = 1 .. 4, measured with a dense G at one BLAS thread
PASS_MAP_RADII = {
    "shallow-standing-wave": (0.0552, 0.0914, 0.1285, 0.1800),
    "transport2d-smooth": (0.5157, 0.5355, 0.5856, 0.6171),
}


def pass_map(ident, p):
    """(ops, apply, free): the operator set of ident's pass-map cell, G as
    a callable of a trace returning (state, trace_out), and the flat trace
    indices of every face but the boundary faces."""
    nel, dt = PASS_MAP_CELLS[ident]
    ops, _state0 = build_case(catalog(ident), nel, p, dt)
    base = ops.zero_state()

    def apply(trace):
        state, trace_out = ops.zero_state(), ops.new_trace()
        ops.apply_pass(trace, trace_out, state, base)
        return state, trace_out

    faces = np.ones(ops.mesh.n_faces, dtype=bool)
    faces[ops.boundary[1]] = False
    free = np.flatnonzero(np.repeat(faces, ops.basis.n_face))
    return ops, apply, free


def test_pass_map_cells_cover_the_catalog():
    assert sorted(PASS_MAP_CELLS) == sorted(case_identifiers())


@pytest.mark.parametrize("ident", case_identifiers())
def test_pass_is_linear_in_the_trace(ident, rng):
    ops, apply, free = pass_map(ident, 2)
    a, b = ops.new_trace(), ops.new_trace()
    for trace in (a, b):
        trace.reshape(-1)[free] = rng.standard_normal(len(free))
    got = apply(2 * a - 3 * b)
    for g, x, y in zip(got, apply(a), apply(b)):
        want = 2 * x - 3 * y
        assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()
    state, trace_out = apply(ops.new_trace())
    assert not np.any(state) and not np.any(trace_out)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("ident", case_identifiers())
def test_pass_map_contracts(ident, p):
    # the exponential-convergence theorem: rho(G) < 1
    ops, apply, free = pass_map(ident, p)
    trace = ops.new_trace()
    flat = trace.reshape(-1)
    G = np.empty((len(free), len(free)))
    for j, i in enumerate(free):
        flat[i] = 1.0
        G[:, j] = apply(trace)[1].reshape(-1)[free]
        flat[i] = 0.0
    rho = np.abs(np.linalg.eigvals(G)).max()
    assert rho < 1
    if ident in PASS_MAP_RADII:
        assert abs(rho - PASS_MAP_RADII[ident][p - 1]) <= 1e-3


# -- once per time level ----------------------------------------------------------------


def test_callables_once_per_time_level(tmp_path, monkeypatch):
    problem = catalog("transport3d-gaussian").problem
    calls = {"exact": [], "inflow": []}
    for name in calls:
        fn = getattr(problem, name)

        def counted(pts, t=0.0, _fn=fn, _seen=calls[name]):
            _seen.append(t)
            return _fn(pts, t)

        monkeypatch.setattr(problem, name, counted)
    steps = 3
    rc = main(["solve", "case=transport3d-gaussian", "nel=2", "p=2",
               "dt=0.001", f"steps={steps}", f"outdir={tmp_path}"])
    assert rc == 0
    levels = [m * 0.001 + 0.001 for m in range(steps)]
    # the t=0 interpolant of the initial state, then one call per step
    assert calls["exact"] == [0.0] + levels
    # one call per level for the inflow faces of all three low planes of
    # the cube together (their 192 points are one block)
    assert calls["inflow"] == levels


def test_steps_csv_error_is_the_last_logged_error(tmp_path):
    rc = main(["solve", "case=transport2d-smooth", "nel=4", "p=2",
               "dt=0.01", "steps=2", f"outdir={tmp_path}"])
    assert rc == 0
    rows = (tmp_path / "transport2d-smooth-p2-nel4-steps.csv").read_text()
    last_step = float(rows.splitlines()[-1].split(",")[3])
    conv = (tmp_path / "transport2d-smooth-p2-nel4-convergence.csv")
    last_pass = float(conv.read_text().splitlines()[-1].split(",")[1])
    assert last_step == last_pass


# -- fail fast on non-finite passes ---------------------------------------------


def nan_cells(self, rhs, out=None, base=None):
    out = np.empty_like(rhs) if out is None else out
    out.fill(np.nan)
    return out


@pytest.mark.parametrize("stopping", ["error-difference",
                                      "successive-difference"])
def test_non_finite_pass_raises_at_once(stopping):
    ops = transport_ops(2, 1, 3)
    ops.solve_cells = nan_cells.__get__(ops)
    with pytest.raises(ConvergenceFailure, match=r"pass 1: successive"):
        iterate_to_fixed_point(ops, IterationConfig(stopping=stopping))


def test_non_finite_error_is_named():
    # finite iterates against a non-finite exact solution: only the error
    # quantity is bad
    case = catalog("transport2d-smooth")
    problem = dataclasses.replace(
        case.problem, exact=lambda pts, t=0.0: np.full(len(pts), np.inf))
    ops = TransportOperators(build_mesh(2, 3, case.bounds), TensorBasis(2, 1),
                             problem)
    with pytest.raises(ConvergenceFailure, match=r"pass 1: error vs exact"):
        iterate_to_fixed_point(ops, IterationConfig())


def test_exact_solution_that_warns_is_a_nan_error(tmp_path, capsys):
    # the standing wave's cos(omega t) at t = 1e308 is cos(inf): numpy's
    # invalid-value warning stays inside the norms, and the error is nan
    rc = main(["solve", "case=shallow-standing-wave", "nel=1", "p=2",
               "dt=1e308", "steps=1", f"outdir={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "non-convergence: pass 1: error vs exact is nan\n"


def test_solve_exits_2_on_non_finite_pass(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(TransportOperators, "solve_cells", nan_cells)
    rc = main(["solve", "case=transport2d-smooth", "nel=4", "p=1",
               f"outdir={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: pass 1: successive difference")


@pytest.mark.parametrize("ident, dt", [
    ("transport3d-gaussian", 1e-2),         # shared, folded weights
    ("shallow-standing-wave", 1e-3),        # shared, three fields
    ("transport2d-smooth", 5e-2),           # per-element, transient
])
def test_workspace_march_matches_levels_run_on_their_own(ident, dt):
    # solve writes every level into one LevelWorkspace and starts each
    # from the coordinates of the level before's last pass; the same levels
    # run one by one with fresh buffers give the same bits
    ops, state0 = build_case(catalog(ident), 3, 2, dt)
    config = IterationConfig()
    state, trace, logs = solve(ops, config, state0, 4)
    assert len(logs) == 4 and logs[-1].converged
    u = state0
    for m, log in enumerate(logs):
        u, tr, fresh = iterate_to_fixed_point(
            ops, config, u0=u, t=m * ops.dt + ops.dt, state_prev=u)
        assert fresh == log
    assert np.array_equal(u, state) and np.array_equal(tr, trace)


# -- the benchmark tracer still finds every entry point ------------------------------


GAUSSIAN_CELL = ["case=transport3d-gaussian", "nel=2", "p=2", "dt=0.001",
                 "steps=2"]
SHALLOW_CELL = ["case=shallow-standing-wave", "nel=2", "p=1", "dt=1e-3",
                "steps=2"]


@pytest.mark.parametrize("cell", [GAUSSIAN_CELL, SHALLOW_CELL],
                         ids=["gaussian", "shallow"])
@pytest.mark.parametrize("mode", ["traced", "plain", "setup"])
def test_benchmark_tracer_hooks(tmp_path, mode, cell):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
         mode, str(record), "solve", *cell, f"outdir={tmp_path}"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["status"] == 0
    assert "setup_end" in rec["marks"]
    if mode == "plain":
        assert "write_start" in rec["marks"]
    if mode != "traced":
        return
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from tracer import layer_metrics
    finally:
        sys.path.pop(0)
    metrics, checks = layer_metrics(rec)
    assert metrics["driver.steps"] == 2
    assert metrics["mesh.build_s"] > 0
    for name in ("rhs_calls == passes",
                 "update_trace_calls == passes + solves",
                 "spans nest: no negative self time"):
        assert checks[name], name
