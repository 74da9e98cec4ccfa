"""Direct solution of the globally coupled trace system, for verification.

The skeleton unknowns are the trace coefficients on interior faces. For each
interior face the conservation condition

    < [[ beta.n u(uhat) + |beta.n| (u(uhat) - uhat) ]] , mu >_e = 0

(continuity-flux jump for shallow water) gives one row per face basis
function, where u(uhat) denotes the element-local solves driven by the
trace. The matrix is built by probing unit trace vectors through the local
solves, one column batch per face, and solved densely. Boundary faces are
eliminated: inflow data enters the right-hand side, outflow and wall traces
are folded into the local operators.

This path shares only the element assembly with the fixed-point driver; no
iteration is involved, so agreement between the two is a genuine check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shallow import ShallowOperators
from .transport import TraceField, TransportOperators

MAX_DENSE_UNKNOWNS = 20000


class OracleSizeError(Exception):
    pass


def _interior_offsets(mesh, basis):
    """Unknown offsets per axis; only flux-active faces get unknowns."""
    offs, n = [], 0
    for a in range(mesh.dim):
        offs.append(n)
        n += (mesh.nel[a] - 1) * mesh.n_perp[a] * basis.n_face
    return offs, n


class _TraceIndex:
    def __init__(self, mesh, basis):
        self.mesh, self.basis = mesh, basis
        self.offs, self.n_unknowns = _interior_offsets(mesh, basis)

    def rows(self, axis, fid):
        """Slice of unknown/row indices for one interior face."""
        nf = self.basis.n_face
        local = (fid - self.mesh.n_perp[axis]) * nf
        start = self.offs[axis] + local
        return slice(start, start + nf)

    def scatter(self, vec, trace):
        nf = self.basis.n_face
        for a in range(self.mesh.dim):
            n_int = (self.mesh.nel[a] - 1) * self.mesh.n_perp[a]
            block = vec[self.offs[a] : self.offs[a] + n_int * nf]
            trace.data[a][self.mesh.n_perp[a] : self.mesh.n_perp[a] + n_int] = (
                block.reshape(n_int, nf)
            )


def check_dense_size(mesh, basis):
    """The unknown numbering of the dense trace system of this mesh and
    basis; raises OracleSizeError when it exceeds MAX_DENSE_UNKNOWNS."""
    index = _TraceIndex(mesh, basis)
    if index.n_unknowns > MAX_DENSE_UNKNOWNS:
        raise OracleSizeError(
            f"{index.n_unknowns} trace unknowns exceed the dense-solve guard"
        )
    return index


def _jump_moments(ops, jump_of, state, trace):
    """Conservation residual moments <jump, mu>_e on every interior face,
    from jump_of(ops, state, trace, axis) at the face quadrature points."""
    mesh, basis = ops.mesh, ops.basis
    parts = []
    for a in range(mesh.dim):
        jump = jump_of(ops, state, trace, a)
        parts.append(
            mesh.face_jac[a] * ((basis.face_quad_w * jump) @ basis.face_eval)
        )
    return np.concatenate([p.ravel() for p in parts])


def _jump_norm(ops, jump_of, state, trace, per_face):
    """Skeleton L2 norm of jump_of over interior faces, or with
    per_face=True the array of face L2 norms."""
    mesh, basis = ops.mesh, ops.basis
    total, per = 0.0, []
    for a in range(mesh.dim):
        jump = jump_of(ops, state, trace, a)
        face_sq = mesh.face_jac[a] * np.sum(
            basis.face_quad_w * jump * jump, axis=1
        )
        total += float(np.sum(face_sq))
        per.append(np.sqrt(face_sq))
    if per_face:
        return np.concatenate(per) if per else np.zeros(0)
    return float(np.sqrt(total))


@dataclass
class GlobalTraceSystem:
    ops: object
    index: _TraceIndex
    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def n_unknowns(self):
        return self.index.n_unknowns


# -- transport ----------------------------------------------------------------


def _transport_jump(ops, u, trace, axis):
    """Upwind numerical-flux jump at the quadrature points of every
    interior face of one axis."""
    basis = ops.basis
    fid, minus, plus = ops._int_faces[axis]
    um = u[minus] @ basis.face_restrict[(axis, 1)].T
    up = u[plus] @ basis.face_restrict[(axis, 0)].T
    uh = trace.data[axis][fid] @ basis.face_eval.T
    bn, ab = ops.bn[axis][fid], ops.abs_bn[axis][fid]
    return bn * (um - up) + ab * (um + up - 2.0 * uh)


def _element_faces(mesh):
    return [(a, s) for a in range(mesh.dim) for s in (0, 1)]


def assemble_global_trace_system(mesh, basis, problem, dt=None,
                                 state_prev=None, t=0.0):
    """Probe the condensed transport trace system into a dense matrix."""
    ops = TransportOperators(
        mesh, basis, problem, dt=dt, condense_outflow=True
    )
    index = check_dense_size(mesh, basis)
    nf, w = basis.n_face, basis.face_quad_w
    F = basis.face_eval

    trace0 = ops.new_trace()
    ops.inflow_trace(trace0, t)
    u0 = ops.solve_cells(ops.rhs(trace0, ops.source(t, state_prev)))
    r0 = _jump_moments(ops, _transport_jump, u0, trace0)

    N = index.n_unknowns
    T = np.zeros((N, N))
    for a in range(mesh.dim):
        fid_arr, minus_arr, plus_arr = ops._int_faces[a]
        R_side = {1: basis.face_restrict[(a, 1)], 0: basis.face_restrict[(a, 0)]}
        fj = mesh.face_jac[a]
        for i, f in enumerate(fid_arr):
            cols = index.rows(a, f)
            if not np.any(ops.abs_bn[a][f]):
                # no flux crosses this face; pin its (irrelevant) trace
                T[cols, cols] = np.eye(nf)
                continue
            lw = fj * w * ops.abs_bn[a][f]
            for el, s_el in ((minus_arr[i], 1), (plus_arr[i], 0)):
                drhs = R_side[s_el].T @ (lw[:, None] * F)
                dU = ops.a_inv[el] @ drhs
                _accumulate_transport_rows(ops, index, T, cols, el, dU)
            # direct dependence of face f's own flux on its trace
            T[index.rows(a, f), cols] += (
                -2.0 * fj * (F.T @ ((w * ops.abs_bn[a][f])[:, None] * F))
            )
    return GlobalTraceSystem(ops=ops, index=index, matrix=T, rhs=-r0)


def _accumulate_transport_rows(ops, index, T, cols, el, dU):
    mesh, basis = ops.mesh, ops.basis
    w, F = basis.face_quad_w, basis.face_eval
    for b, s in _element_faces(mesh):
        g = ops.fidx[(b, s)][el]
        plane = g // mesh.n_perp[b]
        if plane == 0 or plane == mesh.nel[b]:
            continue
        bn, ab = ops.bn[b][g], ops.abs_bn[b][g]
        factor = (bn + ab) if s == 1 else (ab - bn)
        dq = basis.face_restrict[(b, s)] @ dU
        rows = mesh.face_jac[b] * (F.T @ ((w * factor)[:, None] * dq))
        T[index.rows(b, g), cols] += rows


def direct_solve_transport(mesh, basis, problem, dt=None, state_prev=None,
                           t=0.0):
    """Returns (u, trace, system) from the dense skeleton solve."""
    system = assemble_global_trace_system(
        mesh, basis, problem, dt=dt, state_prev=state_prev, t=t
    )
    ops, index = system.ops, system.index
    uhat = np.linalg.solve(system.matrix, system.rhs)
    trace = ops.new_trace()
    ops.inflow_trace(trace, t)
    index.scatter(uhat, trace)
    u = ops.solve_cells(ops.rhs(trace, ops.source(t, state_prev)))
    for a, fid, els, side in ops.outflow_blocks:
        trace.data[a][fid] = u[els][:, ops.basis.face_node_ids[(a, side)]]
    for a in range(mesh.dim):
        fid, minus, plus = ops._int_faces[a]
        dead = ~np.any(ops.abs_bn[a][fid], axis=1)
        if np.any(dead):
            lo = u[minus[dead]][:, ops.basis.face_node_ids[(a, 1)]]
            hi = u[plus[dead]][:, ops.basis.face_node_ids[(a, 0)]]
            trace.data[a][fid[dead]] = 0.5 * (lo + hi)
    return u, trace, system


def flux_jump_residual(ops, u, trace, per_face=False):
    """Skeleton L2 norm of the numerical-flux jump over interior faces.

    With per_face=True returns the array of face L2 norms instead.
    """
    return _jump_norm(ops, _transport_jump, u, trace, per_face)


# -- shallow water --------------------------------------------------------------


def _shallow_jump(ops, state, trace, axis):
    basis = ops.basis
    fid, minus, plus = ops._int_faces[axis]
    phi, u, v = ops.split(state)
    vel = u if axis == 0 else v
    R_hi = basis.face_restrict[(axis, 1)]
    R_lo = basis.face_restrict[(axis, 0)]
    pm = phi[minus] @ R_hi.T
    pp = phi[plus] @ R_lo.T
    vm = vel[minus] @ R_hi.T
    vp = vel[plus] @ R_lo.T
    ph = trace.data[axis][fid] @ basis.face_eval.T
    return ops.phi_mean * (vm - vp) + ops.root_phi * (pm + pp - 2.0 * ph)


def assemble_shallow_trace_system(mesh, basis, problem, dt, state_prev,
                                  t=0.0):
    ops = ShallowOperators(mesh, basis, problem, dt, condense_walls=True)
    index = check_dense_size(mesh, basis)
    n_p, nf = ops.n_p, basis.n_face
    w, F = basis.face_quad_w, basis.face_eval
    PHI, rp = ops.phi_mean, ops.root_phi

    trace0 = ops.new_trace()
    state0 = ops.solve_cells(ops.rhs(trace0, ops.source(t, state_prev)))
    r0 = _jump_moments(ops, _shallow_jump, state0, trace0)

    N = index.n_unknowns
    T = np.zeros((N, N))
    for a in range(2):
        fid_arr, minus_arr, plus_arr = ops._int_faces[a]
        fj = mesh.face_jac[a]
        for i, f in enumerate(fid_arr):
            cols = index.rows(a, f)
            for el, s_el in ((minus_arr[i], 1), (plus_arr[i], 0)):
                R = basis.face_restrict[(a, s_el)]
                nsig = 1.0 if s_el == 1 else -1.0
                lifted = R.T @ ((fj * w)[:, None] * F)
                drhs = np.zeros((3 * n_p, nf))
                drhs[:n_p] = rp * lifted
                mom = slice(n_p, 2 * n_p) if a == 0 else slice(2 * n_p, 3 * n_p)
                drhs[mom] = -PHI * nsig * lifted
                dU = ops.a_inv[el] @ drhs
                _accumulate_shallow_rows(ops, index, T, cols, el, dU)
            T[index.rows(a, f), cols] += (
                -2.0 * rp * fj * (F.T @ (w[:, None] * F))
            )
    return GlobalTraceSystem(ops=ops, index=index, matrix=T, rhs=-r0)


def _accumulate_shallow_rows(ops, index, T, cols, el, dU):
    mesh, basis = ops.mesh, ops.basis
    n_p = ops.n_p
    w, F = basis.face_quad_w, basis.face_eval
    for b, s in _element_faces(mesh):
        g = ops.fidx[(b, s)][el]
        plane = g // mesh.n_perp[b]
        if plane == 0 or plane == mesh.nel[b]:
            continue
        R = basis.face_restrict[(b, s)]
        vel = slice(n_p, 2 * n_p) if b == 0 else slice(2 * n_p, 3 * n_p)
        dphi = R @ dU[:n_p]
        dvel = R @ dU[vel]
        vsig = 1.0 if s == 1 else -1.0
        djump = ops.phi_mean * vsig * dvel + ops.root_phi * dphi
        rows = mesh.face_jac[b] * (F.T @ (w[:, None] * djump))
        T[index.rows(b, g), cols] += rows


def direct_solve_shallow(mesh, basis, problem, dt, state_prev, t=0.0):
    system = assemble_shallow_trace_system(
        mesh, basis, problem, dt, state_prev, t=t
    )
    ops, index = system.ops, system.index
    phat = np.linalg.solve(system.matrix, system.rhs)
    trace = ops.new_trace()
    index.scatter(phat, trace)
    state = ops.solve_cells(ops.rhs(trace, ops.source(t, state_prev)))
    phi, u, v = ops.split(state)
    for a in range(2):
        vel = u if a == 0 else v
        for side in (0, 1):
            bfid, els, osign = mesh.boundary_faces(a, side)
            nid = ops.basis.face_node_ids[(a, side)]
            trace.data[a][bfid] = (
                phi[els][:, nid] + ops.root_phi * osign * vel[els][:, nid]
            )
    return state, trace, system


def shallow_flux_jump_residual(ops, state, trace, per_face=False):
    """Continuity-flux jump over interior faces, as a skeleton L2 norm."""
    return _jump_norm(ops, _shallow_jump, state, trace, per_face)
