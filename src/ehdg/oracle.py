"""Direct solution of the globally coupled trace system, for verification.

The skeleton unknowns are the trace coefficients on interior faces. For each
interior face the conservation condition

    < [[ beta.n u(uhat) + |beta.n| (u(uhat) - uhat) ]] , mu >_e = 0

(continuity-flux jump for shallow water) gives one row per face basis
function, where u(uhat) denotes the element-local solves driven by the
trace. The matrix is built by probing unit trace vectors through the local
solves, one column batch per face, and solved densely. Boundary faces are
eliminated: the boundary data (ops.boundary_trace, transport's inflow)
enters the right-hand side, and the outflow and wall trace rules are
folded into the local matrices (condensed_matrices: ops.element_matrix
plus a face correction). The operators are those the
fixed-point driver runs on; the oracle keeps their outflow and wall trace
entries zero whenever it calls ops.rhs, so those faces lift nothing.

One prober and one direct solve serve both physics; what differs sits in
the _PHYSICS table. The flux jump is stated once per physics, as what each
side's state adds to it (side) and the trace's coefficient (trace_weight):
the residual, the probed rows and each face's own block all read these
two. The rules are written out here, not taken from the operators' rhs,
and no iteration is involved, so agreement with the fixed-point driver is
a genuine check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TensorBasis
from .driver import solve
from .mesh import build_mesh
from .operators import assemble_inverses
from .problems import build_case
from .shallow import ShallowOperators
from .transport import TransportOperators

MAX_DENSE_UNKNOWNS = 20000
# verify_cell's iterate-vs-direct gap is relative to the larger of the
# direct solution's norm and this share of the data's scale: a solution far
# below its data (a huge time step's, say) is round-off, against which a
# relative gap measures nothing
DATA_SCALE_SHARE = 1e-2


class OracleSizeError(Exception):
    pass


class _TraceIndex:
    def __init__(self, mesh, basis):
        self.n_face = basis.n_face
        # face id -> its first unknown, -1 on boundary faces; the interior
        # faces get unknowns by ascending face id
        fid = mesh.interior_faces()[0]
        self.first = np.full(mesh.n_faces, -1)
        self.first[fid] = self.n_face * np.arange(len(fid))
        self.n_unknowns = len(fid) * self.n_face

    def rows(self, fid):
        """Slice of unknown/row indices for one face, None on a boundary
        face."""
        start = self.first[fid]
        return None if start < 0 else slice(start, start + self.n_face)

    def scatter(self, vec, trace):
        trace[self.first >= 0] = vec.reshape(-1, self.n_face)


def check_dense_size(mesh, basis):
    """The unknown numbering of the dense trace system of this mesh and
    basis; raises OracleSizeError when it exceeds MAX_DENSE_UNKNOWNS."""
    index = _TraceIndex(mesh, basis)
    if index.n_unknowns > MAX_DENSE_UNKNOWNS:
        raise OracleSizeError(
            f"{index.n_unknowns} trace unknowns exceed the dense-solve guard"
        )
    return index


@dataclass
class GlobalTraceSystem:
    index: _TraceIndex
    matrix: np.ndarray
    rhs: np.ndarray
    # the condensed local inverses it was probed with, transposed
    # (assemble_inverses)
    a_inv: np.ndarray


# -- per-physics rules ----------------------------------------------------------
#
# Namespaces of plain functions of the operators. side: what the state rows
# U on side s of faces g (normal to axis b) add to the flux jump at the face
# quadrature points; trace_weight: the trace's coefficient in that jump
# (zero everywhere on a face no flux crosses); lift: a unit trace on face f
# lifted from one side; correction: what the outflow (wall) trace rule adds
# to ops.element_matrix once it is condensed into the local equations;
# closure: the traces set after a solve. The rest serves direct_solve and
# verify_cell.


class _Transport:
    def side(ops, b, g, s, U):
        # side 1 is the minus element, whose outward normal is +e_b
        bn = ops.bn[g]
        ab = np.abs(bn)
        factor = (bn + ab) if s == 1 else (ab - bn)
        return factor * (U @ ops.basis.face_restrict[(b, s)].T)

    def trace_weight(ops, b, g):
        return -2.0 * np.abs(ops.bn[g])

    def lift(ops, a, f, side):
        basis = ops.basis
        lw = ops.mesh.face_jac[a] * basis.face_quad_w * np.abs(ops.bn[f])
        return basis.face_restrict[(a, side)].T @ (lw[:, None] * basis.face_eval)

    def correction(ops, els):
        # the outflow trace is the interior solution itself, so the upwind
        # term |beta.n| (u - uhat) drops out there: minus the |beta.n|-
        # weighted face mass of each element's outflow faces
        basis = ops.basis
        C = np.zeros((len(els), basis.n_p, basis.n_p))
        for k, (a, side) in enumerate(ops._sides):
            f = ops.mesh.etof[els, k]
            sel = ops.outflow[f]
            w = (ops.mesh.face_jac[a] * basis.face_quad_w
                 * np.abs(ops.bn[f[sel]]))
            R = basis.face_restrict[(a, side)]
            C[sel] -= np.matmul(R.T, w[:, :, None] * R)
        return C

    def closure(ops, u, trace):
        # outflow faces copy the interior solution; a face no flux crosses
        # takes the mean of its two sides
        fid, els, side = ops.mesh.boundary_faces()
        out = ops.outflow[fid]
        trace[fid[out]] = np.take(u, ops._node_index(els[out], side[out]))
        fid, minus, plus, axis = ops.mesh.interior_faces()
        dead = ~np.any(ops.bn[fid], axis=1)
        side = 2 * axis[dead]
        lo = np.take(u, ops._node_index(minus[dead], side + 1))
        hi = np.take(u, ops._node_index(plus[dead], side))
        trace[fid[dead]] = 0.5 * (lo + hi)

    def extra_checks(ops, state0, state):
        return []


class _Shallow:
    def side(ops, b, g, s, U):
        # the continuity flux sqrt(PHI) phi + PHI theta.n of one side
        R = ops.basis.face_restrict[(b, s)]
        phi, u, v = ops.split(U)
        vel = u if b == 0 else v
        vsig = 1.0 if s == 1 else -1.0
        return ops.root_phi * (phi @ R.T) + vsig * ops.phi_mean * (vel @ R.T)

    def trace_weight(ops, b, g):
        return -2.0 * ops.root_phi

    def lift(ops, a, f, side):
        basis, n_p = ops.basis, ops.n_p
        fw = ops.mesh.face_jac[a] * basis.face_quad_w
        lifted = basis.face_restrict[(a, side)].T @ (fw[:, None] * basis.face_eval)
        nsig = 1.0 if side == 1 else -1.0
        drhs = np.zeros((3 * n_p, basis.n_face))
        drhs[:n_p] = ops.root_phi * lifted
        drhs[(a + 1) * n_p : (a + 2) * n_p] = -ops.phi_mean * nsig * lifted
        return drhs

    def correction(ops, els):
        # the wall rule phihat = phi + sqrt(PHI) theta.n cancels the
        # continuity flux and turns the momentum flux <PHI phihat n_a, w>
        # into interior terms
        basis, n_p = ops.basis, ops.n_p
        PHI, rp = ops.phi_mean, ops.root_phi
        C = np.zeros((len(els), 3 * n_p, 3 * n_p))
        phi = slice(0, n_p)
        for a, s in ops._sides:
            nsig = (-1.0, 1.0)[s]
            vel = slice((a + 1) * n_p, (a + 2) * n_p)
            # the elements on the side-s plane of axis a
            wall = ops.mesh.el_coords[els, a] == (0, ops.mesh.nel[a] - 1)[s]
            R = basis.face_restrict[(a, s)]
            E = ops.mesh.face_jac[a] * (R.T @ (basis.face_quad_w[:, None] * R))
            C[wall, phi, phi] -= rp * E
            C[wall, phi, vel] -= nsig * PHI * E
            C[wall, vel, phi] += nsig * PHI * E
            C[wall, vel, vel] += PHI * rp * E
        return C

    def closure(ops, state, trace):
        # the one-sided wall rule phihat = phi + sqrt(PHI) theta.n
        fid, els, side = ops.mesh.boundary_faces()
        osign = np.where(side % 2, 1.0, -1.0)[:, None]
        phi = np.take(state, ops._node_index(els, side))
        vel = np.take(state, ops._node_index(els, side, 1 + side // 2))
        trace[fid] = phi + ops.root_phi * osign * vel

    def extra_checks(ops, state0, state):
        # scaled by the integral of |phi0|, not by |mass0|: a zero-mean
        # state (the standing wave) has a round-off-sized total mass
        mesh, basis = ops.mesh, ops.basis
        phi0 = ops.split(state0)[0]
        scale = mesh.jac * np.sum(basis.quad_w * np.abs(phi0 @ basis.eval_vol.T))
        drift = abs(ops.total_mass(state) - ops.total_mass(state0))
        drift /= max(float(scale), 1e-300)
        return [("mass-conservation", drift <= 1e-11,
                 f"drift {drift:.3e} relative to the integral of |phi0|")]


_PHYSICS = {TransportOperators: _Transport, ShallowOperators: _Shallow}


# -- one verification path ---------------------------------------------------------


def _jumps(ops, state, trace):
    """Per axis a, (a, the flux jump at the quadrature points of the
    interior faces normal to a): both sides' contributions plus the
    trace's."""
    rules = _PHYSICS[type(ops)]
    fid, minus, plus, axes = ops.mesh.interior_faces()
    for a in range(ops.mesh.dim):
        f, m, p = (x[axes == a] for x in (fid, minus, plus))
        uh = trace[f] @ ops.basis.face_eval.T
        yield a, (rules.side(ops, a, f, 1, state[m])
                  + rules.side(ops, a, f, 0, state[p])
                  + rules.trace_weight(ops, a, f) * uh)


def _moments(ops, axis, q):
    """<q, mu>_e against every face basis function mu, for face-quadrature
    values q along the last axis of an axis-normal face."""
    basis = ops.basis
    return ops.mesh.face_jac[axis] * ((basis.face_quad_w * q) @ basis.face_eval)


def jump_moments(ops, state, trace):
    """Conservation residual moments <jump, mu>_e on every interior face,
    in the unknown order of the dense trace system."""
    return np.concatenate([_moments(ops, a, jump).ravel()
                           for a, jump in _jumps(ops, state, trace)])


def flux_jump_residual(ops, state, trace):
    """Skeleton L2 norm of the numerical-flux jump (the continuity-flux jump
    for shallow water) over interior faces."""
    mesh, w = ops.mesh, ops.basis.face_quad_w
    total = sum(mesh.face_jac[a] * float(np.sum(w * j * j))
                for a, j in _jumps(ops, state, trace))
    return float(np.sqrt(total))


def condensed_matrices(ops, elements):
    """The local matrices of the direct solve on the given elements:
    ops.element_matrix with the outflow (transport) or wall (shallow water)
    trace rule substituted into the local equations."""
    els = np.asarray(elements)
    return ops.element_matrix(els) + _PHYSICS[type(ops)].correction(ops, els)


def full_rhs(ops, trace, source):
    """The whole right-hand side of every local solve: source (ops.source's)
    plus the lift of trace (ops.rhs) in the lifted columns."""
    out = source.copy()
    out[:, ops.lifted] += ops.rhs(trace)
    return out


def condensed_solve(ops, a_inv, trace, source):
    """Element solutions of the condensed local problems driven by trace,
    whose outflow (wall) entries are zero; a_inv holds the inverses of
    condensed_matrices for every element (assemble_inverses' layout, rows
    in natural order), source is ops.source's."""
    return np.matmul(full_rhs(ops, trace, source)[:, None], a_inv)[:, 0]


def assemble_trace_system(ops, state_prev=None, t=0.0):
    """Probe the condensed trace system of ops into a dense matrix.

    state_prev and t are those of ops.source. The right-hand side is minus
    the jump moments of a zero interior trace.
    """
    rules = _PHYSICS[type(ops)]
    mesh, basis = ops.mesh, ops.basis
    index = check_dense_size(mesh, basis)
    a_inv = assemble_inverses(lambda els: condensed_matrices(ops, els),
                              mesh.n_el, ops.state_width)

    trace0 = ops.new_trace()
    ops.boundary_trace(trace0, t)
    state0 = condensed_solve(ops, a_inv, trace0, ops.source(t, state_prev))
    r0 = jump_moments(ops, state0, trace0)

    # column j of face f is the jump moments of a unit trace e_j on f: the
    # sides' moments of the local change it drives in its two elements,
    # and the trace's own term on f
    N = index.n_unknowns
    T = np.zeros((N, N))
    for f, minus, plus, a in zip(*mesh.interior_faces()):
        cols = index.rows(f)
        weight = rules.trace_weight(ops, a, f)
        if not np.any(weight):
            # no flux crosses this face; pin its (irrelevant) trace
            T[cols, cols] = np.eye(basis.n_face)
            continue
        for el, side in ((minus, 1), (plus, 0)):
            dU = rules.lift(ops, a, f, side).T @ a_inv[el]
            for k, (b, s) in enumerate(ops._sides):
                g = mesh.etof[el, k]
                rows = index.rows(g)
                if rows is None:
                    continue
                dq = rules.side(ops, b, g, s, dU)
                T[rows, cols] += _moments(ops, b, dq).T
        T[cols, cols] += _moments(ops, a, weight * basis.face_eval.T).T
    return GlobalTraceSystem(index=index, matrix=T, rhs=-r0, a_inv=a_inv)


def direct_solve(ops, state_prev=None, t=0.0):
    """Returns (state, trace, system) from the dense skeleton solve of the
    condensed trace system of ops (see assemble_trace_system)."""
    system = assemble_trace_system(ops, state_prev, t)
    trace = ops.new_trace()
    ops.boundary_trace(trace, t)
    system.index.scatter(np.linalg.solve(system.matrix, system.rhs), trace)
    state = condensed_solve(ops, system.a_inv, trace,
                            ops.source(t, state_prev))
    _PHYSICS[type(ops)].closure(ops, state, trace)
    return state, trace, system


def verify_cell(case, nel, p, dt, config):
    """The checks of `ehdg verify` on one cell, as (name, ok, detail).

    The fixed-point solve under config (driver.solve: steady, or one step
    from the case's initial state) is compared with direct_solve on the
    same operators, in their energy norm (ops.diff_norm), relative to the
    larger of the direct solution's norm and DATA_SCALE_SHARE times the
    data's scale: the norm of the initial state or of the local solution
    of the source (ops.solve_source), whichever is larger. The dense-solve
    size is checked on the mesh and basis before any operator is
    assembled.
    """
    check_dense_size(build_mesh(case.dim, nel, case.bounds),
                     TensorBasis(case.dim, p))
    ops, state0 = build_case(case, nel, p, dt)
    rules = _PHYSICS[type(ops)]
    s_it, tr_it, [log] = solve(ops, config, state0)
    t = log.t
    s_dir, tr_dir, _sys = direct_solve(ops, state0, t)
    data = ops.diff_norm(ops.solve_source(t, state0), 0.0)
    if state0 is not None:
        data = max(data, ops.diff_norm(state0, 0.0))
    scale = max(ops.diff_norm(s_dir, 0.0), DATA_SCALE_SHARE * data, 1e-300)
    rel = ops.diff_norm(s_it, s_dir) / scale
    j_it = flux_jump_residual(ops, s_it, tr_it)
    j_dir = flux_jump_residual(ops, s_dir, tr_dir)
    return [
        ("iterate-vs-direct", rel <= 1e-8, f"relative L2 {rel:.3e}"),
        ("flux-jump-iterate", j_it <= 1e-9, f"residual {j_it:.3e}"),
        ("flux-jump-direct", j_dir <= 1e-9, f"residual {j_dir:.3e}"),
        *rules.extra_checks(ops, state0, s_it),
        ("iteration-converged", log.converged, f"{log.iterations} iterations"),
    ]


# -- kept because perfbench/gate.py calls them ---------------------------------
#
# Apart from the size-guard tests of tests/test_oracle.py nothing else does;
# they go once the gate calls verify_cell. Each checks the dense-solve size
# before it assembles the operators.


def direct_solve_transport(mesh, basis, problem, dt=None, state_prev=None,
                           t=0.0):
    check_dense_size(mesh, basis)
    ops = TransportOperators(mesh, basis, problem, dt=dt)
    return direct_solve(ops, state_prev, t)


def direct_solve_shallow(mesh, basis, problem, dt, state_prev, t=0.0):
    check_dense_size(mesh, basis)
    ops = ShallowOperators(mesh, basis, problem, dt)
    return direct_solve(ops, state_prev, t)


shallow_flux_jump_residual = flux_jump_residual
