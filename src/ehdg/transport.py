"""Element-local upwind HDG operators for linear transport.

The local statement on an element K, given a skeleton trace field uhat, is

    -(u, div(beta v))_K + <beta.n u + |beta.n| (u - uhat), v>_dK = (f, v)_K

for all test functions v in the element space. The fixed-point pass solves
this independently on every element, then rebuilds the trace from the new
element solutions (upwind average on interior faces, boundary rules on the
domain boundary). A transient step adds backward-Euler mass terms on both
sides.

Face trace data lives at face GLL nodes. Where beta.n has one sign on a
whole face, the upwind trace is the upwind element's face polynomial, a
copy of its face nodes; only on mixed-sign faces is the upwind average
formed pointwise at face quadrature points and L2-projected back onto the
face polynomial space. The shared contract is ehdg.operators.LocalOperators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import INFLOW, classify_boundary_face
from .operators import AssemblyError, LocalOperators, element_blocks


@dataclass
class TransportProblem:
    """Linear transport beta . grad(u) = f (or u_t + div(beta u) = f).

    Field callables are vectorized over points: velocity maps (N, d) ->
    (N, d); forcing/inflow/exact map (points, t) -> (N,). The points are an
    (N, d) array with contiguous columns; a callable must not assume C
    order. They must be pointwise, each value depending on its own point
    alone: the operators evaluate them once per block of at most
    ASSEMBLY_CHUNK elements or faces. forcing None means zero.
    div_velocity None declares the field divergence-free; otherwise it
    maps (N, d) -> (N,). constant_velocity enables sharing one local
    operator across all elements of a uniform mesh; the operators check it
    against beta.n on every face and against the velocity and divergence
    at every element's volume quadrature points.
    """

    dim: int
    velocity: Callable
    forcing: Optional[Callable] = None
    inflow: Optional[Callable] = None
    exact: Optional[Callable] = None
    div_velocity: Optional[Callable] = None
    constant_velocity: bool = False


class TransportOperators(LocalOperators):
    """Assembled element-local operators plus face data for one problem.

    The factorized local matrices are held as explicit inverses formed by
    row-pivoted LU (numpy.linalg.inv), stacked for batched application. When
    the problem declares a constant velocity on a uniform mesh, a single
    operator is shared by all elements. Otherwise a steady problem keeps
    only the lifted rows of each element's inverse and solves its source
    during assembly (LocalOperators._assemble). The mesh-sized
    temporaries of the face rules are freed before assembly starts.
    """

    def __init__(self, mesh, basis, problem, dt=None):
        super().__init__(mesh, basis, problem, dt)
        # the mesh-sized temporaries of the face rules (the signs of
        # beta.n) end with _face_rules, before assembly
        self._face_rules(problem)
        if problem.inflow is None and len(self.inflow_faces):
            raise AssemblyError("problem has inflow faces but no inflow data")

        shared = bool(problem.constant_velocity)
        if shared:
            self._check_constant_velocity(problem)
        # the |beta.n| face weights of the trace lift and the skeleton norm;
        # the one field takes the lift whole
        self.face_w = (mesh.face_jac[mesh.face_axis][:, None]
                       * basis.face_quad_w * np.abs(self.bn))
        self.lift_coef = {key: ((0, 1.0),) for key in self._sides}
        self.load = (problem.forcing, (0,))
        self.boundary = (problem.inflow, self.inflow_faces)
        self._assemble(shared)

    def _check_constant_velocity(self, problem):
        """Refuse a declared constant_velocity unless element 0's operator
        serves every element: beta.n must be the same on every face of
        each axis, and the velocity and its divergence, which
        element_matrix reads at the volume quadrature points, the same
        there in every element as in element 0. The volume fields are
        sampled one element block (element_blocks) at a time."""
        mesh = self.mesh
        if np.any(self.bn != self.bn[mesh.etof[0, 2 * mesh.face_axis]]):
            raise AssemblyError("constant_velocity is declared, but beta.n "
                                "is not the same on every face")
        for name, fn in (("velocity", problem.velocity),
                         ("div_velocity", problem.div_velocity)):
            if fn is None:
                continue
            first = self.sample(fn, elements=[0])
            for lo, hi in element_blocks(mesh.n_el):
                if np.any(self.sample(fn, elements=np.arange(lo, hi))
                          != first):
                    raise AssemblyError(
                        f"constant_velocity is declared, but {name} is not "
                        "the same at the volume quadrature points of every "
                        "element")

    def _face_rules(self, problem):
        """Set bn (beta . e_a at the quadrature points of every face, a its
        axis), the inflow faces, the outflow mask and the two trace rules of
        update_trace: the faces that copy an element's face nodes
        (_copies) and the mixed-sign faces (_mixed). bn is sampled on the
        faces of one axis a at a time, as beta . e_a alone."""
        mesh, etof = self.mesh, self.mesh.etof
        self.bn = np.empty((mesh.n_faces, self.basis.n_fq))
        for a in range(mesh.dim):
            faces = np.flatnonzero(mesh.face_axis == a)
            self.bn[faces] = self._sample_faces(
                lambda X: problem.velocity(X)[:, a], (), faces)
        sgn = np.sign(self.bn)

        # the inflow faces, and per face whether it is an outflow boundary
        # face (as characteristic faces are), from beta.n against the
        # outward normal, -e_a on side 0 and +e_a on side 1
        fid, _els, side = mesh.boundary_faces()
        osign = np.where(side % 2, 1.0, -1.0)[:, None]
        into = classify_boundary_face(osign * self.bn[fid]) == INFLOW
        self.inflow_faces = fid[into]
        self.outflow = np.zeros(mesh.n_faces, dtype=bool)
        self.outflow[fid[~into]] = True

        # the faces that copy an element's face nodes, per element side
        # (etof column) as (face ids, elements, side): outflow faces, and
        # interior faces on which beta.n has one sign at every face
        # quadrature point from their upwind element (beta.n > 0 outward)
        self._copies = []
        for k, key in enumerate(self._sides):
            f = etof[:, k]
            els = np.flatnonzero(self.outflow[f] | np.all(
                (sgn[f] if key[1] else -sgn[f]) > 0, axis=1))
            self._copies.append((f[els], els[:, None], key))
        # the other interior faces are mixed-sign, as (face ids, node
        # indices of the minus element's side, of the plus element's, and
        # the sign of beta.n at the face quadrature points)
        fid, minus, plus, axis = mesh.interior_faces()
        inner = sgn[fid]
        sel = ~(np.all(inner > 0, axis=1) | np.all(inner < 0, axis=1))
        side = 2 * axis[sel]
        self._mixed = (fid[sel], self._node_index(minus[sel], side + 1),
                       self._node_index(plus[sel], side), inner[sel])

    # -- assembly -----------------------------------------------------------

    def element_matrix(self, elements):
        """Local matrices A_K for the given element indices.

        Every term is a weighted tensor product of 1D factors and is built
        by sum factorization (TensorBasis.weighted_products).
        """
        mesh, basis, prob = self.mesh, self.basis, self.problem
        d = mesh.dim
        els = np.asarray(elements)
        V = self.sample(prob.velocity, elements=els)
        terms = []
        for a in range(d):
            keys = ["val"] * d
            keys[a] = "grad"
            wb = -(mesh.jac / mesh.half[a]) * basis.quad_w * V[:, :, a]
            terms.append((keys, wb))
        if prob.div_velocity is not None:
            dv = self.sample(prob.div_velocity, elements=els)
            terms.append((["val"] * d, -mesh.jac * basis.quad_w * dv))
        for k, (a, s) in enumerate(self._sides):
            bn_el = self.bn[mesh.etof[els, k]]
            if s == 0:
                bn_el = -bn_el
            w = bn_el + np.abs(bn_el)
            keys = ["val"] * d
            keys[a] = ("lo", "hi")[s]
            terms.append((keys, mesh.face_jac[a] * basis.face_quad_w * w))
        A = basis.weighted_products(terms)
        if self.dt is not None:
            A += self.mass_phys[None] / self.dt
        return A

    # -- per-iteration pieces ------------------------------------------------

    def update_trace(self, u, trace_out):
        """Rebuild the skeleton trace from element solutions.

        An interior face on which beta.n has one sign at every face
        quadrature point takes its upwind element's face nodes, as outflow
        and characteristic boundary faces take their element's: the upwind
        value is then a face polynomial, and the other GLL basis functions
        vanish on the face. Only mixed-sign interior faces form the upwind
        average pointwise at the face quadrature points and project it
        onto the face space. Inflow faces (boundary) are not written: they
        hold the level's inflow data (boundary_trace).
        """
        basis = self.basis
        fid, minus, plus, s = self._mixed
        um = np.take(u, minus) @ basis.face_eval.T
        up = np.take(u, plus) @ basis.face_eval.T
        uh = 0.5 * ((um + up) + s * (um - up))
        trace_out[fid] = uh @ basis.face_proj.T
        for fid, els, key in self._copies:
            trace_out[fid] = u[els, basis.face_node_ids[key]]

    def interpolate_exact(self, t=0.0):
        """Nodal interpolant of the exact solution (perfbench/gate.py
        calls it by this name)."""
        if self.problem.exact is None:
            raise ValueError("problem has no exact solution")
        return self.interpolate(self.problem.exact, t)
