"""Element-local upwind HDG operators for linear transport.

The local statement on an element K, given a skeleton trace field uhat, is

    -(u, div(beta v))_K + <beta.n u + |beta.n| (u - uhat), v>_dK = (f, v)_K

for all test functions v in the element space. The fixed-point pass solves
this independently on every element, then rebuilds the trace from the new
element solutions (upwind average on interior faces, boundary rules on the
domain boundary). A transient step adds backward-Euler mass terms on both
sides.

Face trace data lives at face GLL nodes; the upwind average is formed
pointwise at face quadrature points and L2-projected back onto the face
polynomial space. The shared contract is ehdg.operators.LocalOperators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import INFLOW, classify_boundary_face
from .operators import AssemblyError, LocalOperators, evaluate_blocked


@dataclass
class TransportProblem:
    """Linear transport beta . grad(u) = f (or u_t + div(beta u) = f).

    Field callables are vectorized over points: velocity maps (N, d) ->
    (N, d); forcing/inflow/exact map (points, t) -> (N,). They must be
    pointwise, each value depending on its own point alone: the operators
    evaluate them in blocks of at most SAMPLE_POINTS points. forcing None
    means zero. div_velocity None declares the field divergence-free;
    otherwise it maps (N, d) -> (N,). constant_velocity enables sharing one
    local operator across all elements of a uniform mesh.
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
    operator is shared by all elements.
    """

    def __init__(self, mesh, basis, problem, dt=None):
        super().__init__(mesh, basis, problem, dt)
        d = mesh.dim

        # velocity data at face quadrature points, per normal axis
        self.bn = []       # beta . e_a at face quadrature points
        self.abs_bn = []
        self.sgn = []
        for a in range(d):
            v = self._sample_faces(problem.velocity, (), a,
                                   np.arange(mesh.n_faces_axis[a]))
            self.bn.append(v[:, :, a].copy())
            self.abs_bn.append(np.abs(self.bn[a]))
            self.sgn.append(np.sign(self.bn[a]))

        # the element-side |beta.n| face weights of the trace lift and the
        # skeleton norm; the one field takes the lift whole
        self.lift_w = {
            (a, s): mesh.face_jac[a] * basis.face_quad_w * self.abs_bn[a][fi]
            for (a, s), fi in self.fidx.items()
        }
        self.lift_coef = {key: ((0, 1.0),) for key in self.lift_w}
        self.load = (problem.forcing, (0,))

        # boundary classification
        self.inflow_blocks = []       # (axis, face_ids, elements, side)
        self.outflow_blocks = []      # (axis, face_ids, elements, side)
        for (a, side), (fid, els, osign) in self._bnd_faces.items():
            labels = classify_boundary_face(osign * self.bn[a][fid])
            inflow = labels == INFLOW
            # characteristic faces take the outflow rule
            for blocks, sel in ((self.inflow_blocks, inflow),
                                (self.outflow_blocks, ~inflow)):
                if sel.any():
                    blocks.append((a, fid[sel], els[sel], side))
        if problem.inflow is None and self.inflow_blocks:
            raise AssemblyError("problem has inflow faces but no inflow data")

        shared = bool(problem.constant_velocity)
        # element 0's operator serves every element only if beta.n does
        if shared and any(np.any(bn != bn[0]) for bn in self.bn):
            raise AssemblyError("constant_velocity is declared, but beta.n "
                                "is not the same on every face")
        self._inflow_cache = {}
        self._assemble(shared)

    def _sample_faces(self, fn, args, axis, faces):
        """fn(points, *args) at the quadrature points of the given faces of
        one axis, evaluated in blocks (evaluate_blocked)."""
        mesh, basis = self.mesh, self.basis
        return evaluate_blocked(
            fn, args,
            lambda lo, hi: mesh.face_quad_points(axis, basis, faces[lo:hi]),
            len(faces), basis.n_fq,
        )

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
        for a in range(d):
            for s in (0, 1):
                bn_el = self.bn[a][self.fidx[(a, s)][els]]
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

    def inflow_trace(self, trace, t=0.0):
        """Write the L2 projection of the inflow data onto inflow faces.

        The projections are cached per time value: every pass of a solve
        rebuilds the trace at the same t. The inflow faces' quadrature
        points are formed only on a cache miss and not kept.
        """
        proj = self._inflow_cache.get(t)
        if proj is None:
            proj = []
            for a, fid, _els, _side in self.inflow_blocks:
                g = self._sample_faces(self.problem.inflow, (t,), a, fid)
                proj.append(g @ self.basis.face_proj.T)
            self._inflow_cache = {t: proj}
        for (a, fid, _els, _side), g in zip(self.inflow_blocks, proj):
            trace[a][fid] = g

    def update_trace(self, u, trace_out, t=0.0):
        """Rebuild the skeleton trace from element solutions.

        Interior faces take the upwind average, formed pointwise at the face
        quadrature points and projected onto the face space. Each side's
        face values are read from its face nodes alone: the other GLL basis
        functions vanish on the face. Inflow faces take the boundary data
        projection; outflow and characteristic faces copy the interior
        trace.
        """
        mesh, basis = self.mesh, self.basis
        for a in range(mesh.dim):
            fid, minus, plus = self._int_faces[a]
            nid_hi = basis.face_node_ids[(a, 1)]
            nid_lo = basis.face_node_ids[(a, 0)]
            um = u[minus[:, None], nid_hi] @ basis.face_eval.T
            up = u[plus[:, None], nid_lo] @ basis.face_eval.T
            s = self.sgn[a][fid]
            uh = 0.5 * ((um + up) + s * (um - up))
            trace_out[a][fid] = uh @ basis.face_proj.T
        self.inflow_trace(trace_out, t)
        for a, fid, els, side in self.outflow_blocks:
            nid = basis.face_node_ids[(a, side)]
            trace_out[a][fid] = u[els[:, None], nid]

    def interpolate_exact(self, t=0.0):
        """Nodal interpolant of the exact solution (perfbench/gate.py
        calls it by this name)."""
        if self.problem.exact is None:
            raise ValueError("problem has no exact solution")
        return self.interpolate(self.problem.exact, t)
