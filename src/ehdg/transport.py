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
polynomial space.

This module also holds what the shallow water operators share with these:
the LocalOperators base class, the skeleton TraceField and the chunked
assembly of local inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import driver
from .mesh import INFLOW, classify_boundary_face

# elements per block of the batched local solve, and the most elements one
# assembly chunk takes
ASSEMBLY_CHUNK = 256
# most bytes of local matrices one assembly chunk builds and inverts: 67
# elements at 125 x 125 (3D p=4), a full ASSEMBLY_CHUNK at 25 x 25 (2D p=4)
ASSEMBLY_BYTES = 8 * 2**20
# most points one call of a case callable receives (evaluate_blocked)
SAMPLE_POINTS = 2**14


class AssemblyError(Exception):
    pass


def assembly_chunk(width):
    """Elements per assembly chunk of width x width local matrices: as many
    as ASSEMBLY_BYTES holds, at least one and at most ASSEMBLY_CHUNK."""
    return max(1, min(ASSEMBLY_CHUNK, ASSEMBLY_BYTES // (8 * width * width)))


def assemble_inverses(matrices, n_el, width):
    """Explicit inverses of the width x width local matrices
    matrices(elements) for elements 0 .. n_el - 1.

    The matrices are built and inverted one assembly_chunk(width) of
    elements at a time, so the temporaries of a chunk stay within a few
    ASSEMBLY_BYTES whatever the mesh. Each inverse depends on its own
    element alone, so the result is the same for any chunk size. The
    inverses are kept rather than LU factors because a batched inverse
    matvec is much cheaper per pass than a batched triangular solve.
    """
    a_inv = np.empty((n_el, width, width))
    chunk = assembly_chunk(width)
    for start in range(0, n_el, chunk):
        stop = min(start + chunk, n_el)
        A = matrices(np.arange(start, stop))
        try:
            a_inv[start:stop] = np.linalg.inv(A)
        except np.linalg.LinAlgError as err:
            raise AssemblyError(f"singular local operator: {err}") from err
        if not np.all(np.isfinite(a_inv[start:stop])):
            raise AssemblyError("non-finite local operator inverse")
    return a_inv


def evaluate_blocked(fn, args, points, n, per):
    """fn(X, *args) over items 0 .. n - 1 of per points each, with X the
    flattened points(lo, hi), the (hi - lo, per, dim) coordinates of items
    lo .. hi - 1.

    fn sees at most SAMPLE_POINTS points per call (one item's per points
    when that is more), so its temporaries do not grow with the mesh; fn
    must be pointwise for the blocks to add up to one whole-array call.
    The values go into one array of shape (n, per) plus the trailing shape
    of fn's values.
    """
    step = max(1, SAMPLE_POINTS // per)
    out = None
    # one empty call when n is 0, so the result still has fn's value shape
    for lo in range(0, max(n, 1), step):
        hi = min(lo + step, n)
        X = points(lo, hi)
        vals = np.asarray(fn(X.reshape(-1, X.shape[-1]), *args))
        vals = vals.reshape(hi - lo, per, *vals.shape[1:])
        if out is None:
            out = np.empty((n, per, *vals.shape[2:]), dtype=vals.dtype)
        out[lo:hi] = vals
    return out


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
    name: str = "transport"


@dataclass
class TraceField:
    """Single-valued skeleton data, one nodal array per face-normal axis.

    data[a] has shape (n_faces_axis, n_face) over all planes of axis a,
    boundary planes included.
    """

    data: list

    @classmethod
    def zeros(cls, mesh, basis):
        return cls(
            data=[
                np.zeros((mesh.n_faces_axis[a], basis.n_face))
                for a in range(mesh.dim)
            ]
        )


class LocalOperators:
    """The contract the fixed-point driver runs on, and what every physics
    shares.

    An instance holds the explicit inverses of its element-local operators
    (a_inv: one per element, or one shared by all) and the face data of its
    trace rule. A state row is the nodal values of each of the class's
    fields in turn. The base class supplies the state width, zero state,
    field split and nodal interpolation, the batched local solve, the
    element-to-face index and interior-face lists, trace construction and
    the sampling of case callables at element points. Each physics names
    its fields and supplies element_matrix(elements), source(t,
    state_prev), rhs(trace, source), update_trace(state, trace_out, t) and
    pass_norms(t, state), and sets shared and a_inv (assemble_inverses);
    the driver calls nothing else.

    dt is None (steady) or the backward-Euler step, positive and finite.
    """

    fields = ("u",)

    def __init__(self, mesh, basis, problem, dt):
        if dt is not None and not (dt > 0 and math.isfinite(dt)):
            raise AssemblyError(
                f"the time step must be positive and finite, got {dt}")
        self.mesh = mesh
        self.basis = basis
        self.problem = problem
        self.dt = dt
        self.n_p = basis.n_p
        self.state_width = len(self.fields) * basis.n_p
        self.mass_phys = mesh.jac * basis.mass_ref
        self.load_vec = mesh.jac * (basis.eval_vol.T * basis.quad_w)
        # element -> face index of each element's side s face, per axis
        self.fidx = {(a, s): mesh.face_index(a, s)
                     for a in range(mesh.dim) for s in (0, 1)}
        # (face_ids, minus_elements, plus_elements) per axis
        self._int_faces = [mesh.interior_faces(a) for a in range(mesh.dim)]
        # element worker pool of solve_cells and its worker count
        self._pool = None
        self._pool_workers = None

    def zero_state(self):
        return np.zeros((self.mesh.n_el, self.state_width))

    def split(self, state):
        """The column blocks of state rows, one per field, as views."""
        n = self.n_p
        return tuple(state[:, i * n : (i + 1) * n]
                     for i in range(len(self.fields)))

    def interpolate(self, fn, t=0.0):
        """Nodal interpolant of fn(points, t), whose values are (N,) for
        one field and (N, n_fields) otherwise, in the order of fields."""
        vals = self.sample(fn, t, nodes=True)
        vals = vals.reshape(self.mesh.n_el, self.n_p, len(self.fields))
        state = self.zero_state()
        for i, part in enumerate(self.split(state)):
            part[:] = vals[:, :, i]
        return state

    def sample(self, fn, *args, nodes=False, elements=None):
        """fn(points, *args) at the volume quadrature points (the nodes with
        nodes=True) of every element, or of the given elements. The result
        has shape (n_elements, n_points) plus the trailing shape of fn's
        values. fn is called on element blocks (evaluate_blocked)."""
        mesh, basis = self.mesh, self.basis
        centers = mesh.centers if elements is None else mesh.centers[elements]
        ref = basis.ref_nodes if nodes else basis.quad_ref
        return evaluate_blocked(
            fn, args,
            lambda lo, hi: centers[lo:hi, None, :] + mesh.half * ref[None],
            len(centers), len(ref),
        )

    def solve_cells(self, rhs, out=None, workers=1):
        """Batched application of the factorized local operators.

        Elements go in ASSEMBLY_CHUNK blocks, each written to its own rows
        of out, so the result is the same for any worker count. With
        workers > 1 and more than one block, the blocks run on the pool of
        _executor; its threads run the numpy kernels only.
        """
        if out is None:
            out = np.empty_like(rhs)
        if self.shared:
            np.matmul(rhs, self.a_inv[0].T, out=out)
            return out
        chunks = [
            (s, min(s + ASSEMBLY_CHUNK, self.mesh.n_el))
            for s in range(0, self.mesh.n_el, ASSEMBLY_CHUNK)
        ]

        def run(chunk):
            s, e = chunk
            np.matmul(
                self.a_inv[s:e], rhs[s:e, :, None], out=out[s:e, :, None]
            )

        if workers > 1 and len(chunks) > 1:
            list(self._executor(workers).map(run, chunks))
        else:
            for c in chunks:
                run(c)
        return out

    def _executor(self, workers):
        """One thread pool for every pass and time level of this operator
        set, built on first use; a new worker count replaces it and shuts
        the old one down. Its threads exit when the operators are freed."""
        if self._pool_workers != workers:
            # imported here, so a run without a pool does not load it
            from concurrent import futures

            if self._pool is not None:
                self._pool.shutdown()
            self._pool = futures.ThreadPoolExecutor(max_workers=workers)
            self._pool_workers = workers
        return self._pool

    def new_trace(self):
        return TraceField.zeros(self.mesh, self.basis)

    def initial_trace(self, state, t=0.0):
        tr = self.new_trace()
        self.update_trace(state, tr, t)
        return tr


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
        if problem.dim != d:
            raise AssemblyError("problem/mesh dimension mismatch")

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
        # skeleton norm
        self.lift_w = {
            (a, s): mesh.face_jac[a] * basis.face_quad_w * self.abs_bn[a][fi]
            for (a, s), fi in self.fidx.items()
        }

        # boundary classification
        self.inflow_blocks = []       # (axis, face_ids, elements, side)
        self.outflow_blocks = []      # (axis, face_ids, elements, side)
        for a in range(d):
            for side in (0, 1):
                fid, els, osign = mesh.boundary_faces(a, side)
                labels = classify_boundary_face(osign * self.bn[a][fid])
                inflow = labels == INFLOW
                # characteristic faces take the outflow rule
                for blocks, sel in ((self.inflow_blocks, inflow),
                                    (self.outflow_blocks, ~inflow)):
                    if sel.any():
                        blocks.append((a, fid[sel], els[sel], side))
        if problem.inflow is None and self.inflow_blocks:
            raise AssemblyError("problem has inflow faces but no inflow data")

        self.shared = bool(problem.constant_velocity)
        n = 1 if self.shared else mesh.n_el
        self.a_inv = assemble_inverses(self.element_matrix, n, basis.n_p)
        self._inflow_cache = {}

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

    def load_vector(self, t=0.0):
        """(f, v)_K load for every element at time t."""
        if self.problem.forcing is None:
            return None
        return self.sample(self.problem.forcing, t) @ self.load_vec.T

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
            trace.data[a][fid] = g

    def source(self, t=0.0, state_prev=None):
        """Trace-independent part of every local right-hand side: the load
        plus, for a transient step, mass . state_prev / dt. It is fixed for
        a whole solve at one time level."""
        out = self.zero_state()
        load = self.load_vector(t)
        if load is not None:
            out += load
        if self.dt is not None:
            if state_prev is None:
                raise ValueError("transient rhs needs the previous state")
            out += (state_prev @ self.mass_phys.T) / self.dt
        return out

    def rhs(self, trace, source):
        """Right-hand sides of every local solve: source (see source())
        plus the lift of the given trace field."""
        basis = self.basis
        out = source.copy()
        for a in range(self.mesh.dim):
            for s in (0, 1):
                uh_q = trace.data[a][self.fidx[(a, s)]] @ basis.face_eval.T
                out += (self.lift_w[(a, s)] * uh_q) @ basis.face_restrict[(a, s)]
        return out

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
            trace_out.data[a][fid] = uh @ basis.face_proj.T
        self.inflow_trace(trace_out, t)
        for a, fid, els, side in self.outflow_blocks:
            nid = basis.face_node_ids[(a, side)]
            trace_out.data[a][fid] = u[els[:, None], nid]

    def pass_norms(self, t, u):
        # the transport norms live in ehdg.driver, where perfbench/tracer.py
        # wraps transport_skeleton_norm and its siblings by name
        return driver.TransportNorms(self, t, u)

    def interpolate_exact(self, t=0.0):
        """Nodal interpolant of the exact solution (perfbench/gate.py
        calls it by this name)."""
        if self.problem.exact is None:
            raise ValueError("problem has no exact solution")
        return self.interpolate(self.problem.exact, t)
