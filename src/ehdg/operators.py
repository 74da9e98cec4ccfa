"""The operator contract of the fixed-point driver (LocalOperators, which
each physics module subclasses), the chunked assembly of local inverses and
the element blocks of the sampling of case callables, the per-level work and
the lift, with the budgets on their temporaries.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import mesh as mesh_module

# elements (or faces) per block of the sampling, the per-level work, the
# lift and the pooled batched local solve, and the most elements one
# assembly chunk takes
ASSEMBLY_CHUNK = 256
# narrowest local operators whose batched solve runs on the thread pool:
# from width 75 up the pool won or tied in every timed sweep, at 64 and
# below it lost in some (README, Threads)
POOL_MIN_WIDTH = 65
# most bytes of local matrices one assembly chunk builds and inverts: 67
# elements at 125 x 125 (3D p=4), a full ASSEMBLY_CHUNK at 25 x 25 (2D p=4)
ASSEMBLY_BYTES = 8 * 2**20


class AssemblyError(Exception):
    pass


class OperatorSizeError(AssemblyError):
    """Per-element local inverses that would not fit in physical memory."""


def usable_cpus():
    """The CPUs this process may run on, as nproc counts them."""
    return len(os.sched_getaffinity(0))


def assembly_chunk(width):
    """Elements per assembly chunk of width x width local matrices: as many
    as ASSEMBLY_BYTES holds, at least one and at most ASSEMBLY_CHUNK."""
    return max(1, min(ASSEMBLY_CHUNK, ASSEMBLY_BYTES // (8 * width * width)))


def element_blocks(n_el):
    """The (start, stop) ranges of ASSEMBLY_CHUNK consecutive elements (or
    faces), the last one short, that cover items 0 .. n_el - 1 in order:
    the blocks of the sampling of case callables, the per-level work and
    the lift, whose temporaries then do not grow with the mesh."""
    return [(s, min(s + ASSEMBLY_CHUNK, n_el))
            for s in range(0, n_el, ASSEMBLY_CHUNK)]


def assemble_inverses(matrices, n_el, width, order=None, keep=None,
                      rhs=None):
    """Explicit inverses of the width x width local matrices
    matrices(elements) for elements 0 .. n_el - 1, each stored transposed
    with its rows in the given order (0 .. width - 1 when None): row i of
    element e is column order[i] of the inverse of matrices([e]). With keep,
    only the leading keep rows of each are kept, and a_inv has shape
    (n_el, keep, width).

    A local solve A^-1 r is then r[order] @ a_inv[e], a sum of rows, and a
    right-hand side that is zero outside its first k entries of order reads
    only the contiguous leading k x width run of a_inv[e]
    (LocalOperators.solve_cells).

    rhs, one (n_el, width) state row per element, is overwritten with the
    local solutions A^-1 rhs. Each element's is formed while its chunk's
    whole inverses are in hand, by the product solve_cells forms on whole
    inverses, rhs[e, order] @ (all width rows of element e): the same bits
    as solve_cells(rhs) on inverses kept whole, whatever keep is.

    The matrices are built and inverted one assembly_chunk(width) of
    elements at a time, so the temporaries of a chunk stay within a few
    ASSEMBLY_BYTES whatever the mesh. Each chunk inverts the transposed
    matrices and takes the rows straight into its part of a_inv, so the
    reordered store adds no chunk-sized copy. When rows are dropped, the
    whole rows go into the chunk's matrices instead, which are not read
    again (matrices returns a new C-ordered array on every call), and the
    kept ones are copied from there. Each inverse depends on its own
    element alone, so the result is the same for any chunk size. The
    inverses are kept rather than LU factors because a batched inverse
    matvec is much cheaper per pass than a batched triangular solve.
    """
    order = np.arange(width) if order is None else np.asarray(order)
    keep = width if keep is None else keep
    a_inv = np.empty((n_el, keep, width))
    chunk = assembly_chunk(width)
    for start in range(0, n_el, chunk):
        stop = min(start + chunk, n_el)
        A = matrices(np.arange(start, stop))
        try:
            # inv(A.T) is inv(A).T
            inv_t = np.linalg.inv(A.transpose(0, 2, 1))
        except np.linalg.LinAlgError as err:
            raise AssemblyError(f"singular local operator: {err}") from err
        # the chunk's matrices are not read again, so they make room for
        # its whole reordered inverses when only some rows are kept
        rows = a_inv[start:stop] if keep == width else A
        np.take(inv_t, order, axis=1, out=rows, mode="clip")
        # inv_t goes before the next chunk's matrices are built. Freeing A
        # here too takes another chunk off the traced temporaries, but the
        # 3D p=4 nel=16 set-up then measured slower (4.3 against 3.7 s,
        # median of 4 runs), most likely because the allocator returns the
        # freed chunks to the system and faults them in again every chunk
        del inv_t
        if not np.all(np.isfinite(rows)):
            raise AssemblyError("non-finite local operator inverse")
        if rhs is not None:
            # reordered per chunk into contiguous rows, as solve_cells
            # reorders it per block: each element's vector then has the
            # same strides in both, and BLAS the same summation order
            ordered = np.take(rhs[start:stop], order, axis=1)
            np.matmul(ordered[:, None], rows, out=rhs[start:stop, None])
        if keep < width:
            a_inv[start:stop] = rows[:, :keep]
    return a_inv


def evaluate_blocked(fn, args, points, n, per):
    """fn(X, *args) over items 0 .. n - 1 of per points each, with
    points(lo, hi) the (dim, hi - lo, per) coordinates of items lo .. hi - 1,
    built axis-major.

    fn receives them as one (N, dim) array X with contiguous columns: the
    transpose of the flattened block, made contiguous first if it is not.
    Every X[:, a] is then a contiguous vector; fn must not assume C order.
    fn is called once per block of element_blocks(n), so its temporaries do
    not grow with the mesh, and once on no items when n is 0, so the result
    still has fn's value shape; fn must be pointwise for the blocks to add
    up to one whole-array call. The values go into one array of shape
    (n, per) plus the trailing shape of fn's values.
    """
    out = None
    for lo, hi in element_blocks(n) or [(0, 0)]:
        X = np.ascontiguousarray(points(lo, hi))
        vals = np.asarray(fn(X.reshape(len(X), -1).T, *args))
        vals = vals.reshape(hi - lo, per, *vals.shape[1:])
        if out is None:
            out = np.empty((n, per, *vals.shape[2:]), dtype=vals.dtype)
        out[lo:hi] = vals
    return out


class LocalOperators:
    """The contract the fixed-point driver runs on, and what every physics
    shares.

    An instance holds the explicit inverses of its element-local operators
    (a_inv: one per element, or one shared by all) and the face data of its
    trace rule. A state row is the nodal values of each of the class's
    fields in turn. The trace lift reaches only the state columns of face
    nodes (lifted), so each inverse is stored transposed with the rows of
    those columns first (assemble_inverses): a pass adds A^-1[:, lifted]
    times the lift (rhs) to the local solution of the source (solve_source,
    once per level), and reads only those rows. Steady per-element
    operators keep only those rows and solve the source of their one level
    during assembly (_assemble). The base class supplies the state width,
    zero state, field split and nodal interpolation, the batched local
    solves, trace construction, the sampling of case callables at element
    and face points, the source, the boundary data, the trace lift (rhs),
    the pass (apply_pass) and the norms. A trace is one
    (mesh.n_faces, n_face) array of the nodal values of every face, read
    through mesh.etof. Each physics names its fields, supplies
    element_matrix(elements) and update_trace(state, trace_out), which
    writes every face but those of boundary, ends its __init__ with
    _assemble(shared), and gives as data:

      energy       per-field weights of the backward-Euler time term, in
                   field order; they define the energy norm;
      load         (fn, load_fields): load field j takes the load of value
                   j of fn(points, t); fn None loads nothing;
      boundary     (fn, faces): the faces that take the L2 projection of
                   fn(points, t) (boundary_trace), once per time level;
      face_w       face weights at the face quadrature points: one
                   (mesh.n_faces, n_fq) array, each face's row shared by
                   both of its element sides;
      lift_coef    (field, coefficient) pairs, by (axis, side): each field
                   takes coefficient times the lifted trace.

    The driver calls nothing else.

    The mesh, basis and problem must have one dimension. dt is None
    (steady) or the backward-Euler step, positive and finite.
    """

    fields = ("u",)
    energy = (1.0,)

    def __init__(self, mesh, basis, problem, dt):
        if not basis.dim == problem.dim == mesh.dim:
            raise AssemblyError(
                f"dimension mismatch: mesh {mesh.dim}, basis {basis.dim}, "
                f"problem {problem.dim}")
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
        # the norms' coordinates, from the complete QR sqrt(quad_w)
        # eval_vol = Q R: R's first n_p rows (_vol_r) map nodal values to
        # coordinates, and sqrt(quad_w) Q (_sample_q) maps values at the
        # quadrature points to coordinates followed by those of the rest
        root_w = np.sqrt(basis.quad_w)
        Q, R = np.linalg.qr(root_w[:, None] * basis.eval_vol, mode="complete")
        self._vol_r = R[: self.n_p]
        self._sample_q = root_w[:, None] * Q
        # the element sides (a, s) in etof column order
        self._sides = [(a, s) for a in range(mesh.dim) for s in (0, 1)]
        # thread pool of solve_cells, built on first use (_executor)
        self._pool = None

    def _assemble(self, shared):
        """Set shared, the lifted columns, a_inv, the trace lift of rhs
        (_lift), for folded weights the skeleton norm's factor
        (_skeleton_factor), and for a shared set with a time step the
        folded backward-Euler term C of solve_source (_fold_time_term).

        The weights fold when every face of each axis carries the same
        face_w row: element 0's rows then go into _lift and the factor,
        and face_w is set to None. Otherwise face_w is kept, and rhs and
        skeleton_norm read it per face.

        The lifted columns (lifted) are the state columns the trace lift
        reaches, the nonzero columns of the stacked lift, which _lift
        holds on them alone (_lift_matrix). a_inv holds the inverses of
        element_matrix (element 0's alone when shared, every element's
        otherwise) in the layout of assemble_inverses, with the rows in
        the order of lifted followed by the other columns (_order).

        Steady per-element operators (not shared, dt None) keep only the
        len(lifted) rows a pass reads, so a_inv has shape
        (n_el, len(lifted), width). A steady solve has one level, at t = 0,
        so its source is solved during assembly, while each chunk's whole
        inverses are in hand, and kept for solve_source. Every other set
        keeps whole inverses and solves the source of each level then.

        Per-element inverses whose kept bytes, 8 * n_el * rows * width,
        exceed physical memory raise OperatorSizeError before the first
        element_matrix call."""
        self.shared = shared
        # element 0's row of each side, in etof column order
        rows = self.face_w[self.mesh.etof[0]]
        axis = self.mesh.face_axis
        if all(np.all(self.face_w[axis == a] == rows[2 * a])
               for a in range(self.mesh.dim)):
            self.face_w = None
        self._lift, self.lifted = self._lift_matrix(rows)
        rest = np.delete(np.arange(self.state_width), self.lifted)
        self._order = np.concatenate([self.lifted, rest])
        n = 1 if shared else self.mesh.n_el
        # a steady solve has one level, so per-element steady inverses keep
        # only the rows a pass reads, and the source is solved here
        steady = not shared and self.dt is None
        keep = len(self.lifted) if steady else self.state_width
        # per-element inverses that cannot fit are refused before any is
        # built; one shared inverse is never refused
        if not shared:
            need = 8 * n * keep * self.state_width
            have = mesh_module.physical_memory()
            if need > have:
                raise OperatorSizeError(
                    f"per-element local operators of {n} elements need "
                    f"{need} bytes of inverses (a_inv), more than the "
                    f"{have} bytes of physical memory")
        self._source_solution = self.source(0.0) if steady else None
        self.a_inv = assemble_inverses(self.element_matrix, n,
                                       self.state_width, self._order, keep,
                                       self._source_solution)
        if steady:
            self._source_solution.flags.writeable = False
        self._previous_solve = (self._fold_time_term()
                                if shared and self.dt is not None else None)
        if self.face_w is None:
            self._skeleton_s = self._skeleton_factor(rows)
        # per-face weights: the weighted trace at the face quadrature
        # points, written by every rhs call (built on its first)
        self._weighted = None
        # the lift of apply_pass, written by every pass (built on its first)
        self._pass_lift = None

    def _fold_time_term(self):
        """C, with state_prev @ C the local solution of the backward-Euler
        term of the source (source) under the one shared inverse: the
        block-diagonal map of state_prev to that term, each field's block
        energy[i] * mass_phys.T / dt, times a_inv[0] in its row order."""
        width, n = self.state_width, self.n_p
        term = np.zeros((width, width))
        for i, e in enumerate(self.energy):
            term[i * n:(i + 1) * n, i * n:(i + 1) * n] = (
                e * self.mass_phys.T / self.dt)
        return term[:, self._order] @ self.a_inv[0]

    def _skeleton_factor(self, rows):
        """S with S.T @ S = K, the skeleton norm's Gram matrix under folded
        weights: K is the sum over the sides (a, s) of
        face_restrict.T @ diag(w) @ face_restrict, w the side's row.

        K is zero outside the nodes of the faces with nonzero weight, and
        positive definite on them (each such face's mass matrix is), so S
        is the transposed Cholesky factor of that block, in its columns.
        """
        K = np.zeros((self.n_p, self.n_p))
        for key, w in zip(self._sides, rows):
            R = self.basis.face_restrict[key]
            K += R.T @ (w[:, None] * R)
        nodes = np.flatnonzero(np.diag(K))
        S = np.zeros((len(nodes), self.n_p))
        S[:, nodes] = np.linalg.cholesky(K[np.ix_(nodes, nodes)]).T
        return S

    def _lift_matrix(self, rows):
        """The stacked trace lift: one row block per side (a, s), in etof
        column order, with each lift_coef folded into its field's columns.

        Folded weights (face_w None) fold the face evaluation and the
        side's row w of rows in too: block (a, s) is
        (face_eval.T * w) @ face_restrict[(a, s)], whose n_face rows take
        the face's nodal trace. Per-face weights leave block (a, s) as
        face_restrict[(a, s)], whose n_fq rows take the weighted trace at
        the face quadrature points.

        Returns the matrix on its nonzero columns alone, and those columns.
        """
        basis = self.basis
        blocks = []
        for key, w in zip(self._sides, rows):
            R = basis.face_restrict[key]
            if self.face_w is None:
                R = (basis.face_eval.T * w) @ R
            block = np.zeros((len(R), self.state_width))
            parts = self.split(block)
            for i, c in self.lift_coef[key]:
                part = parts[i]
                part += c * R
            blocks.append(block)
        L = np.vstack(blocks)
        lifted = np.flatnonzero(np.any(L != 0, axis=0))
        return np.ascontiguousarray(L[:, lifted]), lifted

    def _node_index(self, elements, sides, field=0):
        """Indices into a flattened state of the face nodes of the given
        element sides (etof columns) in the given field, one row of n_face
        per element; sides and field are one value or one per element."""
        nodes = np.array([self.basis.face_node_ids[k] for k in self._sides])
        first = elements * self.state_width + field * self.n_p
        return first[:, None] + nodes[sides]

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
        values. fn is called once per element block of the selection
        (evaluate_blocked)."""
        mesh, basis = self.mesh, self.basis
        centers = mesh.centers if elements is None else mesh.centers[elements]
        ref = basis.ref_nodes if nodes else basis.quad_ref
        # the offsets from the center, one contiguous row per axis
        scaled = mesh.half[:, None] * ref.T

        def points(lo, hi):
            # one axis at a time, each a contiguous (hi - lo, n_points) add
            X = np.empty((mesh.dim, hi - lo, len(ref)))
            for a in range(mesh.dim):
                np.add(centers[lo:hi, a, None], scaled[a], out=X[a])
            return X

        return evaluate_blocked(fn, args, points, len(centers), len(ref))

    def _sample_faces(self, fn, args, faces):
        """fn(points, *args) at the quadrature points of the given faces,
        evaluated once per block of faces (evaluate_blocked) on axis-major
        points."""
        mesh, basis = self.mesh, self.basis
        return evaluate_blocked(
            fn, args,
            lambda lo, hi: np.moveaxis(
                mesh.face_quad_points(basis, faces[lo:hi]), -1, 0),
            len(faces), basis.n_fq,
        )

    def solve_cells(self, rhs, out=None, base=None):
        """Batched local solves A^-1 r of every element.

        Without base, rhs is a whole right-hand side, one state row per
        element, and the result is A^-1 rhs. With base, rhs holds the
        lifted columns alone (rhs's result, in the order of lifted), and
        the result is base + A^-1[:, lifted] rhs: each element reads only
        the leading len(lifted) rows of its a_inv. Steady per-element
        operators keep only those rows, so without base they raise
        ValueError.

        Elements go in blocks of element_blocks, each written to its own
        rows of out. A whole right-hand side is reordered into the row
        order of a_inv one block at a time, so no mesh-sized copy of it
        is made, and out may then be rhs itself: a block's rows are copied
        before they are overwritten. A pass (with base) goes in one block
        unless the pool of _executor runs the blocks; its threads run the
        numpy kernels only. A per-element product is computed for each
        element on its own, so its result is the same for any blocks and
        whichever thread runs them; a shared product is one GEMM per block.
        """
        if base is None and self._source_solution is not None:
            raise ValueError(
                "steady per-element operators keep only the lifted rows "
                "of their inverses: solve_cells needs a base, and the "
                "source's solution comes from solve_source")
        n_el = len(rhs)
        if out is None:
            out = np.empty((n_el, self.state_width))
        k = rhs.shape[1]
        blocks = element_blocks(n_el)
        pool = None if self.shared else self._executor(len(blocks))
        if base is not None and pool is None:
            blocks = [(0, n_el)]

        def run(block):
            s, e = block
            r = rhs[s:e]
            if base is None:
                # contiguous rows, in the order of a_inv's rows
                r = np.take(r, self._order, axis=1)
            if self.shared:
                np.matmul(r, self.a_inv[0, :k], out=out[s:e])
            else:
                # (1, k) @ (k, width) per element: a sum of a_inv's
                # leading rows
                np.matmul(r[:, None], self.a_inv[s:e, :k],
                          out=out[s:e, None])
            if base is not None:
                out[s:e] += base[s:e]

        if pool is None:
            for block in blocks:
                run(block)
        else:
            list(pool.map(run, blocks))
        return out

    def solve_source(self, t=0.0, state_prev=None, out=None):
        """The local solution A^-1 source(t, state_prev) of every element,
        to which each pass of a solve at time t adds the solution of its
        lift (solve_cells with base), written into out when given.

        Steady per-element operators solved it during assembly, the one
        level of a steady solve being at t = 0, and return that array
        (read-only) on every call, whatever out is; any other t raises
        ValueError. Other per-element sets solve the source here, in place
        of the source (solve_cells), so a level holds one array for both.
        A shared set folds its backward-Euler term into C (_assemble):
        the solution is state_prev @ C, one GEMM (zero for a steady set),
        plus the load solved one element block at a time, and solve_cells
        is not called.
        """
        if self._source_solution is not None:
            if t != 0:
                raise ValueError(
                    "steady per-element operators solved their source at "
                    f"t = 0 during assembly, not at t = {t}")
            return self._source_solution
        if not self.shared:
            source = self.source(t, state_prev, out=out)
            return self.solve_cells(source, out=source)
        self._check_previous(state_prev)
        if out is None:
            out = np.empty((self.mesh.n_el, self.state_width))
        if self.dt is None:
            out[...] = 0.0
        else:
            np.matmul(state_prev, self._previous_solve, out=out)
        if self.load[0] is not None:
            rows = np.empty((ASSEMBLY_CHUNK, self.state_width))
            for s, e in element_blocks(len(out)):
                load = rows[: e - s]
                load[...] = 0.0
                self._add_load(load, s, e, t)
                out[s:e] += np.take(load, self._order, axis=1) @ self.a_inv[0]
        return out

    def _executor(self, n_chunks):
        """The thread pool for n_chunks blocks of per-element solves, or
        None to run them in the calling thread.

        The pool runs when there is more than one block, the process may
        use more than one CPU and the local operators are at least
        POOL_MIN_WIDTH wide. It has one thread per usable CPU, is built on
        first use and serves every later pass and time level of this
        operator set; its threads exit when the operators are freed.
        """
        cpus = usable_cpus()
        if n_chunks < 2 or cpus < 2 or self.state_width < POOL_MIN_WIDTH:
            return None
        if self._pool is None:
            # imported here, so a run without a pool does not load it
            from concurrent import futures

            self._pool = futures.ThreadPoolExecutor(max_workers=cpus)
        return self._pool

    def new_trace(self):
        return np.zeros((self.mesh.n_faces, self.basis.n_face))

    def boundary_trace(self, trace, t=0.0):
        """Write the L2 projection of the boundary data at time t onto the
        faces of boundary, sampled and projected one block of faces
        (element_blocks) at a time straight into trace. No face quadrature
        points are kept."""
        fn, faces = self.boundary
        for lo, hi in element_blocks(len(faces)):
            g = self._sample_faces(fn, (t,), faces[lo:hi])
            trace[faces[lo:hi]] = g @ self.basis.face_proj.T

    def initial_trace(self, state, t=0.0, out=None):
        """The trace of a level at time t, written into out when given: the
        boundary data, and every other face rebuilt from state."""
        tr = self.new_trace() if out is None else out
        self.boundary_trace(tr, t)
        self.update_trace(state, tr)
        return tr

    def _check_previous(self, state_prev):
        if self.dt is not None and state_prev is None:
            raise ValueError("a time step needs the previous state")

    def _add_load(self, rows, s, e, t):
        """Add the load at time t of elements s .. e - 1 to their rows,
        sampled on those elements alone."""
        fn, load_fields = self.load
        if fn is None:
            return
        parts = self.split(rows)
        vals = self.sample(fn, t, elements=np.arange(s, e))
        vals = vals.reshape(e - s, -1, len(load_fields))
        for j, i in enumerate(load_fields):
            part = parts[i]
            part += vals[:, :, j] @ self.load_vec.T

    def source(self, t=0.0, state_prev=None, out=None):
        """Trace-independent part of every local right-hand side, fixed for
        a whole solve at one time level: the load of each load field at
        time t plus, for a time step, each field's backward-Euler term
        energy[i] * mass . state_prev_i / dt. Written into out when given.

        The result is the one mesh-sized array. It is filled one element
        block (element_blocks) at a time: the block's rows are zeroed, the
        load is sampled on the block's elements alone, and each block's
        products are added straight into its rows, so the temporaries do
        not grow with the mesh."""
        self._check_previous(state_prev)
        # zeroed block by block rather than by np.zeros: the first touch of
        # a page is then a write, where reading fresh zero pages before
        # writing them faults each page twice
        if out is None:
            out = np.empty((self.mesh.n_el, self.state_width))
        n_f = len(self.fields)
        energy = np.asarray(self.energy)[:, None]
        for s, e in element_blocks(len(out)):
            out[s:e] = 0.0
            self._add_load(out[s:e], s, e, t)
            if self.dt is not None:
                # every field's mass product in one: a state row is its
                # fields' nodal values in turn
                prev = state_prev[s:e].reshape(-1, self.n_p)
                term = (prev @ self.mass_phys.T).reshape(e - s, n_f, -1)
                term *= energy
                term /= self.dt
                out[s:e] += term.reshape(e - s, -1)
        return out

    def rhs(self, trace, out=None):
        """The lift of the given trace field into every local right-hand
        side, on the lifted columns alone: one (n_el, len(lifted)) array,
        written into out when given, whose column j belongs to state column
        lifted[j]. Every other column of the lift is zero. A local solve
        adds the source's own solution (solve_source, as solve_cells' base).

        The lift is a gather and a product per element block
        (element_blocks): each element's face values are taken through
        mesh.etof, side by side in etof column order, into one block-sized
        buffer, and multiplied by the stacked lift matrix (_lift) straight
        into the block's rows. The face values are the nodal trace when the
        weights are folded in, and otherwise the trace at the face
        quadrature points times face_w, formed once per face into one
        buffer (_weighted) that every call rewrites.
        """
        faces = trace
        if self.face_w is not None:
            if self._weighted is None:
                self._weighted = np.empty_like(self.face_w)
            faces = np.matmul(trace, self.basis.face_eval.T,
                              out=self._weighted)
            faces *= self.face_w
        etof = self.mesh.etof
        if out is None:
            out = np.empty((len(etof), self._lift.shape[1]))
        blocks = element_blocks(len(etof))
        gathered = np.empty((blocks[0][1],) + etof.shape[1:] + faces.shape[1:])
        for s, e in blocks:
            g = gathered[: e - s]
            np.take(faces, etof[s:e], axis=0, out=g, mode="clip")
            np.matmul(g.reshape(e - s, -1), self._lift, out=out[s:e])
        return out

    def apply_pass(self, trace, trace_out, state, base):
        """One pass of the fixed-point map: the local solves against trace,
        with base the solution of the source (solve_source), into state,
        and the rebuild of every face but those of boundary from state into
        trace_out. The values state holds before the pass are not read.

        The pass lifts trace (rhs) into one buffer (_pass_lift) that the
        first pass builds and every later one rewrites: with a lift
        allocated and freed in each pass, passes of 2D p=4 nel=64
        transport at two BLAS threads measured up to a third slower. It
        then solves (solve_cells with base) and rebuilds (update_trace),
        each looked up on self, so a method wrapped on the class or the
        instance sees every pass. With a zero base, on a trace whose
        boundary faces are zero, the pass is linear in trace.
        """
        self._pass_lift = self.rhs(trace, out=self._pass_lift)
        self.solve_cells(self._pass_lift, out=state, base=base)
        self.update_trace(state, trace_out)

    # -- norms: the energy norm, sum_i energy[i] ||field_i||^2 --------------
    #
    # A field's volume norm is taken from its orthonormal coordinates
    # c = part @ R.T, with sqrt(quad_w) eval_vol = Q R (see __init__):
    # R.T @ R is mass_ref, so jac ||c||^2 is the field's squared L2 norm
    # over the element volumes, and no quadrature-point values are formed.

    def _coordinates(self, part, out=None):
        """The orthonormal coordinates part @ R.T of one field."""
        return np.matmul(part, self._vol_r.T, out=out)

    def _energy_norm(self, squares):
        """sqrt(jac * sum_i energy[i] squares[i]), from each field's sum of
        squared coordinates."""
        total = sum(e * sq for e, sq in zip(self.energy, squares))
        return float(np.sqrt(self.mesh.jac * total))

    def _volume_norm(self, state):
        """Energy norm of state over the element volumes."""
        squares = []
        for part in self.split(state):
            c = self._coordinates(part)
            squares.append(np.vdot(c, c))
        return self._energy_norm(squares)

    def _exact_coordinates(self, t, out=None):
        """The exact solution at time t against the coordinates, or None
        when the problem has none: per field, the coordinates uc of its L2
        projection and perp, the squared norm of what the projection
        leaves out, without the factor jac. A field's squared error is then
        ||c - uc||^2 + perp (_error_square). The uc of every field are the
        views out[i] of one (n_fields, n_el, n_p) array, written into out
        when given.

        One element block (element_blocks) at a time, the exact solution
        ue is sampled at the block's volume quadrature points, laid out
        field-major and contiguous, and mapped by _sample_q in one GEMM
        for all fields: the first n_p columns of each field's rows go
        straight into the block's rows of uc, and the sums of squares of
        the rest, the coordinates of ue - projection, are added to perp
        without a copy; perp is so formed directly rather than as a
        difference of squares. Only uc is mesh-sized; ue and the product
        are not kept beyond their block.
        """
        if self.problem.exact is None:
            return None
        n_el, n_p, n_f = self.mesh.n_el, self.n_p, len(self.fields)
        uc = np.empty((n_f, n_el, n_p)) if out is None else out
        perp = [0.0] * n_f
        # an exact solution that is not finite (the standing wave's
        # cos(omega t) once omega t overflows, say) gives nan coordinates,
        # and the first pass's error is then nan (the driver's failure)
        with np.errstate(invalid="ignore", over="ignore"):
            for s, e in element_blocks(n_el):
                ue = self.sample(self.problem.exact, t,
                                 elements=np.arange(s, e))
                # field-major: a copy unless there is one field
                ue = np.ascontiguousarray(
                    np.moveaxis(ue.reshape(e - s, -1, n_f), -1, 0))
                y = (ue.reshape(-1, ue.shape[-1]) @ self._sample_q).reshape(
                    n_f, e - s, -1)
                # freed before the block's sums
                del ue
                uc[:, s:e] = y[:, :, :n_p]
                for i in range(n_f):
                    perp[i] += np.einsum("ij,ij->", y[i, :, n_p:],
                                         y[i, :, n_p:])
                # freed before the next block's sample
                del y
        return list(zip(uc, perp))

    @staticmethod
    def _error_square(c, field_exact, out=None):
        """One field's squared error from its coordinates c and its part
        (uc, perp) of _exact_coordinates."""
        uc, perp = field_exact
        d = np.subtract(c, uc, out=out)
        return np.vdot(d, d) + perp

    def error_eval(self, t):
        """The error of a state against the exact solution at time t, as a
        callable; None when the problem has no exact solution. The exact
        solution is sampled once."""
        exact = self._exact_coordinates(t)
        if exact is None:
            return None
        return lambda state: self._energy_norm([
            self._error_square(self._coordinates(part), ex)
            for part, ex in zip(self.split(state), exact)])

    def diff_norm(self, s1, s2):
        """Energy norm of s1 - s2 over the element volumes."""
        return self._volume_norm(s1 - s2)

    def skeleton_norm(self, state):
        """Energy norm over all element boundaries under the face_w
        weights (both sides of every interior face contribute).

        Folded weights are in the factor S of _assemble, and a field's
        squared norm is that of part @ S.T. Per-face weights are
        read through mesh.etof, one element side at a time, and the face
        values from the face nodes alone (the other GLL basis functions
        vanish on the face).
        """
        parts = self.split(state)
        total = 0.0
        if self.face_w is None:
            for e, part in zip(self.energy, parts):
                vals = part @ self._skeleton_s.T
                total += e * np.vdot(vals, vals)
            return float(np.sqrt(total))
        basis = self.basis
        for k, key in enumerate(self._sides):
            nid = basis.face_node_ids[key]
            w = np.take(self.face_w, self.mesh.etof[:, k], axis=0)
            for e, part in zip(self.energy, parts):
                vals = part[:, nid] @ basis.face_eval.T
                total += e * np.vdot(vals * w, vals)
        return float(np.sqrt(total))

    def pass_norms(self, t, state, out=None):
        """The per-pass norms of a solve at time t started from state
        (PassNorms): a callable s_new -> (error, successive difference,
        skeleton norm) of each new iterate in turn, the error nan without
        an exact solution.

        With out, the PassNorms of the level before in the same march,
        whose last iterate is state: its buffers are rewritten for time t,
        and its coordinates of that iterate are this level's start, so
        state is not read. The exact solution is sampled once per call
        (_exact_coordinates).
        """
        if out is None:
            uc = None
            if self.problem.exact is not None:
                uc = np.empty((len(self.fields), self.mesh.n_el, self.n_p))
            out = PassNorms(self, [self._coordinates(part)
                                   for part in self.split(state)], uc)
        out.exact = self._exact_coordinates(t, out=out.uc)
        return out


class PassNorms:
    """The norms of each new iterate of a level, against the iterate
    before it and the exact solution (LocalOperators.pass_norms).

    Each call maps each field of the new iterate to its coordinates once;
    the error and the successive difference are both taken from them, and
    they are kept for the next call, so the previous iterate itself is
    never read and may have been overwritten. One coordinate buffer per
    field (coords, those of the last iterate) and one spare rotate. exact
    is the level's list of (uc, perp) per field (_exact_coordinates), its
    uc the views of the one array uc; both are None without an exact
    solution.
    """

    def __init__(self, ops, coords, uc):
        self.ops = ops
        self.coords = coords
        self.spare = np.empty_like(coords[0])
        self.uc = uc
        self.exact = None

    def __call__(self, s_new):
        ops, coords, exact = self.ops, self.coords, self.exact
        succ, err = [], []
        for i, part in enumerate(ops.split(s_new)):
            c, dc = ops._coordinates(part, out=self.spare), coords[i]
            np.subtract(c, dc, out=dc)
            succ.append(np.vdot(dc, dc))
            if exact is not None:
                # the expression of error_eval, so the error (and the
                # error-difference stopping test) is bit-identical to it
                err.append(ops._error_square(c, exact[i], out=dc))
            coords[i], self.spare = c, dc
        e = float("nan") if exact is None else ops._energy_norm(err)
        return e, ops._energy_norm(succ), ops.skeleton_norm(s_new)
