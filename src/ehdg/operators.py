"""The operator contract of the fixed-point driver (LocalOperators, which
each physics module subclasses), the chunked assembly of local inverses and
the blocked sampling of case callables, with the budgets on their temporaries.
"""

from __future__ import annotations

import math
import os

import numpy as np

# elements per block of the batched local solve, and the most elements one
# assembly chunk takes
ASSEMBLY_CHUNK = 256
# narrowest local operators whose batched solve runs on the thread pool:
# from width 75 up the pool won or tied in every timed sweep, at 64 and
# below it lost in some (README, Threads)
POOL_MIN_WIDTH = 65
# most bytes of local matrices one assembly chunk builds and inverts: 67
# elements at 125 x 125 (3D p=4), a full ASSEMBLY_CHUNK at 25 x 25 (2D p=4)
ASSEMBLY_BYTES = 8 * 2**20
# most points one call of a case callable receives (evaluate_blocked)
SAMPLE_POINTS = 2**14


class AssemblyError(Exception):
    pass


def usable_cpus():
    """The CPUs this process may run on, as nproc counts them."""
    return len(os.sched_getaffinity(0))


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


class LocalOperators:
    """The contract the fixed-point driver runs on, and what every physics
    shares.

    An instance holds the explicit inverses of its element-local operators
    (a_inv: one per element, or one shared by all) and the face data of its
    trace rule. A state row is the nodal values of each of the class's
    fields in turn. The base class supplies the state width, zero state,
    field split and nodal interpolation, the batched local solve, the
    element-to-face index, the interior-face and boundary-face tables,
    trace construction, the sampling of case callables at element points,
    the source, the trace lift (rhs) and the norms. A trace holds, per
    face-normal axis a, the (n_faces_axis[a], n_face) nodal values of
    every face of that axis. Each physics names its fields, supplies
    element_matrix(elements) and update_trace(state, trace_out, t), ends
    its __init__ with _assemble(shared), and gives as data:

      energy       per-field weights of the backward-Euler time term, in
                   field order; they define the energy norm;
      load         (fn, load_fields): load field j takes the load of value
                   j of fn(points, t); fn None loads nothing;
      lift_w       element-side face weights, by (axis, side);
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
        # element -> face index of each element's side s face, per axis
        self.fidx = {(a, s): mesh.face_index(a, s)
                     for a in range(mesh.dim) for s in (0, 1)}
        # (face_ids, minus_elements, plus_elements) per axis, and
        # (face_ids, elements, outward_sign) per boundary plane (a, s)
        self._int_faces = [mesh.interior_faces(a) for a in range(mesh.dim)]
        self._bnd_faces = {key: mesh.boundary_faces(*key) for key in self.fidx}
        # thread pool of solve_cells, built on first use (_executor)
        self._pool = None

    def _assemble(self, shared):
        """Set shared and a_inv, the inverses of element_matrix: element
        0's alone when shared, every element's otherwise."""
        self.shared = shared
        n = 1 if shared else self.mesh.n_el
        self.a_inv = assemble_inverses(self.element_matrix, n, self.state_width)

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

    def solve_cells(self, rhs, out=None):
        """Batched application of the factorized local operators.

        Elements go in ASSEMBLY_CHUNK blocks, each written to its own rows
        of out, so the result is the same whichever thread runs a block.
        The blocks run on the pool of _executor when there is one; its
        threads run the numpy kernels only.
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

        pool = self._executor(len(chunks))
        if pool is not None:
            list(pool.map(run, chunks))
        else:
            for c in chunks:
                run(c)
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
        return [np.zeros((self.mesh.n_faces_axis[a], self.basis.n_face))
                for a in range(self.mesh.dim)]

    def initial_trace(self, state, t=0.0):
        tr = self.new_trace()
        self.update_trace(state, tr, t)
        return tr

    def source(self, t=0.0, state_prev=None):
        """Trace-independent part of every local right-hand side, fixed for
        a whole solve at one time level: the load of each load field at
        time t plus, for a time step, each field's backward-Euler term
        energy[i] * mass . state_prev_i / dt."""
        if self.dt is not None and state_prev is None:
            raise ValueError("a time step needs the previous state")
        out = self.zero_state()
        parts = self.split(out)
        fn, load_fields = self.load
        if fn is not None:
            vals = self.sample(fn, t).reshape(len(out), -1, len(load_fields))
            for j, i in enumerate(load_fields):
                part = parts[i]
                part += vals[:, :, j] @ self.load_vec.T
        if self.dt is not None:
            for e, part, prev in zip(self.energy, parts,
                                     self.split(state_prev)):
                part += e * (prev @ self.mass_phys.T) / self.dt
        return out

    def rhs(self, trace, source):
        """Right-hand sides of every local solve: source (see source())
        plus the lift of the given trace field, one face at a time."""
        basis = self.basis
        out = source.copy()
        parts = self.split(out)
        for (a, s), w in self.lift_w.items():
            uh_q = trace[a][self.fidx[(a, s)]] @ basis.face_eval.T
            lifted = (w * uh_q) @ basis.face_restrict[(a, s)]
            for i, c in self.lift_coef[(a, s)]:
                # a coefficient of one adds the lift itself, not a copy
                part = parts[i]
                part += lifted if c == 1.0 else c * lifted
            # released before the next face's lift is formed
            del lifted
        return out

    # -- norms: the energy norm, sum_i energy[i] ||field_i||^2 --------------

    def _energy_norm(self, squares):
        """sqrt(jac * sum_i energy[i] squares[i]), from each field's
        quadrature sum of squared values."""
        total = sum(e * sq for e, sq in zip(self.energy, squares))
        return float(np.sqrt(self.mesh.jac * total))

    def _volume_norm(self, state, ue=None):
        """Energy norm over the element volumes of state, less the
        quadrature-point values ue when given."""
        basis = self.basis
        squares = []
        for i, part in enumerate(self.split(state)):
            dv = part @ basis.eval_vol.T
            if ue is not None:
                dv -= ue[:, :, i]
            squares.append(np.sum(basis.quad_w * dv * dv))
        return self._energy_norm(squares)

    def _exact_values(self, t):
        """The exact solution at the volume quadrature points, one field
        per last index, or None when the problem has none."""
        if self.problem.exact is None:
            return None
        ue = self.sample(self.problem.exact, t)
        return ue.reshape(self.mesh.n_el, -1, len(self.fields))

    def error_eval(self, t):
        """The error of a state against the exact solution at time t, as a
        callable; None when the problem has no exact solution. The exact
        solution is sampled once."""
        ue = self._exact_values(t)
        if ue is None:
            return None
        return lambda state: self._volume_norm(state, ue)

    def diff_norm(self, s1, s2):
        """Energy norm of s1 - s2 over the element volumes."""
        return self._volume_norm(s1 - s2)

    def skeleton_norm(self, state):
        """Energy norm over all element boundaries under the lift_w face
        weights (both sides of every interior face contribute).

        Face values are read from the face nodes alone: the other GLL
        basis functions vanish on the face.
        """
        basis = self.basis
        parts = self.split(state)
        total = 0.0
        for (a, s), w in self.lift_w.items():
            nid = basis.face_node_ids[(a, s)]
            for e, part in zip(self.energy, parts):
                vals = part[:, nid] @ basis.face_eval.T
                total += e * np.sum(w * vals * vals)
        return float(np.sqrt(total))

    def pass_norms(self, t, state):
        """The per-pass norms of a solve at time t started from state: a
        callable (s_new, s_old) -> (error, successive difference, skeleton
        norm), the error nan without an exact solution.

        The exact solution is sampled once. Each pass maps each field of
        the new iterate to quadrature-point values once; the error and the
        successive difference are both taken from those values, which are
        kept for the next pass. One value buffer per field and one spare
        rotate, so s_old is not read.
        """
        basis = self.basis
        Ev, w = basis.eval_vol, basis.quad_w
        ue = self._exact_values(t)
        vals = [part @ Ev.T for part in self.split(state)]
        spare = np.empty_like(vals[0])

        def norms(s_new, _s_old):
            nonlocal spare
            succ, err = [], []
            for i, part in enumerate(self.split(s_new)):
                v, dv = spare, vals[i]
                np.matmul(part, Ev.T, out=v)
                np.subtract(v, dv, out=dv)
                np.multiply(dv, dv, out=dv)
                succ.append(np.sum(dv @ w))
                if ue is not None:
                    # the expression of error_eval, so the error (and the
                    # error-difference stopping test) is bit-identical to it
                    np.subtract(v, ue[:, :, i], out=dv)
                    err.append(np.sum(w * dv * dv))
                vals[i], spare = v, dv
            e = float("nan") if ue is None else self._energy_norm(err)
            return e, self._energy_norm(succ), self.skeleton_norm(s_new)

        return norms
