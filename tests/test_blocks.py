"""Set-up and per-level work in fixed-size blocks.

Local inverses are built and inverted in chunks of at most ASSEMBLY_BYTES
of local matrices, and their bits must not depend on the chunk. Everything
else goes through element blocks of ASSEMBLY_CHUNK elements (or faces):
case callables are called once per block, with values equal to one
whole-array call bit for bit, and the per-level work (the source, its local
solve, the exact solution's coordinates) and the lift match whole-mesh
references to round-off. The temporaries of set-up and of a level do not
grow with the mesh, and a march holds one state however many levels it
runs.
"""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

import ehdg.mesh as mesh_module
import ehdg.operators as operators
from ehdg.basis import TensorBasis
from ehdg.driver import IterationConfig, solve
from ehdg.mesh import build_mesh
from ehdg.operators import (
    ASSEMBLY_BYTES,
    ASSEMBLY_CHUNK,
    OperatorSizeError,
    assemble_inverses,
    assembly_chunk,
)
from ehdg.oracle import condensed_matrices
from ehdg.problems import build_case, case_identifiers, catalog
from ehdg.shallow import ShallowOperators, ShallowProblem
from ehdg.transport import TransportOperators

CALLABLES = ("velocity", "div_velocity", "forcing", "inflow", "exact", "wind")


def direct_sample(ops, fn, *args, nodes=False, elements=None):
    """ops.sample as one call over the whole point array."""
    mesh, basis = ops.mesh, ops.basis
    centers = mesh.centers if elements is None else mesh.centers[elements]
    ref = basis.ref_nodes if nodes else basis.quad_ref
    X = centers[:, None, :] + mesh.half * ref[None]
    vals = np.asarray(fn(X.reshape(-1, mesh.dim), *args))
    return vals.reshape(len(centers), len(ref), *vals.shape[1:])


def small_case(identifier):
    """A small cell of the case: (nel, p, dt)."""
    dt = {"transport3d-gaussian": 0.01, "shallow-standing-wave": 1e-3}
    return (3 if catalog(identifier).dim == 3 else 4), 2, dt.get(identifier)


@pytest.fixture(scope="module")
def case_ops():
    ops = {}
    for ident in case_identifiers():
        nel, p, dt = small_case(ident)
        ops[ident] = build_case(catalog(ident), nel, p, dt)[0]
    return ops


# (case, callable, extra arguments): scalar and vector values
SAMPLED = [
    ("transport3d-steady", "exact", (0.0,)),
    ("transport3d-steady", "forcing", (0.0,)),
    ("transport3d-steady", "velocity", ()),
    ("transport3d-gaussian", "exact", (0.37,)),
    ("transport2d-discontinuous", "velocity", ()),
    ("shallow-standing-wave", "exact", (0.1,)),
]


class TestSample:
    # one element per block; four elements per block, the last block short
    # on 27 elements and on the five selected
    @pytest.mark.parametrize("per_block", [1, 4])
    @pytest.mark.parametrize("ident,attr,args", SAMPLED)
    @pytest.mark.parametrize("nodes", [False, True])
    @pytest.mark.parametrize("elements", [None, [5, 0, 7, 3, 6]])
    def test_blocks_equal_one_whole_call(self, monkeypatch, case_ops,
                                         per_block, ident, attr, args, nodes,
                                         elements):
        ops = case_ops[ident]
        fn = getattr(ops.problem, attr)
        expect = direct_sample(ops, fn, *args, nodes=nodes, elements=elements)
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", per_block)
        got = ops.sample(fn, *args, nodes=nodes, elements=elements)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)

    def test_one_call_per_element_block(self, monkeypatch, case_ops):
        ops = case_ops["transport3d-steady"]
        seen = []

        def exact(pts, t):
            seen.append(len(pts))
            return ops.problem.exact(pts, t)

        n_q, n_el = ops.basis.n_q, ops.mesh.n_el
        ops.sample(exact, 0.0)
        # the whole mesh is less than one default block
        assert n_el < ASSEMBLY_CHUNK and seen == [n_el * n_q]
        seen.clear()
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 4)
        ops.sample(exact, 0.0)
        # four elements per block, the last block short
        assert seen == [4 * n_q] * 6 + [3 * n_q]
        seen.clear()
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 1)
        ops.sample(exact, 0.0)
        assert seen == [n_q] * n_el

    def test_empty_selection(self, case_ops):
        ops = case_ops["shallow-standing-wave"]
        got = ops.sample(ops.problem.exact, 0.0, elements=[])
        assert got.shape == (0, ops.basis.n_q, 3)


# (case, callable, extra arguments) sampled at face quadrature points: the
# velocity at every face, the inflow data at the inflow faces
FACE_SAMPLED = [
    ("transport3d-steady", "velocity", ()),
    ("transport3d-steady", "inflow", (0.0,)),
    ("transport3d-gaussian", "inflow", (0.37,)),
    ("transport2d-discontinuous", "velocity", ()),
    ("transport2d-discontinuous", "inflow", (0.0,)),
]


class TestSampleFaces:
    @pytest.mark.parametrize("per_block", [1, 4])
    @pytest.mark.parametrize("ident,attr,args", FACE_SAMPLED)
    def test_blocks_equal_one_whole_call(self, monkeypatch, case_ops,
                                         per_block, ident, attr, args):
        ops = case_ops[ident]
        mesh, basis = ops.mesh, ops.basis
        faces = (np.arange(mesh.n_faces) if attr == "velocity"
                 else ops.inflow_faces)
        assert len(faces)
        fn = getattr(ops.problem, attr)
        # one call on the C-ordered points of every face
        pts = mesh.face_quad_points(basis, faces)
        vals = np.asarray(fn(pts.reshape(-1, mesh.dim), *args))
        expect = vals.reshape(len(faces), basis.n_fq, *vals.shape[1:])
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", per_block)
        got = ops._sample_faces(fn, args, faces)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)


class TestPointLayout:
    """Every sampling path hands a callable an (N, dim) array with
    contiguous columns, holding the points of one whole C-ordered call."""

    @pytest.fixture(scope="class")
    def ops(self):
        # a different element size on every axis, so that a points builder
        # that takes one axis's center or half-width for another is seen;
        # beta = (z, x, y) is positive on this box, so the low faces are
        # inflow faces
        mesh = build_mesh(3, (3, 2, 4), [(0.25, 1.0), (0.5, 2.0), (0.1, 0.4)])
        problem = catalog("transport3d-steady").problem
        return TransportOperators(mesh, TensorBasis(3, 2), problem)

    def paths(self, ops):
        """(name, call with a callable, the whole C-ordered point array)."""
        mesh, basis = ops.mesh, ops.basis
        sub, faces = [5, 0, 17, 3], ops.inflow_faces

        def volume(ref, centers):
            X = centers[:, None, :] + mesh.half * ref
            return X.reshape(-1, mesh.dim)

        return [
            ("quadrature", lambda fn: ops.sample(fn),
             volume(basis.quad_ref, mesh.centers)),
            ("nodes", lambda fn: ops.sample(fn, nodes=True),
             volume(basis.ref_nodes, mesh.centers)),
            ("elements", lambda fn: ops.sample(fn, elements=sub),
             volume(basis.quad_ref, mesh.centers[sub])),
            ("faces", lambda fn: ops._sample_faces(fn, (), faces),
             mesh.face_quad_points(basis, faces).reshape(-1, mesh.dim)),
        ]

    @pytest.mark.parametrize("per_block", [3, ASSEMBLY_CHUNK])
    def test_callables_get_contiguous_columns(self, monkeypatch, ops,
                                              per_block):
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", per_block)
        for name, run, expect in self.paths(ops):
            seen = []

            def record(pts):
                seen.append(pts.copy(order="C"))
                assert pts.ndim == 2 and pts.shape[1] == ops.mesh.dim, name
                assert pts.flags.f_contiguous, name
                return pts[:, 0]

            run(record)
            # several blocks of the small size, one of the default
            assert len(seen) >= (2 if per_block < ASSEMBLY_CHUNK else 1), name
            assert np.array_equal(np.concatenate(seen), expect), name


@pytest.fixture(scope="module", params=["transport", "shallow"])
def per_element_ops(request):
    """A per-element operator set of each physics."""
    if request.param == "transport":
        return build_case(catalog("transport3d-steady"), 3, 2)[0]
    return shallow_per_element((5, 4), 2)


def shallow_per_element(nel, p):
    """A shallow-water operator set with per-element inverses (beta plane)
    on the unit square."""
    mesh = build_mesh(2, nel, [(0, 1), (0, 1)])
    problem = ShallowProblem(phi_mean=1.0, coriolis_f0=1.0,
                             coriolis_beta=0.5, y_mid=0.5)
    return ShallowOperators(mesh, TensorBasis(2, p), problem, dt=1e-3)


class TestAssemblyChunks:
    def test_chunk_sizes(self, monkeypatch):
        assert assembly_chunk(125) == 67          # 3D p=4 transport
        assert assembly_chunk(75) == 186          # 2D p=4 shallow water
        assert assembly_chunk(25) == ASSEMBLY_CHUNK
        monkeypatch.setattr(operators, "ASSEMBLY_BYTES", 0)
        assert assembly_chunk(125) == 1

    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_inverses_do_not_depend_on_the_chunk(self, monkeypatch,
                                                 per_element_ops, per_chunk):
        # steady transport keeps only the lifted rows and solves its source
        # during assembly: both are compared
        ops = per_element_ops
        width, n_el = ops.state_width, ops.mesh.n_el
        keep = ops.a_inv.shape[1]
        assert not ops.shared and ops.a_inv.shape[0] == n_el
        condensed = assemble_inverses(
            lambda els: condensed_matrices(ops, els), n_el, width)
        monkeypatch.setattr(operators, "ASSEMBLY_BYTES",
                            per_chunk * 8 * width * width)
        assert assembly_chunk(width) == per_chunk
        solved = None if ops.dt is not None else ops.source()
        assert np.array_equal(
            assemble_inverses(ops.element_matrix, n_el, width, ops._order,
                              keep, solved),
            ops.a_inv)
        if solved is not None:
            assert keep < width
            assert np.array_equal(solved, ops.solve_source())
        assert np.array_equal(
            assemble_inverses(lambda els: condensed_matrices(ops, els),
                              n_el, width),
            condensed)


class TestInverseMemoryGuard:
    """Per-element inverses beyond physical memory are refused before the
    first element_matrix call; one shared inverse never is."""

    @pytest.mark.parametrize("physics", ["transport", "shallow"])
    def test_per_element_inverses_beyond_physical_memory_refused(
            self, monkeypatch, physics):
        # nel=2 p=1: 8 elements of width 8, or 4 of width 3 * 4
        if physics == "transport":
            cls, n_el, width = TransportOperators, 8, 8
            build = lambda: build_case(catalog("transport3d-steady"), 2, 1)[0]
        else:
            cls, n_el, width = ShallowOperators, 4, 12
            build = lambda: shallow_per_element(2, 1)
        need = 8 * n_el * width**2
        built = []
        element_matrix = cls.element_matrix

        def recorded(self, elements):
            built.append(elements)
            return element_matrix(self, elements)

        monkeypatch.setattr(cls, "element_matrix", recorded)
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: need - 1)
        with pytest.raises(OperatorSizeError,
                           match=f"need {need} bytes of inverses"):
            build()
        assert not built
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: need)
        ops = build()
        assert not ops.shared and ops.a_inv.nbytes == need and built

    def test_shared_inverse_is_never_refused(self, monkeypatch):
        nel, p, dim = 2, 4, 3
        # just the mesh's index arrays: less than one 125 x 125 inverse
        n_el, n_faces = nel**dim, dim * nel ** (dim - 1) * (nel + 1)
        mesh_need = 8 * (4 * dim * n_el + 2 * n_faces)
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: mesh_need)
        ops = build_case(catalog("transport3d-gaussian"), nel, p, 0.01)[0]
        assert ops.shared and ops.a_inv.nbytes > mesh_need

    def test_guard_admits_exactly_the_kept_rows(self, monkeypatch):
        # steady 3D p=2: 26 of each inverse's 27 rows are kept, so the
        # guard counts 8 * n_el * 26 * 27 bytes, not 8 * n_el * 27**2
        n_el, width, rows = 8, 27, 26
        kept = 8 * n_el * rows * width
        built = []
        element_matrix = TransportOperators.element_matrix

        def recorded(self, elements):
            built.append(elements)
            return element_matrix(self, elements)

        monkeypatch.setattr(TransportOperators, "element_matrix", recorded)
        build = lambda: build_case(catalog("transport3d-steady"), 2, 2)[0]
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: kept - 1)
        with pytest.raises(OperatorSizeError,
                           match=f"need {kept} bytes of inverses"):
            build()
        assert not built
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: kept)
        ops = build()
        assert ops.a_inv.shape == (n_el, rows, width) and built


class TestSteadyLiftedRows:
    """Steady per-element operators keep only the lifted rows of their
    inverses, and solve the source of their one level during assembly."""

    @pytest.mark.parametrize("ident, nel, p", [
        ("transport3d-steady", 3, 4), ("transport2d-smooth", 4, 2),
        ("transport2d-discontinuous", 3, 3)])
    def test_a_inv_holds_only_the_lifted_rows(self, ident, nel, p):
        ops = build_case(catalog(ident), nel, p)[0]
        n_el, width, rows = ops.mesh.n_el, ops.state_width, len(ops.lifted)
        assert not ops.shared and ops.dt is None and rows < width
        assert ops.a_inv.shape == (n_el, rows, width)
        assert ops.a_inv.nbytes == 8 * n_el * rows * width

    @pytest.mark.parametrize("ident, nel, p, pooled", [
        ("transport3d-steady", 3, 4, False),
        ("transport2d-smooth", 17, 2, False),
        ("transport2d-smooth", 17, 2, True),
    ])
    def test_source_solution_is_a_solve_on_whole_inverses(
            self, monkeypatch, ident, nel, p, pooled):
        # the same operators with whole inverses solve the same source to
        # the same bits, on the serial path and on the pooled one
        monkeypatch.setattr(operators, "POOL_MIN_WIDTH",
                            1 if pooled else 10**9)
        monkeypatch.setattr(operators, "usable_cpus",
                            lambda: 2 if pooled else 1)
        ops = build_case(catalog(ident), nel, p)[0]
        n_el, width = ops.mesh.n_el, ops.state_width
        whole = copy.copy(ops)
        whole.a_inv = assemble_inverses(ops.element_matrix, n_el, width,
                                        ops._order)
        whole._source_solution = None
        assert np.array_equal(whole.a_inv[:, : len(ops.lifted)], ops.a_inv)
        source = ops.source()
        assert np.any(source != 0)
        assert np.array_equal(ops.solve_source(), whole.solve_cells(source))
        assert (whole._pool is not None) == pooled

    def test_whole_solves_and_other_times_are_refused(self):
        ops = build_case(catalog("transport2d-smooth"), 2, 2)[0]
        with pytest.raises(ValueError, match="keep only the lifted rows of "
                           "their inverses: solve_cells needs a base"):
            ops.solve_cells(ops.source())
        with pytest.raises(ValueError, match="solved their source at t = 0 "
                           "during assembly, not at t = 0.5"):
            ops.solve_source(0.5)
        solution = ops.solve_source(0.0)
        assert solution is ops.solve_source()
        assert not solution.flags.writeable


def run_small(case):
    nel, p, dt = small_case(case.identifier)
    ops, state0 = build_case(case, nel, p, dt)
    config = IterationConfig(stopping="successive-difference", max_iters=6)
    state, trace, logs = solve(ops, config, state0, steps=2)
    return ops, state, trace, logs


@pytest.mark.parametrize("ident", case_identifiers())
def test_case_runs_within_the_budget(monkeypatch, ident):
    """Every callable of the case, through set-up and a short run, is
    called by evaluate_blocked on at most ASSEMBLY_CHUNK elements or faces,
    and on a full block at least once."""
    per_block = 4
    monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", per_block)
    # the points per element or face of the evaluate_blocked call running
    running = []

    def tracking(evaluate):
        def wrapped(fn, args, points, n, per):
            running.append(per)
            try:
                return evaluate(fn, args, points, n, per)
            finally:
                running.pop()
        return wrapped

    monkeypatch.setattr(operators, "evaluate_blocked",
                        tracking(operators.evaluate_blocked))
    case = catalog(ident)
    seen = {}

    def recording(name, fn):
        def wrapped(pts, *args):
            assert running, f"{name} called outside evaluate_blocked"
            items, rest = divmod(len(pts), running[-1])
            assert not rest, name
            seen.setdefault(name, []).append(items)
            return fn(pts, *args)
        return wrapped

    wrapped = {attr: recording(attr, getattr(case.problem, attr))
               for attr in CALLABLES
               if getattr(case.problem, attr, None) is not None}
    small = dataclasses.replace(
        case, problem=dataclasses.replace(case.problem, **wrapped))
    run_small(small)

    assert set(seen) == set(wrapped)
    assert max(max(calls) for calls in seen.values()) == per_block
    assert all(1 <= items <= per_block
               for calls in seen.values() for items in calls), seen


class TestSetupMemory:
    """Traced allocations: what set-up allocates beyond what it keeps is
    bounded by the budgets, not by the mesh. A 256-element chunk of 3D p=4
    matrices alone is 32 MiB, and sampling the forcing at all 110592
    quadrature points of this mesh at once takes about 9 MiB. The tests
    that bound a sample shrink the element blocks to 16 elements, so that
    a block is far below the mesh."""

    def traced(self, fn):
        """(result, bytes held after fn, peak bytes beyond that)."""
        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak - held

    def test_build_case(self):
        (ops, _state0), held, excess = self.traced(
            lambda: build_case(catalog("transport3d-steady"), 8, 4))
        assert held >= ops.a_inv.nbytes
        assert excess <= 5 * ASSEMBLY_BYTES

    def test_steady_build_frees_the_face_velocity_sample(self, monkeypatch):
        # with small budgets, what steady set-up allocates beyond what it
        # keeps is less than the face velocity sample (dim values per face
        # quadrature point), which transport never forms
        monkeypatch.setattr(operators, "ASSEMBLY_BYTES", 2**16)
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 16)
        (ops, _state0), held, excess = self.traced(
            lambda: build_case(catalog("transport3d-steady"), 12, 2))
        mesh = ops.mesh
        velocity = 8 * mesh.n_faces * ops.basis.n_fq * mesh.dim
        assert held >= ops.a_inv.nbytes
        assert excess < velocity
        # nor is the sample kept: beyond the inverses, the face data (bn
        # and the per-face face_w) and the source's solution, what set-up
        # holds is less than the sample
        kept = (ops.a_inv.nbytes + ops.bn.nbytes + ops.face_w.nbytes
                + ops.solve_source().nbytes)
        assert held - kept < velocity

    def test_face_rules_sample_no_whole_velocity(self, monkeypatch):
        # beta.n is sampled one face axis at a time, as beta . e_a alone:
        # what the face rules allocate beyond what they keep is less than
        # a sample of every velocity component at every face
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 16)
        monkeypatch.setattr(TransportOperators, "_assemble",
                            lambda self, shared: None)
        case = catalog("transport3d-steady")
        mesh = build_mesh(case.dim, 12, case.bounds)
        basis = TensorBasis(case.dim, 2)
        _ops, _held, excess = self.traced(
            lambda: TransportOperators(mesh, basis, case.problem))
        assert excess < 8 * mesh.n_faces * basis.n_fq * mesh.dim

    def test_source(self, monkeypatch):
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 16)
        ops, _state0 = build_case(catalog("transport3d-steady"), 12, 2)
        assert ops.mesh.n_el > 6 * ASSEMBLY_CHUNK
        source, held, excess = self.traced(lambda: ops.source(0.0))
        assert held >= source.nbytes
        # one element block's forcing sample and the load made from it;
        # the points of a call and the callable's temporaries
        basis = ops.basis
        own = 8 * operators.ASSEMBLY_CHUNK * (basis.n_q + basis.n_p)
        assert excess <= own + call_bytes(basis.n_q)

    def test_exact_coordinates(self, monkeypatch):
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 16)
        ops, _state0 = build_case(catalog("transport3d-gaussian"), 12, 4, 0.01)
        assert ops.mesh.n_el > 6 * ASSEMBLY_CHUNK
        exact, held, excess = self.traced(lambda: ops._exact_coordinates(0.3))
        assert held >= sum(uc.nbytes for uc, _perp in exact)
        # one element block's exact sample and its product with
        # _sample_q, whose last n_q - n_p columns are summed in place; the
        # points of a call and the callable's temporaries
        n_q, n_f = ops.basis.n_q, len(ops.fields)
        own = 8 * operators.ASSEMBLY_CHUNK * n_q * (n_f + 1)
        assert excess <= own + call_bytes(n_q)


def call_bytes(per):
    """What one call of a case callable on one element block of per points
    each may allocate: its points and its own temporaries, within 16
    values per point."""
    return 16 * 8 * operators.ASSEMBLY_CHUNK * per


# small allocations beside the bounded arrays: index arrays, array headers
SLACK = 2**16


def windy_shallow(nel, p, per_element):
    """Shallow water with a wind load on the unit square, at dt = 1e-3:
    on the beta plane (per-element inverses) or on the f plane (one shared
    inverse)."""
    def wind(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        return np.stack([np.sin(3 * y + t), x * np.cos(2 * x)], axis=1)

    mesh = build_mesh(2, nel, [(0, 1), (0, 1)])
    problem = ShallowProblem(phi_mean=1.0, coriolis_f0=1.0,
                             coriolis_beta=0.5 if per_element else 0.0,
                             y_mid=0.5, wind=wind)
    return ShallowOperators(mesh, TensorBasis(2, p), problem, dt=1e-3)


# operator sets of more than three element blocks each: (name, build)
LEVEL_CELLS = {
    "gaussian-shared": lambda: build_case(
        catalog("transport3d-gaussian"), 10, 2, 0.01)[0],
    "smooth-per-element": lambda: build_case(
        catalog("transport2d-smooth"), 32, 2, 0.05)[0],
    "steady-per-element": lambda: build_case(
        catalog("transport3d-steady"), 10, 2)[0],
    "wave-shared": lambda: build_case(
        catalog("shallow-standing-wave"), 32, 2, 1e-3)[0],
    "wind-shared": lambda: windy_shallow(32, 2, False),
    "wind-per-element": lambda: windy_shallow(32, 2, True),
}


@pytest.fixture(scope="module", params=sorted(LEVEL_CELLS))
def level_ops(request):
    ops = LEVEL_CELLS[request.param]()
    assert ops.mesh.n_el > 3 * ASSEMBLY_CHUNK
    return ops


def level_state(ops, seed=0):
    """A random state and trace, the same on every call."""
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((ops.mesh.n_el, ops.state_width))
    trace = rng.standard_normal(ops.new_trace().shape)
    return state, trace


def assert_close(got, want, rel=1e-14):
    """Every entry within rel times the reference's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= rel * scale


class TestBlockedLevelWork:
    """The blocked per-level work and lift against whole-mesh references,
    built here the way one whole-array call forms them."""

    def whole_source(self, ops, t, state_prev):
        out = ops.zero_state()
        parts = ops.split(out)
        fn, load_fields = ops.load
        if fn is not None:
            vals = ops.sample(fn, t).reshape(len(out), -1, len(load_fields))
            for j, i in enumerate(load_fields):
                part = parts[i]
                part += vals[:, :, j] @ ops.load_vec.T
        if ops.dt is not None:
            for e, part, prev in zip(ops.energy, parts, ops.split(state_prev)):
                part += e * (prev @ ops.mass_phys.T) / ops.dt
        return out

    def whole_solve(self, ops, a_inv, rhs):
        ordered = rhs[:, ops._order]
        if ops.shared:
            return ordered @ a_inv[0]
        return np.matmul(ordered[:, None], a_inv)[:, 0]

    def test_exact_coordinates(self, level_ops):
        ops = level_ops
        t, n_p = 0.37 * (ops.dt or 1.0), ops.n_p
        if ops.problem.exact is None:
            assert ops._exact_coordinates(t) is None
            return
        ue = ops.sample(ops.problem.exact, t)
        ue = ue.reshape(ops.mesh.n_el, -1, len(ops.fields))
        got = ops._exact_coordinates(t)
        assert len(got) == len(ops.fields)
        for i, (uc, perp) in enumerate(got):
            y = ue[:, :, i] @ ops._sample_q
            rest = y[:, n_p:]
            assert_close(uc, y[:, :n_p])
            assert_close(perp, np.vdot(rest, rest))

    def test_source(self, level_ops):
        ops = level_ops
        state_prev, _trace = level_state(ops)
        if ops.dt is None:
            state_prev = None
        t = 0.0 if ops.dt is None else 2 * ops.dt
        assert_close(ops.source(t, state_prev),
                     self.whole_source(ops, t, state_prev))

    def test_source_solution(self, level_ops):
        ops = level_ops
        state_prev, _trace = level_state(ops)
        if ops.dt is None:
            # steady per-element operators solved it during assembly; the
            # reference solves it on whole inverses
            a_inv = assemble_inverses(ops.element_matrix, ops.mesh.n_el,
                                      ops.state_width, ops._order)
            want = self.whole_solve(ops, a_inv, self.whole_source(ops, 0.0,
                                                                  None))
            assert_close(ops.solve_source(), want)
            return
        t = 2 * ops.dt
        source = self.whole_source(ops, t, state_prev)
        assert_close(ops.solve_cells(source),
                     self.whole_solve(ops, ops.a_inv, source))
        assert_close(ops.solve_source(t, state_prev),
                     self.whole_solve(ops, ops.a_inv, source))

    def test_folded_source_solution(self):
        # a shared set's solve_source is state_prev @ C plus the solved
        # load; the reference is the whole source solved by solve_cells
        shared = []
        for ident in case_identifiers():
            nel, p, _dt = small_case(ident)
            ops = build_case(catalog(ident), nel, p, 1e-2)[0]
            if ops.shared:
                shared.append(ops)
        assert {"transport3d-gaussian", "shallow-standing-wave"} <= {
            ident for ident in case_identifiers()
            if any(ops.problem is catalog(ident).problem for ops in shared)}
        # the f plane with a wind: a shared set with a load
        windy = windy_shallow(8, 2, False)
        assert windy.shared and windy.load[0] is not None
        for ops in shared + [windy]:
            state_prev, _trace = level_state(ops)
            t = 2 * ops.dt
            want = ops.solve_cells(ops.source(t, state_prev))
            assert_close(ops.solve_source(t, state_prev), want)
            out = np.full_like(want, np.nan)
            assert ops.solve_source(t, state_prev, out=out) is out
            assert_close(out, want)

    def test_lift(self, level_ops):
        ops = level_ops
        _state, trace = level_state(ops)
        faces = trace
        if ops.face_w is not None:
            faces = trace @ ops.basis.face_eval.T * ops.face_w
        gathered = np.take(faces, ops.mesh.etof, axis=0)
        want = gathered.reshape(ops.mesh.n_el, -1) @ ops._lift
        assert_close(ops.rhs(trace), want)
        out = np.full_like(want, np.nan)
        assert ops.rhs(trace, out=out) is out
        assert np.array_equal(out, ops.rhs(trace))


class TestLevelMemory:
    """Traced allocations of the per-level work, the lift and a march:
    what each allocates beyond what it returns is bounded by one element
    block, not by the mesh."""

    traced = TestSetupMemory.traced

    @pytest.fixture(autouse=True)
    def serial_solves(self, monkeypatch):
        # serial local solves, so that one block is in flight at a time
        monkeypatch.setattr(operators, "usable_cpus", lambda: 1)

    @pytest.mark.parametrize("per_element", [False, True])
    def test_source_with_a_time_step(self, monkeypatch, per_element):
        # blocks of 64 elements, far below the mesh, bound the wind sample
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 64)
        ops = windy_shallow(48, 2, per_element)
        assert ops.mesh.n_el > 8 * ASSEMBLY_CHUNK
        state_prev, _trace = level_state(ops)
        source, held, excess = self.traced(
            lambda: ops.source(0.01, state_prev))
        assert held >= source.nbytes
        # one block's wind sample (two values per point) and its load
        # product, then the block's backward-Euler mass product, one
        # state row per element
        n_q, n_p = ops.basis.n_q, ops.n_p
        own = 8 * operators.ASSEMBLY_CHUNK * (2 * n_q + 3 * n_p)
        assert excess <= own + call_bytes(n_q) + SLACK

    @pytest.mark.parametrize("per_element", [False, True])
    def test_whole_solve(self, per_element):
        ops = windy_shallow(48, 2, per_element)
        assert ops.shared != per_element
        source = ops.source(0.01, level_state(ops)[0])
        solved, held, excess = self.traced(lambda: ops.solve_cells(source))
        assert held >= solved.nbytes
        # one block of the right-hand side in the row order of a_inv
        assert excess <= 8 * ASSEMBLY_CHUNK * ops.state_width + SLACK

    @pytest.mark.parametrize("ident, nel, dt", [
        ("transport3d-gaussian", 12, 0.01),     # folded weights
        ("transport3d-steady", 12, None),       # per-face weights
        ("shallow-standing-wave", 48, 1e-3),
    ])
    def test_lift(self, ident, nel, dt):
        ops = build_case(catalog(ident), nel, 2, dt)[0]
        assert ops.mesh.n_el > 6 * ASSEMBLY_CHUNK
        _state, trace = level_state(ops)
        # per-face weights form the weighted trace at the face quadrature
        # points into a buffer that the first call builds and every later
        # call rewrites
        ops.rhs(trace)
        lift, held, excess = self.traced(lambda: ops.rhs(trace))
        assert held >= lift.nbytes
        # one block's gathered face values
        sides, n_face = ops.mesh.etof.shape[1], ops.basis.n_face
        own = 8 * ASSEMBLY_CHUNK * sides * max(n_face, ops.basis.n_fq)
        assert excess <= own + SLACK

    def test_boundary_trace(self, monkeypatch):
        # the boundary data is sampled and projected one block of faces
        # at a time, straight into the trace
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 16)
        ops = build_case(catalog("transport3d-gaussian"), 12, 4, 0.01)[0]
        fn, faces = ops.boundary
        assert len(faces) > 8 * operators.ASSEMBLY_CHUNK
        trace, want = ops.new_trace(), ops.new_trace()
        want[faces] = (ops._sample_faces(fn, (0.3,), faces)
                       @ ops.basis.face_proj.T)
        _none, held, excess = self.traced(
            lambda: ops.boundary_trace(trace, 0.3))
        assert_close(trace, want)
        # one block of faces' sample and its projection, and the points
        # and temporaries of one call of the inflow callable
        n_fq, n_face = ops.basis.n_fq, ops.basis.n_face
        own = 8 * operators.ASSEMBLY_CHUNK * (n_fq + n_face)
        assert excess <= own + call_bytes(n_fq) + SLACK

    def test_march_holds_one_state(self):
        ops, state0 = build_case(catalog("shallow-standing-wave"), 48, 2, 1e-3)
        assert ops.mesh.n_el > 8 * ASSEMBLY_CHUNK
        start = state0.copy()
        config = IterationConfig()
        peaks = {}
        for steps in (1, 6):
            (state, trace, logs), held, excess = self.traced(
                lambda: solve(ops, config, state0, steps))
            assert len(logs) == steps and logs[-1].converged
            assert state is not state0
            peaks[steps] = held + excess
        assert np.array_equal(state0, start)
        # a level's largest block temporary: its exact sample and the
        # product with _sample_q
        n_q, n_f = ops.basis.n_q, len(ops.fields)
        block = 8 * ASSEMBLY_CHUNK * n_q * (n_f + 1)
        assert peaks[6] <= peaks[1] + block

    @pytest.mark.parametrize("ident, nel, dt", [
        ("shallow-standing-wave", 48, 1e-3),
        ("transport3d-gaussian", 12, 0.01),
    ])
    def test_later_levels_allocate_no_level_buffers(self, monkeypatch, ident,
                                                    nel, dt):
        # a march's levels share one LevelWorkspace: from the second level
        # on, a level's set-up (initial_trace, pass_norms, solve_source)
        # allocates, beyond what the march already holds, no more than one
        # of its passes does, plus one element block of its exact sample
        # and the sample of its boundary data
        monkeypatch.setattr(operators, "ASSEMBLY_CHUNK", 16)
        ops, state0 = build_case(catalog(ident), nel, 2, dt)
        assert ops.mesh.n_el > 8 * operators.ASSEMBLY_CHUNK
        marks = []  # (what starts, bytes held, peak of the span before)

        def marked(what, fn):
            def wrapped(*args, **kwargs):
                held, peak = tracemalloc.get_traced_memory()
                marks.append((what, held, peak))
                tracemalloc.reset_peak()
                return fn(*args, **kwargs)
            return wrapped

        ops.initial_trace = marked("level", ops.initial_trace)
        ops.rhs = marked("pass", ops.rhs)
        tracemalloc.start()
        try:
            _state, _trace, logs = solve(ops, IterationConfig(), state0, 4)
            marks.append(("end", *tracemalloc.get_traced_memory()))
        finally:
            tracemalloc.stop()
        assert len(logs) == 4 and logs[-1].converged
        # the peak of each span above what was held at its start
        spans = [(what, peak - held) for (what, held, _), (_, _, peak)
                 in zip(marks, marks[1:])]
        levels = [excess for what, excess in spans if what == "level"]
        # the passes after the first level's, which allocates the lift
        passes = [excess for what, excess in spans if what == "pass"]
        assert len(levels) == 4 and len(passes) == sum(
            log.iterations for log in logs)
        passes = passes[logs[0].iterations:]
        # the first level allocates the workspace: at least two traces and
        # the source's solution
        state_bytes = 8 * ops.mesh.n_el * ops.state_width
        buffers = state_bytes + 2 * 8 * ops.mesh.n_faces * ops.basis.n_face
        assert levels[0] >= buffers
        # a block of the exact sample, its field-major copy and product,
        # and the callable's own temporaries; a block of faces of the
        # boundary data's sample and projection
        n_q, n_f = ops.basis.n_q, len(ops.fields)
        block = 8 * operators.ASSEMBLY_CHUNK * n_q * 2 * n_f
        boundary = 8 * min(operators.ASSEMBLY_CHUNK, len(ops.boundary[1])) * (
            ops.basis.n_fq + ops.basis.n_face)
        allowance = block + call_bytes(n_q) + boundary + SLACK
        assert allowance < buffers
        assert max(levels[1:]) <= max(passes) + allowance, (levels, passes)
