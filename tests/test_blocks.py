"""Set-up work in fixed-size blocks.

Case callables are evaluated in blocks of at most SAMPLE_POINTS points, and
local inverses are built and inverted in chunks of at most ASSEMBLY_BYTES
of local matrices. Results must not depend on either budget, bit for bit,
and the temporaries of set-up must not grow with the mesh.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import ehdg.transport as transport
from ehdg.basis import TensorBasis
from ehdg.driver import IterationConfig, solve
from ehdg.mesh import build_mesh
from ehdg.oracle import condensed_matrices
from ehdg.problems import build_case, case_identifiers, catalog
from ehdg.shallow import ShallowOperators, ShallowProblem
from ehdg.transport import (
    ASSEMBLY_BYTES,
    ASSEMBLY_CHUNK,
    SAMPLE_POINTS,
    assemble_inverses,
    assembly_chunk,
)

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
    # 1 point: one element per block; 100 points: several elements per
    # block and a short last block
    @pytest.mark.parametrize("budget", [1, 100])
    @pytest.mark.parametrize("ident,attr,args", SAMPLED)
    @pytest.mark.parametrize("nodes", [False, True])
    @pytest.mark.parametrize("elements", [None, [5, 0, 7, 3, 6]])
    def test_blocks_equal_one_whole_call(self, monkeypatch, case_ops, budget,
                                         ident, attr, args, nodes, elements):
        ops = case_ops[ident]
        fn = getattr(ops.problem, attr)
        expect = direct_sample(ops, fn, *args, nodes=nodes, elements=elements)
        monkeypatch.setattr(transport, "SAMPLE_POINTS", budget)
        got = ops.sample(fn, *args, nodes=nodes, elements=elements)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)

    def test_calls_stay_within_the_budget(self, monkeypatch, case_ops):
        ops = case_ops["transport3d-steady"]
        seen = []

        def exact(pts, t):
            seen.append(len(pts))
            return ops.problem.exact(pts, t)

        n_q = ops.basis.n_q
        monkeypatch.setattr(transport, "SAMPLE_POINTS", 3 * n_q + 1)
        ops.sample(exact, 0.0)
        # three elements per block, the last block short
        assert seen == [3 * n_q] * 9
        seen.clear()
        monkeypatch.setattr(transport, "SAMPLE_POINTS", 1)
        ops.sample(exact, 0.0)
        # a budget below one element's points still takes one element
        assert seen == [n_q] * ops.mesh.n_el

    def test_empty_selection(self, case_ops):
        ops = case_ops["shallow-standing-wave"]
        got = ops.sample(ops.problem.exact, 0.0, elements=[])
        assert got.shape == (0, ops.basis.n_q, 3)


@pytest.fixture(scope="module", params=["transport", "shallow"])
def per_element_ops(request):
    """A per-element operator set of each physics."""
    if request.param == "transport":
        return build_case(catalog("transport3d-steady"), 3, 2)[0]
    mesh = build_mesh(2, (5, 4), [(0, 1), (0, 1)])
    problem = ShallowProblem(phi_mean=1.0, coriolis_f0=1.0,
                             coriolis_beta=0.5, y_mid=0.5)
    return ShallowOperators(mesh, TensorBasis(2, 2), problem, dt=1e-3)


class TestAssemblyChunks:
    def test_chunk_sizes(self, monkeypatch):
        assert assembly_chunk(125) == 67          # 3D p=4 transport
        assert assembly_chunk(75) == 186          # 2D p=4 shallow water
        assert assembly_chunk(25) == ASSEMBLY_CHUNK
        monkeypatch.setattr(transport, "ASSEMBLY_BYTES", 0)
        assert assembly_chunk(125) == 1

    @pytest.mark.parametrize("per_chunk", [1, 2, 5])
    def test_inverses_do_not_depend_on_the_chunk(self, monkeypatch,
                                                 per_element_ops, per_chunk):
        ops = per_element_ops
        width, n_el = ops.state_width, ops.mesh.n_el
        assert not ops.shared and ops.a_inv.shape[0] == n_el
        condensed = assemble_inverses(
            lambda els: condensed_matrices(ops, els), n_el, width)
        monkeypatch.setattr(transport, "ASSEMBLY_BYTES",
                            per_chunk * 8 * width * width)
        assert assembly_chunk(width) == per_chunk
        assert np.array_equal(
            assemble_inverses(ops.element_matrix, n_el, width), ops.a_inv)
        assert np.array_equal(
            assemble_inverses(lambda els: condensed_matrices(ops, els),
                              n_el, width),
            condensed)


def run_small(case):
    nel, p, dt = small_case(case.identifier)
    ops, state0 = build_case(case, nel, p, dt)
    config = IterationConfig(stopping="successive-difference", max_iters=6)
    state, trace, logs = solve(ops, config, state0, steps=2)
    return ops, state, trace, logs


@pytest.mark.parametrize("ident", case_identifiers())
def test_case_runs_within_the_budget(monkeypatch, ident):
    """Every callable of the case, through set-up and a short run, sees at
    most SAMPLE_POINTS points per call, and the run is bit-identical to
    one with the default budget."""
    case = catalog(ident)
    _ops, state, trace, logs = run_small(case)

    seen = {}

    def recording(name, fn):
        def wrapped(pts, *args):
            seen.setdefault(name, []).append(len(pts))
            return fn(pts, *args)
        return wrapped

    wrapped = {attr: recording(attr, getattr(case.problem, attr))
               for attr in CALLABLES
               if getattr(case.problem, attr, None) is not None}
    small = dataclasses.replace(
        case, problem=dataclasses.replace(case.problem, **wrapped))
    monkeypatch.setattr(transport, "SAMPLE_POINTS", 100)
    _ops, state_b, trace_b, logs_b = run_small(small)

    assert set(seen) == set(wrapped)
    assert max(max(calls) for calls in seen.values()) <= 100
    assert np.array_equal(state_b, state)
    for a, b in zip(trace_b.data, trace.data):
        assert np.array_equal(a, b)
    for lb, l in zip(logs_b, logs, strict=True):
        for got, want in ((lb.errors, l.errors), (lb.successive, l.successive),
                          (lb.skeleton, l.skeleton)):
            assert np.array_equal(got, want, equal_nan=True)


class TestSetupMemory:
    """Traced allocations: what set-up allocates beyond what it keeps is
    bounded by the budgets, not by the mesh. A 256-element chunk of 3D p=4
    matrices alone is 32 MiB, and sampling the forcing at all 110592
    quadrature points of this mesh at once takes about 9 MiB."""

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

    def test_source(self):
        ops, _state0 = build_case(catalog("transport3d-steady"), 8, 4)
        source, held, excess = self.traced(lambda: ops.source(0.0))
        assert held >= source.nbytes
        # the forcing at every quadrature point and the load made from it
        # are mesh-sized; the callable's own temporaries are not
        n_el, basis = ops.mesh.n_el, ops.basis
        own = 8 * n_el * (basis.n_q + basis.n_p)
        assert excess <= own + 16 * 8 * SAMPLE_POINTS
