"""One fixed-point pass: step-constant work hoisted, norms fused.

The pass takes its right-hand sides as source(t, state_prev) plus a trace
lift, rebuilds the trace from face-node reads, and logs the energy norms of
both physics from quadrature-point values it keeps between passes. Each
piece is checked here against the direct form it replaced, kept in this
file as a reference.
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
    volume_l2,
)
from ehdg.mesh import build_mesh
from ehdg.problems import catalog
from ehdg.shallow import ShallowOperators
from ehdg.transport import TransportOperators

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASES = {2: "transport2d-smooth", 3: "transport3d-steady"}


def transport_ops(dim, p, nel, dt=None, case=None):
    case = catalog(case or CASES[dim])
    mesh = build_mesh(dim, nel, case.bounds)
    return TransportOperators(mesh, TensorBasis(dim, p), case.problem, dt=dt)


def random_trace(ops, rng):
    trace = ops.new_trace()
    for a in range(ops.mesh.dim):
        trace[a][:] = rng.standard_normal(trace[a].shape)
    return trace


# -- references: the direct forms the pass used before --------------------------


def reference_skeleton_norm(ops, u):
    mesh, basis = ops.mesh, ops.basis
    total = 0.0
    for a in range(mesh.dim):
        for s in (0, 1):
            vals = u @ basis.face_restrict[(a, s)].T
            w = ops.abs_bn[a][ops.fidx[(a, s)]]
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
        fid, minus, plus = ops._int_faces[a]
        um = u[minus] @ basis.face_restrict[(a, 1)].T
        up = u[plus] @ basis.face_restrict[(a, 0)].T
        s = ops.sgn[a][fid]
        uh = 0.5 * ((um + up) + s * (um - up))
        trace_out[a][fid] = uh @ basis.face_proj.T
    ops.inflow_trace(trace_out, t)
    for a, fid, els, side in ops.outflow_blocks:
        nid = basis.face_node_ids[(a, side)]
        trace_out[a][fid] = u[els][:, nid]


def reference_transport_rhs(ops, trace, t=0.0, state_prev=None):
    basis = ops.basis
    out = np.zeros((ops.mesh.n_el, basis.n_p))
    if ops.problem.forcing is not None:
        out += ops.sample(ops.problem.forcing, t) @ ops.load_vec.T
    if ops.dt is not None:
        out += (state_prev @ ops.mass_phys.T) / ops.dt
    for a in range(ops.mesh.dim):
        for s in (0, 1):
            uh_q = trace[a][ops.fidx[(a, s)]] @ basis.face_eval.T
            out += (ops.lift_w[(a, s)] * uh_q) @ basis.face_restrict[(a, s)]
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
            ph_q = trace[a][ops.fidx[(a, s)]] @ basis.face_eval.T
            w = mesh.face_jac[a] * basis.face_quad_w
            lifted = (w * ph_q) @ basis.face_restrict[(a, s)]
            nsig = -1.0 if s == 0 else 1.0
            r0 += rp * lifted
            mom -= PHI * nsig * lifted
    return out


# -- fused norms ----------------------------------------------------------------------


def record_iterates(ops):
    """Make ops.solve_cells keep a copy of every iterate it returns."""
    seen = []
    solve = ops.solve_cells

    def recording(rhs, out=None):
        result = solve(rhs, out=out)
        seen.append(result.copy())
        return result

    ops.solve_cells = recording
    return seen


def norm_cell(physics, dim, p, transient):
    """A small cell of a fused-norm check: (ops, t, u0, state_prev,
    references, exact_error). references are the direct (error, volume
    norm, skeleton norm) forms; exact_error says whether the logged error
    must equal the reference's bit for bit."""
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
        return ops, ops.dt, prev, prev, refs, False
    ops = transport_ops(dim, p, 3 if dim == 2 else 2,
                        dt=0.05 if transient else None)
    t, prev = 0.0, None
    if transient:
        prev = ops.interpolate_exact(0.0)
        t = 0.05
    refs = (reference_transport_error(ops, t),
            lambda u: volume_l2(ops.mesh, ops.basis, u),
            lambda u: reference_skeleton_norm(ops, u))
    return ops, t, prev, prev, refs, True


NORM_CELLS = [
    pytest.param("transport", dim, p, transient, id=f"{transient}-{p}-{dim}")
    for transient in (False, True) for p in (1, 2, 3, 4) for dim in (2, 3)
] + [
    pytest.param("shallow", 2, p, True, id=f"shallow-{p}")
    for p in (1, 2, 3, 4)
]


@pytest.mark.parametrize("physics,dim,p,transient", NORM_CELLS)
def test_fused_norms_match_direct_norms(physics, dim, p, transient):
    ops, t, u0, prev, refs, exact_error = norm_cell(physics, dim, p,
                                                    transient)
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
        if exact_error:
            assert log.errors[k] == err(u)
        else:
            assert abs(log.errors[k] - err(u)) <= tol
        assert abs(log.successive[k] - volume_norm(u - u_prev)) <= tol
        assert abs(log.skeleton[k] - skeleton_norm(u)) <= tol


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_transport_norms_are_bit_identical_to_direct_forms(dim, p, rng):
    # the oracle's gap and the logged errors keep their digits
    ops = transport_ops(dim, p, 3 if dim == 2 else 2)
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    assert ops.diff_norm(u, 0) == volume_l2(ops.mesh, ops.basis, u)
    assert ops.error_eval(0.3)(u) == reference_transport_error(ops, 0.3)(u)


# -- face-node trace rebuild -------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_face_node_update_trace_is_bit_identical(dim, p, rng):
    case = "transport2d-smooth" if dim == 2 else "transport3d-gaussian"
    ops = transport_ops(dim, p, 8, case=case)
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    got, want = ops.new_trace(), ops.new_trace()
    ops.update_trace(u, got, 0.3)
    reference_update_trace(ops, u, want, 0.3)
    for a in range(dim):
        assert np.array_equal(got[a], want[a])


@pytest.mark.parametrize("nel", [2, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_face_node_update_trace_small_3d_meshes(nel, p, rng):
    # the two face products differ in their inner dimension (n_face against
    # n_p, the extra terms being exact zeros); OpenBLAS's small-matrix
    # kernel may sum them in another order, so on these few faces the
    # rebuild is equal to round-off rather than bit for bit
    ops = transport_ops(3, p, nel, case="transport3d-gaussian")
    u = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    got, want = ops.new_trace(), ops.new_trace()
    ops.update_trace(u, got, 0.3)
    reference_update_trace(ops, u, want, 0.3)
    scale = np.abs(u).max()
    for a in range(3):
        assert np.abs(got[a] - want[a]).max() <= 1e-14 * scale


# -- source / rhs split ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("transient", [False, True])
def test_transport_rhs_of_source_is_bit_identical(dim, transient, rng):
    dt = 0.05 if transient else None
    ops = transport_ops(dim, 3, 3 if dim == 2 else 2, dt=dt)
    prev = rng.standard_normal((ops.mesh.n_el, ops.basis.n_p))
    prev = prev if transient else None
    trace = random_trace(ops, rng)
    got = ops.rhs(trace, ops.source(0.4, prev))
    assert np.array_equal(got, reference_transport_rhs(ops, trace, 0.4, prev))


def test_shallow_rhs_of_source_is_bit_identical(rng):
    from test_shallow import synthetic_problem

    mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
    ops = ShallowOperators(mesh, TensorBasis(2, 3), synthetic_problem(),
                           dt=0.37)
    prev = rng.standard_normal((mesh.n_el, 3 * ops.n_p))
    trace = random_trace(ops, rng)
    got = ops.rhs(trace, ops.source(0.2, prev))
    assert np.array_equal(got, reference_shallow_rhs(ops, trace, 0.2, prev))


def test_source_is_reused_not_modified(rng):
    ops = transport_ops(2, 2, 3, dt=0.05)
    source = ops.source(0.1, rng.standard_normal((ops.mesh.n_el,
                                                  ops.basis.n_p)))
    kept = source.copy()
    ops.rhs(random_trace(ops, rng), source)
    assert np.array_equal(source, kept)


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
    # one call per inflow block (the three low faces of the cube) per level
    assert calls["inflow"] == [t for t in levels for _block in range(3)]


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


def nan_cells(self, rhs, out=None):
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


def test_solve_exits_2_on_non_finite_pass(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(TransportOperators, "solve_cells", nan_cells)
    rc = main(["solve", "case=transport2d-smooth", "nel=4", "p=1",
               f"outdir={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: pass 1: successive difference")


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
