"""End-to-end acceptance checks for the solver.

Each test prints one scoreboard line

    ACCEPTANCE <name>: PASS|FAIL  <detail>

before asserting, so a single run (pytest -v; add -s to see the lines for
passing tests too) yields the complete pass/fail table. The iteration-count
tests compare against frozen reference tables for the benchmark sweeps; the
remaining tests check convergence orders, oracle agreement, conservation,
and the contraction bound at pinned tolerances.
"""

import time

import numpy as np
import pytest

from ehdg.basis import TensorBasis, gauss_quadrature, gll_nodes
from ehdg.cli import _table_cells
from ehdg.driver import (
    SUCCESSIVE_DIFFERENCE,
    IterationConfig,
    fit_exponential_rate,
    iterate_to_fixed_point,
    solve,
    transport_error_eval,
    volume_l2,
)
from ehdg.mesh import build_mesh
from ehdg.oracle import direct_solve, flux_jump_residual
from ehdg.problems import build_case, catalog, convergence_study, run_cell
from ehdg.shallow import ShallowOperators, ShallowProblem, contraction_constants
from ehdg.transport import TransportOperators, TransportProblem


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


ORDER_MARGIN = 0.8

# Reference iteration counts for the steady benchmark sweeps; the solver is
# expected to land within 20% of every cell. Keys: identifier -> p -> nel
# per axis -> count.
REFERENCE_STEADY = {
    "transport2d-smooth": {
        1: {4: 45, 8: 67, 16: 107, 32: 177},
        2: {4: 47, 8: 67, 16: 101, 32: 179},
        3: {4: 46, 8: 66, 16: 108, 32: 186},
        4: {4: 45, 8: 68, 16: 112, 32: 189},
    },
    "transport2d-discontinuous": {
        1: {4: 59, 8: 84, 16: 129, 32: 209},
        2: {4: 61, 8: 87, 16: 133, 32: 214},
        3: {4: 65, 8: 92, 16: 135, 32: 211},
        4: {4: 66, 8: 90, 16: 128, 32: 198},
    },
    "transport3d-steady": {
        1: {2: 33, 4: 51, 8: 79, 16: 130},
        2: {2: 39, 4: 51, 8: 76, 16: 131},
        3: {2: 39, 4: 49, 8: 79, 16: 136},
        4: {2: 35, 4: 51, 8: 83, 16: 143},
    },
}

# Reference iterations per settled time step for the transient sweeps,
# tolerance +-2 per cell. Keys: (identifier, dt) -> p -> nel per axis.
REFERENCE_TRANSIENT = {
    ("shallow-standing-wave", 1e-3): {
        1: {4: 3, 8: 4, 16: 4, 32: 4},
        2: {4: 4, 8: 4, 16: 5, 32: 6},
        3: {4: 4, 8: 4, 16: 5, 32: 6},
        4: {4: 4, 8: 5, 16: 6, 32: 7},
    },
    ("shallow-standing-wave", 1e-4): {
        1: {4: 2, 8: 2, 16: 3, 32: 3},
        2: {4: 2, 8: 2, 16: 2, 32: 3},
        3: {4: 2, 8: 2, 16: 3, 32: 3},
        4: {4: 2, 8: 3, 16: 3, 32: 3},
    },
    ("transport3d-gaussian", 1e-3): {
        1: {2: 2, 4: 3, 8: 3, 16: 3},
        2: {2: 2, 4: 3, 8: 3, 16: 3},
        3: {2: 3, 4: 3, 8: 3, 16: 4},
        4: {2: 3, 4: 3, 8: 3, 16: 4},
    },
    ("transport3d-gaussian", 1e-4): {
        1: {2: 2, 4: 2, 8: 2, 16: 2},
        2: {2: 2, 4: 2, 8: 2, 16: 2},
        3: {2: 2, 4: 2, 8: 2, 16: 2},
        4: {2: 2, 4: 2, 8: 2, 16: 2},
    },
}

TIGHT = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE, tol=1e-12)
DEEP = IterationConfig(tol=1e-12)  # error-difference, runs to the floor


def _reference_cells(reference):
    """The (identifier[, dt], p, nel) keys of a reference table, in order."""
    return [
        (*(key if isinstance(key, tuple) else (key,)), p, nel)
        for key, per_p in reference.items()
        for p, cells in per_p.items()
        for nel in cells
    ]


def _final_orders(rows, nel_finest):
    out = {}
    for row in rows:
        if row.nel == nel_finest:
            out[row.p] = row.order
    return out


# -- 1: 2D steady h-convergence ---------------------------------------------------


@pytest.fixture(scope="module")
def steady2d_study():
    case = catalog("transport2d-smooth")
    t0 = time.monotonic()
    rows = convergence_study(case, (4, 8, 16, 32), (1, 2, 3, 4), config=DEEP)
    return rows, time.monotonic() - t0


def test_steady_2d_convergence_order(steady2d_study):
    rows, elapsed = steady2d_study
    orders = _final_orders(rows, 32)
    ok = all(orders[p] >= p + ORDER_MARGIN for p in (1, 2, 3, 4))
    ok = ok and elapsed < 300.0
    detail = (
        "orders "
        + ", ".join(f"p{p}: {orders[p]:.2f}" for p in (1, 2, 3, 4))
        + f" (need >= p+{ORDER_MARGIN}); {elapsed:.0f}s"
    )
    _report("steady-2d-order", ok, detail)


# -- 2: 3D steady h-convergence ---------------------------------------------------


def test_steady_3d_convergence_order():
    case = catalog("transport3d-steady")
    rows = convergence_study(case, (2, 4, 8, 16), (1, 2, 3), config=DEEP)
    rows += convergence_study(case, (2, 4, 8), (4,), config=DEEP)
    orders = _final_orders(rows, 16)
    orders[4] = _final_orders(rows, 8)[4]
    ok = all(orders[p] >= p + ORDER_MARGIN for p in (1, 2, 3, 4))
    detail = "orders " + ", ".join(
        f"p{p}: {orders[p]:.2f}" for p in (1, 2, 3, 4)
    )
    _report("steady-3d-order", ok, detail)


# -- 3: standing wave order and per-step cost -------------------------------------


@pytest.fixture(scope="module")
def standing_wave_march():
    case = catalog("shallow-standing-wave")
    dt, n_steps = 1e-6, 100
    out = {}
    for p in (1, 2, 3):
        for nel in (4, 8, 16):
            mesh = build_mesh(2, nel, case.bounds)
            basis = TensorBasis(2, p)
            ops = ShallowOperators(mesh, basis, case.problem, dt)
            state = ops.interpolate(case.problem.exact, 0.0)
            state, _tr, logs = solve(ops, IterationConfig(), state, n_steps)
            assert logs[-1].converged
            counts = [log.iterations for log in logs]
            out[(nel, p)] = (counts, ops.error_eval(n_steps * dt)(state))
    return out


def test_standing_wave_order_and_iterations(standing_wave_march):
    orders, bad_counts = {}, []
    for p in (1, 2, 3):
        e8 = standing_wave_march[(8, p)][1]
        e16 = standing_wave_march[(16, p)][1]
        orders[p] = np.log2(e8 / e16)
        for nel in (4, 8, 16):
            counts = standing_wave_march[(nel, p)][0]
            if any(c != 2 for c in counts):
                bad_counts.append((nel, p, sorted(set(counts))))
    ok = all(orders[p] >= p + ORDER_MARGIN for p in (1, 2, 3))
    ok = ok and not bad_counts
    detail = (
        "orders "
        + ", ".join(f"p{p}: {orders[p]:.2f}" for p in (1, 2, 3))
        + "; iterations/step "
        + ("all 2" if not bad_counts else f"not 2 at {bad_counts}")
    )
    _report("standing-wave", ok, detail)


# -- 4: steady iteration counts vs reference --------------------------------------


@pytest.fixture(scope="module")
def steady_counts():
    # the cells of `ehdg tables table=1`, which must be the reference's
    out = {}
    for case, nel, p, _dt, config in _table_cells("1"):
        _ops, [log] = run_cell(case, nel, p, config)
        out[(case.identifier, p, nel)] = log.iterations
    assert list(out) == _reference_cells(REFERENCE_STEADY)
    return out


def test_steady_iteration_counts_vs_reference(steady_counts):
    off, n_cells = [], 0
    for (ident, p, nel), mine in steady_counts.items():
        ref = REFERENCE_STEADY[ident][p][nel]
        n_cells += 1
        if abs(mine - ref) > 0.20 * ref:
            off.append(f"{ident} p{p} nel{nel}: {mine} vs {ref}")
    not_monotone = []
    for ident, per_p in REFERENCE_STEADY.items():
        for p, cells in per_p.items():
            seq = [steady_counts[(ident, p, nel)] for nel in sorted(cells)]
            if any(b <= a for a, b in zip(seq, seq[1:])):
                not_monotone.append(f"{ident} p{p}: {seq}")
    wide = []
    for ident, per_p in REFERENCE_STEADY.items():
        for nel in next(iter(per_p.values())):
            vals = np.array([steady_counts[(ident, p, nel)] for p in per_p])
            mean = vals.mean()
            if np.abs(vals - mean).max() > 0.15 * mean:
                wide.append(f"{ident} nel{nel}: {vals.tolist()}")
    ok = not off and not not_monotone and not wide
    detail = f"{n_cells - len(off)}/{n_cells} cells within 20%"
    if off:
        detail += "; off: " + "; ".join(off)
    if not_monotone:
        detail += "; not monotone: " + "; ".join(not_monotone)
    if wide:
        detail += "; p-spread > 15%: " + "; ".join(wide)
    if ok:
        detail += "; monotone in nel; p-spread <= 15%"
    _report("steady-counts", ok, detail)


# -- 5: transient iteration counts vs reference ------------------------------------


@pytest.fixture(scope="module")
def transient_counts():
    # the cells of `ehdg tables table=2` over 6 steps, which must be the
    # reference's; returned in the reference's order
    out = {}
    for case, nel, p, dt, config in _table_cells("2"):
        _ops, logs = run_cell(case, nel, p, config, dt, 6)
        out[(case.identifier, dt, p, nel)] = logs[-1].iterations
    cells = _reference_cells(REFERENCE_TRANSIENT)
    assert sorted(out) == sorted(cells)
    return {key: out[key] for key in cells}


def test_transient_iteration_counts_vs_reference(transient_counts):
    off, n_cells = [], 0
    for (ident, dt, p, nel), mine in transient_counts.items():
        ref = REFERENCE_TRANSIENT[(ident, dt)][p][nel]
        n_cells += 1
        if abs(mine - ref) > 2:
            off.append(f"{ident} dt={dt:g} p{p} nel{nel}: {mine} vs {ref}")
    not_two = sorted(
        {
            mine
            for (ident, dt, p, nel), mine in transient_counts.items()
            if ident == "transport3d-gaussian" and dt == 1e-4 and mine != 2
        }
    )
    ok = not off and not not_two
    detail = f"{n_cells - len(off)}/{n_cells} cells within +-2"
    if off:
        detail += "; off: " + "; ".join(off)
    if not_two:
        detail += f"; advection dt=1e-4 counts {not_two} (need exactly 2)"
    _report("transient-counts", ok, detail)


# -- 6: transient Gaussian cost and accuracy ---------------------------------------


@pytest.fixture(scope="module")
def gaussian_march():
    case = catalog("transport3d-gaussian")
    dt, n_steps = 0.01, 24
    mesh = build_mesh(3, 8, case.bounds)
    basis = TensorBasis(3, 4)
    ops = TransportOperators(mesh, basis, case.problem, dt=dt)
    state = ops.interpolate_exact(0.0)
    state, _tr, logs = solve(ops, IterationConfig(), state, n_steps)
    assert logs[-1].converged
    counts = [log.iterations for log in logs]
    err = transport_error_eval(ops, n_steps * dt)(state)

    steady = catalog("transport3d-steady")
    smesh = build_mesh(3, 8, steady.bounds)
    sbasis = TensorBasis(3, 1)
    sops = TransportOperators(smesh, sbasis, steady.problem)
    u, _tr, [log] = solve(sops, IterationConfig())
    assert log.converged
    floor = transport_error_eval(sops, 0.0)(u)
    return counts, err, floor


def test_transient_gaussian_cost_and_accuracy(gaussian_march):
    counts, err, floor = gaussian_march
    cost_ok = all(7 <= c <= 11 for c in counts)
    err_ok = err < floor
    ok = cost_ok and err_ok
    detail = (
        f"iterations/step {min(counts)}..{max(counts)} (need 9+-2); "
        f"final error {err:.3e} vs first-order steady floor {floor:.3e}"
    )
    _report("gaussian-cost", ok, detail)


# -- 7: exponential decay of the iteration error -----------------------------------


def test_exponential_error_decay_fit():
    case = catalog("transport2d-smooth")
    mesh = build_mesh(2, 8, case.bounds)
    fits = {}
    for p in (1, 2, 3, 4):
        basis = TensorBasis(2, p)
        ops = TransportOperators(mesh, basis, case.problem)
        _u, _tr, log = iterate_to_fixed_point(ops, TIGHT)
        fits[p] = fit_exponential_rate(log.errors)
    ok = all(
        f.defined and f.rate < 0 and f.r_squared >= 0.98
        for f in fits.values()
    )
    detail = "; ".join(
        f"p{p}: rate {f.rate:.3f}, r2 {f.r_squared:.4f}"
        if f.defined
        else f"p{p}: undefined fit"
        for p, f in fits.items()
    )
    _report("exponential-decay", ok, detail)


# -- 8: equivalence with the direct skeleton solve ---------------------------------


def _oracle_pair(case, nel, p, dt=None):
    """One level iterated and direct-solved on the same operator set."""
    ops, state0 = build_case(case, nel, p, dt)
    s_it, _tr, _logs = solve(ops, TIGHT, state0)
    t = 0.0 if ops.dt is None else ops.dt
    s_dir, tr_dir, _sys = direct_solve(ops, state0, t)
    if case.kind == "shallow":
        gap = ops.diff_norm
    else:
        def gap(a, b):
            return volume_l2(ops.mesh, ops.basis, a - b)
    rel = gap(s_it, s_dir) / gap(s_dir, np.zeros_like(s_dir))
    j_it = flux_jump_residual(ops, s_it, tr_dir)
    j_dir = flux_jump_residual(ops, s_dir, tr_dir)
    return rel, j_it, j_dir


def test_direct_solve_equivalence():
    worst_rel, worst_jump, rows = 0.0, 0.0, 0
    for ident in (
        "transport2d-smooth",
        "transport2d-discontinuous",
        "transport3d-steady",
        "transport3d-gaussian",
        "shallow-standing-wave",
    ):
        case = catalog(ident)
        nel = 16 if case.dim == 2 else 4
        # transport steps at the case's own dt, shallow water at 1e-3
        dt = 1e-3 if case.kind == "shallow" else None
        for p in (1, 2, 3):
            rel, j_it, j_dir = _oracle_pair(case, nel, p, dt)
            worst_rel = max(worst_rel, rel)
            worst_jump = max(worst_jump, j_it, j_dir)
            rows += 1
    ok = worst_rel <= 1e-8 and worst_jump <= 1e-9
    detail = (
        f"{rows} case/order pairs; worst relative L2 {worst_rel:.2e} "
        f"(<= 1e-8); worst flux jump {worst_jump:.2e} (<= 1e-9)"
    )
    _report("oracle-equivalence", ok, detail)


# -- 9: mass conservation per time step --------------------------------------------


def test_mass_conservation_per_step():
    case = catalog("shallow-standing-wave")
    mesh = build_mesh(2, 8, case.bounds)
    basis = TensorBasis(2, 2)
    ops = ShallowOperators(mesh, basis, case.problem, 1e-3)
    state0 = ops.interpolate(case.problem.exact, 0.0)
    phi0 = ops.split(state0)[0]
    vals = np.abs(phi0 @ basis.eval_vol.T)
    scale = float(mesh.jac * np.sum(basis.quad_w * vals))
    config = IterationConfig()
    masses = [ops.total_mass(state0)]
    for m in range(1, 11):
        state, _tr, _logs = solve(ops, config, state0, m)
        masses.append(ops.total_mass(state))
    drifts = np.abs(np.diff(masses))
    ok = bool(np.all(drifts <= 1e-11 * scale))
    detail = (
        f"max per-step drift {drifts.max():.3e} vs bound "
        f"{1e-11 * scale:.3e} over 10 steps"
    )
    _report("mass-conservation", ok, detail)


# -- 10: contraction bound on the skeleton norm ------------------------------------


def test_contraction_bound_on_skeleton_norm():
    setups = (
        dict(nel=4, p=1, phi_mean=1.0, dt=1e-3),
        dict(nel=2, p=2, phi_mean=4.0, dt=1e-3),
    )
    details, ok = [], True
    for s in setups:
        rep = contraction_constants(
            1.0 / s["nel"], s["dt"], s["p"], s["phi_mean"]
        )
        assert rep.valid
        mesh = build_mesh(2, s["nel"], ((0.0, 1.0), (0.0, 1.0)))
        basis = TensorBasis(2, s["p"])
        problem = ShallowProblem(phi_mean=s["phi_mean"])
        ops = ShallowOperators(mesh, basis, problem, s["dt"])
        config = IterationConfig(
            stopping=SUCCESSIVE_DIFFERENCE, tol=1e-300, max_iters=12
        )
        worst = 0.0
        for seed in (1, 2, 3):
            rng = np.random.default_rng(20240818 + seed)
            u0 = rng.standard_normal((mesh.n_el, 3 * basis.n_p))
            _u, _tr, log = iterate_to_fixed_point(
                ops, config, u0=u0, state_prev=ops.zero_state()
            )
            norms = [ops.skeleton_norm(u0)] + list(log.skeleton)
            for a, b in zip(norms, norms[1:]):
                if a > 1e-220:
                    worst = max(worst, (b / a) ** 2)
        ok = ok and worst <= rep.c_ratio
        details.append(
            f"nel{s['nel']} p{s['p']} Phi={s['phi_mean']:g}: "
            f"max squared ratio {worst:.3e} vs bound {rep.c_ratio:.3e}"
        )
    assert not contraction_constants(0.25, 1.0, 1, 1.0).valid
    _report("contraction-bound", ok, "; ".join(details))


# -- 11: property invariants --------------------------------------------------------


def _check_quadrature_exactness():
    for p in (1, 2, 3, 4):
        x, w = gll_nodes(p)
        k = 2 * p - 2
        if abs(np.sum(w * x**k) - 2.0 / (k + 1)) > 1e-13:
            return False
        if abs(np.sum(w * x ** (2 * p)) - 2.0 / (2 * p + 1)) < 1e-8:
            return False
    for n in (2, 3, 4, 5):
        x, w = gauss_quadrature(n)
        k = 2 * n - 2
        if abs(np.sum(w * x**k) - 2.0 / (k + 1)) > 1e-13:
            return False
        if abs(np.sum(w * x ** (2 * n)) - 2.0 / (2 * n + 1)) < 1e-8:
            return False
    return True


def _check_mass_spd():
    for dim in (2, 3):
        for p in (1, 2, 3, 4):
            basis = TensorBasis(dim, p)
            if np.linalg.eigvalsh(basis.mass_ref).min() <= 0:
                return False
    return True


def _rotating_ops(nel=3, p=2, beta=(0.0, 1.0)):
    mesh = build_mesh(2, nel, ((0.0, 1.0), (0.0, 1.0)))
    basis = TensorBasis(2, p)
    bvec = np.asarray(beta)
    problem = TransportProblem(
        dim=2,
        velocity=lambda pts: np.broadcast_to(bvec, (len(pts), 2)).copy(),
        inflow=lambda pts, t=0.0: np.zeros(len(pts)),
        constant_velocity=True,
    )
    return mesh, basis, TransportOperators(mesh, basis, problem)


def _check_trace_consensus():
    mesh, basis, ops = _rotating_ops(beta=(1.0, 0.7))
    f = lambda pts: pts[:, 0] ** 2 - 3.0 * pts[:, 0] * pts[:, 1] + pts[:, 1]
    X = mesh.centers[:, None, :] + mesh.half * basis.ref_nodes[None]
    u = f(X.reshape(-1, 2)).reshape(mesh.n_el, basis.n_p)
    tr = ops.initial_trace(u)
    for a in range(2):
        fid, minus, _plus = mesh.interior_faces(a)
        nodal = u[minus][:, basis.face_node_ids[(a, 1)]]
        if not np.allclose(tr[a][fid], nodal, atol=1e-12):
            return False
    return True


def _check_sign_zero_average_and_symmetry():
    rng = np.random.default_rng(77)
    mesh, basis, ops0 = _rotating_ops(nel=2, p=1, beta=(0.0, 1.0))
    fid, minus, plus = mesh.interior_faces(0)
    ids = basis.face_node_ids
    for _ in range(10):
        u = rng.standard_normal((mesh.n_el, basis.n_p))
        tr = ops0.initial_trace(u)
        mean = 0.5 * (u[minus][:, ids[(0, 1)]] + u[plus][:, ids[(0, 0)]])
        if not np.allclose(tr[0][fid], mean, atol=1e-12):
            return False
    # flipping the normal velocity mirrors which side is taken
    _m, _b, ops_r = _rotating_ops(nel=2, p=1, beta=(1.0, 0.5))
    _m, _b, ops_l = _rotating_ops(nel=2, p=1, beta=(-1.0, 0.5))
    for _ in range(10):
        u = rng.standard_normal((mesh.n_el, basis.n_p))
        tr_r = ops_r.initial_trace(u)
        tr_l = ops_l.initial_trace(u)
        take_minus = u[minus][:, ids[(0, 1)]]
        take_plus = u[plus][:, ids[(0, 0)]]
        if not np.allclose(tr_r[0][fid], take_minus, atol=1e-12):
            return False
        if not np.allclose(tr_l[0][fid], take_plus, atol=1e-12):
            return False
    return True


def _check_conservation_identity():
    rng = np.random.default_rng(78)
    mesh, basis, ops = _rotating_ops(nel=4, p=2, beta=(0.8, -0.6))
    for _ in range(5):
        u = rng.standard_normal((mesh.n_el, basis.n_p))
        if flux_jump_residual(ops, u, ops.initial_trace(u)) > 1e-12:
            return False
    return True


def _check_constant_state():
    mesh = build_mesh(2, 4, ((0.0, 1.0), (0.0, 1.0)))
    basis = TensorBasis(2, 2)
    problem = TransportProblem(
        dim=2,
        velocity=lambda pts: np.broadcast_to(
            np.array([1.0, 0.5]), (len(pts), 2)
        ).copy(),
        inflow=lambda pts, t=0.0: np.full(len(pts), 4.5),
        constant_velocity=True,
    )
    ops = TransportOperators(mesh, basis, problem)
    u, _tr, _log = iterate_to_fixed_point(ops, TIGHT)
    # the iterate stops a stopping-tolerance-sized step from the fixed
    # point; the direct solve reproduces the constant to machine precision
    if np.abs(u - 4.5).max() > 1e-9:
        return False
    u_dir, _tr, _sys = direct_solve(ops, None, 0.0)
    if np.abs(u_dir - 4.5).max() > 1e-11:
        return False
    case = catalog("shallow-standing-wave")
    sops = ShallowOperators(mesh, basis, case.problem, 1e-3)
    state = sops.zero_state()
    state[:, : basis.n_p] = 7.25
    stepped, _tr, _logs = solve(sops, TIGHT, state)
    return np.abs(stepped - state).max() <= 1e-12


def _check_deterministic_rerun():
    case = catalog("transport2d-smooth")
    mesh = build_mesh(2, 4, case.bounds)
    basis = TensorBasis(2, 2)
    ops = TransportOperators(mesh, basis, case.problem)
    u1, _t1, log1 = iterate_to_fixed_point(ops, IterationConfig())
    u2, _t2, log2 = iterate_to_fixed_point(ops, IterationConfig())
    return (
        np.array_equal(u1, u2)
        and log1.iterations == log2.iterations
        and log1.errors == log2.errors
    )


def test_property_invariants():
    suites = {
        "quadrature-exactness": _check_quadrature_exactness,
        "mass-spd": _check_mass_spd,
        "trace-consensus": _check_trace_consensus,
        "upwind-sign-rules": _check_sign_zero_average_and_symmetry,
        "conservation-identity": _check_conservation_identity,
        "constant-state": _check_constant_state,
        "deterministic-rerun": _check_deterministic_rerun,
    }
    results = {name: fn() for name, fn in suites.items()}
    failing = [name for name, good in results.items() if not good]
    ok = not failing
    detail = f"{len(results) - len(failing)}/{len(results)} suites"
    if failing:
        detail += "; failing: " + ", ".join(failing)
    _report("property-invariants", ok, detail)
