"""Fixed-point driver, stopping rules, logging, and rate fitting."""

import io
import math

import numpy as np
import pytest

from ehdg.basis import TensorBasis
from ehdg.driver import (
    ERROR_DIFFERENCE,
    STOPPING_MODES,
    SUCCESSIVE_DIFFERENCE,
    TRACE_RESIDUAL,
    ConvergenceFailure,
    IterationConfig,
    fit_exponential_rate,
    iterate_to_fixed_point,
    solve,
    trace_diff_norm,
    volume_l2,
)
from ehdg.mesh import build_mesh
from ehdg.problems import build_case, catalog, convergence_study
from ehdg.transport import TransportOperators, TransportProblem

from conftest import interp_scalar


def smooth_ops(nel=4, p=2):
    case = catalog("transport2d-smooth")
    mesh = build_mesh(2, nel, case.bounds)
    basis = TensorBasis(2, p)
    return TransportOperators(mesh, basis, case.problem), mesh, basis


def homogeneous_ops():
    def beta(pts):
        return np.stack([pts[:, 1], pts[:, 0]], axis=1)

    zero = lambda pts, t=0.0: np.zeros(len(pts))
    prob = TransportProblem(dim=2, velocity=beta, inflow=zero, exact=zero)
    mesh = build_mesh(2, 3, [(0, 1), (0, 1)])
    return TransportOperators(mesh, TensorBasis(2, 1), prob)


class TestStoppingRules:
    def test_mode_names(self):
        assert set(STOPPING_MODES) == {
            "error-difference", "successive-difference", "trace-residual"}

    def test_homogeneous_problem_converges_in_one_pass(self):
        # zero data keeps every iterate zero; the first successive
        # difference already vanishes
        ops = homogeneous_ops()
        cfg = IterationConfig(stopping=SUCCESSIVE_DIFFERENCE)
        u, _trace, log = iterate_to_fixed_point(ops, cfg)
        assert log.converged
        assert log.iterations == 1
        assert np.allclose(u, 0.0)

    def test_error_difference_needs_two_passes(self):
        # the error test compares two computed iterates, so even an exactly
        # reproduced solution cannot stop before the second pass
        ops = homogeneous_ops()
        cfg = IterationConfig(stopping=ERROR_DIFFERENCE)
        _u, _trace, log = iterate_to_fixed_point(ops, cfg)
        assert log.converged
        assert log.iterations == 2

    def test_trace_residual_stops_on_fixed_trace(self):
        ops = homogeneous_ops()
        cfg = IterationConfig(stopping=TRACE_RESIDUAL)
        _u, _trace, log = iterate_to_fixed_point(ops, cfg)
        assert log.converged
        assert log.iterations == 1

    def test_error_difference_requires_exact_solution(self):
        case = catalog("transport2d-discontinuous")
        mesh = build_mesh(2, 4, case.bounds)
        ops = TransportOperators(mesh, TensorBasis(2, 1), case.problem)
        with pytest.raises(ValueError):
            iterate_to_fixed_point(ops, IterationConfig())

    @pytest.mark.parametrize(
        "bad", [{"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")},
                {"max_iters": 0}, {"max_iters": -3}])
    def test_config_rejects_non_positive_values(self, bad):
        with pytest.raises(ValueError):
            IterationConfig(**bad)

    def test_all_modes_reach_the_same_fixed_point(self):
        results, errors = [], []
        for mode in STOPPING_MODES:
            ops, mesh, basis = smooth_ops()
            cfg = IterationConfig(stopping=mode, tol=1e-12)
            u, _t, log = iterate_to_fixed_point(ops, cfg)
            assert log.converged
            results.append(u)
            errors.append(log.errors[-1])
        # the two iterate-movement criteria stop at essentially the same
        # field; the error criterion may stop earlier once the error sits
        # on the discretization floor, so compare it by achieved error
        succ, res = results[1], results[2]
        assert volume_l2(*smooth_ops()[1:], succ - res) < 1e-9
        floor = errors[1]
        assert all(math.isclose(e, floor, rel_tol=1e-6) for e in errors)


class TestIterateContract:
    def test_history_length_equals_iteration_count(self):
        ops, _mesh, _basis = smooth_ops()
        _u, _t, log = iterate_to_fixed_point(ops, IterationConfig())
        assert log.iterations > 2
        assert len(log.errors) == log.iterations
        assert len(log.successive) == log.iterations
        assert len(log.skeleton) == log.iterations
        assert all(np.isfinite(log.skeleton))
        assert log.stopping == ERROR_DIFFERENCE
        assert log.tol == 1e-10

    def test_fixed_point_ignores_initial_guess(self, rng):
        ops, mesh, basis = smooth_ops()
        cfg = IterationConfig(tol=1e-12)
        u1, _t, _l = iterate_to_fixed_point(
            ops, cfg, u0=rng.standard_normal((mesh.n_el, basis.n_p)))
        u2, _t2, _l2 = iterate_to_fixed_point(
            ops, cfg, u0=10.0 * rng.standard_normal((mesh.n_el, basis.n_p)))
        assert volume_l2(mesh, basis, u1 - u2) < 1e-9

    def test_deterministic_reruns(self):
        ua, _ta, la = iterate_to_fixed_point(smooth_ops()[0],
                                             IterationConfig())
        ub, _tb, lb = iterate_to_fixed_point(smooth_ops()[0],
                                             IterationConfig())
        assert np.array_equal(ua, ub)
        assert la.errors == lb.errors
        assert la.iterations == lb.iterations

    def test_cap_raises_on_steady_solve(self):
        # solve leaves the cap to its caller; the study raises on it
        with pytest.raises(ConvergenceFailure,
                           match="transport2d-smooth nel=4 p=2 dt=None: "
                                 "level 1 hit the iteration cap"):
            convergence_study(catalog("transport2d-smooth"), [4], [2],
                              config=IterationConfig(max_iters=3))

    def test_capped_iterate_returns_partial_log(self):
        ops, _mesh, _basis = smooth_ops()
        _u, _t, log = iterate_to_fixed_point(ops,
                                             IterationConfig(max_iters=3))
        assert not log.converged
        assert log.iterations == 3
        assert len(log.errors) == 3

    def test_solver_reduces_error_monotonically_early(self):
        ops, _mesh, _basis = smooth_ops(nel=8, p=2)
        _u, _t, log = iterate_to_fixed_point(ops, IterationConfig())
        # exponential convergence toward the discrete solution shows up as
        # a strictly decreasing error until the discretization floor
        e = log.errors
        assert all(b < a for a, b in zip(e[:5], e[1:6]))


def shallow_case(dt=1e-3):
    return build_case(catalog("shallow-standing-wave"), 4, 1, dt)


class TestTransient:
    def test_solve_transient_contract(self):
        ops, state = shallow_case()
        state, _trace, logs = solve(ops, IterationConfig(), state, 4)
        assert len(logs) == 4
        assert all(log.iterations >= 1 for log in logs)
        assert all(log.converged for log in logs)
        assert state.shape == (ops.mesh.n_el, 3 * ops.n_p)
        with pytest.raises(ValueError, match="steps must be positive"):
            solve(ops, IterationConfig(), state, 0)

    def test_study_raises_on_cap(self):
        with pytest.raises(ConvergenceFailure,
                           match="shallow-standing-wave nel=4 p=1 dt=0.001: "
                                 "level 1 hit the iteration cap"):
            convergence_study(catalog("shallow-standing-wave"), [4], [1],
                              config=IterationConfig(max_iters=1),
                              dt=1e-3, n_steps=2)

    def test_solve_stops_at_first_failure(self):
        ops, state = shallow_case()
        config = IterationConfig(max_iters=1)
        s, trace, logs = solve(ops, config, state, 3)
        assert [log.iterations for log in logs] == [1]
        assert not logs[0].converged
        # the returned state and trace are the failed step's
        s1, t1, _log = iterate_to_fixed_point(
            ops, config, u0=state, t=ops.dt, state_prev=state)
        assert np.array_equal(s, s1)
        assert all(np.array_equal(a, b) for a, b in zip(trace, t1))

    def test_step_warm_start_uses_previous_state(self):
        # with exact initial data and a tiny step the warm start leaves
        # almost nothing to correct, so the pass count stays at the floor
        ops, state = shallow_case(dt=1e-6)
        _s, _t, [log] = solve(ops, IterationConfig(), state)
        assert log.converged
        assert log.iterations == 2

    @pytest.mark.parametrize("identifier, nel, p, dt, steps", [
        ("transport2d-smooth", 4, 2, None, 1),
        ("transport3d-gaussian", 2, 2, 1e-2, 3),
        ("shallow-standing-wave", 4, 1, 1e-3, 3),
    ])
    def test_solve_matches_level_by_level(self, identifier, nel, p, dt,
                                          steps):
        ops, state0 = build_case(catalog(identifier), nel, p, dt)
        config = IterationConfig()
        state, trace, logs = solve(ops, config, state0, steps)
        times = [0.0] if dt is None else [m * dt + dt for m in range(steps)]
        assert len(logs) == len(times)
        ref = state0
        for t, log in zip(times, logs):
            prev = None if dt is None else ref
            ref, ref_trace, ref_log = iterate_to_fixed_point(
                ops, config, u0=ref, t=t, state_prev=prev)
            assert log.converged and ref_log.converged
            assert log.iterations == ref_log.iterations
            for seq in ("errors", "successive", "skeleton"):
                assert np.array_equal(getattr(log, seq),
                                      getattr(ref_log, seq))
        assert np.array_equal(state, ref)
        assert all(np.array_equal(a, b)
                   for a, b in zip(trace, ref_trace))


class TestNorms:
    def test_volume_l2_zero(self):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        assert volume_l2(mesh, basis, np.zeros((mesh.n_el, basis.n_p))) == 0.0

    def test_volume_l2_constant(self):
        mesh = build_mesh(2, 2, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 2)
        u = np.full((mesh.n_el, basis.n_p), 2.0)
        assert math.isclose(volume_l2(mesh, basis, u), 2.0, rel_tol=1e-13)

    def test_volume_l2_linear_on_stretched_domain(self):
        mesh = build_mesh(2, 2, [(0, 2), (0, 1)])
        basis = TensorBasis(2, 2)
        u = interp_scalar(mesh, basis, lambda q: q[:, 0])
        assert math.isclose(volume_l2(mesh, basis, u),
                            math.sqrt(8.0 / 3.0), rel_tol=1e-13)

    def test_trace_diff_norm_localized(self):
        mesh = build_mesh(2, 4, [(0, 1), (0, 1)])
        basis = TensorBasis(2, 1)
        t1, t2 = ([np.zeros((n, basis.n_face)) for n in mesh.n_faces_axis]
                  for _ in range(2))
        fid, _m, _p = mesh.interior_faces(0)
        t2[0][fid[0]] = 3.0
        assert math.isclose(trace_diff_norm(mesh, basis, t1, t2), 1.5,
                            rel_tol=1e-13)
        assert trace_diff_norm(mesh, basis, t1, t1) == 0.0


class TestConvergenceCsv:
    def test_schema_and_row_numbering(self):
        ops, _mesh, _basis = smooth_ops()
        _u, _t, log = iterate_to_fixed_point(ops, IterationConfig())
        buf = io.StringIO()
        log.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "iteration,error_vs_exact,successive_diff,skeleton_norm"
        assert len(lines) == 1 + log.iterations
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(k + 1) for k in range(log.iterations)]
        first = lines[1].split(",")
        assert float(first[1]) == log.errors[0]

    def test_reruns_are_byte_identical(self):
        outs = []
        for _ in range(2):
            ops, _mesh, _basis = smooth_ops(nel=8, p=1)
            _u, _t, log = iterate_to_fixed_point(ops, IterationConfig())
            buf = io.StringIO()
            log.write_csv(buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


class TestRateFit:
    def test_clean_geometric_decay(self):
        norms = 3.0 * 0.5 ** np.arange(10)
        fit = fit_exponential_rate(norms)
        assert fit.defined
        assert math.isclose(fit.rate, math.log(0.5), rel_tol=1e-10)
        assert fit.r_squared > 0.999999
        assert fit.floor_index is None
        assert fit.n_points == 10

    def test_floor_is_cut_from_the_window(self):
        decay = [0.3**k for k in range(10)]
        norms = decay + [decay[-1]] * 6
        fit = fit_exponential_rate(norms)
        assert fit.defined
        assert fit.floor_index == 9
        assert fit.n_points == 10
        assert math.isclose(fit.rate, math.log(0.3), rel_tol=1e-8)

    def test_constant_sequence_is_undefined(self):
        fit = fit_exponential_rate([1.0] * 8)
        assert not fit.defined
        assert fit.rate is None and fit.r_squared is None

    def test_too_few_points_is_undefined(self):
        fit = fit_exponential_rate([1.0, 0.5, 0.25, 0.125])
        assert not fit.defined
        assert fit.n_points == 4

    def test_zeros_inside_window_are_undefined(self):
        fit = fit_exponential_rate([1.0, 0.1, 0.0, 0.0, 0.0, 0.0])
        assert not fit.defined

    def test_nan_truncates_then_needs_enough_points(self):
        fit = fit_exponential_rate([1.0, 0.5, float("nan"), 0.1])
        assert not fit.defined

    def test_noisy_decay_keeps_high_r_squared(self, rng):
        norms = np.exp(-0.8 * np.arange(12)) * np.exp(
            0.03 * rng.standard_normal(12))
        fit = fit_exponential_rate(norms)
        assert fit.defined
        assert fit.rate < 0
        assert fit.r_squared > 0.98
