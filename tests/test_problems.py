"""Problem catalog: manufactured solutions actually solve their PDEs."""

import math

import numpy as np
import pytest

from ehdg.driver import IterationConfig, solve
from ehdg.problems import (
    build_case,
    case_identifiers,
    catalog,
    convergence_study,
    run_cell,
    time_levels,
)

FD_H = 1e-6


def fd_grad(fn, pts, t):
    """Central-difference spatial gradient of a scalar callable."""
    d = pts.shape[1]
    out = np.zeros_like(pts)
    for a in range(d):
        hi, lo = pts.copy(), pts.copy()
        hi[:, a] += FD_H
        lo[:, a] -= FD_H
        out[:, a] = (fn(hi, t) - fn(lo, t)) / (2 * FD_H)
    return out


def fd_dt(fn, pts, t):
    return (fn(pts, t + FD_H) - fn(pts, t - FD_H)) / (2 * FD_H)


def interior_points(rng, bounds, n=100, margin=0.05):
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo
    return lo + span * rng.uniform(margin, 1 - margin, size=(n, len(bounds)))


class TestManufacturedSolutions:
    @pytest.mark.parametrize("identifier",
                             ["transport2d-smooth", "transport3d-steady"])
    def test_steady_forcing_matches_advected_exact(self, identifier, rng):
        case = catalog(identifier)
        prob = case.problem
        pts = interior_points(rng, case.bounds)
        beta = prob.velocity(pts)
        grad = fd_grad(prob.exact, pts, 0.0)
        residual = np.sum(beta * grad, axis=1) - prob.forcing(pts, 0.0)
        assert np.max(np.abs(residual)) < 1e-5

    def test_steady_inflow_data_is_the_exact_trace(self, rng):
        case = catalog("transport2d-smooth")
        pts = interior_points(rng, case.bounds)
        pts[:, 0] = 0.0
        assert np.allclose(case.problem.inflow(pts, 0.0),
                           case.problem.exact(pts, 0.0), atol=1e-14)

    def test_standing_wave_solves_the_linear_system(self, rng):
        case = catalog("shallow-standing-wave")
        exact = case.problem.exact
        assert case.problem.phi_mean == 1.0
        assert case.problem.friction == 0.0
        pts = interior_points(rng, case.bounds, n=60)
        for t in (0.13, 0.77):
            phi = lambda q, s: exact(q, s)[:, 0]
            u = lambda q, s: exact(q, s)[:, 1]
            v = lambda q, s: exact(q, s)[:, 2]
            div = fd_grad(u, pts, t)[:, 0] + fd_grad(v, pts, t)[:, 1]
            assert np.max(np.abs(fd_dt(phi, pts, t) + div)) < 1e-4
            gphi = fd_grad(phi, pts, t)
            assert np.max(np.abs(fd_dt(u, pts, t) + gphi[:, 0])) < 1e-4
            assert np.max(np.abs(fd_dt(v, pts, t) + gphi[:, 1])) < 1e-4

    def test_standing_wave_walls_see_no_normal_flow(self):
        case = catalog("shallow-standing-wave")
        exact = case.problem.exact
        y = np.linspace(0.05, 0.95, 9)
        for t in (0.0, 0.31):
            west = np.stack([np.zeros(9), y], axis=1)
            east = np.stack([np.ones(9), y], axis=1)
            assert np.allclose(exact(west, t)[:, 1], 0.0, atol=1e-14)
            assert np.allclose(exact(east, t)[:, 1], 0.0, atol=1e-14)
            south = np.stack([y, np.zeros(9)], axis=1)
            assert np.allclose(exact(south, t)[:, 2], 0.0, atol=1e-14)

    def test_gaussian_rides_the_constant_velocity(self, rng):
        case = catalog("transport3d-gaussian")
        prob = case.problem
        pts = interior_points(rng, case.bounds, n=60)
        for t in (0.0, 0.6):
            beta = prob.velocity(pts)
            adv = np.sum(beta * fd_grad(prob.exact, pts, t), axis=1)
            assert np.max(np.abs(fd_dt(prob.exact, pts, t) + adv)) < 1e-4

    def test_gaussian_far_from_its_centre_is_zero(self, rng):
        # at t = 1e200 the centre is past 1e199 and the square overflows:
        # exp(-inf) is 0, with no overflow warning
        prob = catalog("transport3d-gaussian").problem
        pts = interior_points(rng, ((0.0, 1.0),) * 3, n=20)
        assert np.array_equal(prob.exact(pts, 1e200), np.zeros(20))
        # finite squares are summed and exponentiated as before
        for t in (0.0, 0.6, 1e3):
            r2 = np.sum((pts - 0.2 * t) ** 2, axis=1)
            assert np.array_equal(prob.exact(pts, t), np.exp(-5.0 * r2))

    def test_discontinuous_inflow_profile(self):
        prob = catalog("transport2d-discontinuous").problem
        pts = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0],
                        [1.0, 0.0], [1.5, 0.0], [2.0, 0.0]])
        vals = prob.inflow(pts, 0.0)
        assert vals[0] == 1.0  # jump value carried in from the corner
        assert math.isclose(vals[1], 0.125, rel_tol=1e-13)  # sin(pi/4)^6
        assert math.isclose(vals[2], 1.0, rel_tol=1e-13)
        assert vals[3] < 1e-30 and vals[4] == 0.0 and vals[5] == 0.0
        assert prob.exact is None

    def test_discontinuous_velocity_never_reverses(self):
        prob = catalog("transport2d-discontinuous").problem
        y = np.linspace(0.0, 2.0, 50)
        pts = np.stack([np.full(50, 0.7), y], axis=1)
        beta = prob.velocity(pts)
        assert np.all(beta[:, 0] >= 1.0)
        assert np.all(beta[:, 1] == 2.0)


class TestCatalog:
    def test_known_identifiers(self):
        ids = case_identifiers()
        assert set(ids) == {
            "transport2d-smooth",
            "transport2d-discontinuous",
            "transport3d-steady",
            "shallow-standing-wave",
            "transport3d-gaussian",
        }

    def test_unknown_identifier_reports_choices(self):
        with pytest.raises(KeyError) as err:
            catalog("transport3d-smooth")
        assert "transport3d-steady" in str(err.value)

    def test_case_metadata(self):
        wave = catalog("shallow-standing-wave")
        assert wave.kind == "shallow"
        assert wave.dt_default == 1e-6
        assert wave.n_steps_default == 100
        gauss = catalog("transport3d-gaussian")
        assert gauss.kind == "transport"
        assert gauss.dim == 3
        assert gauss.problem.constant_velocity


class TestConvergenceStudy:
    def test_steady_rows_and_orders(self):
        case = catalog("transport2d-smooth")
        rows = convergence_study(case, [4, 8], [1])
        assert len(rows) == 2
        assert [r.nel for r in rows] == [4, 8]
        assert math.isnan(rows[0].order)
        assert 1.5 < rows[1].order < 2.6
        assert rows[1].error < rows[0].error
        assert math.isclose(rows[0].h / rows[1].h, 2.0, rel_tol=1e-12)
        assert all(r.iterations > 0 for r in rows)

    def test_transient_study_sums_iterations(self):
        case = catalog("shallow-standing-wave")
        rows = convergence_study(case, [4], [1], dt=1e-3, n_steps=3)
        assert len(rows) == 1
        assert rows[0].iterations >= 3
        assert np.isfinite(rows[0].error) and rows[0].error > 0

    def test_transient_error_is_the_solve_log_error(self):
        # the study reports the error the solve's last pass logged, at the
        # time the last level was solved at, as `ehdg solve` does
        case = catalog("transport3d-gaussian")
        [row] = convergence_study(case, [4], [2], dt=0.01, n_steps=7)
        ops, state0 = build_case(case, 4, 2, 0.01)
        _state, _trace, logs = solve(ops, IterationConfig(), state0, 7)
        assert row.error == logs[-1].errors[-1]
        assert row.iterations == sum(log.iterations for log in logs)

    def test_requires_exact_solution(self):
        case = catalog("transport2d-discontinuous")
        with pytest.raises(ValueError):
            convergence_study(case, [4], [1])

    def test_time_step_without_step_count(self):
        # transport2d-smooth has no default step count, so a dt alone
        # leaves the march without a length
        with pytest.raises(ValueError, match="steps must be positive for a "
                                             "time-stepping solve, got None"):
            convergence_study(catalog("transport2d-smooth"), [4], [1], dt=0.01)

    @pytest.mark.parametrize("identifier, dt, steps, want", [
        # a steady case has no time levels
        ("transport2d-smooth", None, None, (None, None)),
        # the case's step and step count, each unless given
        ("transport3d-gaussian", None, None, (0.01, 240)),
        ("shallow-standing-wave", 1e-3, None, (1e-3, 100)),
        ("shallow-standing-wave", None, 7, (1e-6, 7)),
        ("transport2d-smooth", 0.05, 3, (0.05, 3)),
    ])
    def test_time_levels_fall_back_to_the_case(self, identifier, dt, steps,
                                               want):
        assert time_levels(catalog(identifier), dt, steps) == want

    @pytest.mark.parametrize("identifier, dt, steps, message", [
        # a steady cell does not read steps
        ("transport2d-smooth", None, 3, "would be ignored"),
        # a dt alone leaves the march without a length
        ("transport2d-smooth", 0.01, None,
         "steps must be positive for a time-stepping solve, got None"),
        ("transport3d-gaussian", None, 0,
         "steps must be positive for a time-stepping solve, got 0"),
        # a count is an integer: range() would refuse these only after the
        # build, and True would run one level
        ("transport3d-gaussian", None, 2.5, r"solve, got 2\.5$"),
        ("transport3d-gaussian", None, 2.0, r"solve, got 2\.0$"),
        ("shallow-standing-wave", 1e-3, True, "solve, got True$"),
    ])
    def test_run_cell_refuses_steps_before_building(
            self, identifier, dt, steps, message, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("build_case called")

        monkeypatch.setattr("ehdg.problems.build_case", built)
        with pytest.raises(ValueError, match=message):
            run_cell(catalog(identifier), 4, 1, IterationConfig(), dt, steps)

    def test_p_series_reset_between_orders(self):
        case = catalog("transport2d-smooth")
        cfg = IterationConfig(tol=1e-11)
        rows = convergence_study(case, [4, 8], [1, 2], config=cfg)
        assert len(rows) == 4
        assert math.isnan(rows[0].order) and math.isnan(rows[2].order)
        assert rows[2].p == 2 and 2.5 < rows[3].order < 3.6

    def test_repeated_mesh_is_refused_before_solving(self, monkeypatch):
        # an order between two equal meshes divides by log(1)
        def solved(*args, **kwargs):
            raise AssertionError("run_cell called")

        monkeypatch.setattr("ehdg.problems.run_cell", solved)
        with pytest.raises(ValueError, match="nel 4 appears more than once"):
            convergence_study(catalog("transport2d-smooth"), [4, 8, 4], [1])

    def test_decreasing_meshes_give_the_same_order(self):
        case = catalog("transport2d-smooth")
        up = convergence_study(case, [2, 4], [1])
        down = convergence_study(case, [4, 2], [1])
        assert [r.nel for r in down] == [4, 2]
        assert math.isnan(down[0].order)
        assert math.isclose(down[1].order, up[1].order, rel_tol=1e-12)
