"""Basis and quadrature checks against analytically known values."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehdg.basis import (
    TensorBasis,
    differentiation_matrix,
    gauss_quadrature,
    gll_nodes,
    lagrange_eval,
)

from conftest import cardinal_grads, cardinal_values

S5 = math.sqrt(5.0)

# 1D Gauss-Lobatto mass matrix for p = 3, integrated exactly
M1_P3 = np.array(
    [
        [1.0 / 7.0, S5 / 42.0, -S5 / 42.0, 1.0 / 42.0],
        [S5 / 42.0, 5.0 / 7.0, 5.0 / 42.0, -S5 / 42.0],
        [-S5 / 42.0, 5.0 / 42.0, 5.0 / 7.0, S5 / 42.0],
        [1.0 / 42.0, -S5 / 42.0, S5 / 42.0, 1.0 / 7.0],
    ]
)


class TestLobattoNodes:
    def test_p1(self):
        x, w = gll_nodes(1)
        assert np.allclose(x, [-1.0, 1.0], atol=1e-15)
        assert np.allclose(w, [1.0, 1.0], atol=1e-15)

    def test_p2(self):
        x, w = gll_nodes(2)
        assert np.allclose(x, [-1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_p3(self):
        x, w = gll_nodes(3)
        assert np.allclose(x, [-1.0, -1.0 / S5, 1.0 / S5, 1.0], atol=1e-14)
        assert np.allclose(w, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0],
                           atol=1e-14)

    def test_p4(self):
        x, w = gll_nodes(4)
        r = math.sqrt(3.0 / 7.0)
        assert np.allclose(x, [-1.0, -r, 0.0, r, 1.0], atol=1e-14)
        assert np.allclose(
            w,
            [0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1],
            atol=1e-14,
        )

    @pytest.mark.parametrize("p", range(1, 9))
    def test_weights_sum_to_interval_length(self, p):
        _x, w = gll_nodes(p)
        assert math.isclose(float(w.sum()), 2.0, rel_tol=1e-13)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_nodes_symmetric_and_sorted(self, p):
        x, _w = gll_nodes(p)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)
        assert np.allclose(x, -x[::-1], atol=1e-14)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_exact_through_degree_2p_minus_1(self, p):
        x, w = gll_nodes(p)
        for k in range(2 * p):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert math.isclose(float(np.sum(w * x**k)), exact, abs_tol=1e-12)

    def test_not_exact_at_degree_2p(self):
        p = 3
        x, w = gll_nodes(p)
        k = 2 * p
        assert abs(float(np.sum(w * x**k)) - 2.0 / (k + 1)) > 1e-3


class TestGaussRule:
    def test_three_point(self):
        x, w = gauss_quadrature(3)
        r = math.sqrt(3.0 / 5.0)
        assert np.allclose(x, [-r, 0.0, r], atol=1e-15)
        assert np.allclose(w, [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_exact_through_degree_2n_minus_1(self, n):
        x, w = gauss_quadrature(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert math.isclose(float(np.sum(w * x**k)), exact, abs_tol=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_weights_positive_nodes_interior(self, n):
        x, w = gauss_quadrature(n)
        assert np.all(w > 0)
        assert np.all(np.abs(x) < 1.0)

    @given(coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    def test_integrates_random_polynomials(self, coeffs):
        # 4-point Gauss is exact through degree 7
        x, w = gauss_quadrature(4)
        c = np.asarray(coeffs)
        vals = np.polynomial.polynomial.polyval(x, c)
        exact = sum(
            ck * (1.0 - (-1.0) ** (k + 1)) / (k + 1) for k, ck in enumerate(c)
        )
        scale = 1.0 + float(np.sum(np.abs(c)))
        assert math.isclose(float(np.sum(w * vals)), exact,
                            abs_tol=1e-12 * scale)


class TestLagrange:
    def test_cardinal_at_nodes(self):
        x, _ = gll_nodes(4)
        E = lagrange_eval(x, x)
        assert np.allclose(E, np.eye(5), atol=1e-13)

    def test_partition_of_unity(self, rng):
        x, _ = gll_nodes(5)
        pts = rng.uniform(-1, 1, size=40)
        E = lagrange_eval(x, pts)
        assert np.allclose(E.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("k", range(5))
    def test_reproduces_polynomials(self, k, rng):
        x, _ = gll_nodes(4)
        pts = rng.uniform(-1, 1, size=23)
        E = lagrange_eval(x, pts)
        assert np.allclose(E @ x**k, pts**k, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_differentiation_exact_on_polynomials(self, k):
        x, _ = gll_nodes(4)
        D = differentiation_matrix(x)
        assert np.allclose(D @ x**k, k * x ** (k - 1), atol=1e-11)

    def test_derivative_of_constant_vanishes(self):
        x, _ = gll_nodes(6)
        D = differentiation_matrix(x)
        assert np.allclose(D @ np.ones(7), 0.0, atol=1e-11)


class TestTensorBasis:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            TensorBasis(1, 3)
        with pytest.raises(ValueError):
            TensorBasis(4, 2)

    @pytest.mark.parametrize("d,p", [(2, 1), (2, 3), (3, 2)])
    def test_counts(self, d, p):
        b = TensorBasis(d, p)
        assert b.n_p == (p + 1) ** d
        assert b.n_face == (p + 1) ** (d - 1)
        assert b.n_q == (p + 2) ** d
        assert b.n_fq == (p + 2) ** (d - 1)
        assert b.ref_nodes.shape == (b.n_p, d)
        assert b.quad_ref.shape == (b.n_q, d)
        assert b.eval_vol.shape == (b.n_q, b.n_p)
        assert len(b.eval_grad) == d

    @pytest.mark.parametrize("d", [2, 3])
    def test_quadrature_weight_totals(self, d):
        b = TensorBasis(d, 2)
        assert math.isclose(float(b.quad_w.sum()), 2.0**d, rel_tol=1e-13)
        assert math.isclose(float(b.face_quad_w.sum()), 2.0 ** (d - 1),
                            rel_tol=1e-13)

    def test_node_ordering_axis0_fastest(self):
        b = TensorBasis(2, 2)
        x1 = b.nodes_1d
        # flat j = j0 + (p+1) j1
        assert np.allclose(b.ref_nodes[1], [x1[1], x1[0]])
        assert np.allclose(b.ref_nodes[3], [x1[0], x1[1]])

    def test_eval_vol_matches_pointwise_products(self):
        b = TensorBasis(2, 3)
        assert np.allclose(b.eval_vol, cardinal_values(b, b.quad_ref),
                           atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_eval_grad_matches_pointwise_products(self, axis):
        b = TensorBasis(2, 3)
        assert np.allclose(
            b.eval_grad[axis], cardinal_grads(b, b.quad_ref, axis), atol=1e-11
        )

    def test_mass_p3_2d_is_kron_of_analytic_1d(self):
        b = TensorBasis(2, 3)
        assert np.allclose(b.mass_ref, np.kron(M1_P3, M1_P3), atol=1e-13)
        assert math.isclose(b.mass_ref[0, 0], (1.0 / 7.0) ** 2,
                            rel_tol=1e-13)

    @pytest.mark.parametrize("d,p", [(2, 4), (3, 2)])
    def test_mass_symmetric_positive_definite(self, d, p):
        b = TensorBasis(d, p)
        assert np.allclose(b.mass_ref, b.mass_ref.T, atol=1e-14)
        assert float(np.linalg.eigvalsh(b.mass_ref).min()) > 0.0

    def test_mass_row_sums_are_gll_weight_products(self):
        # rows sum to integral of phi_i, which GLL weights give exactly
        # for degree p <= 2p-1 once p >= 1
        b = TensorBasis(2, 3)
        w = b.weights_gll
        expected = np.array(
            [w[j % 4] * w[j // 4] for j in range(16)]
        )
        assert np.allclose(b.mass_ref.sum(axis=1), expected, atol=1e-13)


class TestFaceStructure:
    @pytest.mark.parametrize("d,p", [(2, 2), (3, 2)])
    def test_face_restriction_equals_trace_evaluation(self, d, p):
        # restricting element nodal data to a face and evaluating the face
        # polynomial at the face nodes are the same linear map
        b = TensorBasis(d, p)
        for a in range(d):
            for s in (0, 1):
                R = b.face_restrict[(a, s)]
                emb = np.zeros((b.n_fq, b.n_p))
                emb[:, b.face_node_ids[(a, s)]] = b.face_eval
                assert np.allclose(R, emb, atol=1e-12)

    @pytest.mark.parametrize("d,p", [(2, 3), (3, 2)])
    def test_face_node_ids_pick_face_nodes(self, d, p):
        b = TensorBasis(d, p)
        for a in range(d):
            for s in (0, 1):
                picked = b.ref_nodes[b.face_node_ids[(a, s)]]
                assert np.allclose(picked[:, a], -1.0 if s == 0 else 1.0)

    def test_face_quad_ref_pins_normal_axis(self):
        b = TensorBasis(3, 2)
        for a in range(3):
            for s in (0, 1):
                pts = b.face_quad_ref[(a, s)]
                assert np.allclose(pts[:, a], -1.0 if s == 0 else 1.0)

    @pytest.mark.parametrize("d,p", [(2, 3), (3, 2)])
    def test_projection_inverts_evaluation(self, d, p):
        b = TensorBasis(d, p)
        assert np.allclose(b.face_proj @ b.face_eval, np.eye(b.n_face),
                           atol=1e-12)
