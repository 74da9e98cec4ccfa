"""Structured mesh geometry and connectivity checks."""

import math

import numpy as np
import pytest

from ehdg.basis import TensorBasis
from ehdg.mesh import (
    CHARACTERISTIC,
    INFLOW,
    OUTFLOW,
    MeshError,
    build_mesh,
    classify_boundary_face,
)


class TestGeometry:
    def test_uniform_square(self):
        m = build_mesh(2, 4, [(0.0, 1.0), (0.0, 1.0)])
        assert m.n_el == 16
        assert np.allclose(m.dx, [0.25, 0.25])
        assert math.isclose(m.jac, 0.125**2)
        assert np.allclose(m.face_jac, [0.125, 0.125])
        assert math.isclose(m.h_max, 0.25 * math.sqrt(2.0))
        assert np.allclose(m.centers[0], [0.125, 0.125])

    def test_anisotropic_counts_and_jacobians(self):
        m = build_mesh(2, (3, 2), [(0.0, 1.0), (0.0, 4.0)])
        assert m.nel == (3, 2)
        assert m.n_el == 6
        assert np.allclose(m.dx, [1.0 / 3.0, 2.0])
        # face of constant x has extent dx[1], and vice versa
        assert np.allclose(m.face_jac, [1.0, 1.0 / 6.0])
        assert math.isclose(m.jac, (1.0 / 6.0) * 1.0)

    def test_element_ordering_axis0_fastest(self):
        m = build_mesh(2, (3, 2), [(0.0, 1.0), (0.0, 1.0)])
        assert np.array_equal(m.el_coords[1], [1, 0])
        assert np.array_equal(m.el_coords[3], [0, 1])
        assert np.allclose(m.centers[1], [0.5, 0.25])

    def test_3d_counts(self):
        m = build_mesh(3, (2, 3, 4), [(0, 1), (0, 1), (0, 1)])
        assert m.n_el == 24
        assert np.array_equal(m.el_coords[2], [0, 1, 0])
        assert np.array_equal(m.el_coords[6], [0, 0, 1])
        assert m.n_faces_axis[0] == 3 * 12
        assert m.n_faces_axis[1] == 4 * 8
        assert m.n_faces_axis[2] == 5 * 6

    def test_offset_bounds(self):
        m = build_mesh(2, 2, [(-1.0, 1.0), (2.0, 3.0)])
        assert np.allclose(m.lo, [-1.0, 2.0])
        assert np.allclose(m.dx, [1.0, 0.5])
        assert np.allclose(m.centers[0], [-0.5, 2.25])


class TestValidation:
    def test_wrong_nel_length(self):
        with pytest.raises(MeshError):
            build_mesh(2, (4, 4, 4), [(0, 1), (0, 1)])

    def test_zero_elements(self):
        with pytest.raises(MeshError):
            build_mesh(2, (0, 4), [(0, 1), (0, 1)])

    def test_degenerate_bounds(self):
        with pytest.raises(MeshError):
            build_mesh(2, 4, [(0, 0), (0, 1)])
        with pytest.raises(MeshError):
            build_mesh(2, 4, [(1, 0), (0, 1)])


class TestFaceIndexing:
    def test_shared_face_between_neighbours(self):
        m = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        for a in (0, 1):
            hi = m.face_index(a, 1)
            lo = m.face_index(a, 0)
            fid, minus, plus = m.interior_faces(a)
            assert np.array_equal(hi[minus], fid)
            assert np.array_equal(lo[plus], fid)

    def test_minus_side_has_smaller_flat_index(self):
        m = build_mesh(3, (2, 3, 2), [(0, 1), (0, 1), (0, 1)])
        for a in range(3):
            _fid, minus, plus = m.interior_faces(a)
            assert np.all(plus > minus)
            # neighbours along axis a differ by the axis stride
            stride = int(np.prod(m.nel[:a])) if a > 0 else 1
            assert np.all(plus - minus == stride)

    def test_interior_face_count(self):
        m = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        fid0, _, _ = m.interior_faces(0)
        fid1, _, _ = m.interior_faces(1)
        assert len(fid0) == 2 * 2  # two interior planes, two rows
        assert len(fid1) == 1 * 3
        assert m.n_faces_axis[0] == 4 * 2
        assert m.n_faces_axis[1] == 3 * 3

    def test_boundary_faces(self):
        m = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        fid, els, sign = m.boundary_faces(0, 0)
        assert sign == -1.0
        assert np.array_equal(np.sort(els), [0, 3])
        assert np.array_equal(fid, [0, 1])
        fid, els, sign = m.boundary_faces(0, 1)
        assert sign == 1.0
        assert np.array_equal(np.sort(els), [2, 5])

    def test_every_face_is_interior_or_boundary_once(self):
        m = build_mesh(3, (2, 2, 3), [(0, 1), (0, 1), (0, 1)])
        for a in range(3):
            seen = []
            seen.extend(m.interior_faces(a)[0].tolist())
            seen.extend(m.boundary_faces(a, 0)[0].tolist())
            seen.extend(m.boundary_faces(a, 1)[0].tolist())
            assert sorted(seen) == list(range(m.n_faces_axis[a]))

    @pytest.mark.parametrize("nel", [(3, 1), (1, 4), (4, 3), (2, 1, 3),
                                     (1, 3, 2), (3, 2, 1), (1, 1, 1)])
    def test_face_lists_in_face_id_order(self, nel):
        # brute force over (plane, perp) as the module docstring numbers
        # them: the oracle numbers its unknowns in this order
        dim = len(nel)
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        strides = np.cumprod((1,) + nel[:-1])
        for a in range(dim):
            other = [b for b in range(dim) if b != a]
            n_perp = math.prod(nel[b] for b in other)

            def element(plane, perp):
                coords = [0] * dim
                coords[a] = plane
                for b in other:
                    perp, coords[b] = divmod(perp, nel[b])
                return int(np.dot(coords, strides))

            def ints(values):
                return np.array(values, dtype=np.intp)

            faces = [(perp + n_perp * plane, element(plane - 1, perp),
                      element(plane, perp))
                     for plane in range(1, nel[a]) for perp in range(n_perp)]
            want = ints(faces).reshape(-1, 3).T
            for got, expect in zip(m.interior_faces(a), want):
                assert got.dtype == expect.dtype
                assert np.array_equal(got, expect)
            for side in (0, 1):
                plane = (0, nel[a])[side]
                fid, els, sign = m.boundary_faces(a, side)
                want_fid = ints([perp + n_perp * plane
                                 for perp in range(n_perp)])
                want_els = ints([element(min(plane, nel[a] - 1), perp)
                                 for perp in range(n_perp)])
                for got, expect in ((fid, want_fid), (els, want_els)):
                    assert got.dtype == expect.dtype
                    assert np.array_equal(got, expect)
                assert type(sign) is float and sign == (-1.0, 1.0)[side]


class TestFaceQuadPoints:
    @pytest.mark.parametrize("dim,nel", [(2, (3, 2)), (3, (2, 2, 2))])
    def test_points_lie_on_their_plane(self, dim, nel):
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        b = TensorBasis(dim, 2)
        for a in range(dim):
            pts = m.face_quad_points(a, b)
            assert pts.shape == (m.n_faces_axis[a], b.n_fq, dim)
            planes = np.unique(np.round(pts[:, :, a], 12))
            expect = np.linspace(0.0, 1.0, m.nel[a] + 1)
            assert np.allclose(np.sort(planes), expect)

    def test_same_points_from_both_sides(self):
        # points of a shared face computed from the two adjacent elements
        # agree, so face data needs no side bookkeeping
        m = build_mesh(2, 3, [(0, 1), (0, 1)])
        b = TensorBasis(2, 3)
        for a in (0, 1):
            pts = m.face_quad_points(a, b)
            fid, minus, plus = m.interior_faces(a)
            ref = b.face_quad_ref[(a, 1)]
            lo_m = m.lo + m.el_coords[minus] * m.dx
            from_minus = lo_m[:, None, :] + (ref[None] + 1.0) * m.half
            assert np.allclose(pts[fid], from_minus, atol=1e-13)

    @pytest.mark.parametrize("dim,nel", [(2, (3, 2)), (3, (2, 3, 4))])
    def test_face_subset(self, dim, nel):
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        b = TensorBasis(dim, 2)
        for a in range(dim):
            every = m.face_quad_points(a, b)
            faces = np.array([m.n_faces_axis[a] - 1, 0, 3, 2])
            assert np.array_equal(m.face_quad_points(a, b, faces), every[faces])
            assert m.face_quad_points(a, b, faces[:0]).shape == (0, b.n_fq, dim)

    def test_points_inside_tangential_extent(self):
        m = build_mesh(2, (4, 2), [(0, 2), (0, 1)])
        b = TensorBasis(2, 1)
        pts = m.face_quad_points(0, b)
        assert np.all(pts[:, :, 1] > 0.0)
        assert np.all(pts[:, :, 1] < 1.0)


class TestBoundaryClassification:
    def test_inflow(self):
        assert classify_boundary_face(np.array([-0.5, -1.0])) == INFLOW

    def test_outflow(self):
        assert classify_boundary_face(np.array([0.25, 2.0])) == OUTFLOW

    def test_characteristic(self):
        assert classify_boundary_face(np.zeros(3)) == CHARACTERISTIC

    def test_mixed_sign_rejected(self):
        with pytest.raises(MeshError):
            classify_boundary_face(np.array([-1.0, 1.0]))
        with pytest.raises(MeshError):
            classify_boundary_face(np.array([0.0, 1.0]))

    def test_stack_of_faces_labelled_per_face(self):
        bn = np.array([[-0.5, -1.0], [0.25, 2.0], [0.0, 0.0]])
        labels = classify_boundary_face(bn)
        assert list(labels) == [INFLOW, OUTFLOW, CHARACTERISTIC]
        with pytest.raises(MeshError):
            classify_boundary_face(np.vstack([bn, [[-1.0, 1.0]]]))
