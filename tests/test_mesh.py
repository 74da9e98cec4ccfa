"""Structured mesh geometry and connectivity checks."""

import math

import numpy as np
import pytest

from ehdg import mesh as mesh_module
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
        assert m.n_faces == 3 * 12 + 4 * 8 + 5 * 6
        assert m.etof.shape == (24, 6)

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

    @pytest.mark.parametrize("dim,nel", [(1, 3), (2, (3, 2)), (3, 2)])
    def test_index_arrays_beyond_physical_memory_refused(
            self, dim, nel, monkeypatch):
        # 8 bytes per entry: coordinates and centers (d each per element),
        # etof (2d per element), and an axis and an element side per face
        m = build_mesh(dim, nel, [(0, 1)] * dim)
        need = 8 * (4 * dim * m.n_el + 2 * m.n_faces)
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: need - 1)
        with pytest.raises(MeshError, match=f"needs {need} bytes"):
            build_mesh(dim, nel, [(0, 1)] * dim)
        monkeypatch.setattr(mesh_module, "physical_memory", lambda: need)
        assert build_mesh(dim, nel, [(0, 1)] * dim).n_el == m.n_el

    @pytest.mark.parametrize("nel", [3_000_000, 2**21])
    def test_element_count_does_not_wrap(self, nel):
        # np.prod wraps (3e6,)*3 to 8553255926290448384 and (2**21,)*3 to a
        # negative count; the exact count is refused before any allocation
        with pytest.raises(MeshError, match=f"a mesh of {nel ** 3} elements"):
            build_mesh(3, nel, [(0, 1)] * 3)


class TestFaceIndexing:
    def test_shared_face_between_neighbours(self):
        m = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        fid, minus, plus, axis = m.interior_faces()
        assert np.array_equal(m.etof[minus, 2 * axis + 1], fid)
        assert np.array_equal(m.etof[plus, 2 * axis], fid)

    def test_minus_side_has_smaller_flat_index(self):
        m = build_mesh(3, (2, 3, 2), [(0, 1), (0, 1), (0, 1)])
        _fid, minus, plus, axis = m.interior_faces()
        assert np.all(plus > minus)
        # neighbours along axis a differ by the axis stride
        assert np.all(plus - minus == np.array([1, 2, 6])[axis])

    def test_interior_face_count(self):
        m = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        _fid, _minus, _plus, axis = m.interior_faces()
        # two interior planes of two rows, one of three
        assert np.array_equal(np.bincount(axis), [2 * 2, 1 * 3])
        assert m.n_faces_axis[0] == 4 * 2
        assert m.n_faces_axis[1] == 3 * 3

    def test_boundary_faces(self):
        m = build_mesh(2, (3, 2), [(0, 1), (0, 1)])
        fid, els, side = m.boundary_faces()
        assert np.array_equal(fid[side == 0], [0, 1])
        assert np.array_equal(els[side == 0], [0, 3])
        assert np.array_equal(els[side == 1], [2, 5])

    def test_every_face_is_interior_or_boundary_once(self):
        m = build_mesh(3, (2, 2, 3), [(0, 1), (0, 1), (0, 1)])
        seen = np.concatenate([m.interior_faces()[0], m.boundary_faces()[0]])
        assert sorted(seen.tolist()) == list(range(m.n_faces))

    @pytest.mark.parametrize("nel", [(3, 1), (1, 4), (4, 3), (2, 1, 3),
                                     (1, 3, 2), (3, 2, 1), (1, 1, 1)])
    def test_face_lists_in_face_id_order(self, nel):
        # brute force over (plane, perp) as the module docstring numbers
        # them, the axis blocks one after another: the oracle numbers its
        # unknowns in this order
        dim = len(nel)
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        strides = np.cumprod((1,) + nel[:-1])
        inner, walls, block = [], [], 0
        for a in range(dim):
            other = [b for b in range(dim) if b != a]
            n_perp = math.prod(nel[b] for b in other)

            def element(plane, perp):
                coords = [0] * dim
                coords[a] = plane
                for b in other:
                    perp, coords[b] = divmod(perp, nel[b])
                return int(np.dot(coords, strides))

            inner += [(block + perp + n_perp * plane,
                       element(plane - 1, perp), element(plane, perp), a)
                      for plane in range(1, nel[a]) for perp in range(n_perp)]
            for side in (0, 1):
                plane = (0, nel[a])[side]
                walls += [(block + perp + n_perp * plane,
                           element(min(plane, nel[a] - 1), perp), 2 * a + side)
                          for perp in range(n_perp)]
            block += n_perp * (nel[a] + 1)
        assert m.n_faces == block
        for got, want in ((m.interior_faces(), inner),
                          (m.boundary_faces(), walls)):
            want = np.array(want, dtype=np.intp).reshape(-1, len(got)).T
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("nel", [(3, 1), (1, 4), (4, 3), (2, 1, 3),
                                     (1, 3, 2), (3, 2, 1), (1, 1, 1), (5,)])
    def test_element_to_face_table(self, nel):
        dim = len(nel)
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        assert m.etof.shape == (m.n_el, 2 * dim)
        assert m.etof.dtype == np.intp
        # every interior face twice: as its minus element's side-1 entry
        # and its plus element's side-0 entry
        fid, minus, plus, axis = m.interior_faces()
        assert np.array_equal(m.etof[minus, 2 * axis + 1], fid)
        assert np.array_equal(m.etof[plus, 2 * axis], fid)
        # every boundary face once, as its element's entry
        bfid, els, side = m.boundary_faces()
        assert np.array_equal(m.etof[els, side], bfid)
        # and nothing else: the ids cover range(n_faces) exactly so
        counts = np.bincount(m.etof.ravel(), minlength=m.n_faces)
        assert len(counts) == m.n_faces
        assert np.all(counts[fid] == 2)
        assert np.all(counts[bfid] == 1)
        assert len(fid) + len(bfid) == m.n_faces
        # every face in the axis-a columns is normal to axis a
        for a in range(dim):
            assert np.all(m.face_axis[m.etof[:, 2 * a : 2 * a + 2]] == a)


class TestFaceQuadPoints:
    @pytest.mark.parametrize("dim,nel", [(2, (3, 2)), (3, (2, 2, 2))])
    def test_points_lie_on_their_plane(self, dim, nel):
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        b = TensorBasis(dim, 2)
        every = m.face_quad_points(b, np.arange(m.n_faces))
        assert every.shape == (m.n_faces, b.n_fq, dim)
        for a in range(dim):
            pts = every[m.face_axis == a]
            assert pts.shape == (m.n_faces_axis[a], b.n_fq, dim)
            planes = np.unique(np.round(pts[:, :, a], 12))
            expect = np.linspace(0.0, 1.0, m.nel[a] + 1)
            assert np.allclose(np.sort(planes), expect)

    def test_same_points_from_both_sides(self):
        # points of a shared face computed from the two adjacent elements
        # agree, so face data needs no side bookkeeping
        m = build_mesh(2, 3, [(0, 1), (0, 1)])
        b = TensorBasis(2, 3)
        pts = m.face_quad_points(b, np.arange(m.n_faces))
        fid, minus, plus, axis = m.interior_faces()
        for a in (0, 1):
            on = axis == a
            ref = b.face_quad_ref[(a, 1)]
            lo_m = m.lo + m.el_coords[minus[on]] * m.dx
            from_minus = lo_m[:, None, :] + (ref[None] + 1.0) * m.half
            assert np.allclose(pts[fid[on]], from_minus, atol=1e-13)

    @pytest.mark.parametrize("dim,nel", [(2, (3, 2)), (3, (2, 3, 2))])
    def test_either_element_gives_the_same_bits(self, dim, nel):
        # the points are taken from one element of each face; from the
        # other they are bit for bit the same, so the choice is free
        m = build_mesh(dim, nel, [(0.0, 0.7), (-1.0, 2.0), (0.1, 0.3)][:dim])
        b = TensorBasis(dim, 3)
        fid, minus, plus, axis = m.interior_faces()
        got = []
        for els, side in ((minus, 2 * axis + 1), (plus, 2 * axis)):
            m._owner[fid] = els * 2 * dim + side
            got.append(m.face_quad_points(b, fid))
        assert np.array_equal(*got)

    @pytest.mark.parametrize("dim,nel", [(2, (3, 2)), (3, (2, 3, 4))])
    def test_face_subset(self, dim, nel):
        m = build_mesh(dim, nel, [(0.0, 1.0)] * dim)
        b = TensorBasis(dim, 2)
        every = m.face_quad_points(b, np.arange(m.n_faces))
        for a in range(dim):
            # faces of one axis, and of every axis mixed
            on_a = np.flatnonzero(m.face_axis == a)
            for faces in (on_a[[-1, 0, 3, 2]], np.array([m.n_faces - 1, 0,
                                                         on_a[1], 2])):
                assert np.array_equal(m.face_quad_points(b, faces),
                                      every[faces])
            assert m.face_quad_points(b, on_a[:0]).shape == (0, b.n_fq, dim)

    def test_points_inside_tangential_extent(self):
        m = build_mesh(2, (4, 2), [(0, 2), (0, 1)])
        b = TensorBasis(2, 1)
        pts = m.face_quad_points(b, np.arange(m.n_faces))[m.face_axis == 0]
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
