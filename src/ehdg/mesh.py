"""Structured axis-aligned meshes with face connectivity.

Elements are congruent boxes on a uniform grid, indexed lexicographically
with axis 0 fastest: e = i0 + nel[0]*(i1 + nel[1]*i2).

Faces have one flat id each, 0 .. n_faces - 1, and this module alone knows
how the ids are laid out: the faces normal to axis 0 come first, then those
normal to axis 1, and so on. In the block of axis ``a`` every face lies on
one of the planes 0 .. nel[a]; a face is addressed by (plane, perp) where
perp is the flattened index over the remaining axes (lower axis fastest),
and its offset in the block is perp + n_perp * plane. Planes 1 .. nel[a]-1
are interior. On an interior face the element on the lower side of the
plane is the minus side (it has the smaller flat index), so the minus
outward normal is +e_a.

Other modules read faces through the element-to-face table etof, whose
column 2a + s holds every element's low (s = 0) or high (s = 1) face on
axis a, and through the face lists below.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    pass


def physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass
class StructuredMesh:
    dim: int
    nel: tuple
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        d = self.dim
        if len(self.nel) != d:
            raise MeshError("nel must give one count per axis")
        if any(n < 1 for n in self.nel):
            raise MeshError("need at least one element per axis")
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if np.any(self.hi <= self.lo):
            raise MeshError("domain bounds must be increasing")
        nel = [int(n) for n in self.nel]
        # exact integers: np.prod wraps around past 2**63 without a word
        self.n_el = math.prod(nel)
        self.n_faces_axis = [self.n_el // n * (n + 1) for n in nel]
        self.n_faces = sum(self.n_faces_axis)
        # the 8-byte index entries held, refused before any is allocated:
        # d coordinates, d center and 2d etof entries per element, and an
        # axis and an element side per face
        need = 8 * (4 * d * self.n_el + 2 * self.n_faces)
        have = physical_memory()
        if need > have:
            raise MeshError(
                f"a mesh of {self.n_el} elements needs {need} bytes of index "
                f"arrays, more than the {have} bytes of physical memory")
        self.dx = (self.hi - self.lo) / np.asarray(self.nel)
        self.half = 0.5 * self.dx
        self.jac = float(np.prod(self.half))
        self.face_jac = np.array(
            [np.prod(np.delete(self.half, a)) for a in range(d)]
        )
        self.h_max = float(np.linalg.norm(self.dx))

        # element e's plane along axis a, and its low face on axis a, whose
        # perp is e with the plane taken out
        e = np.arange(self.n_el)
        self.el_coords = np.empty((self.n_el, d), dtype=np.intp)
        self.etof = np.empty((self.n_el, 2 * d), dtype=np.intp)
        for a in range(d):
            below, n_perp = math.prod(nel[:a]), self.n_el // nel[a]
            plane = self.el_coords[:, a] = e // below % nel[a]
            perp = e % below + below * (e // (below * nel[a]))
            start = sum(self.n_faces_axis[:a])
            self.etof[:, 2 * a] = start + perp + n_perp * plane
            self.etof[:, 2 * a + 1] = self.etof[:, 2 * a] + n_perp
        self.centers = self.lo + (self.el_coords + 0.5) * self.dx
        self.face_axis = np.repeat(np.arange(d), self.n_faces_axis)
        # one element side (etof entry e * 2d + k) of every face
        self._owner = np.empty(self.n_faces, dtype=np.intp)
        self._owner[self.etof.ravel()] = np.arange(self.etof.size)

    def interior_faces(self):
        """(face_ids, minus_elements, plus_elements, axes) of the faces two
        elements share, by ascending face id: the high face (etof column
        2a + 1) of every element below the last plane of axis a, whose plus
        element is one axis stride further on."""
        minus, axis = np.nonzero(self.el_coords < np.asarray(self.nel) - 1)
        fid = self.etof[minus, 2 * axis + 1]
        order = np.argsort(fid)
        minus, axis = minus[order], axis[order]
        stride = np.array([math.prod(self.nel[:a]) for a in range(self.dim)])
        return fid[order], minus, minus + stride[axis], axis

    def boundary_faces(self):
        """(face_ids, elements, sides) of the faces of one element, by
        ascending face id: side 2a + s (the etof column) of an element on
        the first (s = 0) or the last (s = 1) plane of axis a. The element's
        outward normal there is -e_a (s = 0) or +e_a (s = 1)."""
        c, last = self.el_coords, np.asarray(self.nel) - 1
        els, side = np.nonzero(
            np.stack([c == 0, c == last], axis=2).reshape(self.n_el, -1))
        fid = self.etof[els, side]
        order = np.argsort(fid)
        return fid[order], els[order], side[order]

    def face_quad_points(self, basis, faces):
        """Physical quadrature points of the given faces, (n_faces, n_fq,
        dim), each taken from one of its elements: both give the same
        bits."""
        el, side = np.divmod(self._owner[faces], 2 * self.dim)
        axis, s = np.divmod(side, 2)
        ref = np.array([basis.face_quad_ref[(a, 0)] for a in range(self.dim)])
        pts = (self.half * ref)[axis] + self.centers[el][:, None, :]
        # the normal coordinate is the face's plane
        plane = self.el_coords[el, axis] + s
        pts[np.arange(len(el)), :, axis] = (
            self.lo[axis] + plane * self.dx[axis])[:, None]
        return pts


def build_mesh(dim, nel, bounds):
    """Uniform mesh of a box. nel is an int or per-axis tuple; bounds is a
    (lo, hi) pair per axis, e.g. [(0, 1), (0, 1)]."""
    if isinstance(nel, (int, np.integer)):
        nel = (int(nel),) * dim
    else:
        nel = tuple(int(n) for n in nel)
    bounds = list(bounds)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    return StructuredMesh(dim=dim, nel=nel, lo=lo, hi=hi)


INFLOW, OUTFLOW, CHARACTERISTIC = "inflow", "outflow", "characteristic"


def classify_boundary_face(bn_outward):
    """Label boundary faces from beta . n at their quadrature points.

    bn_outward uses the outward normal of the adjacent element, with the
    quadrature points on the last axis; a stack of faces gets an array of
    labels. The sign must be uniform across each face; a sign change
    within one face would need sub-face upwinding, which the structured
    setup does not support.
    """
    bn = np.asarray(bn_outward)
    inflow, outflow = np.all(bn < 0, -1), np.all(bn > 0, -1)
    if not np.all(inflow | outflow | np.all(bn == 0, -1)):
        raise MeshError("mixed-sign beta . n on a boundary face")
    return np.select([inflow, outflow], [INFLOW, OUTFLOW],
                     CHARACTERISTIC)[()]
