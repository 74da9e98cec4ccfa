"""Structured axis-aligned meshes with face connectivity.

Elements are congruent boxes on a uniform grid, indexed lexicographically
with axis 0 fastest: e = i0 + nel[0]*(i1 + nel[1]*i2).

Faces are stored per normal axis. For axis ``a`` every face lies on one of
the planes 0 .. nel[a]; a face is addressed by (plane, perp) where perp is
the flattened index over the remaining axes (lower axis fastest), and the
flat index within the axis block is perp + n_perp * plane. Planes 1 ..
nel[a]-1 are interior. On an interior face the element on the lower side of
the plane is the minus side (it has the smaller flat index), so the minus
outward normal is +e_a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    pass


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
        self.n_el = int(np.prod(self.nel))
        self.dx = (self.hi - self.lo) / np.asarray(self.nel)
        self.half = 0.5 * self.dx
        self.jac = float(np.prod(self.half))
        self.face_jac = np.array(
            [np.prod(np.delete(self.half, a)) for a in range(d)]
        )
        self.h_max = float(np.linalg.norm(self.dx))

        idx = [np.arange(n) for n in self.nel]
        grids = np.meshgrid(*idx, indexing="ij")
        coords = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)
        self.el_coords = coords
        self.centers = self.lo + (coords + 0.5) * self.dx

        # per-axis face bookkeeping
        self.n_perp = []
        self.plane_of = []      # element -> its index along axis a
        self.perp_of = []       # element -> flattened index over other axes
        self.n_faces_axis = []
        for a in range(d):
            other = [b for b in range(d) if b != a]
            n_perp = int(np.prod([self.nel[b] for b in other]))
            self.n_perp.append(n_perp)
            stride = 1
            perp = np.zeros(self.n_el, dtype=int)
            for b in other:
                perp += coords[:, b] * stride
                stride *= self.nel[b]
            self.perp_of.append(perp)
            self.plane_of.append(coords[:, a].copy())
            self.n_faces_axis.append(n_perp * (self.nel[a] + 1))

    def face_index(self, axis, side):
        """Flat face index of every element's low (side=0) or high face."""
        plane = self.plane_of[axis] + side
        return self.perp_of[axis] + self.n_perp[axis] * plane

    def interior_faces(self, axis):
        """(face_ids, minus_elements, plus_elements) for one axis."""
        n_perp = self.n_perp[axis]
        planes = np.arange(1, self.nel[axis])
        perp = np.arange(n_perp)
        fid = (perp[None, :] + n_perp * planes[:, None]).ravel()
        minus = self._element_at(axis, planes - 1, perp)
        plus = self._element_at(axis, planes, perp)
        return fid, minus, plus

    def boundary_faces(self, axis, domain_side):
        """(face_ids, elements, outward_sign) for one boundary plane.

        outward_sign is the sign of the adjacent element's outward normal
        along the axis: -1 on the low plane, +1 on the high plane.
        """
        n_perp = self.n_perp[axis]
        perp = np.arange(n_perp)
        plane = 0 if domain_side == 0 else self.nel[axis]
        fid = perp + n_perp * plane
        el_plane = 0 if domain_side == 0 else self.nel[axis] - 1
        els = self._element_at(axis, np.array([el_plane]), perp)
        sign = -1.0 if domain_side == 0 else 1.0
        return fid, els.ravel(), sign

    def _element_at(self, axis, planes, perp):
        """Element flat indices from axis-plane and perp indices (outer grid)."""
        d = self.dim
        other = [b for b in range(d) if b != axis]
        coords = np.zeros((len(planes), len(perp), d), dtype=int)
        rem = perp.copy()
        for b in other:
            coords[:, :, b] = (rem % self.nel[b])[None, :]
            rem = rem // self.nel[b]
        coords[:, :, axis] = planes[:, None]
        strides = np.cumprod([1] + list(self.nel[:-1]))
        return (coords * strides).sum(axis=2).reshape(len(planes) * len(perp))

    def face_quad_points(self, axis, basis, faces=None):
        """Physical quadrature points of the given faces of one axis (flat
        indices within the axis block), every face by default.

        Returns (n_faces, n_fq, dim). Points of a face are identical
        whichever adjacent element they are computed from, up to roundoff.
        """
        if faces is None:
            faces = np.arange(self.n_faces_axis[axis])
        plane, rem = np.divmod(np.asarray(faces), self.n_perp[axis])
        ref = basis.face_quad_ref[(axis, 0)]  # tangential Gauss coords, axis col unused
        pts = np.empty((len(plane), basis.n_fq, self.dim))
        for b in range(self.dim):
            if b == axis:
                continue
            center = self.lo[b] + (rem % self.nel[b] + 0.5) * self.dx[b]
            rem = rem // self.nel[b]
            pts[:, :, b] = center[:, None] + self.half[b] * ref[None, :, b]
        pts[:, :, axis] = (self.lo[axis] + plane * self.dx[axis])[:, None]
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
