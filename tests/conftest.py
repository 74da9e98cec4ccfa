"""Shared test helpers.

The cardinal_* helpers rebuild pointwise basis values from the 1D pieces
only (explicit per-axis products, no kron), so tests using them cross-check
the tensor assembly in ehdg.basis instead of reusing it.
"""

import numpy as np
import pytest

from ehdg.basis import differentiation_matrix, gauss_quadrature, lagrange_eval


def axis_digits(j, p, d):
    """Per-axis 1D node indices of tensor basis function j, axis 0 fastest."""
    out = []
    for _ in range(d):
        out.append(j % (p + 1))
        j //= p + 1
    return out


def cardinal_values(basis, pts):
    """phi_j at reference points pts of shape (m, dim), all j."""
    m, d = pts.shape
    per_axis = [lagrange_eval(basis.nodes_1d, pts[:, b]) for b in range(d)]
    out = np.ones((m, basis.n_p))
    for j in range(basis.n_p):
        jb = axis_digits(j, basis.p, d)
        for b in range(d):
            out[:, j] *= per_axis[b][:, jb[b]]
    return out


def cardinal_grads(basis, pts, axis):
    """d phi_j / d xi_axis at reference points pts, all j."""
    m, d = pts.shape
    D = differentiation_matrix(basis.nodes_1d)
    per_axis = []
    for b in range(d):
        E = lagrange_eval(basis.nodes_1d, pts[:, b])
        per_axis.append(E @ D if b == axis else E)
    out = np.ones((m, basis.n_p))
    for j in range(basis.n_p):
        jb = axis_digits(j, basis.p, d)
        for b in range(d):
            out[:, j] *= per_axis[b][:, jb[b]]
    return out


def tensor_rule(d, n):
    """Tensor-product Gauss rule on [-1, 1]^d, axis 0 fastest."""
    x, w = gauss_quadrature(n)
    pts = np.zeros((n**d, d))
    wts = np.ones(n**d)
    for b in range(d):
        idx = (np.arange(n**d) // n**b) % n
        pts[:, b] = x[idx]
        wts *= w[idx]
    return pts, wts


def interp_scalar(mesh, basis, fn, t=None):
    """Nodal interpolant of a scalar callable on every element."""
    X = mesh.centers[:, None, :] + mesh.half * basis.ref_nodes[None]
    flat = X.reshape(-1, mesh.dim)
    vals = fn(flat) if t is None else fn(flat, t)
    return np.asarray(vals, dtype=float).reshape(mesh.n_el, basis.n_p)


def axis_interior_faces(mesh, a):
    """(face_ids, minus, plus) of the interior faces normal to axis a."""
    fid, minus, plus, axis = mesh.interior_faces()
    on = axis == a
    return fid[on], minus[on], plus[on]


def plane_faces(mesh, a, s):
    """(face_ids, elements, outward_sign) of the boundary faces on the low
    (s = 0) or high (s = 1) plane of axis a."""
    fid, els, side = mesh.boundary_faces()
    on = side == 2 * a + s
    return fid[on], els[on], (-1.0, 1.0)[s]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
