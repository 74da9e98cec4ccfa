"""Nodal tensor-product basis and quadrature on the reference element [-1, 1]^d.

Volume unknowns are nodal values at Gauss-Lobatto-Legendre (GLL) tensor nodes.
All integrals use Gauss-Legendre quadrature with p + 2 points per direction,
which is exact for the degree 2p + 2 integrands that appear in the local
operators on affine elements.

Index conventions used throughout the package:
  * volume nodes/quad points are flattened with axis 0 fastest,
    flat = i0 + n*(i1 + n*i2)
  * a face normal to axis ``a`` is parametrized by the remaining axes in
    increasing order, with the lower axis fastest; both elements sharing a
    face therefore see its points in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def gll_nodes(p):
    """Gauss-Lobatto-Legendre nodes and weights for polynomial order p.

    Returns (nodes, weights), each of shape (p + 1,), nodes ascending in
    [-1, 1]. Nodes are the roots of (1 - x^2) P'_p(x), found by Newton
    iteration from a Chebyshev-Lobatto initial guess with the Legendre
    three-term recursion evaluated at every step.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    n = p + 1
    x = np.cos(np.pi * np.arange(n) / p)
    P = np.zeros((n, n))
    xold = np.full(n, 2.0)
    for _ in range(200):
        if np.max(np.abs(x - xold)) < 1e-15:
            break
        xold = x.copy()
        P[:, 0] = 1.0
        P[:, 1] = x
        for k in range(2, n):
            P[:, k] = ((2 * k - 1) * x * P[:, k - 1] - (k - 1) * P[:, k - 2]) / k
        x = xold - (x * P[:, n - 1] - P[:, n - 2]) / (n * P[:, n - 1])
    x = np.sort(x)
    x[0], x[-1] = -1.0, 1.0
    P[:, 0] = 1.0
    P[:, 1] = x
    for k in range(2, n):
        P[:, k] = ((2 * k - 1) * x * P[:, k - 1] - (k - 1) * P[:, k - 2]) / k
    w = 2.0 / (p * n * P[:, n - 1] ** 2)
    return x, w


def gauss_quadrature(n):
    """n-point Gauss-Legendre rule on [-1, 1], exact through degree 2n - 1."""
    return np.polynomial.legendre.leggauss(n)


def barycentric_weights(nodes):
    nodes = np.asarray(nodes, dtype=float)
    w = np.ones_like(nodes)
    for j in range(len(nodes)):
        w[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    return w


def lagrange_eval(nodes, x):
    """Evaluation matrix E with E[q, j] = l_j(x[q]) for the Lagrange basis.

    Barycentric form; evaluation points that coincide with a node return the
    exact 0/1 column.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    bw = barycentric_weights(nodes)
    E = np.zeros((len(x), len(nodes)))
    for q, xq in enumerate(x):
        diff = xq - nodes
        hit = np.where(diff == 0.0)[0]
        if hit.size:
            E[q, hit[0]] = 1.0
        else:
            t = bw / diff
            E[q, :] = t / np.sum(t)
    return E


def differentiation_matrix(nodes):
    """Nodal differentiation matrix D with (D u)[i] = u'(nodes[i])."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    bw = barycentric_weights(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (nodes[i] - nodes[j])
        D[i, i] = -np.sum(D[i, :])
    return D


def _tensor_kron(mats):
    """Kronecker product of per-axis matrices with axis 0 varying fastest."""
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(m, out)
    return out


def _tensor_points(axis_pts):
    """Tensor grid of per-axis 1D point sets, axis 0 fastest. Shape (N, d)."""
    grids = np.meshgrid(*axis_pts, indexing="ij")
    cols = [g.reshape(-1, order="F") for g in grids]
    return np.stack(cols, axis=1)


@dataclass
class TensorBasis:
    """All reference-element operators for a given dimension and order.

    Attributes of interest:
      nodes_1d, weights_gll : GLL nodes and weights, shape (p + 1,)
      ref_nodes             : volume node coordinates, (n_p, d)
      quad_ref              : volume quadrature points, (n_q, d)
      quad_w                : volume quadrature weights, (n_q,)
      eval_vol              : (n_q, n_p) basis values at volume quad points
      eval_grad[a]          : (n_q, n_p) d/dxi_a of basis at volume quad points
      mass_ref              : (n_p, n_p) reference mass matrix
      face_restrict[(a,s)]  : (n_fq, n_p) volume basis at face quad points,
                              s = 0 low face, s = 1 high face of axis a
      face_quad_ref[(a,s)]  : (n_fq, d) those points in element coordinates
      face_eval             : (n_fq, n_face) face nodal basis at face quad pts
      face_proj             : (n_face, n_fq) L2 projection of point values
                              onto the face polynomial space
      face_node_ids[(a,s)]  : volume node indices lying on the face, in face
                              ordering (traces of nodal data can be read off)
      end_1d[s]             : (1, p + 1) 1D basis values at xi = -1 (s = 0)
                              and xi = +1 (s = 1)
    """

    dim: int
    p: int
    nodes_1d: np.ndarray = field(init=False)
    weights_gll: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        p, d = self.p, self.dim
        self.nodes_1d, self.weights_gll = gll_nodes(p)
        self.n_p = (p + 1) ** d
        self.n_face = (p + 1) ** (d - 1)

        nq1 = p + 2
        xg, wg = gauss_quadrature(nq1)
        self.n_q = nq1**d
        self.n_fq = nq1 ** (d - 1)

        E = lagrange_eval(self.nodes_1d, xg)
        Ed = E @ differentiation_matrix(self.nodes_1d)
        self.end_1d = (
            lagrange_eval(self.nodes_1d, [-1.0]),
            lagrange_eval(self.nodes_1d, [1.0]),
        )

        self.ref_nodes = _tensor_points([self.nodes_1d] * d)
        self.quad_ref = _tensor_points([xg] * d)
        self.quad_w = _tensor_points([wg] * d).prod(axis=1)

        self.eval_vol = _tensor_kron([E] * d)
        self.eval_grad = []
        for a in range(d):
            mats = [E] * d
            mats[a] = Ed
            self.eval_grad.append(_tensor_kron(mats))

        self.mass_ref = self.eval_vol.T @ (self.quad_w[:, None] * self.eval_vol)

        ends = {0: -1.0, 1: 1.0}
        self.face_restrict = {}
        self.face_quad_ref = {}
        self.face_node_ids = {}
        for a in range(d):
            for s in (0, 1):
                mats, pts = [], []
                for b in range(d):
                    if b == a:
                        mats.append(self.end_1d[s])
                        pts.append(np.array([ends[s]]))
                    else:
                        mats.append(E)
                        pts.append(xg)
                self.face_restrict[(a, s)] = _tensor_kron(mats)
                self.face_quad_ref[(a, s)] = _tensor_points(pts)

                idx_mats = [np.arange(p + 1)] * d
                idx_mats[a] = np.array([0 if s == 0 else p])
                strides = [(p + 1) ** b for b in range(d)]
                grid = _tensor_points([m.astype(float) for m in idx_mats])
                flat = sum(grid[:, b].astype(int) * strides[b] for b in range(d))
                self.face_node_ids[(a, s)] = flat

        self.face_eval = _tensor_kron([E] * (d - 1))
        self.face_quad_w = _tensor_points([wg] * (d - 1)).prod(axis=1)
        Mf = self.face_eval.T @ (self.face_quad_w[:, None] * self.face_eval)
        self.face_proj = np.linalg.solve(Mf, self.face_eval.T * self.face_quad_w[None, :])

        # per-axis factor pairs (L, R) of the sum-factorized products, stored
        # as L[q, i] R[q, j] with (i, j) flattened; a face term's normal axis
        # is the single end point
        def pair(L, R):
            return (L[:, :, None] * R[:, None, :]).reshape(len(L), -1)

        lo, hi = self.end_1d
        self._axis_pairs = {
            "val": pair(E, E),
            "grad": pair(Ed, E),
            "lo": pair(lo, lo),
            "hi": pair(hi, hi),
        }

    def weighted_products(self, terms):
        """Sum over terms of the weighted tensor products of 1D factors.

        Each term is (keys, w): keys[b] names the factor pair (L_b, R_b) on
        reference axis b, one of "val" (L = R = values at the Gauss points),
        "grad" (L = derivatives, R = values) or "lo"/"hi" (L = R = values at
        the end point xi_b = -1 / +1, a single point). w has shape
        (n_el, n_pts) over the tensor grid of those points in the package's
        flat order, axis 0 fastest: volume quadrature points, or face
        quadrature points when one key is an end point. Returns

            A[e, i, j] = sum_t sum_q w_t[e, q] prod_b L_b[q_b, i_b] R_b[q_b, j_b]

        of shape (n_el, n_p, n_p), contracting one axis at a time (sum
        factorization). After each axis, terms whose remaining factors agree
        are added, and the last axis of all terms is one stacked product.
        """
        d, n = self.dim, self.p + 1
        pairs = self._axis_pairs
        n_el = len(terms[0][1])
        # parts[keys] : (n_el, m_{d-1}, ..., m_b, X), X the contracted (i, j)
        parts = {}
        for keys, w in terms:
            keys = tuple(keys)
            shape = [len(pairs[k]) for k in reversed(keys)]
            t = np.reshape(w, (n_el, *shape, 1))
            parts[keys] = parts[keys] + t if keys in parts else t
        for _ in range(d - 1):
            merged = {}
            for keys, t in parts.items():
                c = np.tensordot(t, pairs[keys[0]], axes=(t.ndim - 2, 0))
                c = c.reshape(*c.shape[:-2], -1)
                rest = keys[1:]
                merged[rest] = merged[rest] + c if rest in merged else c
            parts = merged
        last = list(parts)
        out = np.tensordot(
            np.concatenate([parts[k] for k in last], axis=1),
            np.concatenate([pairs[k[0]] for k in last], axis=0),
            axes=(1, 0),
        )
        # (e, i0, j0, ..., i_{d-1}, j_{d-1}) -> (e, i_{d-1}..i0, j_{d-1}..j0)
        perm = [0] + [1 + 2 * b for b in reversed(range(d))]
        perm += [2 + 2 * b for b in reversed(range(d))]
        out = out.reshape(n_el, *[n] * (2 * d)).transpose(perm)
        return out.reshape(n_el, self.n_p, self.n_p)

