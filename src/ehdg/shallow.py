"""Element-local HDG operators for the linearized shallow water equations.

Unknowns per element are (phi, u, v): geopotential perturbation and the two
velocity components, stored concatenated as one state row [phi | u | v] of
length 3 n_p. One backward-Euler step solves, per element and per pass,

  (phi/dt, q)_K - (PHI theta, grad q)_K + <PHI theta.n + sqrt(PHI) (phi - phihat), q>_dK
      = (phi_prev/dt, q)_K
  (PHI u/dt, w)_K - (PHI phi, dw/dx)_K + <PHI phihat n_x, w>_dK
      = (PHI u_prev/dt + f PHI v - gamma PHI u + tau_x/rho, w)_K

(and the analogous y-momentum row), with the trace phihat frozen at the
previous pass. Coriolis and friction sit implicitly on the left; only the
trace terms lag. The trace rebuild is

  phihat = {phi} + sqrt(PHI) {theta.n},   2{.} = (.)- + (.)+

with each side contributing its own outward normal, and on wall faces the
one-sided rule phihat = phi + sqrt(PHI) theta.n, which makes the continuity
flux vanish there identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import AssemblyError, LocalOperators


@dataclass
class ShallowProblem:
    """Linearized shallow water data. wind maps (pts, t) -> (N, 2) giving
    tau/rho; exact maps (pts, t) -> (N, 3) as (phi, u, v). Both must be
    pointwise, each value depending on its own point alone: the operators
    evaluate them in blocks of at most SAMPLE_POINTS points."""

    phi_mean: float
    coriolis_f0: float = 0.0
    coriolis_beta: float = 0.0
    y_mid: float = 0.0
    friction: float = 0.0
    wind: Optional[Callable] = None
    exact: Optional[Callable] = None
    # a class constant, not a field: the equations are 2D only
    dim = 2


@dataclass
class ContractionReport:
    """Fixed-point contraction bound for one (h, dt, p, PHI, gamma) setup.

    The squared trace-energy norm contracts at least by c_ratio per pass
    whenever valid is True.
    """

    a_const: float
    b_const: float
    c_ratio: float
    valid: bool
    h: float
    dt: float
    p: int
    phi_mean: float
    friction: float


def contraction_constants(h, dt, p, phi_mean, friction=0.0):
    """Contraction bound: numerator, denominator, ratio, validity.

    Every argument must be finite, h, dt and phi_mean positive, p at least
    1 and friction at least 0; ValueError names the one that is not.
    """
    for name, value, rule, ok in (
            ("h", h, "positive", h > 0), ("dt", dt, "positive", dt > 0),
            ("phi_mean", phi_mean, "positive", phi_mean > 0),
            ("p", p, "at least 1", p >= 1),
            ("friction", friction, "at least 0", friction >= 0)):
        if not (ok and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and {rule}, got {value}")
    rp = np.sqrt(phi_mean)
    a_const = max((phi_mean + rp) / 2.0, (1.0 + rp) / 2.0)
    lead = h / (dt * (p + 1) * (p + 2))
    b_const = min(
        lead + (rp - phi_mean) / 2.0,
        lead + (2.0 * friction - 1.0 - rp) / 2.0,
    )
    c_ratio = a_const / b_const if b_const > 0 else np.inf
    valid = b_const > 0 and c_ratio < 1.0
    return ContractionReport(a_const, b_const, c_ratio, valid,
                             h, dt, p, phi_mean, friction)


class ShallowOperators(LocalOperators):
    """Assembled 3 n_p x 3 n_p local solvers plus trace machinery.

    Wall faces read the lagged trace like any other face.
    """

    fields = ("phi", "u", "v")

    def __init__(self, mesh, basis, problem, dt):
        if mesh.dim != 2:
            raise AssemblyError("shallow water operators are 2D")
        if dt is None:
            raise AssemblyError("shallow water needs a time step")
        phi_mean = float(problem.phi_mean)
        if not (phi_mean > 0 and math.isfinite(phi_mean)):
            raise AssemblyError("the mean geopotential phi_mean must be "
                                f"positive and finite, got {phi_mean}")
        super().__init__(mesh, basis, problem, float(dt))
        self.phi_mean = phi_mean
        self.root_phi = float(np.sqrt(phi_mean))
        self.energy = (1.0, phi_mean, phi_mean)

        # the element-independent part of every local matrix: time,
        # friction, pressure gradient, divergence and the continuity face
        # terms, with S[a][i, j] = (phi_j, d phi_i / d x_a)_K and the face
        # mass E[a, s][i, j] = <phi_j, phi_i>_face. In each sum the face
        # terms come first, in fidx order (outward normal -1 on side 0)
        S = [(mesh.jac / mesh.half[a])
             * (basis.eval_grad[a].T @ (basis.quad_w[:, None] * basis.eval_vol))
             for a in range(2)]
        E = {}
        for a, s in self.fidx:
            R = basis.face_restrict[(a, s)]
            E[a, s] = mesh.face_jac[a] * (R.T @ (basis.face_quad_w[:, None] * R))
        PHI, rp, dt, M = phi_mean, self.root_phi, self.dt, self.mass_phys
        div = [-(PHI * E[a, 0]) + PHI * E[a, 1] - PHI * S[a] for a in range(2)]
        mom = PHI * (1.0 / dt + problem.friction) * M
        zero = np.zeros_like(M)
        self._constant_block = np.block([
            [sum(rp * E[key] for key in self.fidx) + M / dt, div[0], div[1]],
            [-PHI * S[0], mom, zero],
            [-PHI * S[1], zero, mom],
        ])

        # the trace lift: sqrt(PHI) into the continuity row, and -PHI n
        # into the momentum row of the face's normal axis a, with n the
        # outward normal component (-1 on side 0, +1 on side 1)
        self.lift_w, self.lift_coef = {}, {}
        for a, s in self.fidx:
            n = (-1.0, 1.0)[s]
            self.lift_w[(a, s)] = mesh.face_jac[a] * basis.face_quad_w
            self.lift_coef[(a, s)] = ((0, self.root_phi),
                                      (1 + a, -(phi_mean * n)))
        # the wind stress loads the two momentum rows
        self.load = (problem.wind, (1, 2))

        self._assemble(problem.coriolis_beta == 0.0)

    # -- assembly -----------------------------------------------------------

    def _coriolis_mass(self, elements):
        """(f(y) phi_j, phi_i)_K for each element; constant f collapses."""
        prob, mesh, basis = self.problem, self.mesh, self.basis
        if prob.coriolis_beta == 0.0:
            M = prob.coriolis_f0 * self.mass_phys
            return np.broadcast_to(M, (len(elements), *M.shape))
        y = self.sample(lambda pts: pts[:, 1], elements=elements)
        f = prob.coriolis_f0 + prob.coriolis_beta * (y - prob.y_mid)
        w = mesh.jac * basis.quad_w * f
        return basis.weighted_products([(("val", "val"), w)])

    def element_matrix(self, elements):
        """The constant block plus the Coriolis coupling -+PHI Mc of the
        two momentum rows."""
        els = np.asarray(elements)
        n_p, PHI = self.n_p, self.phi_mean
        A = np.repeat(self._constant_block[None], len(els), axis=0)
        Mc = self._coriolis_mass(els)
        A[:, n_p:2 * n_p, 2 * n_p:] -= PHI * Mc
        A[:, 2 * n_p:, n_p:2 * n_p] += PHI * Mc
        return A

    # -- per-iteration pieces -------------------------------------------------

    def update_trace(self, state, trace_out, t=0.0):
        """phihat = {phi} + sqrt(PHI){theta.n} inside, one-sided on walls.

        Every quantity involved is already a face polynomial, so nodal reads
        are exact and no quadrature projection is needed.
        """
        basis = self.basis
        rp = self.root_phi
        phi, u, v = self.split(state)
        for a in range(2):
            vel = u if a == 0 else v
            fid, minus, plus = self._int_faces[a]
            hi = minus[:, None], basis.face_node_ids[(a, 1)]
            lo = plus[:, None], basis.face_node_ids[(a, 0)]
            trace_out[a][fid] = (0.5 * (phi[hi] + phi[lo])
                                 + 0.5 * rp * (vel[hi] - vel[lo]))
            for side in (0, 1):
                bfid, els, osign = self._bnd_faces[(a, side)]
                at = els[:, None], basis.face_node_ids[(a, side)]
                trace_out[a][bfid] = phi[at] + rp * osign * vel[at]

    def total_mass(self, state):
        phi, _u, _v = self.split(state)
        cell = self.mesh.jac * (self.basis.eval_vol.T @ self.basis.quad_w)
        return float(np.sum(phi @ cell))
