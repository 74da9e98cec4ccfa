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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .transport import AssemblyError, LocalOperators, assemble_inverses


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
    name: str = "shallow"
    dim: int = 2


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
    """Contraction bound: numerator, denominator, ratio, validity."""
    rp = np.sqrt(phi_mean)
    a_const = max((phi_mean + rp) / 2.0, (1.0 + rp) / 2.0)
    lead = h / (dt * (p + 1) * (p + 2))
    b_const = min(
        lead + (rp - phi_mean) / 2.0,
        lead + (2.0 * friction - 1.0 - rp) / 2.0,
    )
    c_ratio = a_const / b_const if b_const > 0 else np.inf
    valid = b_const > 0 and c_ratio < 1.0
    return ContractionReport(
        a_const=a_const,
        b_const=b_const,
        c_ratio=c_ratio,
        valid=valid,
        h=h,
        dt=dt,
        p=p,
        phi_mean=phi_mean,
        friction=friction,
    )


class ShallowOperators(LocalOperators):
    """Assembled 3 n_p x 3 n_p local solvers plus trace machinery.

    Wall faces read the lagged trace like any other face.
    """

    fields = ("phi", "u", "v")

    def __init__(self, mesh, basis, problem, dt):
        if mesh.dim != 2 or problem.dim != 2:
            raise AssemblyError("shallow water operators are 2D")
        if dt is None:
            raise AssemblyError("shallow water needs a time step")
        super().__init__(mesh, basis, problem, float(dt))
        self.phi_mean = float(problem.phi_mean)
        self.root_phi = float(np.sqrt(self.phi_mean))

        # grad-against-test matrices S_a[i, j] = (phi_j, d phi_i / d x_a)_K
        self.S = []
        for a in range(2):
            self.S.append(
                (mesh.jac / mesh.half[a])
                * (basis.eval_grad[a].T @ (basis.quad_w[:, None] * basis.eval_vol))
            )
        # face mass E[(a, s)][i, j] = <phi_j, phi_i>_face
        self.Eface = {}
        for a in range(2):
            for s in (0, 1):
                R = basis.face_restrict[(a, s)]
                self.Eface[(a, s)] = mesh.face_jac[a] * (
                    R.T @ (basis.face_quad_w[:, None] * R)
                )

        # (face_ids, elements, outward_sign) of each wall plane, by (a, side)
        self._wall_faces = {
            (a, s): mesh.boundary_faces(a, s) for a in range(2) for s in (0, 1)
        }
        self.shared = problem.coriolis_beta == 0.0
        n = 1 if self.shared else mesh.n_el
        self.a_inv = assemble_inverses(self.element_matrix, n, self.state_width)

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
        els = np.asarray(elements)
        n_p = self.n_p
        PHI, rp, dt = self.phi_mean, self.root_phi, self.dt
        gam = self.problem.friction
        M, Sx, Sy = self.mass_phys, self.S[0], self.S[1]

        A = np.zeros((len(els), 3 * n_p, 3 * n_p))
        sl = [slice(0, n_p), slice(n_p, 2 * n_p), slice(2 * n_p, 3 * n_p)]

        a00 = M / dt
        a01 = -PHI * Sx
        a02 = -PHI * Sy
        for a in range(2):
            for s in (0, 1):
                E = self.Eface[(a, s)]
                nsig = -1.0 if s == 0 else 1.0
                A[:, sl[0], sl[0]] += rp * E
                tgt = sl[1] if a == 0 else sl[2]
                A[:, sl[0], tgt] += nsig * (PHI * E)
        A[:, sl[0], sl[0]] += a00[None]
        A[:, sl[0], sl[1]] += a01[None]
        A[:, sl[0], sl[2]] += a02[None]

        Mc = self._coriolis_mass(els)
        diag_m = PHI * (1.0 / dt + gam) * M
        A[:, sl[1], sl[0]] += (-PHI * Sx)[None]
        A[:, sl[1], sl[1]] += diag_m[None]
        A[:, sl[1], sl[2]] -= PHI * Mc
        A[:, sl[2], sl[0]] += (-PHI * Sy)[None]
        A[:, sl[2], sl[1]] += PHI * Mc
        A[:, sl[2], sl[2]] += diag_m[None]
        return A

    # -- per-iteration pieces -------------------------------------------------

    def load_wind(self, t=0.0):
        if self.problem.wind is None:
            return None
        tau = self.sample(self.problem.wind, t)
        return tau[:, :, 0] @ self.load_vec.T, tau[:, :, 1] @ self.load_vec.T

    def source(self, t=0.0, state_prev=None):
        """Trace-independent part of every local right-hand side: the
        previous state's mass terms and the wind load. It is fixed for a
        whole solve at one time level."""
        if state_prev is None:
            raise ValueError("shallow water rhs needs the previous state")
        PHI, dt = self.phi_mean, self.dt
        out = self.zero_state()
        r0, r1, r2 = self.split(out)
        p_prev, u_prev, v_prev = self.split(state_prev)
        r0 += (p_prev @ self.mass_phys.T) / dt
        r1 += PHI * (u_prev @ self.mass_phys.T) / dt
        r2 += PHI * (v_prev @ self.mass_phys.T) / dt
        wind = self.load_wind(t)
        if wind is not None:
            r1 += wind[0]
            r2 += wind[1]
        return out

    def rhs(self, trace, source):
        """Right-hand sides of every local solve: source (see source())
        plus the lift of the given trace field."""
        mesh, basis = self.mesh, self.basis
        PHI, rp = self.phi_mean, self.root_phi
        out = source.copy()
        r0, r1, r2 = self.split(out)
        for a in range(2):
            mom = r1 if a == 0 else r2
            for s in (0, 1):
                ph_q = trace.data[a][self.fidx[(a, s)]] @ basis.face_eval.T
                w = mesh.face_jac[a] * basis.face_quad_w
                lifted = (w * ph_q) @ basis.face_restrict[(a, s)]
                nsig = -1.0 if s == 0 else 1.0
                r0 += rp * lifted
                mom -= PHI * nsig * lifted
        return out

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
            trace_out.data[a][fid] = (0.5 * (phi[hi] + phi[lo])
                                      + 0.5 * rp * (vel[hi] - vel[lo]))
            for side in (0, 1):
                bfid, els, osign = self._wall_faces[(a, side)]
                at = els[:, None], basis.face_node_ids[(a, side)]
                trace_out.data[a][bfid] = phi[at] + rp * osign * vel[at]

    # -- norms ----------------------------------------------------------------

    def pass_norms(self, t, state):
        """The per-pass (error, successive difference, skeleton norm) of a
        solve at time t, from error_eval, diff_norm and skeleton_norm."""
        err = self.error_eval(t)

        def norms(s_new, s_old):
            e = float("nan") if err is None else err(s_new)
            return e, self.diff_norm(s_new, s_old), self.skeleton_norm(s_new)

        return norms

    def error_eval(self, t):
        if self.problem.exact is None:
            return None
        mesh, basis = self.mesh, self.basis
        ex = self.sample(self.problem.exact, t)
        PHI, jac, w = self.phi_mean, mesh.jac, basis.quad_w
        Ev = basis.eval_vol

        def err(state):
            phi, u, v = self.split(state)
            dp = phi @ Ev.T - ex[:, :, 0]
            du = u @ Ev.T - ex[:, :, 1]
            dv = v @ Ev.T - ex[:, :, 2]
            s = np.sum(w * (dp * dp + PHI * (du * du + dv * dv)))
            return float(np.sqrt(jac * s))

        return err

    def diff_norm(self, s1, s2):
        mesh, basis = self.mesh, self.basis
        phi, u, v = self.split(s1 - s2)
        Ev, w = basis.eval_vol, basis.quad_w
        s = np.sum(
            w
            * (
                (phi @ Ev.T) ** 2
                + self.phi_mean * ((u @ Ev.T) ** 2 + (v @ Ev.T) ** 2)
            )
        )
        return float(np.sqrt(mesh.jac * s))

    def skeleton_norm(self, state):
        """Trace-energy norm over all element boundaries (both sides of
        every interior face contribute)."""
        mesh, basis = self.mesh, self.basis
        phi, u, v = self.split(state)
        total = 0.0
        for a in range(2):
            for s in (0, 1):
                R, w = basis.face_restrict[(a, s)], basis.face_quad_w
                pq = phi @ R.T
                uq = u @ R.T
                vq = v @ R.T
                total += mesh.face_jac[a] * np.sum(
                    w * (pq * pq + self.phi_mean * (uq * uq + vq * vq))
                )
        return float(np.sqrt(total))

    def total_mass(self, state):
        phi, _u, _v = self.split(state)
        cell = self.mesh.jac * (self.basis.eval_vol.T @ self.basis.quad_w)
        return float(np.sum(phi @ cell))
