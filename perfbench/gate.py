"""Correctness gate and run manifest, in a process of their own.

    python3 perfbench/gate.py WORKLOAD_JSON

Solves a reduced-nel cell of the workload's case (same p, dt and stopping
mode) with the fixed-point iteration and with the dense direct solve of
`ehdg.oracle`, and applies the thresholds of `ehdg verify`: relative L2 gap
at most 1e-8 and flux-jump residuals at most 1e-9 for both solutions.
Transient cases take one step from the exact interpolant at t=0, as
`ehdg verify` does. The mass-conservation check of `ehdg verify` is not
part of the gate (see README.md).

Prints one JSON line: {"ok", "checks", "manifest"}. Untimed.
"""

import hashlib
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REL_GAP = 1e-8
FLUX_JUMP = 1e-9


def gate(w):
    from ehdg import oracle
    from ehdg.basis import TensorBasis
    from ehdg.driver import (
        IterationConfig, iterate_to_fixed_point, volume_l2,
    )
    from ehdg.mesh import build_mesh
    from ehdg.problems import catalog
    from ehdg.shallow import ShallowOperators
    from ehdg.transport import TransportOperators

    case = catalog(w.case)
    mesh = build_mesh(case.dim, w.gate_nel, case.bounds)
    basis = TensorBasis(case.dim, w.p)
    kwargs = {"tol": 1e-12}
    if w.stopping is not None:
        kwargs["stopping"] = w.stopping
    config = IterationConfig(**kwargs)
    if case.kind == "shallow":
        ops = ShallowOperators(mesh, basis, case.problem, w.dt)
        s0 = ops.interpolate(case.problem.exact, 0.0)
        s_it, t_it, log = iterate_to_fixed_point(
            ops, config, u0=s0, t=w.dt, state_prev=s0)
        s_dir, t_dir, _sys = oracle.direct_solve_shallow(
            mesh, basis, case.problem, w.dt, s0, t=w.dt)
        gap = ops.diff_norm(s_it, s_dir) / max(
            ops.diff_norm(s_dir, ops.zero_state()), 1e-300)
        jump = oracle.shallow_flux_jump_residual
    else:
        if w.dt is None:
            ops = TransportOperators(mesh, basis, case.problem)
            s_it, t_it, log = iterate_to_fixed_point(ops, config)
            s_dir, t_dir, _sys = oracle.direct_solve_transport(
                mesh, basis, case.problem)
        else:
            ops = TransportOperators(mesh, basis, case.problem, dt=w.dt)
            s0 = ops.interpolate_exact(0.0)
            s_it, t_it, log = iterate_to_fixed_point(
                ops, config, u0=s0, t=w.dt, state_prev=s0)
            s_dir, t_dir, _sys = oracle.direct_solve_transport(
                mesh, basis, case.problem, dt=w.dt, state_prev=s0, t=w.dt)
        gap = volume_l2(mesh, basis, s_it - s_dir) / max(
            volume_l2(mesh, basis, s_dir), 1e-300)
        jump = oracle.flux_jump_residual
    j_it, j_dir = jump(ops, s_it, t_it), jump(ops, s_dir, t_dir)
    return {
        "cell": f"{w.case} nel={w.gate_nel} p={w.p} dt={w.dt}",
        "converged": bool(log.converged),
        "iterations": log.iterations,
        "relative_gap": gap,
        "flux_jump_iterate": j_it,
        "flux_jump_direct": j_dir,
        "ok": bool(log.converged and gap <= REL_GAP and j_it <= FLUX_JUMP
                   and j_dir <= FLUX_JUMP),
    }


def _blas_threads():
    """Thread count OpenBLAS reports in this process, read through ctypes
    from the library numpy loaded; None if it cannot be found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _llc_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ehdg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def manifest(w):
    import numpy as np
    from ehdg.cli import default_workers
    from ehdg.problems import catalog

    case = catalog(w.case)
    n_el = w.nel ** case.dim
    n_p = (w.p + 1) ** case.dim
    if case.kind == "shallow":
        width, shared = 3 * n_p, case.problem.coriolis_beta == 0.0
    else:
        width, shared = n_p, bool(case.problem.constant_velocity)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workers": default_workers(),
        "nproc": os.cpu_count(),
        "dim": case.dim,
        "llc_bytes": _llc_bytes(),
        # computed from the case: one block per element, or one shared
        "a_inv_bytes": (1 if shared else n_el) * width * width * 8,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "EHDG_WORKERS": os.environ.get("EHDG_WORKERS"),
    }


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ehdg  # noqa: F401  -- before numpy, as in the timed processes
    from workloads import Workload

    w = Workload(**json.loads(sys.argv[1]))
    checks = gate(w)
    print(json.dumps({"ok": checks["ok"], "checks": checks,
                      "manifest": manifest(w)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
