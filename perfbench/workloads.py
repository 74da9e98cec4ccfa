"""The fixed `ehdg solve` workloads of the benchmark.

Each workload is one deterministic catalog case at a fixed size; the
benchmark seed never changes the inputs. Every field of a workload is
stored here so that the launcher, the correctness gate and the smoke test
read the same definition. This module imports only the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    nel: int
    p: int
    dt: Optional[float] = None
    steps: Optional[int] = None
    stopping: Optional[str] = None
    # largest accepted final error vs the exact solution; None for a case
    # without one, where converged and finite is the whole test
    error_tol: Optional[float] = None
    # reduced mesh of the same case, p, dt and stopping that the gate
    # checks against the dense direct solve
    gate_nel: int = 2

    def solve_args(self, outdir):
        """The `ehdg solve` arguments of this workload, writing to outdir."""
        args = ["solve", f"case={self.case}", f"nel={self.nel}", f"p={self.p}"]
        if self.dt is not None:
            args.append(f"dt={self.dt!r}")
        if self.steps is not None:
            args.append(f"steps={self.steps}")
        if self.stopping is not None:
            args.append(f"stopping={self.stopping}")
        args.append(f"outdir={outdir}")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady3d",
            case="transport3d-steady", nel=16, p=4,
            # measured 9.10e-10 at the seed
            error_tol=2e-9,
        ),
        Workload(
            name="gaussian3d",
            case="transport3d-gaussian", nel=16, p=4, dt=1e-3, steps=10,
            # measured 8.74e-07 at the seed
            error_tol=2e-6,
        ),
        Workload(
            name="wave2d",
            case="shallow-standing-wave", nel=64, p=4, dt=1e-4, steps=50,
            # measured 2.47e-06 at the seed
            error_tol=5e-6, gate_nel=8,
        ),
        Workload(
            name="disc2d",
            case="transport2d-discontinuous", nel=64, p=4,
            stopping="successive-difference", gate_nel=8,
        ),
    )
}
