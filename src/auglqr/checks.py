"""Stabilizability screening run before the solvers.

Two gates, both stated on the unscaled matrices against the threshold
1/sqrt(beta).  The first is a PBH (Hautus) test: every eigenvalue lambda of
A_yy with |lambda| >= 1/sqrt(beta) must have rank [A_yy - lambda I, B_y] = n_y,
which is exactly stabilizability of the discounted pair (sqrt(beta) A_yy,
sqrt(beta) B_y) that the Riccati solver needs.  The second requires every
eigenvalue of the forcing block A_zz to lie strictly inside that circle.  The
second gate is non-negotiable (explosive forcing makes the discounted loss
unbounded); the first may be overridden downstream by a --force flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import ModelSpec


@dataclass(frozen=True, eq=False)
class CheckReport:
    controllable: bool
    controllability_rank: int
    required_rank: int
    forcing_stable: bool
    forcing_spectral_radius: float
    threshold: float
    eigenvalues_zz: np.ndarray

    @property
    def ok(self) -> bool:
        return self.controllable and self.forcing_stable

    def failures(self) -> list[str]:
        """Human-readable failure lines, empty when both gates pass."""
        out = []
        if not self.controllable:
            out.append(
                f"controllability rank {self.controllability_rank}"
                f" < {self.required_rank}"
            )
        if not self.forcing_stable:
            out.append(
                f"forcing block unstable: spectral radius"
                f" {self.forcing_spectral_radius:.6g} >= 1/sqrt(beta)"
                f" = {self.threshold:.6g}"
            )
        return out


def run_checks(spec: ModelSpec) -> CheckReport:
    """Evaluate both stabilizability gates on a validated model.

    The reported controllability rank is the smallest PBH rank over the
    modes on or outside 1/sqrt(beta), or n_y when there are none.  Real
    matrices give the same rank at lambda and at conj(lambda), so only the
    eigenvalues with Im lambda >= 0 are tested.
    """
    n_y = spec.dims.n_y
    threshold = 1.0 / math.sqrt(spec.beta)
    ctrb_rank = n_y
    for lam in kernel.eigenvalues(spec.A_yy):
        if abs(lam) >= threshold and lam.imag >= 0.0:
            pencil = np.hstack([spec.A_yy - lam * np.eye(n_y), spec.B_y])
            ctrb_rank = min(ctrb_rank, kernel.rank(pencil))
    eig_zz = kernel.eigenvalues(spec.A_zz)
    radius = float(np.max(np.abs(eig_zz))) if eig_zz.size else 0.0
    return CheckReport(
        controllable=ctrb_rank == n_y,
        controllability_rank=ctrb_rank,
        required_rank=n_y,
        forcing_stable=radius < threshold,
        forcing_spectral_radius=radius,
        threshold=threshold,
        eigenvalues_zz=eig_zz,
    )
