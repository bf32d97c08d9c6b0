"""Stabilizability screening run before the solvers.

Two gates, both stated on the unscaled matrices against the threshold
1/sqrt(beta).  The first requires every uncontrollable mode of (A_yy, B_y),
which a real orthogonal staircase finds, to lie strictly inside that circle:
exactly stabilizability of the discounted pair (sqrt(beta) A_yy,
sqrt(beta) B_y) that the Riccati solver needs.  The second requires every
eigenvalue of the forcing block A_zz inside the circle; it is non-negotiable
(explosive forcing makes the discounted loss unbounded), while the first
may be overridden downstream by a --force flag.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernel
from .model import ModelSpec

#: relative tolerance for the numerical rank of each staircase step
RANK_RTOL = 1e-10


class CheckReport(kernel.Frozen):
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

    The controllability rank is n_y less the uncontrollable eigenvalues on or
    outside 1/sqrt(beta); the staircase runs only if A_yy has a mode there.
    """
    n_y = spec.dims.n_y
    threshold = 1.0 / math.sqrt(spec.beta)
    ctrb_rank = n_y
    if kernel.radius_of(kernel.eigenvalues(spec.A_yy)) >= threshold:
        eig_u = kernel.eigenvalues(_uncontrollable_block(spec.A_yy, spec.B_y))
        ctrb_rank -= int(np.count_nonzero(np.abs(eig_u) >= threshold))
    eig_zz = spec.eigenvalues_zz
    radius = kernel.radius_of(eig_zz)
    return CheckReport(
        controllable=ctrb_rank == n_y,
        controllability_rank=ctrb_rank,
        required_rank=n_y,
        forcing_stable=radius < threshold,
        forcing_spectral_radius=radius,
        threshold=threshold,
        eigenvalues_zz=eig_zz,
    )


def _uncontrollable_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A_u of the staircase form [[A_c, *], [0, A_u]] of (a, b), b n x m (Van
    Dooren, IEEE TAC 26(1), 1981): the nonzero columns of b are scaled to
    ||a||_2, which leaves stabilizability alone, and each step keeps the
    singular values of its input block above RANK_RTOL (n + m) ||a||_2.
    """
    scale = np.linalg.norm(a, 2)
    tol = RANK_RTOL * sum(b.shape) * scale
    peak = np.abs(b).max(axis=0)  # entries at most 1 first, so no norm overflows
    b = b[:, peak > 0.0] / peak[peak > 0.0]
    b = b * (scale / np.linalg.norm(b, axis=0))
    while b.size:
        u, s, _ = np.linalg.svd(b)
        r = int(np.count_nonzero(s > tol))
        a = u.T @ a @ u
        a, b = a[r:, r:], a[r:, :r]
    return a
