"""Forcing step: cross value matrix P_z and feedforward gain F_z.

With the feedback loop Abar = A_yy + B_y F_y closed, P_z solves the linear
(Stein-type) equation

    P_z = Q_yz + b Abar' P_y A_yz + b Abar' P_z A_zz,   b = beta,

and completes the rule u_t = F_y y_t + F_z z_t through

    F_z = -S^{-1} b B' (P_y A_yz + P_z A_zz),

with the S^{-1} of the feedback gain, carried as ``RegulatorSolution.S_inv``.

That is the Stein equation X = C + b M X N with C = Q_yz + b Abar' P_y A_yz,
M = Abar' and N = A_zz, which ``kernel.stein`` solves by Smith doubling
under the stop rule of ``kernel.converge``; it converges since Abar and A_zz
lie inside 1/sqrt(b), and ``iterations`` counts its doubling steps.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .model import ModelSpec
from .regulator import RegulatorSolution


class AugmentedSolution(kernel.Frozen):
    """Cross value matrix P_z and feedforward gain F_z; ``residual`` is the
    Stein residual ||P_z - Q_yz - b Abar' (P_y A_yz + P_z A_zz)||_inf."""

    P_z: np.ndarray
    F_z: np.ndarray
    iterations: int
    residual: float


def solve_sylvester(spec: ModelSpec, reg: RegulatorSolution) -> AugmentedSolution:
    """Solve for P_z by ``kernel.stein``, then the feedforward gain F_z.

    Raises :class:`DivergenceError` when the doubling diverges, does not
    converge or stops at a wrong solution.  With n_z = 0 the forcing terms
    vanish and empty matrices are returned.
    """
    dims = spec.dims
    if dims.n_z == 0:
        return AugmentedSolution(
            P_z=np.zeros((dims.n_y, 0)),
            F_z=np.zeros((dims.n_u, 0)),
            iterations=0,
            residual=0.0,
        )

    abar = spec.A_yy + spec.B_y @ reg.F_y
    c = spec.Q_yz + spec.beta * (abar.T @ reg.P_y @ spec.A_yz)
    p_z, iterations, residual = kernel.stein(abar.T, spec.A_zz, c, spec.beta)
    w_z = spec.beta * (spec.B_y.T @ (reg.P_y @ spec.A_yz + p_z @ spec.A_zz))
    f_z = -(reg.S_inv @ w_z)
    return AugmentedSolution(P_z=p_z, F_z=f_z, iterations=iterations, residual=residual)
