"""Forcing step: cross value matrix P_z and feedforward gain F_z.

With the feedback loop Abar = A_yy + B_y F_y closed, P_z solves the linear
(Stein-type) equation

    P_z = Q_yz + b Abar' P_y A_yz + b Abar' P_z A_zz,   b = beta,

and completes the rule u_t = F_y y_t + F_z z_t through

    F_z = -(R + b B' P_y B)^{-1} b B' (P_y A_yz + P_z A_zz).

Smith doubling (Smith, 1968) solves it: from X_0 = Q_yz + b Abar' P_y A_yz,
M_0 = sqrt(b) Abar' and N_0 = sqrt(b) A_zz, the step
X_{k+1} = X_k + M_k X_k N_k, M_{k+1} = M_k^2, N_{k+1} = N_k^2 sums 2^k terms
of sum_j M_0^j X_0 N_0^j, which converges since Abar and A_zz lie inside
1/sqrt(b); ``iterations`` counts the doubling steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DivergenceError
from .model import ModelSpec
from .regulator import BLOWUP, DEFAULT_TOL, MAX_ITER, RegulatorSolution, gain


@dataclass(frozen=True, eq=False)
class AugmentedSolution(kernel.Frozen):
    """Cross value matrix P_z and feedforward gain F_z; ``residual`` is the
    Stein residual ||P_z - Q_yz - b Abar' (P_y A_yz + P_z A_zz)||_inf."""

    P_z: np.ndarray
    F_z: np.ndarray
    iterations: int
    residual: float


def _sylvester_residual(spec, reg, abar, p_z):
    target = (
        spec.Q_yz
        + spec.beta * (abar.T @ reg.P_y @ spec.A_yz)
        + spec.beta * (abar.T @ p_z @ spec.A_zz)
    )
    return kernel.inf_norm(p_z - target)


def solve_sylvester(spec: ModelSpec, reg: RegulatorSolution) -> AugmentedSolution:
    """Solve for P_z and the feedforward gain F_z by Smith doubling.

    Stops when ||X_{k+1} - X_k||_inf <= DEFAULT_TOL * (1 + ||X_{k+1}||_inf)
    and raises :class:`DivergenceError` when the doubling explodes or
    exhausts ``MAX_ITER`` steps.  With n_z = 0 the forcing terms vanish and
    empty matrices are returned.
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
    root = math.sqrt(spec.beta)
    p_z = spec.Q_yz + spec.beta * (abar.T @ reg.P_y @ spec.A_yz)
    m_k = root * abar.T
    n_k = root * spec.A_zz
    diff = math.inf
    for iteration in range(1, MAX_ITER + 1):
        step = m_k @ p_z @ n_k
        p_next = p_z + step
        diff = kernel.inf_norm(step)
        scale = kernel.inf_norm(p_next)
        if not math.isfinite(diff) or scale > BLOWUP:
            raise DivergenceError(
                f"Sylvester iteration diverged at iteration {iteration}"
            )
        p_z = p_next
        if diff <= DEFAULT_TOL * (1.0 + scale):
            break
        m_k = m_k @ m_k
        n_k = n_k @ n_k
    else:
        raise DivergenceError(
            f"Sylvester iteration did not converge within {MAX_ITER} iterations"
        )

    residual = _sylvester_residual(spec, reg, abar, p_z)
    f_z = feedforward_gain(spec, reg, p_z)
    return AugmentedSolution(P_z=p_z, F_z=f_z, iterations=iteration, residual=residual)


def feedforward_gain(
    spec: ModelSpec, reg: RegulatorSolution, P_z: np.ndarray
) -> np.ndarray:
    """F_z = -(R + b B' P_y B)^{-1} b B' (P_y A_yz + P_z A_zz)."""
    w = spec.beta * (spec.B_y.T @ (reg.P_y @ spec.A_yz + P_z @ spec.A_zz))
    return gain(spec, reg.P_y, w)
