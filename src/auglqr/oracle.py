"""Brute-force finite-horizon verifier for the infinite-horizon solvers.

Backward induction from the terminal condition P_y(T) = Q_yy, P_z(T) = Q_yz
re-derives the value matrices and the date-0 gains without ever touching the
fixed-point machinery: the recursions here are written out locally and only
the linear-algebra kernel is shared with the solver modules, so agreement
between the two routes is evidence rather than tautology.

This module favors transparency over speed; it exists to generate ground
truth for small models.  The value matrices of every period come back as
two arrays indexed by period, filled in place from the terminal one back.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .model import ModelSpec, symmetrize


class FiniteHorizonSolution(kernel.Frozen):
    """Value matrices P(t), t = 0..horizon, and the date-0 gains.

    ``P_y_seq[t]`` and ``P_z_seq[t]`` are P_y(t) and P_z(t): arrays of shape
    (horizon + 1, n_y, n_y) and (horizon + 1, n_y, n_z).
    """

    horizon: int
    P_y_seq: np.ndarray
    P_z_seq: np.ndarray
    F_y_T: np.ndarray
    F_z_T: np.ndarray


def backward_induction(spec: ModelSpec, horizon: int) -> FiniteHorizonSolution:
    """Run the finite-horizon recursions for ``horizon`` steps.

    Each step applies, at the next-period value matrices,

        P_y(t) = Q_yy + b A' P_y(t+1) A + b A' P_y(t+1) B F_y(t)
        P_z(t) = Q_yz + b Abar_t' P_y(t+1) A_yz + b Abar_t' P_z(t+1) A_zz

    with the time-t gains taken from P(t+1), F_y(t) = -S^{-1} b B' P_y(t+1) A
    for S = R + b B' P_y(t+1) B, and Abar_t = A + B F_y(t).  The returned
    gains are the date-0 ones, which converge to the stationary solution as
    the horizon grows.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    dims = spec.dims
    a, b, beta = spec.A_yy, spec.B_y, spec.beta
    a_yz, a_zz = spec.A_yz, spec.A_zz
    q = symmetrize(spec.Q_yy)
    r = symmetrize(spec.R)
    q_yz = spec.Q_yz

    p_y_seq = np.empty((horizon + 1, dims.n_y, dims.n_y))
    p_z_seq = np.empty((horizon + 1, dims.n_y, dims.n_z))
    p_y_seq[horizon] = q
    p_z_seq[horizon] = q_yz

    f_y = np.zeros((dims.n_u, dims.n_y))
    f_z = np.zeros((dims.n_u, dims.n_z))
    for t in reversed(range(horizon)):
        p_next = p_y_seq[t + 1]
        s = symmetrize(r + beta * (b.T @ p_next @ b))
        f_y = -kernel.solve_linear(s, beta * (b.T @ p_next @ a))
        p_y_seq[t] = symmetrize(
            q + beta * (a.T @ p_next @ a) + beta * (a.T @ p_next @ b) @ f_y
        )
        abar = a + b @ f_y
        if dims.n_z:
            f_z = -kernel.solve_linear(
                s, beta * (b.T @ (p_next @ a_yz + p_z_seq[t + 1] @ a_zz))
            )
            p_z_seq[t] = (
                q_yz
                + beta * (abar.T @ p_next @ a_yz)
                + beta * (abar.T @ p_z_seq[t + 1] @ a_zz)
            )

    return FiniteHorizonSolution(
        horizon=horizon, P_y_seq=p_y_seq, P_z_seq=p_z_seq, F_y_T=f_y, F_z_T=f_z
    )
