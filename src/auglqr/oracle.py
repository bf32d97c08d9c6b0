"""Brute-force finite-horizon verifier for the infinite-horizon solvers.

Backward induction from the terminal condition P_y(T) = Q_yy, P_z(T) = Q_yz
re-derives the value matrices and the date-0 gains without ever touching the
fixed-point machinery: the recursions here are written out locally and only
the linear-algebra kernel is shared with the solver modules, so agreement
between the two routes is evidence rather than tautology.

This module favors transparency over speed; it exists to generate ground
truth for small models.  Only the date-0 answer comes back: each step needs
just the next period's value matrices, so two periods are held at a time and
memory does not grow with the horizon.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .model import ModelSpec, symmetrize


class FiniteHorizonSolution(kernel.Frozen):
    """The date-0 value matrices P_y(0), P_z(0) and gains F_y(0), F_z(0),
    named as the infinite-horizon solutions name them."""

    P_y: np.ndarray
    P_z: np.ndarray
    F_y: np.ndarray
    F_z: np.ndarray


def backward_induction(spec: ModelSpec, horizon: int) -> FiniteHorizonSolution:
    """Run the finite-horizon recursions for ``horizon`` steps.

    Each step applies, at the next-period value matrices,

        P_y(t) = Q_yy + b A' P_y(t+1) A + b A' P_y(t+1) B F_y(t)
        P_z(t) = Q_yz + b Abar_t' P_y(t+1) A_yz + b Abar_t' P_z(t+1) A_zz

    with the time-t gains taken from P(t+1), F_y(t) = -S^{-1} b B' P_y(t+1) A
    for S = R + b B' P_y(t+1) B, and Abar_t = A + B F_y(t).  The returned
    values and gains are the date-0 ones, which converge to the stationary
    solution as the horizon grows.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    dims = spec.dims
    a, b, beta = spec.A_yy, spec.B_y, spec.beta
    a_yz, a_zz = spec.A_yz, spec.A_zz
    q = symmetrize(spec.Q_yy)
    r = symmetrize(spec.R)
    q_yz = spec.Q_yz

    p_y, p_z = q, q_yz  # P(T), then P(t) after the step for period t
    f_y = np.zeros((dims.n_u, dims.n_y))
    f_z = np.zeros((dims.n_u, dims.n_z))
    for _ in range(horizon):
        p_next = p_y  # P_y(t+1); P_z(t+1) is read from p_z before it is replaced
        s_inv = kernel.inverse(symmetrize(r + beta * (b.T @ p_next @ b)))
        f_y = -(s_inv @ (beta * (b.T @ p_next @ a)))
        p_y = symmetrize(
            q + beta * (a.T @ p_next @ a) + beta * (a.T @ p_next @ b) @ f_y
        )
        abar = a + b @ f_y
        if dims.n_z:
            f_z = -(s_inv @ (beta * (b.T @ (p_next @ a_yz + p_z @ a_zz))))
            p_z = (
                q_yz
                + beta * (abar.T @ p_next @ a_yz)
                + beta * (abar.T @ p_z @ a_zz)
            )

    return FiniteHorizonSolution(P_y=p_y, P_z=p_z, F_y=f_y, F_z=f_z)
