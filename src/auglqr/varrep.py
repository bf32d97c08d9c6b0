"""Change of basis replacing unobservable forcing variables with instruments.

A policy rule that responds to unobserved z cannot be implemented or
estimated directly.  When the instrument count matches the forcing count and
F_z is invertible, the map

    [y_t]          [y_t]                    [ I    0  ]
    [u_t] = M^{-1} [z_t],        M^{-1}  =  [F_y  F_z ],

turns the closed loop into an observationally equivalent autoregressive
system in (y, u): next-period instruments respond only to lagged observables.
The forcing variables remain recoverable from the observables through
z_t = F_z^{-1} u_t - F_z^{-1} F_y y_t.  F_z counts as invertible when
:func:`kernel.inverse` accepts it: its reciprocal 1-norm condition number
must exceed ``kernel.RCOND_MIN``.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .augmented import AugmentedSolution
from .errors import DimensionError, SingularMatrixError
from .model import ModelSpec
from .regulator import RegulatorSolution
from .simulate import ClosedLoopSystem, simulate_path, state_path


class VarRepresentation(kernel.Frozen):
    """Autoregressive form of the closed loop in the observable basis (y, u)."""

    T_var: np.ndarray
    shock_loading_var: np.ndarray
    M: np.ndarray
    M_inv: np.ndarray
    z_from_y: np.ndarray  # -F_z^{-1} F_y
    z_from_u: np.ndarray  # F_z^{-1}


def to_var(
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    sys: ClosedLoopSystem,
) -> VarRepresentation:
    """Similarity-transform the closed loop into the observable basis."""
    n_y, n_z, n_u = spec.dims.n_y, spec.dims.n_z, spec.dims.n_u
    if n_u != n_z:
        raise DimensionError(
            f"F_z not square, VAR representation undefined (n_u = {n_u}, n_z = {n_z})"
        )
    try:
        fz_inv = kernel.inverse(aug.F_z)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"F_z too ill-conditioned to invert: {exc}") from exc
    fz_inv_fy = fz_inv @ reg.F_y

    n = n_y + n_z
    m_inv = np.zeros((n, n))
    m_inv[:n_y, :n_y] = np.eye(n_y)
    m_inv[n_y:, :n_y] = reg.F_y
    m_inv[n_y:, n_y:] = aug.F_z
    m = np.zeros((n, n))
    m[:n_y, :n_y] = np.eye(n_y)
    m[n_y:, :n_y] = -fz_inv_fy
    m[n_y:, n_y:] = fz_inv

    t_var = m_inv @ sys.T_cl @ m
    shock_loading_var = m_inv @ sys.impulse_loading
    z_from_y = -fz_inv_fy
    return VarRepresentation(
        T_var=t_var,
        shock_loading_var=shock_loading_var,
        M=m,
        M_inv=m_inv,
        z_from_y=z_from_y,
        z_from_u=fz_inv,
    )


def var_simulate_check(
    varrep: VarRepresentation,
    sys: ClosedLoopSystem,
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    horizon: int,
    shocks: np.ndarray | None = None,
) -> float:
    """Max deviation of the (y, u) paths between the two representations.

    Runs both systems from the same anchored initial state and shock sequence;
    the similarity makes the paths algebraically identical, so the return
    value measures accumulated floating-point drift only.
    """
    traj = simulate_path(sys, spec, reg, aug, horizon, shocks)
    observed = np.hstack([traj.y, traj.u])
    drive = None
    if shocks is not None:
        drive = np.asarray(shocks, dtype=float) @ varrep.shock_loading_var.T
    states = state_path(varrep.T_var, varrep.M_inv @ sys.state0, horizon, drive)
    return float(np.max(np.abs(observed - states), initial=0.0))
