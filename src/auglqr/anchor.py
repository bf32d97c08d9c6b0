"""Date-0 anchoring of the forward-looking variables.

Forward-looking variables have no given initial condition; the multiplier
attached to them is zero at date 0 instead (a natural boundary condition).
Writing the date-0 multipliers as mu_0 = P_y y_0 + P_z z_0 and partitioning
P_y conformably with y = (k, x), the zero condition on the x-block gives

    P_y[x,k] k0 + P_y[x,x] x0 + P_z[x,:] z0 = 0
    x0 = -P_y[x,x]^{-1} (P_y[x,k] k0 + P_z[x,:] z0).

A singular forward block P_y[x,x] means the model does not pin x0 down
uniquely; that is reported as a hard error rather than silently resolved with a
pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .augmented import AugmentedSolution
from .errors import SingularMatrixError
from .model import ModelSpec
from .regulator import RegulatorSolution


class AnchoredState(kernel.Frozen):
    """Optimal date-0 values: x0, the stacked y0 = (k0, x0), and mu0."""

    x0: np.ndarray
    y0: np.ndarray
    mu0: np.ndarray


def anchor_x0(
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    k0: np.ndarray | None = None,
    z0: np.ndarray | None = None,
) -> AnchoredState:
    """Solve the zero-multiplier condition for x0.

    ``k0`` and ``z0`` default to the model's initial conditions; impulse
    responses pass their own (zero k0, unit z0).
    """
    dims = spec.dims
    k0 = spec.k0 if k0 is None else np.asarray(k0, dtype=float).reshape(-1)
    z0 = spec.z0 if z0 is None else np.asarray(z0, dtype=float).reshape(-1)
    if k0.shape != (dims.n_k,):
        raise ValueError(f"k0 has length {k0.shape[0]}, expected {dims.n_k}")
    if z0.shape != (dims.n_z,):
        raise ValueError(f"z0 has length {z0.shape[0]}, expected {dims.n_z}")

    # an empty forward block (n_x = 0) solves to an empty x0
    n_k = dims.n_k
    p_xk = reg.P_y[n_k:, :n_k]
    p_xx = reg.P_y[n_k:, n_k:]
    p_zx = aug.P_z[n_k:, :]
    rhs = p_xk @ k0 + p_zx @ z0
    try:
        x0 = -kernel.solve_linear(p_xx, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"forward block of Riccati solution singular: {exc}"
        ) from exc

    y0 = np.concatenate([k0, x0])
    mu0 = reg.P_y @ y0 + aug.P_z @ z0
    return AnchoredState(x0=x0, y0=y0, mu0=mu0)
