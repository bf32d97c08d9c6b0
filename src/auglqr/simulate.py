"""Closed-loop assembly, deterministic simulation, impulse responses, loss.

Substituting the optimal rule into the transmission mechanism yields the
closed-loop system

    [y_{t+1}]   [A_yy + B_y F_y   A_yz + B_y F_z] [y_t]   [0  ]
    [z_{t+1}] = [      0               A_zz     ] [z_t] + [I_z] e_t,

simulated forward from the anchored initial state.  Only that state
recursion runs period by period; the paths of u and of the multipliers mu
then follow from the gains and value matrices, each in one matrix product
over the whole path.  With s = (y, z) and G = [F_y F_z], the period loss is
s' Qbar s for Qbar = [[Q_yy, Q_yz], [Q_yz', 0]] + G' R G, and the discounted
loss L = (1/2) sum beta^t s_t' Qbar s_t is reported as a positive quantity,
so smaller is better.  The loss beyond the horizon is exact, not estimated:
from s_H on it is (1/2) beta^H s_H' W s_H, where W solves the Stein equation
W = Qbar + beta T_cl' W T_cl.

Certainty equivalence makes the deterministic recursion sufficient: expected
paths after a shock coincide with the noiseless simulation, so impulse
responses are exact without drawing any randomness.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import kernel
from .anchor import AnchoredState, anchor_x0
from .augmented import AugmentedSolution
from .errors import DivergenceError, InstabilityError
from .model import ModelSpec
from .regulator import RegulatorSolution


class ClosedLoopSystem(kernel.Frozen):
    T_cl: np.ndarray
    impulse_loading: np.ndarray
    state0: np.ndarray


class Trajectory(kernel.Frozen):
    """Time-indexed paths for t = 0..horizon-1 plus the truncated loss.

    ``truncation_bound`` is, despite its name, the exact discounted loss of
    the noiseless continuation from period ``horizon`` on, so ``loss`` plus
    it is the loss over the infinite horizon (golden at horizon 1: 0.2229 +
    0.1661).  Where Q_yz makes Qbar indefinite it can be negative.
    """

    horizon: int
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    loss: float
    truncation_bound: float


def build_closed_loop(
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    anchored: AnchoredState,
) -> ClosedLoopSystem:
    """Stack the closed-loop transition, the impulse loading, and state0.

    Both stability guards reuse a radius already decided: the solver's
    ``reg.radius_cl`` when the loop is the very ``reg.A_cl`` it checked (a
    replaced F_y or A_yy gets a fresh eigendecomposition), and the model's
    own ``eigenvalues_zz``.
    """
    n_y, n_z = spec.dims.n_y, spec.dims.n_z
    a_cl = spec.A_yy + spec.B_y @ reg.F_y
    sqrt_beta = math.sqrt(spec.beta)
    same = np.array_equal(a_cl, reg.A_cl)
    radius_cl = reg.radius_cl if same else kernel.spectral_radius(a_cl)
    if sqrt_beta * radius_cl >= 1.0:
        raise InstabilityError(
            f"closed feedback loop unstable: sqrt(beta) * {radius_cl:.6g} >= 1"
        )
    radius_zz = kernel.radius_of(spec.eigenvalues_zz)
    if sqrt_beta * radius_zz >= 1.0:
        raise InstabilityError(
            f"forcing block unstable: sqrt(beta) * {radius_zz:.6g} >= 1"
        )

    t_cl = np.zeros((n_y + n_z, n_y + n_z))
    t_cl[:n_y, :n_y] = a_cl
    t_cl[:n_y, n_y:] = spec.A_yz + spec.B_y @ aug.F_z
    t_cl[n_y:, n_y:] = spec.A_zz  # lower-left stays exactly zero: z is exogenous
    loading = np.zeros((n_y + n_z, n_z))
    loading[n_y:, :] = np.eye(n_z)
    state0 = np.concatenate([anchored.y0, spec.z0])
    return ClosedLoopSystem(T_cl=t_cl, impulse_loading=loading, state0=state0)


#: periods between fixed-point tests: at 256 they cost ~1% of a path that never settles
_SETTLE_CHUNK = 256


def state_path(
    transition: np.ndarray,
    start: np.ndarray,
    horizon: int,
    drive: np.ndarray | None = None,
) -> np.ndarray:
    """Rows s_0 .. s_{horizon-1} of s_{t+1} = transition s_t (+ drive[t]).

    A step is the bound ``transition.dot``: np.dot's C routine, bits and all,
    without the ``__array_function__`` dispatch, a third of a step at n <= 6.
    An undriven step is a fixed function of its input's bits: once a row
    repeats the one before it bit for bit (-0.0 and NaN included), every
    later row is that row, so the loop tests for it after each chunk of
    periods and copies the settled row into the rest.  It takes row views a
    chunk at a time, so it builds none for the rows it copies.
    """
    states = np.empty((horizon, len(start)))
    states[0] = start
    dot, add = transition.dot, np.add
    if drive is None:
        for first in range(0, horizon - 1, _SETTLE_CHUNK):
            rows = list(states[first : first + _SETTLE_CHUNK + 1])
            for prev, row in zip(rows, rows[1:]):
                dot(prev, out=row)
            if rows[-1].tobytes() == rows[-2].tobytes():
                states[first + len(rows) :] = rows[-1]
                break
    else:
        rows = list(states)
        for prev, row, push in zip(rows, rows[1:], drive):
            dot(prev, out=row)
            add(row, push, out=row)
    return states


def simulate_path(
    sys: ClosedLoopSystem,
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    horizon: int,
    shocks: np.ndarray | None = None,
) -> Trajectory:
    """Roll the closed loop forward ``horizon`` periods.

    ``shocks`` is an optional horizon x n_z array of forcing innovations;
    shocks[t] enters the transition from t to t+1.  Omitted shocks mean the
    deterministic path.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    n_y, n_z = spec.dims.n_y, spec.dims.n_z
    drive = None
    if shocks is not None:
        shocks = np.asarray(shocks, dtype=float)
        if shocks.shape != (horizon, n_z):
            raise ValueError(
                f"shocks must have shape {(horizon, n_z)}, got {shocks.shape}"
            )
        drive = shocks @ sys.impulse_loading.T

    # the isfinite scan owns overflow, in every printed path: mu can overflow first
    with np.errstate(over="ignore", invalid="ignore"):
        states = state_path(sys.T_cl, sys.state0, horizon, drive)
        y, z = states[:, :n_y], states[:, n_y:]
        u = y @ reg.F_y.T + z @ aug.F_z.T
        mu = y @ reg.P_y.T + z @ aug.P_z.T
    finite = np.isfinite(states).all(1) & np.isfinite(u).all(1) & np.isfinite(mu).all(1)
    if not finite.all():
        raise DivergenceError(f"simulated path overflowed at t = {np.argmin(finite)}")

    # in discounted states d_t = beta^(t/2) s_t the period loss is d_t' Qbar d_t:
    # no overflowed square of s_t ever meets an underflowed beta^t
    gains = np.hstack([reg.F_y, aug.F_z])
    weights = np.block([[spec.Q_yy, spec.Q_yz], [spec.Q_yz.T, np.zeros((n_z, n_z))]])
    q_bar = weights + gains.T @ spec.R @ gains
    root = math.sqrt(spec.beta)
    discounted = states * (root ** np.arange(horizon))[:, None]
    # a ufunc reduction, not np.vdot: BLAS threads a long dot product, which
    # stalls on a busy host and makes the sum's bits depend on the thread count
    loss = 0.5 * float((discounted @ q_bar * discounted).sum())

    # the tail: the noiseless continuation from d_H, valued by W = Qbar + b T' W T
    d_end = root * (sys.T_cl @ discounted[-1])
    if drive is not None:
        d_end += root**horizon * drive[-1]
    w, _, _ = kernel.stein(sys.T_cl.T, sys.T_cl, q_bar, spec.beta)
    tail = 0.5 * float(d_end @ w @ d_end)
    return Trajectory(
        horizon=horizon, y=y, z=z, u=u, mu=mu, loss=loss, truncation_bound=tail
    )


def irf(
    sys: ClosedLoopSystem,
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    horizon: int,
    shock_index: int,
) -> Trajectory:
    """Response to a unit date-0 innovation in one forcing variable.

    The impulse replaces the model's initial conditions: k0 = 0, z0 = e_j,
    and x0 is re-anchored against that z0 (the date-0 information set includes
    the shock, so the forward-looking block reacts on impact).
    """
    n_z = spec.dims.n_z
    if not 0 <= shock_index < n_z:
        raise ValueError(
            f"shock index {shock_index} out of range for {n_z} forcing variables"
        )
    unit = np.zeros(n_z)
    unit[shock_index] = 1.0
    anchored = anchor_x0(spec, reg, aug, k0=np.zeros(spec.dims.n_k), z0=unit)
    start = np.concatenate([anchored.y0, unit])
    return simulate_path(replace(sys, state0=start), spec, reg, aug, horizon)
