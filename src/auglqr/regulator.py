"""Feedback step: value matrix P_y and gain F_y of the discounted regulator.

The whole endogenous block y is treated as if it were a state (the
forward-looking part gets its date-0 value later, from the anchoring step)
and P_y is the stabilizing fixed point of

    P = Q_yy + b A' P A - b^2 A' P B (R + b B' P B)^{-1} B' P A,   b = beta,

found by structure-preserving doubling (Chu, Fan & Lin, 2005): from
A_0 = sqrt(b) A, G_0 = b B R^{-1} B', H_0 = Q_yy and with W = I + G_k H_k,

    A_{k+1} = A_k W^{-1} A_k,   G_{k+1} = G_k + A_k W^{-1} G_k A_k',
    H_{k+1} = H_k + A_k' H_k W^{-1} A_k,

H_k equals 2^k - 1 steps of the Riccati map from Q_yy (a 2^k-period
horizon), so it converges quadratically in the doubling steps that
``iterations`` counts.  The gain is defined with the sign convention
F_y = -(R + b B' P B)^{-1} b B' P A, so the optimal rule reads u_t = F_y y_t
and A + B F_y is the stable closed loop that every later step (Sylvester
equation, simulation, change of basis) builds on.

Certainty equivalence holds: nothing here reads k0, z0 or any shock process,
so P_y and F_y are bit-identical across initial conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DivergenceError, InstabilityError
from .model import ModelSpec, symmetrize

DEFAULT_TOL = 1e-12
#: cap on doubling steps; step k covers 2^k periods of the plain recursion
MAX_ITER = 100
#: iterate magnitude treated as divergence (explosive uncontrolled dynamics)
BLOWUP = 1e100
#: the closed loop must clear 1/sqrt(beta) by at least this margin
STABILITY_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class RegulatorSolution:
    """Riccati fixed point P_y (symmetric PSD) and feedback gain F_y; the
    ``residual`` is ||riccati_rhs(P_y) - P_y||_inf."""

    P_y: np.ndarray
    F_y: np.ndarray
    iterations: int
    residual: float


def riccati_rhs(P: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """One application of the Riccati map at P; output exactly symmetric."""
    a, b, beta = spec.A_yy, spec.B_y, spec.beta
    q = symmetrize(spec.Q_yy)
    r = symmetrize(spec.R)
    w = beta * (b.T @ P @ a)  # b B' P A
    s = symmetrize(r + beta * (b.T @ P @ b))
    rhs = q + beta * (a.T @ P @ a) - w.T @ kernel.solve_linear(s, w)
    return symmetrize(rhs)


def _feedback_gain(spec: ModelSpec, p: np.ndarray) -> np.ndarray:
    s = symmetrize(spec.R + spec.beta * (spec.B_y.T @ p @ spec.B_y))
    return -kernel.solve_linear(s, spec.beta * (spec.B_y.T @ p @ spec.A_yy))


def solve_riccati(
    spec: ModelSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> RegulatorSolution:
    """Solve for the stabilizing fixed point by structure-preserving doubling.

    Stops when ||H_{k+1} - H_k||_inf <= tol * (1 + ||H_{k+1}||_inf).  Raises
    :class:`DivergenceError` (carrying the last step size) when the doubling
    explodes, exhausts ``max_iter`` steps or returns a matrix that is not
    positive semidefinite, and :class:`InstabilityError` when the converged
    gain fails the closed-loop spectral-radius margin.
    """
    root = math.sqrt(spec.beta)
    b = root * spec.B_y
    a_k = root * spec.A_yy
    g_k = symmetrize(b @ kernel.solve_linear(symmetrize(spec.R), b.T))
    h_k = symmetrize(spec.Q_yy)
    diff = math.inf
    for iteration in range(1, max_iter + 1):
        # one inverse of W serves W^{-1} A_k and W^{-1} G_k
        w_inv = kernel.solve_linear(np.eye(len(a_k)) + g_k @ h_k, np.hstack([a_k, g_k]))
        w_inv_a, w_inv_g = np.hsplit(w_inv, [a_k.shape[1]])
        h_next = symmetrize(h_k + a_k.T @ h_k @ w_inv_a)
        g_k = symmetrize(g_k + a_k @ w_inv_g @ a_k.T)
        a_k = a_k @ w_inv_a
        diff = kernel.inf_norm(h_next - h_k)
        scale = kernel.inf_norm(h_next)
        if not math.isfinite(diff) or scale > BLOWUP:
            raise DivergenceError(
                f"Riccati iteration diverged at iteration {iteration}"
                f" (step {diff:.3e})",
                residual=diff,
            )
        h_k = h_next
        if diff <= tol * (1.0 + scale):
            break
    else:
        raise DivergenceError(
            f"Riccati iteration did not converge within {max_iter} iterations"
            f" (last step {diff:.3e})",
            residual=diff,
        )

    # H_k is symmetric by construction and PSD up to roundoff; losing
    # definiteness signals numerical breakdown, not slow convergence
    if np.linalg.eigvalsh(h_k).min() < -1e-10 * max(1.0, scale):
        raise DivergenceError(
            f"Riccati solution lost positive semidefiniteness"
            f" after {iteration} iterations",
            residual=diff,
        )
    f = _feedback_gain(spec, h_k)
    radius = kernel.spectral_radius(spec.A_yy + spec.B_y @ f)
    limit = 1.0 / math.sqrt(spec.beta) - STABILITY_MARGIN
    if radius >= limit:
        raise InstabilityError(
            f"closed loop not stabilizing: spectral radius {radius:.12g}"
            f" >= {limit:.12g}"
        )
    residual = kernel.inf_norm(riccati_rhs(h_k, spec) - h_k)
    kernel.read_only(h_k, f)
    return RegulatorSolution(P_y=h_k, F_y=f, iterations=iteration, residual=residual)
