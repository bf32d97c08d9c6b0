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
``iterations`` counts and ``kernel.converge`` stops.  The gain has the sign
convention F_y = -(R + b B' P B)^{-1} b B' P A, so the optimal rule reads
u_t = F_y y_t and A + B F_y is the stable closed loop that every later step
(Sylvester equation, simulation, change of basis) builds on.

Certainty equivalence holds: nothing here reads k0, z0 or any shock process,
so P_y and F_y are bit-identical across initial conditions.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernel
from .errors import DivergenceError, InstabilityError
from .model import ModelSpec, symmetrize

#: the closed loop must clear 1/sqrt(beta) by at least this margin
STABILITY_MARGIN = 1e-9


class RegulatorSolution(kernel.Frozen):
    """Riccati fixed point P_y (symmetric PSD) and feedback gain F_y; the
    ``residual`` is ||T(P_y) - P_y||_inf, T(P) the right-hand side of the
    Riccati equation in the module docstring.

    ``radius_cl`` is the checked spectral radius of the closed loop ``A_cl`` =
    A_yy + B_y F_y; a reader reuses it only while its loop equals ``A_cl``.
    ``S_inv`` is the inverse of S = R + b B' P_y B at this P_y, the factor of
    F_y here and of the feedforward gain F_z in ``augmented``.
    """

    P_y: np.ndarray
    F_y: np.ndarray
    iterations: int
    residual: float
    A_cl: np.ndarray
    radius_cl: float
    S_inv: np.ndarray


def solve_riccati(spec: ModelSpec, tol: float = kernel.DEFAULT_TOL) -> RegulatorSolution:
    """Solve for the stabilizing fixed point by structure-preserving doubling.

    ``kernel.converge`` stops the doubling at ``tol``.  Raises
    :class:`DivergenceError` there and when H_k is not positive
    semidefinite, and :class:`InstabilityError` when the gain fails the
    closed-loop spectral-radius margin.
    """
    root = math.sqrt(spec.beta)
    b = root * spec.B_y
    g_0 = symmetrize(b @ kernel.solve_linear(symmetrize(spec.R), b.T))
    q = symmetrize(spec.Q_yy)
    steps = _sda(root * spec.A_yy, g_0, q)
    h_k, iteration, scale = kernel.converge(steps, "Riccati", tol)

    # H_k is symmetric by construction and PSD up to roundoff; losing
    # definiteness signals numerical breakdown, not slow convergence
    if np.linalg.eigvalsh(h_k).min() < -1e-10 * max(1.0, scale):
        raise DivergenceError(
            f"Riccati solution lost positive semidefiniteness"
            f" after {iteration} iterations"
        )
    a = spec.A_yy
    bp = spec.B_y.T @ h_k
    s_inv = kernel.inverse(symmetrize(spec.R + spec.beta * (bp @ spec.B_y)))
    w = spec.beta * (bp @ a)  # b B' P A
    f = -(s_inv @ w)
    a_cl = a + spec.B_y @ f
    radius = kernel.spectral_radius(a_cl)
    limit = 1.0 / root - STABILITY_MARGIN
    if radius >= limit:
        raise InstabilityError(
            f"closed loop not stabilizing: spectral radius {radius:.12g}"
            f" >= {limit:.12g}"
        )
    # the Riccati map at H_k, reusing its gain
    t_h = symmetrize(q + spec.beta * (a.T @ h_k @ a) + w.T @ f)
    residual = kernel.inf_norm(t_h - h_k)
    return RegulatorSolution(
        P_y=h_k,
        F_y=f,
        iterations=iteration,
        residual=residual,
        A_cl=a_cl,
        radius_cl=radius,
        S_inv=s_inv,
    )


def _sda(a_k: np.ndarray, g_k: np.ndarray, h_k: np.ndarray) -> kernel.Steps:
    """Doubling of H_k from (A_0, G_0, H_0), without end."""
    n = len(a_k)
    eye = np.eye(n)
    # at n_y <= 3 a call costs more than arithmetic: nothing but the gated inverse
    while True:
        # one inverse of W = I + G_k H_k serves W^{-1} A_k and W^{-1} G_k
        w_inv = kernel.solve_linear(eye + g_k @ h_k, np.concatenate((a_k, g_k), axis=1))
        w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
        h_next = h_k + a_k.T @ h_k @ w_inv_a
        h_next = (h_next + h_next.T) / 2.0
        g_k = g_k + a_k @ w_inv_g @ a_k.T
        g_k = (g_k + g_k.T) / 2.0
        a_k = a_k @ w_inv_a
        yield h_next, h_next - h_k
        h_k = h_next
