"""Independent references for every output the benchmark checks.

Built from the model documents with numpy and scipy only, never with
auglqr, and computed once per model before any timed operation:

- P_y from ``scipy.linalg.solve_discrete_are`` on (sqrt(b) A_yy, sqrt(b) B_y,
  Q_yy, R), and the gain F_y from it;
- P_z from a dense Kronecker solve of the Stein equation
  P_z = Q_yz + b Abar' P_y A_yz + b Abar' P_z A_zz, and the gain F_z;
- the anchored x0 and the closed loop T_cl;
- W from ``scipy.linalg.solve_discrete_lyapunov`` for W = Qbar + b T_cl' W T_cl,
  so the discounted loss from state s0 over H periods is
  s0' (W - b^H T_cl^H' W T_cl^H) s0 / 2 (the infinite-horizon s0' W s0 / 2
  less the tail);
- the expected CLI exit status of each model and subcommand: 3 for a schema
  error, 1 when the forcing block is explosive, an unstable mode is
  uncontrollable (PBH test) or ``var`` meets n_u != n_z, 0 otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

#: relative tolerance every checked number must meet against its reference
RTOL = 1e-8

REQUIRED = ("beta", "dims", "A_yy", "A_yz", "A_zz", "B_y", "Q_yy", "Q_yz", "R", "k0", "z0")


class Mismatch(Exception):
    """An output disagrees with its reference."""


def rel_err(value, ref) -> float:
    """max |value - ref| / max |ref| (absolute when the reference is zero)."""
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        raise Mismatch(f"shape {value.shape} != reference shape {ref.shape}")
    if ref.size == 0:
        return 0.0
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(value - ref))) / (scale if scale > 0 else 1.0)


def expect_close(what: str, value, ref, rtol: float = RTOL) -> float:
    """Relative error of value against ref; raise Mismatch beyond rtol."""
    err = rel_err(value, ref)
    if not err <= rtol:
        raise Mismatch(f"{what}: relative error {err:.3e} exceeds {rtol:.0e}")
    return err


def _matrices(doc: dict):
    d = doc["dims"]
    n_y, n_z, n_u = d["n_k"] + d["n_x"], d["n_z"], d["n_u"]

    def mat(name, rows, cols):
        return np.asarray(doc[name], dtype=float).reshape(rows, cols)

    return (
        d["n_k"],
        mat("A_yy", n_y, n_y),
        mat("A_yz", n_y, n_z),
        mat("A_zz", n_z, n_z),
        mat("B_y", n_y, n_u),
        mat("Q_yy", n_y, n_y),
        mat("Q_yz", n_y, n_z),
        mat("R", n_u, n_u),
        np.asarray(doc["k0"], dtype=float),
        np.asarray(doc["z0"], dtype=float),
    )


def expected_status(doc: dict, command: str) -> int:
    """Exit status a correct ``auglqr <command>`` gives for this model document."""
    if any(key not in doc for key in REQUIRED):
        return 3
    if command == "validate":
        return 0
    _, a, _, a_zz, b, *_ = _matrices(doc)
    if command == "var" and a_zz.shape[0] != b.shape[1]:
        return 1
    limit = 1.0 / math.sqrt(doc["beta"])
    if a_zz.size and np.max(np.abs(np.linalg.eigvals(a_zz))) >= limit:
        return 1
    for lam in np.linalg.eigvals(a):
        if abs(lam) >= limit:
            pbh = np.hstack([a - lam * np.eye(a.shape[0]), b])
            if np.linalg.matrix_rank(pbh) < a.shape[0]:
                return 1
    return 0


def solve_reference(doc: dict) -> dict[str, np.ndarray]:
    """Reference solution of a model the solver must accept."""
    beta = float(doc["beta"])
    n_k, a, a_yz, a_zz, b, q, q_yz, r, k0, z0 = _matrices(doc)
    n_y, n_z = a.shape[0], a_zz.shape[0]
    sb = math.sqrt(beta)
    p_y = scipy.linalg.solve_discrete_are(sb * a, sb * b, q, r)
    s = r + beta * b.T @ p_y @ b
    f_y = -np.linalg.solve(s, beta * b.T @ p_y @ a)
    abar = a + b @ f_y
    stein = np.eye(n_y * n_z) - beta * np.kron(a_zz.T, abar.T)
    rhs = q_yz + beta * abar.T @ p_y @ a_yz
    p_z = np.linalg.solve(stein, rhs.reshape(-1, order="F")).reshape(n_y, n_z, order="F")
    f_z = -np.linalg.solve(s, beta * b.T @ (p_y @ a_yz + p_z @ a_zz))

    t_cl = np.block([[abar, a_yz + b @ f_z], [np.zeros((n_z, n_y)), a_zz]])
    gain = np.hstack([f_y, f_z])
    q_bar = np.block([[q, q_yz], [q_yz.T, np.zeros((n_z, n_z))]]) + gain.T @ r @ gain
    w = scipy.linalg.solve_discrete_lyapunov(sb * t_cl.T, q_bar)
    ref = {
        "beta": np.array(beta),
        "n_k": np.array(n_k),
        "P_y": p_y,
        "F_y": f_y,
        "P_z": p_z,
        "F_z": f_z,
        "T_cl": t_cl,
        "Q_bar": q_bar,
        "W": (w + w.T) / 2.0,
        "rho_zz": np.array(np.max(np.abs(np.linalg.eigvals(a_zz))) if n_z else 0.0),
    }
    ref["s0"] = initial_state(ref, k0, z0)
    return ref


def initial_state(ref: dict, k0: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Anchored closed-loop state (k0, x0, z0): the x-block multiplier is zero."""
    n_k = int(ref["n_k"])
    p_y, p_z = ref["P_y"], ref["P_z"]
    x0 = -np.linalg.solve(p_y[n_k:, n_k:], p_y[n_k:, :n_k] @ k0 + p_z[n_k:] @ z0)
    return np.concatenate([k0, x0, z0])


def impulse_state(ref: dict, shock: int) -> np.ndarray:
    """Initial state of the response to a unit innovation in forcing variable j."""
    n_k, n_z = int(ref["n_k"]), ref["P_z"].shape[1]
    return initial_state(ref, np.zeros(n_k), np.eye(n_z)[shock])


def truncated_loss(ref: dict, s0: np.ndarray, horizon: int) -> float:
    """Exact discounted loss of the noiseless path over ``horizon`` periods."""
    beta, w = float(ref["beta"]), ref["W"]
    t_h = np.linalg.matrix_power(ref["T_cl"], horizon)
    tail = beta**horizon * (t_h.T @ w @ t_h)
    return 0.5 * float(s0 @ (w - tail) @ s0)


def path_loss(ref: dict, s0: np.ndarray, shocks: np.ndarray) -> float:
    """Discounted loss along the path driven by ``shocks`` (shocks[t] enters t -> t+1)."""
    beta, t_cl, q_bar = float(ref["beta"]), ref["T_cl"], ref["Q_bar"]
    first_z = s0.size - shocks.shape[1]
    states = np.empty((shocks.shape[0], s0.size))
    state = s0
    for t in range(shocks.shape[0]):
        states[t] = state
        state = t_cl @ state
        state[first_z:] += shocks[t]
    quad = np.einsum("ti,ij,tj->t", states, q_bar, states)
    return 0.5 * float(quad @ beta ** np.arange(shocks.shape[0]))


def load_document(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
