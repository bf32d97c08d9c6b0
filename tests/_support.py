"""Shared constants, oracles, and model builders for the test suite."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from auglqr import (
    AugmentedSolution,
    Dims,
    ModelSpec,
    RegulatorSolution,
    load_model,
    run_checks,
)
from auglqr.kernel import inverse
from auglqr.model import _MATRIX_FIELDS, _VECTOR_FIELDS, symmetrize

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

# closed-form scalar solution of the unit model (beta = a = b = q = r = 1,
# forcing a_yz = 1, a_zz = 0.5): P_y is the positive root of p^2 - p - 1 = 0
PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_P_Y = PHI
GOLDEN_F_Y = 1.0 - PHI
GOLDEN_ABAR = 2.0 - PHI
GOLDEN_P_Z = 4.0 - 2.0 * PHI
GOLDEN_F_Z = -2.0 / (1.0 + PHI)
GOLDEN_X0 = -2.0 / (2.0 * PHI + 1.0)
GOLDEN_TCL_YZ = 2.0 * PHI - 3.0  # A_yz + B_y F_z
# infinite-horizon loss from the anchored state (z0 = 1); cross-checked
# against the scalar value-function fixed points at 40-digit precision
GOLDEN_LOSS = 0.3890614233341745

# positive root of the BACK scalar quadratic (beta=0.99, a=0.9, b=q=r=1)
BACK_P_Y = 1.4816428935663887
BACK_F_Y = -0.5351587706293208

#: weakly controlled scalar models, (a, b, q, beta) with r = 1: the plain
#: Riccati recursion needs about 1e3, 1e4 and 2e5 steps on them
HARD_CASES = {
    "hard1": (1.0, 0.01, 1.0, 0.99),
    "hard2": (1.0, 1e-3, 1.0, 0.9999),
    "hard3": (1.005, 1e-3, 1e-6, 0.99),
}


def load_fixture(name: str) -> ModelSpec:
    return load_model((MODELS_DIR / name).read_text(encoding="utf-8"))


def save_model(spec: ModelSpec) -> str:
    """Serialize a ModelSpec to the JSON model-file format."""
    doc = {
        "beta": spec.beta,
        "dims": {
            "n_k": spec.dims.n_k,
            "n_x": spec.dims.n_x,
            "n_z": spec.dims.n_z,
            "n_u": spec.dims.n_u,
        },
    }
    for name in _MATRIX_FIELDS + _VECTOR_FIELDS:
        doc[name] = getattr(spec, name).tolist()
    if spec.labels is not None:
        doc["labels"] = spec.labels
    return json.dumps(doc, indent=2) + "\n"


def riccati_rhs(P: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """One application of the Riccati map at P; output exactly symmetric.

    Written in the order ``solve_riccati`` evaluates its residual, so that
    residual equals ||riccati_rhs(P_y) - P_y||_inf bit for bit.
    """
    a = spec.A_yy
    bp = spec.B_y.T @ P
    w = spec.beta * (bp @ a)  # b B' P A
    f = -(inverse(symmetrize(spec.R + spec.beta * (bp @ spec.B_y))) @ w)
    return symmetrize(symmetrize(spec.Q_yy) + spec.beta * (a.T @ P @ a) + w.T @ f)


def backward_step(spec: ModelSpec, p_y: np.ndarray, p_z: np.ndarray):
    """One period of finite-horizon backward induction.

    From next period's P_y(t+1), P_z(t+1), returns (P_y(t), P_z(t), F_y(t),
    F_z(t)), each expression written as ``oracle.backward_induction`` writes
    it, so the two agree bit for bit.
    """
    a, b, beta = spec.A_yy, spec.B_y, spec.beta
    s_inv = inverse(symmetrize(symmetrize(spec.R) + beta * (b.T @ p_y @ b)))
    f_y = -(s_inv @ (beta * (b.T @ p_y @ a)))
    f_z = -(s_inv @ (beta * (b.T @ (p_y @ spec.A_yz + p_z @ spec.A_zz))))
    abar = a + b @ f_y
    return (
        symmetrize(symmetrize(spec.Q_yy) + beta * (a.T @ p_y @ a) + beta * (a.T @ p_y @ b) @ f_y),
        spec.Q_yz + beta * (abar.T @ p_y @ spec.A_yz) + beta * (abar.T @ p_z @ spec.A_zz),
        f_y,
        f_z,
    )


def backward_periods(spec: ModelSpec, horizon: int) -> list:
    """(P_y(t), P_z(t), F_y(t), F_z(t)) for t = 0..horizon-1, by period.

    The per-period loop of backward induction from the terminal condition
    P_y(horizon) = Q_yy, P_z(horizon) = Q_yz; the package's oracle returns
    only period 0.
    """
    p_y, p_z = symmetrize(spec.Q_yy), spec.Q_yz
    periods = []
    for _ in range(horizon):
        p_y, p_z, f_y, f_z = backward_step(spec, p_y, p_z)
        periods.append((p_y, p_z, f_y, f_z))
    return periods[::-1]


def scalar_riccati_root(beta: float, a: float, b: float, q: float, r: float) -> float:
    """Positive root of the scalar fixed-point quadratic.

    Clearing the denominator of p = q + beta a^2 p - beta^2 a^2 b^2 p^2 /
    (r + beta b^2 p) gives beta b^2 p^2 + (r - q beta b^2 - beta a^2 r) p
    - q r = 0; the stabilizing solution is the positive root.
    """
    qa = beta * b * b
    qb = r - q * beta * b * b - beta * a * a * r
    qc = -q * r
    return (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)


def scalar_spec(
    beta=1.0,
    a=1.0,
    b=1.0,
    q=1.0,
    r=1.0,
    *,
    forward=True,
    a_yz=None,
    a_zz=None,
    q_yz=0.0,
    k0=1.0,
    z0=1.0,
) -> ModelSpec:
    """1-D endogenous block, optionally with one scalar forcing variable."""
    has_z = a_zz is not None
    dims = Dims(
        n_k=0 if forward else 1,
        n_x=1 if forward else 0,
        n_z=1 if has_z else 0,
        n_u=1,
    )
    return ModelSpec(
        dims=dims,
        beta=beta,
        A_yy=[[a]],
        A_yz=[[a_yz]] if has_z else np.zeros((1, 0)),
        A_zz=[[a_zz]] if has_z else np.zeros((0, 0)),
        B_y=[[b]],
        Q_yy=[[q]],
        Q_yz=[[q_yz]] if has_z else np.zeros((1, 0)),
        R=[[r]],
        k0=[] if forward else [k0],
        z0=[z0] if has_z else [],
    )


def single_input_model(rng: np.random.Generator, n_y: int, radius: float = 0.97) -> ModelSpec:
    """Large single-input model: A_yy at the given spectral radius, B_y one dense column.

    The Riccati solver stabilizes it, though its Kalman matrix [B, AB, ...]
    is numerically rank deficient.  beta is 0.95; at radius 1.1 the seeded
    n_y = 60 and n_y = 100 draws each have eight modes outside 1/sqrt(beta),
    so the PBH gate has modes to test.
    """
    a_yy = rng.normal(size=(n_y, n_y))
    a_yy *= radius / np.max(np.abs(np.linalg.eigvals(a_yy)))
    return ModelSpec(
        dims=Dims(n_k=n_y, n_x=0, n_z=1, n_u=1),
        beta=0.95,
        A_yy=a_yy,
        A_yz=rng.normal(size=(n_y, 1)),
        A_zz=[[0.5]],
        B_y=rng.normal(size=(n_y, 1)),
        Q_yy=np.eye(n_y),
        Q_yz=np.zeros((n_y, 1)),
        R=[[1.0]],
        k0=rng.normal(size=n_y),
        z0=[1.0],
    )


def overflowing_doubling_model() -> ModelSpec:
    """A_yy = diag(1e30, 0.5) with only the stable mode controlled, beta = 1.

    The PBH gate rejects it.  Forced past the gate, the Riccati doubling
    squares the uncontrolled mode until A_k overflows at step 5, before any
    iterate reaches BLOWUP.
    """
    return ModelSpec(
        dims=Dims(n_k=2, n_x=0, n_z=0, n_u=1),
        beta=1.0,
        A_yy=np.diag([1e30, 0.5]),
        A_yz=np.zeros((2, 0)),
        A_zz=np.zeros((0, 0)),
        B_y=[[0.0], [1.0]],
        Q_yy=np.diag([0.0, 1.0]),
        Q_yz=np.zeros((2, 0)),
        R=[[1.0]],
        k0=[1.0, 1.0],
        z0=[],
    )


def dense_stein_solution(spec: ModelSpec, reg) -> np.ndarray:
    """P_z from the dense Kronecker form of the Stein equation.

    Column-stacking vec turns P = C + b Abar' P A_zz into
    (I - b kron(A_zz', Abar')) vec(P) = vec(C), solved here directly; an
    O((n_y n_z)^3) reference independent of the solver's doubling.
    """
    n_y, n_z = spec.dims.n_y, spec.dims.n_z
    abar = spec.A_yy + spec.B_y @ reg.F_y
    operator = np.eye(n_y * n_z) - spec.beta * np.kron(spec.A_zz.T, abar.T)
    constant = spec.Q_yz + spec.beta * (abar.T @ reg.P_y @ spec.A_yz)
    solution = np.linalg.solve(operator, constant.reshape(-1, order="F"))
    return solution.reshape((n_y, n_z), order="F")


def reference_path(system, spec, reg, aug, horizon, shocks=None):
    """(y, z, u, mu, loss) from the plain per-period loop of the closed loop.

    Each period reads the state, applies the rule and the multiplier map to
    it, adds its discounted quadratic term to the loss and steps the state;
    a reference for the batched simulation.
    """
    n_y = spec.dims.n_y
    state = np.asarray(system.state0, dtype=float)
    y, z, u, mu = [], [], [], []
    loss = 0.0
    discount = 1.0
    for t in range(horizon):
        yt, zt = state[:n_y], state[n_y:]
        ut = reg.F_y @ yt + aug.F_z @ zt
        y.append(yt)
        z.append(zt)
        u.append(ut)
        mu.append(reg.P_y @ yt + aug.P_z @ zt)
        quad = yt @ spec.Q_yy @ yt + 2.0 * (yt @ spec.Q_yz @ zt) + ut @ spec.R @ ut
        loss += 0.5 * discount * float(quad)
        state = system.T_cl @ state
        if shocks is not None:
            state = state + system.impulse_loading @ shocks[t]
        discount *= spec.beta
    return np.array(y), np.array(z), np.array(u), np.array(mu), loss


def random_stabilizable_model(
    rng: np.random.Generator, n_k: int, n_x: int, n_z: int, n_u: int, beta: float
) -> ModelSpec:
    """Draw a valid model with comfortably stable blocks that passes both gates."""
    n_y = n_k + n_x
    for _ in range(50):
        a_yy = rng.normal(size=(n_y, n_y))
        radius = np.max(np.abs(np.linalg.eigvals(a_yy)))
        if radius > 0:
            a_yy *= rng.uniform(0.3, 0.8) / radius
        b_y = rng.normal(size=(n_y, n_u))
        g = rng.normal(size=(n_y, n_y))
        q_yy = g.T @ g / n_y + 0.3 * np.eye(n_y)
        h = rng.normal(size=(n_u, n_u))
        r = h.T @ h / n_u + 0.5 * np.eye(n_u)
        if n_z:
            a_zz = rng.normal(size=(n_z, n_z))
            radius_z = np.max(np.abs(np.linalg.eigvals(a_zz)))
            if radius_z > 0:
                a_zz *= rng.uniform(0.2, 0.7) / radius_z
            a_yz = 0.5 * rng.normal(size=(n_y, n_z))
            q_yz = 0.2 * rng.normal(size=(n_y, n_z)) if rng.random() < 0.5 else np.zeros((n_y, n_z))
        else:
            a_zz = np.zeros((0, 0))
            a_yz = np.zeros((n_y, 0))
            q_yz = np.zeros((n_y, 0))
        spec = ModelSpec(
            dims=Dims(n_k=n_k, n_x=n_x, n_z=n_z, n_u=n_u),
            beta=beta,
            A_yy=a_yy,
            A_yz=a_yz,
            A_zz=a_zz,
            B_y=b_y,
            Q_yy=q_yy,
            Q_yz=q_yz,
            R=r,
            k0=rng.normal(size=n_k),
            z0=rng.normal(size=n_z),
        )
        if run_checks(spec).ok:
            return spec
    raise RuntimeError(f"no stabilizable draw for dims ({n_k},{n_x},{n_z},{n_u})")


#: (n_k, n_x, n_z, n_u, beta) for the seeded random part of the model suite
SUITE_DIMS = [
    (1, 0, 1, 1, 1.0),
    (0, 1, 1, 1, 0.99),
    (1, 1, 1, 1, 0.95),
    (2, 0, 2, 2, 1.0),
    (0, 2, 2, 2, 0.99),
    (1, 2, 1, 2, 0.9),
    (2, 1, 2, 1, 0.99),
    (3, 2, 2, 2, 0.95),
    (2, 3, 1, 2, 1.0),
    (1, 1, 2, 2, 0.99),
    (3, 0, 0, 1, 0.99),
    (0, 3, 1, 1, 0.95),
    (2, 2, 2, 2, 1.0),
    (4, 1, 1, 2, 0.99),
    (1, 4, 2, 2, 0.95),
    (3, 1, 0, 2, 1.0),
    (2, 2, 1, 1, 0.9),
    (0, 1, 2, 1, 0.99),
    (1, 0, 2, 2, 0.95),
    (2, 1, 1, 2, 0.99),
]


def assert_spectra_match(a: np.ndarray, b: np.ndarray, tol: float):
    """Greedy multiset matching of two spectra, each value within tol."""
    ea = list(np.linalg.eigvals(a)) if a.size else []
    eb = list(np.linalg.eigvals(b)) if b.size else []
    assert len(ea) == len(eb)
    for va in ea:
        gaps = [abs(va - vb) for vb in eb]
        idx = int(np.argmin(gaps))
        assert gaps[idx] < tol, f"eigenvalue {va} unmatched (closest gap {gaps[idx]:.3e})"
        eb.pop(idx)


def grid_search_x0(
    spec: ModelSpec,
    reg: RegulatorSolution,
    aug: AugmentedSolution,
    z0: np.ndarray,
    k0: np.ndarray,
    horizon: int,
    grid,
) -> float:
    """Exhaustively search candidate x0 values for the minimum simulated loss.

    ``grid`` is either a (lo, hi, step) triple or an explicit 1-D array of
    candidates.  Gains stay fixed at the supplied solutions; every candidate
    path is simulated in full (no parabola shortcuts), which is the point.
    Scalar forward block only (n_x = 1).
    """
    if spec.dims.n_x != 1:
        raise ValueError("grid search over x0 supports n_x = 1 only")
    if isinstance(grid, tuple) and len(grid) == 3:
        lo, hi, step = grid
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        candidates = np.arange(lo, hi + 0.5 * step, step, dtype=float)
    else:
        candidates = np.asarray(grid, dtype=float).reshape(-1)
    if candidates.size == 0:
        raise ValueError("empty grid")

    dims = spec.dims
    k0 = np.asarray(k0, dtype=float).reshape(-1)
    z0 = np.asarray(z0, dtype=float).reshape(-1)

    # closed loop assembled locally, independent of the simulation module
    n = dims.n_y + dims.n_z
    t_cl = np.zeros((n, n))
    t_cl[: dims.n_y, : dims.n_y] = spec.A_yy + spec.B_y @ reg.F_y
    t_cl[: dims.n_y, dims.n_y :] = spec.A_yz + spec.B_y @ aug.F_z
    t_cl[dims.n_y :, dims.n_y :] = spec.A_zz

    # one column of states per candidate x0
    states = np.empty((n, candidates.size))
    states[: dims.n_k, :] = k0[:, None]
    states[dims.n_k, :] = candidates
    states[dims.n_y :, :] = z0[:, None]

    loss = np.zeros(candidates.size)
    discount = 1.0
    for _ in range(horizon):
        y = states[: dims.n_y]
        z = states[dims.n_y :]
        u = reg.F_y @ y + aug.F_z @ z
        quad = (
            np.einsum("ik,ik->k", y, spec.Q_yy @ y)
            + 2.0 * np.einsum("ik,ik->k", y, spec.Q_yz @ z)
            + np.einsum("ik,ik->k", u, spec.R @ u)
        )
        loss += 0.5 * discount * quad
        states = t_cl @ states
        discount *= spec.beta
    return float(candidates[int(np.argmin(loss))])
