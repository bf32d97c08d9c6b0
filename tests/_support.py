"""Shared constants, oracles, and model builders for the test suite."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from auglqr import Dims, ModelSpec, load_model, run_checks

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
