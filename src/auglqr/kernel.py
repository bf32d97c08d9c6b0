"""Dense linear-algebra primitives shared by every solver module.

All operations work on 2-D float64 numpy arrays; ``rank`` also takes complex
ones.  Eigenvalues, ranks and solves delegate to the LAPACK routines behind
``numpy.linalg``, the only numerical dependency at run time; the
matrix-equation logic built on top of them (the Riccati and Stein doublings)
lives in the solver modules.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularMatrixError

#: reciprocal 1-norm condition number at or below which a solve is declared singular
RCOND_MIN = 1e-13
#: default relative tolerance for the numerical rank
RANK_RTOL = 1e-10


def inf_norm(m: np.ndarray) -> float:
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    # ndarray methods, not np.max/np.sum: this runs on every solve and doubling step
    if m.ndim <= 1:
        return float(np.abs(m).max())
    return float(np.abs(m).sum(axis=1).max())


def read_only(*arrays: np.ndarray) -> None:
    """Clear the writeable flag of each array; views taken later inherit it."""
    for arr in arrays:
        arr.flags.writeable = False


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, with multiplicity, as complex values."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"eigenvalues needs a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(m).astype(complex)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus; 0.0 for an empty matrix."""
    eig = eigenvalues(m)
    return float(np.max(np.abs(eig))) if eig.size else 0.0


def rank(m: np.ndarray, tol: float = RANK_RTOL) -> int:
    """Numerical rank: singular values above tol * max(rows, cols) * sigma_max.

    Complex input keeps its imaginary part (the PBH gate passes A - lambda I).
    """
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0
    if tol < 0:
        raise ValueError(f"rank tolerance must be non-negative, got {tol}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * max(m.shape) * s[0]))


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b through the explicit inverse of a.

    Accepts a vector or matrix right-hand side and returns x with the same
    layout, in a fresh array.  Raises :class:`SingularMatrixError`, naming the
    reciprocal condition number rcond = 1 / (||a||_1 ||a^{-1}||_1), when
    rcond <= RCOND_MIN or LAPACK finds a exactly singular (rcond 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"coefficient matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"right-hand side has {b.shape[0]} rows, expected {a.shape[0]}"
        )
    if a.shape[0] == 0:
        return np.zeros_like(b)

    # one inverse, then a product, beats an LU solve on these small systems,
    # and the inverse gives the exact 1-norm condition number for free
    # (the 1-norm of a matrix is the infinity norm of its transpose)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        rcond = 1.0 / (inf_norm(a.T) * inf_norm(inv.T))
    if not rcond > RCOND_MIN:  # also catches nan from non-finite entries
        raise SingularMatrixError(
            f"singular matrix: reciprocal condition {rcond:.3e}"
            f" (threshold {RCOND_MIN:.0e})"
        )
    return inv @ b
