"""Dense linear-algebra primitives shared by every solver module.

All operations work on 2-D float64 numpy arrays; ``rank`` also takes complex
ones.  Eigenvalues, ranks and solves delegate to LAPACK-backed routines; the
matrix-equation logic built on top of them (the Riccati and Stein doublings)
lives in the solver modules.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError

#: relative pivot threshold below which a solve is declared singular
PIVOT_RTOL = 1e-13
#: default relative tolerance for the numerical rank
RANK_RTOL = 1e-10


def inf_norm(m: np.ndarray) -> float:
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    if m.ndim <= 1:
        return float(np.max(np.abs(m)))
    return float(np.max(np.sum(np.abs(m), axis=1)))


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
    """Solve a @ x = b by LU factorization with partial pivoting.

    Accepts a vector or matrix right-hand side and returns x with the same
    layout.  Raises :class:`SingularMatrixError`, carrying the offending pivot
    index, when any pivot falls below PIVOT_RTOL * ||a||_inf.
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

    with warnings.catch_warnings():
        # exact singularity is detected below via the pivot magnitudes
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    threshold = PIVOT_RTOL * inf_norm(a)
    small = np.flatnonzero(pivots <= threshold)
    if small.size:
        i = int(small[0])
        raise SingularMatrixError(
            f"singular matrix: pivot {i} is {pivots[i]:.3e}"
            f" (threshold {threshold:.3e})",
            pivot_index=i,
        )

    rhs = b if b.ndim == 2 else b[:, None]
    if rhs.shape[1] == 0:
        x = np.zeros_like(rhs)
    else:
        x = scipy.linalg.lu_solve((lu, piv), rhs)
    return x if b.ndim == 2 else x[:, 0]

