"""Dense linear-algebra primitives shared by every solver module.

All operations work on 2-D float64 numpy arrays.  Eigenvalues and solves
delegate to the LAPACK routines behind ``numpy.linalg``, the only numerical
dependency at run time.  :func:`stein` solves X = C + b M X N for P_z and
the loss, and :func:`converge` stops it and the Riccati doubling in
``regulator`` by one rule.  :class:`Frozen` is the base of every container
the pipeline passes from stage to stage.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, DivergenceError, SingularMatrixError

#: reciprocal 1-norm condition number at or below which a solve is declared singular
RCOND_MIN = 1e-13
#: relative step size at which a doubling iteration stops
DEFAULT_TOL = 1e-12
#: cap on doubling steps; step k covers 2^k periods of the plain recursion
MAX_ITER = 100
#: iterate magnitude treated as divergence (explosive uncontrolled dynamics)
BLOWUP = 1e100
#: relative residual above which a converged Stein iterate is rejected
STEIN_RTOL = 1e-8
#: a doubling run, as :func:`converge` reads it: (X_{k+1}, X_{k+1} - X_k) per step
Steps = Iterator[tuple[np.ndarray, np.ndarray]]

# the ufunc reductions behind ndarray.sum and ndarray.max, called directly:
# the norms run several times per doubling step, where a method's Python
# wrapper costs as much as the reduction of a small matrix
_add = np.add.reduce
_max = np.maximum.reduce


def inf_norm(m: np.ndarray) -> float:
    """Infinity norm: max absolute row sum for matrices, max |entry| for vectors."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    if m.ndim <= 1:
        return float(np.abs(m).max())
    return float(_max(_add(np.abs(m), axis=1)))


def _one_norm(m: np.ndarray) -> float:
    """1-norm of a non-empty matrix: the largest absolute column sum."""
    return float(_max(_add(np.abs(m), axis=0)))


class Frozen:
    """Base of the pipeline's containers: subclassing it declares a frozen
    dataclass, equal only to itself, whose construction makes every array it
    holds read-only.

    That covers each ndarray field and every array it is a view of, so no
    view taken later can write either; no field holds a tuple of arrays.
    A subclass is not decorated itself; one that prepares its fields in
    ``__post_init__`` calls this one last.
    """

    #: the subclass's field names, recorded once when it is declared
    _frozen_fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        dataclass(frozen=True, eq=False)(cls)
        cls._frozen_fields = tuple(field.name for field in fields(cls))

    def __post_init__(self):
        for name in self._frozen_fields:
            arr = getattr(self, name)
            while isinstance(arr, np.ndarray):
                arr.flags.writeable = False
                arr = arr.base


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
    return radius_of(eigenvalues(m))


def radius_of(eig: np.ndarray) -> float:
    """Largest modulus among given eigenvalues; 0.0 when there are none."""
    return float(np.abs(eig).max(initial=0.0))


def inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a square matrix, in a fresh array; an empty one is its own.

    Raises :class:`SingularMatrixError`, naming the reciprocal condition
    number rcond = 1 / (||a||_1 ||a^{-1}||_1), when rcond <= RCOND_MIN or
    LAPACK finds a exactly singular (rcond 0).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"coefficient matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        return np.zeros((0, 0))

    # the explicit inverse gives the exact 1-norm condition number for free
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        rcond = 1.0 / (_one_norm(a) * _one_norm(inv))
    if not rcond > RCOND_MIN:  # also catches nan from non-finite entries
        raise SingularMatrixError(
            f"singular matrix: reciprocal condition {rcond:.3e}"
            f" (threshold {RCOND_MIN:.0e})"
        )
    return inv


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b as :func:`inverse` (a) @ b, which beats an LU solve on
    these small systems.  x has the layout of b, a vector or a matrix, in a
    fresh array."""
    inv = inverse(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != len(inv):
        raise DimensionError(f"right-hand side has {b.shape[0]} rows, expected {len(inv)}")
    return inv @ b


def converge(
    iterates: Steps, name: str, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, int, float]:
    """Run a doubling to its stop: the one stop rule, divergence test and cap.

    It stops at the first ||X_{k+1} - X_k||_inf <= tol (1 + ||X_{k+1}||_inf)
    and returns (X, steps, ||X||_inf).  A non-finite step, an iterate beyond
    ``BLOWUP`` or ``MAX_ITER`` steps without a stop raise DivergenceError with
    ``name`` and the step size; under ``np.errstate``, with no warning first.
    """
    diff = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for steps, (x, step) in zip(range(1, MAX_ITER + 1), iterates):
            diff, scale = inf_norm(step), inf_norm(x)
            if not math.isfinite(diff) or scale > BLOWUP:
                raise DivergenceError(
                    f"{name} iteration diverged at iteration {steps} (step {diff:.3e})"
                )
            if diff <= tol * (1.0 + scale):
                return x, steps, scale
    raise DivergenceError(
        f"{name} iteration did not converge within {MAX_ITER} iterations"
        f" (last step {diff:.3e})"
    )


def stein(
    m: np.ndarray, n: np.ndarray, c: np.ndarray, beta: float
) -> tuple[np.ndarray, int, float]:
    """Solve X = C + b M X N, b = beta, by Smith doubling (Smith, 1968).

    From X_0 = C, X_{k+1} = X_k + M_k X_k N_k with M_0 = sqrt(b) M, N_0 =
    sqrt(b) N, M_{k+1} = M_k^2 and N_{k+1} = N_k^2 sums 2^k terms of sum_j
    M_0^j C N_0^j, which converges when b rho(M) rho(N) < 1.  Returns (X,
    steps, ||X - (C + M_0 X N_0)||_inf): taken through the scaled factors, as
    the doubling is, the residual of a huge M and a tiny b does not overflow.
    It must stay within STEIN_RTOL (||C||_inf + ||X||_inf), since a product
    of eigenvalues of M_0 and N_0 on the unit circle can stall X at a wrong
    value.
    """
    root = math.sqrt(beta)
    m_s, n_s = root * m, root * n
    x, steps, scale = converge(_smith(c, m_s, n_s), "Stein")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge M_0 can overflow M_0 X
        residual = inf_norm(x - (c + m_s @ x @ n_s))
    if not residual <= STEIN_RTOL * (inf_norm(c) + scale):
        raise DivergenceError(
            f"Stein iteration stopped at a wrong solution after {steps} iterations"
            f" (residual {residual:.3e})"
        )
    return x, steps, residual


def _smith(x: np.ndarray, m_k: np.ndarray, n_k: np.ndarray) -> Steps:
    """Smith doubling from X_0 = x, without end."""
    while True:
        step = m_k @ x @ n_k
        x = x + step
        yield x, step
        m_k, n_k = m_k @ m_k, n_k @ n_k
