"""Problem instances: definition, validation, JSON ingestion.

A model collects the quadratic loss weights (Q_yy, Q_yz, R), the transition
blocks of the block-triangular system

    [y_{t+1}]   [A_yy  A_yz] [y_t]   [B_y]
    [z_{t+1}] = [  0   A_zz] [z_t] + [ 0 ] u_t,

the discount factor beta, and the given initial conditions k0, z0.  The
endogenous block y stacks the controllable predetermined variables k on top of
the forward-looking variables x; z holds exogenous forcing variables whose
dynamics never respond to y or u (the zero blocks above are structural and
never stored).  All variables are deviations from a steady state.

Everything here is an immutable value: a model copies its arrays at
construction and :class:`kernel.Frozen` makes the copies read-only; every
operation is a pure function, so instances are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import InvalidModelError, ModelFormatError

#: entrywise tolerance for the symmetry checks on Q_yy and R
TOL_SYM = 1e-10

_MATRIX_FIELDS = ("A_yy", "A_yz", "A_zz", "B_y", "Q_yy", "Q_yz", "R")
_VECTOR_FIELDS = ("k0", "z0")
_LABEL_KEYS = ("k", "x", "z", "u")
_DIM_KEYS = ("n_k", "n_x", "n_z", "n_u")


@dataclass(frozen=True)
class Dims:
    """Variable counts: predetermined k, forward-looking x, forcing z, instruments u."""

    n_k: int
    n_x: int
    n_z: int
    n_u: int

    def __post_init__(self):
        for name in _DIM_KEYS:
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer and value >= 0):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.n_y < 1:
            raise ValueError("need at least one endogenous variable (n_k + n_x >= 1)")
        if self.n_u < 1:
            raise ValueError("need at least one policy instrument (n_u >= 1)")

    @property
    def n_y(self) -> int:
        """Size of the stacked endogenous block, n_k + n_x."""
        return self.n_k + self.n_x


def _expected_shapes(dims: Dims) -> dict[str, tuple[int, int]]:
    n_y, n_z, n_u = dims.n_y, dims.n_z, dims.n_u
    return {
        "A_yy": (n_y, n_y),
        "A_yz": (n_y, n_z),
        "A_zz": (n_z, n_z),
        "B_y": (n_y, n_u),
        "Q_yy": (n_y, n_y),
        "Q_yz": (n_y, n_z),
        "R": (n_u, n_u),
    }


class ModelSpec(kernel.Frozen):
    """A full problem instance, equal to any instance with the same values.

    Matrices are stored exactly as given (float64 copies, read-only);
    :func:`validate` reports any invariant violations instead of raising at
    construction time, so a spec can always be built and then inspected.
    """

    dims: Dims
    beta: float
    A_yy: np.ndarray
    A_yz: np.ndarray
    A_zz: np.ndarray
    B_y: np.ndarray
    Q_yy: np.ndarray
    Q_yz: np.ndarray
    R: np.ndarray
    k0: np.ndarray
    z0: np.ndarray
    labels: dict | None = None

    def __post_init__(self):
        expected = _expected_shapes(self.dims)
        # np.array copies, so freezing never reaches the caller's arrays
        for name in _MATRIX_FIELDS:
            arr = np.array(getattr(self, name), dtype=float)
            if arr.size == 0 and 0 in expected[name]:
                # empty slots may arrive as flat [] -- give them their true shape
                arr = arr.reshape(expected[name])
            elif arr.ndim != 2:
                arr = np.atleast_2d(arr)
            object.__setattr__(self, name, arr)
        for name in _VECTOR_FIELDS:
            vec = np.array(getattr(self, name), dtype=float).reshape(-1)
            object.__setattr__(self, name, vec)
        object.__setattr__(self, "beta", float(self.beta))
        super().__post_init__()

    @functools.cached_property
    def eigenvalues_zz(self) -> np.ndarray:
        """Eigenvalues of A_zz (read-only), computed once per model: the
        forcing gate and the closed-loop guard both read them."""
        eig = kernel.eigenvalues(self.A_zz)
        eig.flags.writeable = False
        return eig

    def __eq__(self, other):
        if not isinstance(other, ModelSpec):
            return NotImplemented
        if self.dims != other.dims or self.beta != other.beta:
            return False
        if self.labels != other.labels:
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _MATRIX_FIELDS + _VECTOR_FIELDS
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: one message per violated invariant."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def is_valid(self) -> bool:
        return not self.violations


def symmetrize(m: np.ndarray) -> np.ndarray:
    """M + (M' - M) / 2 -- exact identity, free of overflow, for symmetric matrices."""
    m = np.asarray(m, dtype=float)
    return m + (m.T - m) / 2.0


def _check_symmetric(name: str, m: np.ndarray, out: list[str]) -> bool:
    with np.errstate(over="ignore"):  # a gap beyond the double range is inf
        gap = np.abs(m - m.T)
    worst = float(gap.max(initial=0.0))
    if worst > TOL_SYM:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        out.append(
            f"{name} not symmetric: |{name}[{i},{j}] - {name}[{j},{i}]|"
            f" = {worst:.3e} exceeds {TOL_SYM:.0e}"
        )
        return False
    return True


def validate(spec: ModelSpec) -> ValidationReport:
    """Check every model invariant; an empty report means the model is usable.

    Pure and idempotent: the model is never modified and repeated calls return
    the same report.
    """
    out: list[str] = []
    expected = _expected_shapes(spec.dims)
    clean = {}
    for name in _MATRIX_FIELDS:
        m = getattr(spec, name)
        if m.shape != expected[name]:
            out.append(f"{name} has shape {m.shape}, expected {expected[name]}")
            continue
        if not np.isfinite(m).all():
            i, j = map(int, np.argwhere(~np.isfinite(m))[0])
            out.append(f"{name} has non-finite entry at [{i},{j}]")
            continue
        clean[name] = m
    for name, n in (("k0", spec.dims.n_k), ("z0", spec.dims.n_z)):
        v = getattr(spec, name)
        if v.shape != (n,):
            out.append(f"{name} has length {v.shape[0]}, expected {n}")
        elif not np.isfinite(v).all():
            i = int(np.argwhere(~np.isfinite(v))[0][0])
            out.append(f"{name} has non-finite entry at [{i}]")
    labels = spec.labels or {}
    for key in _LABEL_KEYS:
        n = getattr(spec.dims, f"n_{key}")
        if key in labels and len(labels[key]) != n:
            out.append(f"labels.{key} has {len(labels[key])} names, expected {n}")

    if not (math.isfinite(spec.beta) and 0.0 < spec.beta <= 1.0):
        out.append(f"beta must lie in (0, 1], got {spec.beta}")

    if "Q_yy" in clean:
        q = clean["Q_yy"]
        if _check_symmetric("Q_yy", q, out):
            eigs = np.linalg.eigvalsh(symmetrize(q))
            floor = -1e-10 * max(1.0, kernel.inf_norm(q))
            if eigs.size and eigs[0] < floor:
                out.append(
                    f"Q_yy not positive semi-definite:"
                    f" eigenvalue {eigs[0]:.6e} below {floor:.3e}"
                )
    if "R" in clean:
        r = clean["R"]
        if _check_symmetric("R", r, out):
            eigs = np.linalg.eigvalsh(symmetrize(r))
            if eigs.size and eigs[0] <= 0.0:
                out.append(f"R not positive definite: eigenvalue {eigs[0]:.6e} <= 0")

    return ValidationReport(tuple(out))


def rescale(spec: ModelSpec) -> ModelSpec:
    """Return the spec unchanged if it is valid; raise InvalidModelError otherwise."""
    report = validate(spec)
    if not report.is_valid:
        raise InvalidModelError(report)
    return spec


def variable_names(spec: ModelSpec) -> dict[str, list[str]]:
    """Per-group variable names: labels from the model file, else k1.., x1.., z1.., u1..

    :func:`validate` checks that each given group has one name per variable.
    The "y" entry stacks the k names on top of the x names.
    """
    labels = spec.labels or {}
    names = {}
    for key in _LABEL_KEYS:
        n = getattr(spec.dims, f"n_{key}")
        names[key] = list(labels.get(key, [f"{key}{i + 1}" for i in range(n)]))
    names["y"] = names["k"] + names["x"]
    return names


# --- model file schema ------------------------------------------------------


def _reject_constant(token: str):
    raise ModelFormatError(f"non-finite number {token!r} not allowed in model file")


def _require(mapping: dict, key: str, where: str = "document"):
    if key not in mapping:
        raise ModelFormatError(f'missing field "{key}" in {where}')
    return mapping[key]


class _LongInteger:
    """Stands in for an integer literal past Python's int-conversion digit
    limit.  No double holds one, so its field is refused like any integer
    too large for a double."""

    def __init__(self, token: str):
        self.digits = len(token.lstrip("-"))

    def __repr__(self):
        return f"an integer of {self.digits} digits"


def _parse_int(token: str):
    try:
        return int(token)
    except ValueError:
        return _LongInteger(token)


def _as_number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            value = _LongInteger(str(value))
        else:
            if math.isfinite(number):
                return number
            # json reads a float literal past the double range as +-inf
            raise ModelFormatError(
                f"{name} must fit in a double, got a number that overflows to {number}"
            )
    if isinstance(value, _LongInteger):
        raise ModelFormatError(f"{name} must fit in a double, got {value!r}")
    raise ModelFormatError(f"{name} must be a number, got {value!r}")


def _as_array(values: list, name: str) -> np.ndarray:
    """The items as a float array.

    One pass checks the item types and one the converted values; only a
    list that fails either, or overflows a double, is converted item by
    item, so the error names the first item that is not a number (a bool is
    not) or that no double holds.
    """
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):
            array = np.array(values, dtype=float)
            if np.isfinite(array).all():
                return array
    return np.array([_as_number(value, name) for value in values])


def _parse_matrix(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or any(not isinstance(row, list) for row in value):
        raise ModelFormatError(f"{name} must be an array of arrays")
    if not value:
        return np.zeros((0, 0))
    widths = {len(row) for row in value}
    if len(widths) > 1:
        raise ModelFormatError(f"ragged matrix {name}: row lengths {sorted(widths)}")
    entries = _as_array(list(itertools.chain.from_iterable(value)), f"{name} entry")
    return entries.reshape(len(value), widths.pop())


def _parse_vector(value, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ModelFormatError(f"{name} must be an array of numbers")
    return _as_array(value, f"{name} entry")


def _parse_labels(value) -> dict:
    if not isinstance(value, dict):
        raise ModelFormatError("labels must be an object")
    labels = {}
    for key, names in value.items():
        if key not in _LABEL_KEYS:
            raise ModelFormatError(f'unknown labels key "{key}"')
        if not isinstance(names, list) or any(not isinstance(s, str) for s in names):
            raise ModelFormatError(f"labels.{key} must be an array of strings")
        labels[key] = list(names)
    return labels


def load_model(document: str) -> ModelSpec:
    """Parse a UTF-8 JSON model document into a ModelSpec.

    Numbers parse as IEEE-754 doubles, so every entry written with Python's
    ``repr`` of a double loads back bit-exactly.  Schema violations raise
    :class:`ModelFormatError` naming the offending field; invariant violations
    are deferred to :func:`validate`.
    """
    try:
        try:
            raw = json.loads(document, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
        except ValueError:
            # an integer literal past the int-conversion digit limit: parse
            # again, keeping it as a stand-in, so that its field names it
            raw = json.loads(
                document, parse_constant=_reject_constant, parse_int=_parse_int
            )
    except RecursionError as exc:
        raise ModelFormatError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError("top level must be a JSON object")

    dims_raw = _require(raw, "dims")
    if not isinstance(dims_raw, dict):
        raise ModelFormatError("dims must be an object")
    try:
        dims = Dims(**{name: _require(dims_raw, name, "dims") for name in _DIM_KEYS})
    except ValueError as exc:
        raise ModelFormatError(f"dims: {exc}") from exc

    beta = _as_number(_require(raw, "beta"), "beta")
    matrices = {name: _parse_matrix(_require(raw, name), name) for name in _MATRIX_FIELDS}
    vectors = {name: _parse_vector(_require(raw, name), name) for name in _VECTOR_FIELDS}
    labels = _parse_labels(raw["labels"]) if "labels" in raw else None

    return ModelSpec(dims=dims, beta=beta, labels=labels, **matrices, **vectors)
