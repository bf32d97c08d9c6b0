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

Everything here is an immutable value: arrays are frozen after construction,
and every operation is a pure function, so instances are safe to share across
threads.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Dims:
    """Variable counts: predetermined k, forward-looking x, forcing z, instruments u."""

    n_k: int
    n_x: int
    n_z: int
    n_u: int

    def __post_init__(self):
        for name in ("n_k", "n_x", "n_z", "n_u"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value}")
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A full problem instance.

    Matrices are stored exactly as given (row-major float64, read-only);
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
        for name in _MATRIX_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                shape = expected[name]
                if arr.size == 0 and shape[0] * shape[1] == 0:
                    # empty slots may arrive as flat [] -- give them their true shape
                    arr = arr.reshape(shape)
                else:
                    arr = np.atleast_2d(arr)
            elif arr.size == 0 and arr.shape != expected[name]:
                if expected[name][0] * expected[name][1] == 0:
                    arr = arr.reshape(expected[name])
            object.__setattr__(self, name, _freeze(arr))
        for name in _VECTOR_FIELDS:
            vec = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            object.__setattr__(self, name, _freeze(vec))
        object.__setattr__(self, "beta", float(self.beta))

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
    """(M + M') / 2 -- exact identity for already-symmetric matrices."""
    m = np.asarray(m, dtype=float)
    return (m + m.T) / 2.0


def _check_symmetric(name: str, m: np.ndarray, out: list[str]) -> bool:
    gap = np.abs(m - m.T)
    worst = float(np.max(gap)) if gap.size else 0.0
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
        if m.size and not np.all(np.isfinite(m)):
            i, j = map(int, np.argwhere(~np.isfinite(m))[0])
            out.append(f"{name} has non-finite entry at [{i},{j}]")
            continue
        clean[name] = m
    for name, n in (("k0", spec.dims.n_k), ("z0", spec.dims.n_z)):
        v = getattr(spec, name)
        if v.shape != (n,):
            out.append(f"{name} has length {v.shape[0]}, expected {n}")
        elif v.size and not np.all(np.isfinite(v)):
            i = int(np.argwhere(~np.isfinite(v))[0][0])
            out.append(f"{name} has non-finite entry at [{i}]")

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

    The "y" entry stacks the k names on top of the x names.
    """
    labels = spec.labels or {}
    counts = {
        "k": spec.dims.n_k,
        "x": spec.dims.n_x,
        "z": spec.dims.n_z,
        "u": spec.dims.n_u,
    }
    names = {}
    for key, n in counts.items():
        given = labels.get(key)
        if given is not None and len(given) == n:
            names[key] = list(given)
        else:
            names[key] = [f"{key}{i + 1}" for i in range(n)]
    names["y"] = names["k"] + names["x"]
    return names


# --- model file schema ------------------------------------------------------


def _reject_constant(token: str):
    raise ModelFormatError(f"non-finite number {token!r} not allowed in model file")


def _require(mapping: dict, key: str, where: str = "document"):
    if key not in mapping:
        raise ModelFormatError(f'missing field "{key}" in {where}')
    return mapping[key]


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_numbers(values: list, name: str) -> list:
    """Return the list unchanged when every item is an int or float (not a bool)."""
    # one pass over the item types; only a failing list is walked item by item,
    # so the error names the first offending entry
    if not set(map(type, values)) <= {int, float}:
        for value in values:
            _as_number(value, name)
    return values


def _as_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_matrix(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or any(not isinstance(row, list) for row in value):
        raise ModelFormatError(f"{name} must be an array of arrays")
    if not value:
        return np.zeros((0, 0))
    widths = {len(row) for row in value}
    if len(widths) > 1:
        raise ModelFormatError(f"ragged matrix {name}: row lengths {sorted(widths)}")
    entries = _as_numbers(list(itertools.chain.from_iterable(value)), f"{name} entry")
    return np.array(entries, dtype=float).reshape(len(value), widths.pop())


def _parse_vector(value, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ModelFormatError(f"{name} must be an array of numbers")
    return np.array(_as_numbers(value, f"{name} entry"), dtype=float)


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

    Numbers parse as IEEE-754 doubles, so a load/save round trip preserves
    every representable entry bit-exactly.  Schema violations raise
    :class:`ModelFormatError` naming the offending field; invariant violations
    are deferred to :func:`validate`.
    """
    try:
        raw = json.loads(document, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError("top level must be a JSON object")

    dims_raw = _require(raw, "dims")
    if not isinstance(dims_raw, dict):
        raise ModelFormatError("dims must be an object")
    try:
        dims = Dims(
            n_k=_as_count(_require(dims_raw, "n_k", "dims"), "dims.n_k"),
            n_x=_as_count(_require(dims_raw, "n_x", "dims"), "dims.n_x"),
            n_z=_as_count(_require(dims_raw, "n_z", "dims"), "dims.n_z"),
            n_u=_as_count(_require(dims_raw, "n_u", "dims"), "dims.n_u"),
        )
    except ValueError as exc:
        raise ModelFormatError(f"dims: {exc}") from exc

    beta = _as_number(_require(raw, "beta"), "beta")
    matrices = {name: _parse_matrix(_require(raw, name), name) for name in _MATRIX_FIELDS}
    vectors = {name: _parse_vector(_require(raw, name), name) for name in _VECTOR_FIELDS}
    labels = _parse_labels(raw["labels"]) if "labels" in raw else None

    return ModelSpec(dims=dims, beta=beta, labels=labels, **matrices, **vectors)


def save_model(spec: ModelSpec) -> str:
    """Serialize a ModelSpec back to the JSON model-file format."""
    doc = {
        "beta": spec.beta,
        "dims": {
            "n_k": spec.dims.n_k,
            "n_x": spec.dims.n_x,
            "n_z": spec.dims.n_z,
            "n_u": spec.dims.n_u,
        },
    }
    for name in _MATRIX_FIELDS:
        doc[name] = getattr(spec, name).tolist()
    for name in _VECTOR_FIELDS:
        doc[name] = getattr(spec, name).tolist()
    if spec.labels is not None:
        doc["labels"] = spec.labels
    return json.dumps(doc, indent=2) + "\n"
