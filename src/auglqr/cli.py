"""Command-line front end tying the pipeline together.

Subcommands: validate, check, solve, simulate, irf, var, oracle-compare.
Reports go to standard output (JSON by default, CSV on request) and
diagnostics to standard error.  Exit statuses: 0 success, 1 usage error,
validation or stabilizability failure, 2 numerical failure (singularity,
divergence, instability), 3 I/O or schema error.

A flag outside its range is a usage error from the parser, raised before the
model is read; ``--shock`` is checked against the model at the ``config``
stage.  Both report on stderr: stdout only ever carries a report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from .checks import run_checks
from .errors import (
    DimensionError,
    DivergenceError,
    InstabilityError,
    ModelFormatError,
    SingularMatrixError,
)
from .kernel import DEFAULT_TOL
from .model import load_model, validate, variable_names
from .oracle import backward_induction
from .pipeline import solve
from .simulate import irf, simulate_path
from .varrep import to_var

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _checked(convert, ok, requirement: str):
    """An argparse ``type=`` converting a flag and checking ``ok`` on its value.

    It keeps ``convert``'s name for argparse's ``invalid int value: 'abc'``.
    """

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


@cache  # one per process: in-process callers parse many argvs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auglqr",
        description=(
            "Ramsey optimal policy: discounted augmented linear-quadratic"
            " regulator with exogenous forcing variables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--model", required=True, metavar="PATH", help="model file")
        cmd.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="report format (default json)",
        )
        return cmd

    add_command("validate", "report model invariant violations")
    add_command("check", "run the stabilizability and forcing-stability gates")
    for name, help_text in (
        ("solve", "value matrices, gains and the anchored x0"),
        ("simulate", "closed-loop path from the model's initial conditions"),
        ("irf", "impulse response to a unit forcing innovation"),
        ("var", "autoregressive representation in observables (y, u)"),
        ("oracle-compare", "deviations from the backward-induction verifier"),
    ):
        cmd = add_command(name, help_text)
        cmd.add_argument(
            "--tol-riccati",
            type=_checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
            default=DEFAULT_TOL,
            metavar="TOL",
            help="Riccati convergence tolerance",
        )
        cmd.add_argument(
            "--force",
            action="store_true",
            help="downgrade a failed stabilizability check to a warning",
        )
        if name in ("simulate", "irf", "oracle-compare"):
            horizon = _checked(int, lambda v: v >= 1, "at least 1")
            cmd.add_argument("--horizon", type=horizon, default=500, metavar="T")
        if name == "irf":
            cmd.add_argument("--shock", type=int, default=0, metavar="J")
        if name == "simulate":
            cmd.add_argument(
                "--noise-seed",
                type=_checked(int, lambda v: v >= 0, ">= 0"),
                default=None,
                metavar="SEED",
                help="draw standard-normal forcing innovations (illustration only)",
            )
    return parser


# --- report rendering -------------------------------------------------------


def _sig(x: float) -> float:
    """Round to the 12 significant digits every report prints."""
    return float(f"{x:.12g}")


def _jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return [_sig(value.real), _sig(value.imag)]
    if isinstance(value, float):
        return _sig(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


def _flatten(prefix: str, value, out: list[tuple[str, str]]):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, np.ndarray):
        brackets = "[{}]" * value.ndim
        for index, v in zip(np.ndindex(value.shape), value.ravel().tolist()):
            out.append((prefix + brackets.format(*index), _csv_cell(v)))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, _csv_cell(value)))


def _csv_field(text: str) -> str:
    """Quote a CSV field (RFC 4180) only when it holds a comma, quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report), indent=2) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    lines = [f"{_csv_field(k)},{_csv_field(v)}" for k, v in rows]
    return "key,value\n" + "\n".join(lines) + "\n"


#: JSON cell separators: in a row, at a row's end, after the last row
_JSON_SEPS = (",\n      ", "\n    ],\n    [\n      ", "")
#: a cell's printf spec (plain, integral, pre-rendered text) and separator; a t cell
_JSON_CELLS = np.array(
    [spec + sep for sep in _JSON_SEPS for spec in ("%.12g", "%.1f", "%s")]
    + ["%d.0" + _JSON_SEPS[0]],
    dtype=object,
)


def _render_table(columns: list[str], rows: np.ndarray, fmt: str, extra: dict) -> str:
    """Render a path table: ``columns`` are "t", which prints 0, 1, ... as
    ``%d`` in CSV and ``%d.0`` in JSON, and those of ``rows``.

    A CSV cell prints as ``_csv_cell`` prints the float.  A JSON cell prints
    as ``_jsonable`` and the json encoder print it: the repr of the value
    rounded to 12 significant digits, or json's NaN, Infinity, -Infinity.
    The cells fill a template of printf specs, one per cell, in a single
    ``template % values``; the labels go into the header, never into the
    template, so a ``%`` in a label is printed as it is.

    A path that settles at a fixed point ends in rows that repeat the last
    row bit for bit.  The first such row prints in full; every later row is
    its own t followed by the text of that row after its t, so the settled
    block is one ``str.join`` of the t values with that text between them.

    For most JSON cells ``%.12g`` already prints that repr.  The text of a
    finite normal double has at most 12 significant digits with trailing
    zeros stripped, a decimal of 15 or fewer digits reads back as a double
    whose repr is those digits, and both formats take an exponent below
    1e-4.  The cells where the two differ get another spec:

    - integral text with no "." and no "e" ("3", "-0"), which repr ends in
      ".0": an integer below 9.999e11 prints with ``%.1f``, a non-integer
      within 1e-11 |v| of one (a superset of those that round to it) is
      pre-rendered as ``repr(float(text))``;
    - magnitudes that round into [1e12, 1e16), where ``%g`` takes an
      exponent and repr does not, and subnormals, whose repr may have fewer
      digits: pre-rendered as ``repr(float(text))``, found by the superset
      9.999e11 <= |v| < 1e17 (999999999999.9 prints as 1e+12) or
      0 < |v| < 2.3e-308;
    - nan, inf and -inf: pre-rendered as NaN, Infinity and -Infinity.

    Pre-rendered text is computed once per distinct value; no two distinct
    values in that set compare equal, since it holds neither nan nor a zero.
    """
    height, width = rows.shape
    bits = rows.view(np.uint64)  # -0.0 is not 0.0, nan is nan
    ends = bits if (bits[-2:] == bits[-1]).all() else bits[-2:]  # else none settled
    moved = np.flatnonzero((ends != bits[-1]).any(axis=1)) + height - len(ends)
    lead = rows[: int(moved[-1]) + 2 if moved.size else 1]
    times = map(str, range(len(lead), height))  # the t of each later settled row
    if fmt == "csv":
        header = ",".join(_csv_field(c) for c in columns)
        spec = ",%.12g" * width
        table = (spec + "\n").join(map(str, range(len(lead)))) + spec
        table %= tuple(lead.ravel().tolist())
        if len(lead) < height:
            rest = spec % tuple(lead[-1].tolist())
            table += "\n" + (rest + "\n").join(times) + rest
        return header + "\n" + table + "\n"

    flat = lead.ravel()
    values = flat.tolist()
    with np.errstate(invalid="ignore"):  # inf - rint(inf)
        size = np.abs(flat)
        small = size < 9.999e11
        integer = small & (flat == np.rint(flat))
        near = small & ~integer & (np.abs(flat - np.rint(flat)) <= 1e-11 * size)
        exact = near | (~small & (size < 1e17)) | ((size > 0) & (size < 2.3e-308))
        finite = np.isfinite(flat)
    text = {v: repr(_sig(v)) for v in set(flat[exact].tolist())}
    for i in np.flatnonzero(exact).tolist():
        values[i] = text[values[i]]
    for i in np.flatnonzero(~finite).tolist():
        values[i] = json.dumps(values[i])
    cells = np.full((len(lead), width + 1), len(_JSON_CELLS) - 1)  # t cells
    cells[:, 1:] = (integer + 2 * (exact | ~finite)).reshape(len(lead), width)
    cells[:, -1] += 3  # row ends
    if len(lead) == height:
        cells[-1, -1] += 3  # the last cell
    items = [0] * cells.size  # t, then the row's cells, for each row
    items[:: width + 1] = range(len(lead))
    for j in range(width):
        items[j + 1 :: width + 1] = values[j::width]
    table = "".join(_JSON_CELLS[cells.ravel()].tolist()) % tuple(items)
    if len(lead) < height:
        # the settled row printed with t = 0, less that "0"
        rest = ("".join(_JSON_CELLS[cells[-1]].tolist()) % (0, *values[-width:]))[1:]
        table += rest.join(times) + rest[: -len(_JSON_SEPS[1])]
    # json.dumps(indent=2) lays out the rest of the report, with the rows
    # last; the table replaces the empty row list it ends with
    head = json.dumps(_jsonable({**extra, "columns": columns, "rows": []}), indent=2)
    head = head[: -len("[]\n}")] + "[\n    [\n      "
    return "".join([head, table, "\n    ]\n  ]\n}\n"])


def _trajectory_table(traj, spec):
    names = variable_names(spec)
    columns = (
        ["t"]
        + names["y"]
        + names["z"]
        + names["u"]
        + [f"mu_{n}" for n in names["y"]]
    )
    return columns, np.hstack([traj.y, traj.z, traj.u, traj.mu])


# --- pipeline ---------------------------------------------------------------


def _diag(message: str):
    print(message, file=sys.stderr)


def _dispatch(args, at) -> tuple[str, int]:
    at("model-load")
    document = Path(args.model).read_text(encoding="utf-8")
    spec = load_model(document)

    at("validate")
    report = validate(spec)
    if args.command == "validate":
        body = {"valid": report.is_valid, "violations": list(report.violations)}
        return _render_report(body, args.format), (
            EXIT_OK if report.is_valid else EXIT_REJECTED
        )
    if not report.is_valid:
        body = {"stage": "validate", "violations": list(report.violations)}
        return _render_report(body, args.format), EXIT_REJECTED

    at("config")
    if args.command == "irf" and not 0 <= args.shock < spec.dims.n_z:
        raise ValueError(
            f"shock index {args.shock} out of range for"
            f" {spec.dims.n_z} forcing variables"
        )

    at("checks")
    check = run_checks(spec)
    if args.command == "check":
        body = {**asdict(check), "failures": check.failures()}
        return _render_report(body, args.format), (
            EXIT_OK if check.ok else EXIT_REJECTED
        )

    # stabilizability gates ahead of any solve; an unstable forcing block is
    # never overridable (the discounted loss would be unbounded)
    if not (check.forcing_stable and (check.controllable or args.force)):
        body = {"stage": "checks", "failures": check.failures()}
        return _render_report(body, args.format), EXIT_REJECTED
    if not check.controllable:
        _diag("warning [checks]: " + "; ".join(check.failures()) + " (forced)")

    reg, aug, anchored, system = solve(spec, args.tol_riccati, at)

    if args.command == "solve":
        body = {
            "P_y": reg.P_y,
            "F_y": reg.F_y,
            "P_z": aug.P_z,
            "F_z": aug.F_z,
            "x0": anchored.x0,
            "y0": anchored.y0,
            "mu0": anchored.mu0,
            "riccati_residual": reg.residual,
            "riccati_iterations": reg.iterations,
            "sylvester_residual": aug.residual,
            "sylvester_iterations": aug.iterations,
        }
        return _render_report(body, args.format), EXIT_OK

    if args.command == "oracle-compare":
        at("oracle")
        sol = backward_induction(spec, args.horizon)

        def gap(a, b):
            return float(np.max(np.abs(a - b))) if a.size else 0.0

        body = {
            "horizon": args.horizon,
            "max_dev_P_y": gap(reg.P_y, sol.P_y),
            "max_dev_F_y": gap(reg.F_y, sol.F_y),
            "max_dev_P_z": gap(aug.P_z, sol.P_z),
            "max_dev_F_z": gap(aug.F_z, sol.F_z),
        }
        return _render_report(body, args.format), EXIT_OK

    if args.command == "var":
        at("var-basis")
        rep = to_var(spec, reg, aug, system)
        return _render_report(asdict(rep), args.format), EXIT_OK

    if args.command == "simulate":
        at("simulate")
        shocks = None
        extra = {}
        if args.noise_seed is not None:
            rng = np.random.default_rng(args.noise_seed)
            shocks = rng.standard_normal((args.horizon, spec.dims.n_z))
            extra["noise_seed"] = args.noise_seed
            _diag(f"noise seed: {args.noise_seed}")
        traj = simulate_path(system, spec, reg, aug, args.horizon, shocks)
    else:  # irf
        at("impulse-response")
        traj = irf(system, spec, reg, aug, args.horizon, args.shock)
        extra = {"shock_index": args.shock}

    columns, rows = _trajectory_table(traj, spec)
    extra.update({"loss": traj.loss, "truncation_bound": traj.truncation_bound})
    if args.format == "csv":
        _diag(f"loss: {traj.loss:.12g} (exact tail {traj.truncation_bound:.3g})")
    return _render_table(columns, rows, args.format, extra), EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a status reserved here for
        # numerical failure; its message is already on stderr
        if exc.code != 2:
            raise
        return EXIT_REJECTED
    stage = "startup"

    def at(name: str):
        nonlocal stage
        stage = name

    try:
        output, code = _dispatch(args, at)
    # a model file that is not UTF-8 is an I/O error, though Python files
    # UnicodeDecodeError under ValueError
    except (OSError, ModelFormatError, UnicodeDecodeError) as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_IO
    # LAPACK's LinAlgError is a ValueError, yet a numerical failure
    except (SingularMatrixError, DivergenceError, InstabilityError,
            np.linalg.LinAlgError) as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_NUMERICAL
    except (DimensionError, ValueError) as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_REJECTED
    except MemoryError as exc:
        # e.g. a horizon whose path arrays cannot be allocated
        _diag(f"error [{stage}]: out of memory: {exc}")
        return EXIT_REJECTED

    sys.stdout.write(output)
    if code != EXIT_OK:
        _diag(f"failure [{stage}]: see report")
    return code


if __name__ == "__main__":
    sys.exit(main())
