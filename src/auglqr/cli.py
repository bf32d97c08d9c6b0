"""Command-line front end tying the pipeline together.

Subcommands: validate, check, solve, simulate, irf, var, oracle-compare.
Reports go to standard output (JSON by default, CSV on request) and
diagnostics to standard error.  Exit statuses: 0 success, 1 validation or
stabilizability failure, 2 numerical failure (singularity, divergence,
instability), 3 I/O or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .anchor import anchor_x0
from .augmented import solve_sylvester
from .checks import run_checks
from .errors import (
    DimensionError,
    DivergenceError,
    InstabilityError,
    InvalidModelError,
    ModelFormatError,
    SingularMatrixError,
)
from .model import load_model, validate, variable_names
from .oracle import backward_induction
from .regulator import DEFAULT_TOL, solve_riccati
from .simulate import build_closed_loop, irf, simulate_path
from .varrep import to_var

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


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
            type=float,
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
            cmd.add_argument("--horizon", type=int, default=500, metavar="T")
        if name == "irf":
            cmd.add_argument("--shock", type=int, default=0, metavar="J")
        if name == "simulate":
            cmd.add_argument(
                "--noise-seed",
                type=int,
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
        if np.iscomplexobj(value):
            return [_jsonable(complex(v)) for v in value.reshape(-1)]
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _jsonable(value.item())
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
        if value.ndim == 2:
            for i in range(value.shape[0]):
                for j in range(value.shape[1]):
                    out.append((f"{prefix}[{i}][{j}]", _csv_cell(value[i, j].item())))
        else:
            for i, v in enumerate(value.reshape(-1)):
                out.append((f"{prefix}[{i}]", _csv_cell(v.item())))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, _csv_cell(value)))


def _render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(report), indent=2) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def _render_table(columns: list[str], rows: np.ndarray, fmt: str, extra: dict) -> str:
    if fmt == "json":
        report = dict(extra)
        report["columns"] = columns
        report["rows"] = rows
        return json.dumps(_jsonable(report), indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _trajectory_table(traj, spec):
    names = variable_names(spec)
    columns = (
        ["t"]
        + names["y"]
        + names["z"]
        + names["u"]
        + [f"mu_{n}" for n in names["y"]]
    )
    t = np.arange(traj.horizon, dtype=float)[:, None]
    rows = np.hstack([t, traj.y, traj.z, traj.u, traj.mu])
    return columns, rows


# --- pipeline ---------------------------------------------------------------


def _diag(message: str):
    print(message, file=sys.stderr)


def _check_report_dict(report) -> dict:
    return {
        "controllable": report.controllable,
        "controllability_rank": report.controllability_rank,
        "required_rank": report.required_rank,
        "forcing_stable": report.forcing_stable,
        "forcing_spectral_radius": report.forcing_spectral_radius,
        "threshold": report.threshold,
        "eigenvalues_zz": report.eigenvalues_zz,
        "failures": report.failures(),
    }


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
    if args.command in ("simulate", "irf", "oracle-compare") and args.horizon < 1:
        return f"horizon must be at least 1, got {args.horizon}\n", EXIT_REJECTED
    if args.command == "irf" and not 0 <= args.shock < spec.dims.n_z:
        return (
            f"shock index {args.shock} out of range for"
            f" {spec.dims.n_z} forcing variables\n"
        ), EXIT_REJECTED

    at("checks")
    check = run_checks(spec)
    if args.command == "check":
        return _render_report(_check_report_dict(check), args.format), (
            EXIT_OK if check.ok else EXIT_REJECTED
        )

    # stabilizability gates ahead of any solve; an unstable forcing block is
    # never overridable (the discounted loss would be unbounded)
    if not check.forcing_stable:
        body = {"stage": "checks", "failures": check.failures()}
        return _render_report(body, args.format), EXIT_REJECTED
    if not check.controllable:
        if args.force:
            _diag("warning [checks]: " + "; ".join(check.failures()) + " (forced)")
        else:
            body = {"stage": "checks", "failures": check.failures()}
            return _render_report(body, args.format), EXIT_REJECTED

    at("riccati")
    reg = solve_riccati(spec, tol=args.tol_riccati)
    at("sylvester")
    aug = solve_sylvester(spec, reg)
    at("anchor")
    anchored = anchor_x0(spec, reg, aug)

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
            "max_dev_P_y": gap(reg.P_y, sol.P_y_seq[0]),
            "max_dev_F_y": gap(reg.F_y, sol.F_y_T),
            "max_dev_P_z": gap(aug.P_z, sol.P_z_seq[0]),
            "max_dev_F_z": gap(aug.F_z, sol.F_z_T),
        }
        return _render_report(body, args.format), EXIT_OK

    at("closed-loop")
    system = build_closed_loop(spec, reg, aug, anchored)

    if args.command == "var":
        at("var-basis")
        rep = to_var(spec, reg, aug, system)
        body = {
            "T_var": rep.T_var,
            "shock_loading_var": rep.shock_loading_var,
            "M": rep.M,
            "M_inv": rep.M_inv,
            "z_from_y": rep.z_recovery[0],
            "z_from_u": rep.z_recovery[1],
        }
        return _render_report(body, args.format), EXIT_OK

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
        _diag(f"loss: {traj.loss:.12g} (truncation bound {traj.truncation_bound:.3g})")
    return _render_table(columns, rows, args.format, extra), EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = "startup"

    def at(name: str):
        nonlocal stage
        stage = name

    try:
        output, code = _dispatch(args, at)
    except (OSError, ModelFormatError) as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_IO
    except InvalidModelError as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_REJECTED
    except (DimensionError, ValueError) as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_REJECTED
    except (SingularMatrixError, DivergenceError, InstabilityError) as exc:
        _diag(f"error [{stage}]: {exc}")
        return EXIT_NUMERICAL

    sys.stdout.write(output)
    if code != EXIT_OK:
        _diag(f"failure [{stage}]: see report")
    return code


if __name__ == "__main__":
    sys.exit(main())
