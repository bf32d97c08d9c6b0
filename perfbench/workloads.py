"""The four workloads as cycles of operations, each with its output check.

An operation's ``run`` is what the benchmark times; its ``check`` compares
the result with the references (outside the timed region) and returns the
operation's forward error, raising ``refs.Mismatch`` on a wrong result.
Library calls go through attributes of the ``auglqr`` package, looked up at
call time, so a traced run sees them through the tracer's wrappers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gen
import refs
from refs import Mismatch, expect_close

SUBCOMMANDS = ("validate", "check", "solve", "simulate", "irf", "var", "oracle-compare")
DEFAULT_HORIZON = 500  # the CLI's default for simulate, irf and oracle-compare
LONG_HORIZON = 10_000
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    label: str
    model: str
    command: str
    run: Callable[[], Any]
    check: Callable[[Any], float]
    #: in-process form of a subprocess operation (cli-mix), used by traced runs
    replay: Callable[[], Any] | None = None


@dataclass
class Bench:
    """What the operations share: the package, the inputs and the references."""

    lib: Any
    root: str
    paths: dict[str, str]
    texts: dict[str, str]
    refs: dict[str, dict]
    status: dict[str, dict[str, int]]
    noise_seed: int
    seen: dict[tuple, bytes] = field(default_factory=dict)
    #: gate rejections of models the reference stabilizes, by model
    gate_disagreements: Counter = field(default_factory=Counter)


# --- running the CLI --------------------------------------------------------


def run_subprocess(bench: Bench, argv: list[str]):
    proc = subprocess.run(
        [sys.executable, "-m", "auglqr.cli", *argv],
        cwd=bench.root,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def run_inprocess(bench: Bench, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = bench.lib.cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue()


def _gains(ref):
    return np.hstack([ref["F_y"], ref["F_z"]])


def _check_table(ref, rows, loss, s0, loss_ref, horizon) -> float:
    n_y, n_z = ref["P_z"].shape
    n_u = ref["F_y"].shape[0]
    if rows.shape != (horizon, 1 + 2 * n_y + n_z + n_u):
        raise Mismatch(f"path table has shape {rows.shape}")
    expect_close("date-0 state", rows[0, 1 : 1 + n_y + n_z], s0)
    expect_close("date-0 instruments", rows[0, 1 + n_y + n_z : 1 + n_y + n_z + n_u], _gains(ref) @ s0)
    return expect_close("loss", loss, loss_ref)


def cli_checker(bench: Bench, model: str, argv: list[str]) -> Callable:
    """Check of one CLI argv: exit status, byte-identical reruns, report values."""
    command = argv[0]
    key = tuple(argv)
    expected = bench.status[model][command]
    ref = bench.refs.get(model)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    horizon = int(argv[argv.index("--horizon") + 1]) if "--horizon" in argv else DEFAULT_HORIZON
    loss_ref = None
    if command in ("simulate", "irf") and expected == 0:
        s0 = ref["s0"] if command == "simulate" else refs.impulse_state(ref, 0)
        if "--noise-seed" in argv:
            seed = int(argv[argv.index("--noise-seed") + 1])
            shocks = np.random.default_rng(seed).standard_normal((horizon, ref["P_z"].shape[1]))
            loss_ref = refs.path_loss(ref, s0, shocks)
        else:
            loss_ref = refs.truncated_loss(ref, s0, horizon)

    def check(result) -> float:
        code, out, err = result
        if code != expected:
            raise Mismatch(f"exit status {code}, expected {expected}: {err.strip()[-300:]}")
        digest = hashlib.sha256(out).digest()
        if bench.seen.setdefault(key, digest) != digest:
            raise Mismatch("report differs from an earlier run of the same argv")
        if code != 0:
            return 0.0
        if fmt == "csv":
            table = list(csv.reader(io.StringIO(out.decode())))
            rows = np.array(table[1:], dtype=float)
            loss = float(err.split("loss: ")[1].split()[0])
            return _check_table(ref, rows, loss, s0, loss_ref, horizon)
        report = json.loads(out)
        if command == "validate":
            if report != {"valid": True, "violations": []}:
                raise Mismatch(f"validate reported {report}")
            return 0.0
        if command == "check":
            if not (report["controllable"] and report["forcing_stable"]):
                raise Mismatch(f"gate rejected a stabilizable model: {report['failures']}")
            expect_close("forcing spectral radius", report["forcing_spectral_radius"], ref["rho_zz"])
            return 0.0
        if command == "solve":
            return _check_solution(ref, report["P_y"], report["P_z"], report["F_y"], report["F_z"], report["x0"])
        if command in ("simulate", "irf"):
            return _check_table(ref, np.array(report["rows"], dtype=float), report["loss"], s0, loss_ref, horizon)
        if command == "var":
            expect_close("T_var", report["T_var"], _var_reference(ref))
            return 0.0
        # oracle-compare: the finite-horizon route must agree at horizon 500
        scale = max(1.0, float(np.max(np.abs(ref["P_y"]))))
        for name in ("max_dev_P_y", "max_dev_F_y", "max_dev_P_z", "max_dev_F_z"):
            if not report[name] <= refs.RTOL * scale:
                raise Mismatch(f"oracle-compare {name} = {report[name]:.3e}")
        return 0.0

    return check


def _check_solution(ref, p_y, p_z, f_y, f_z, x0) -> float:
    n_k, n_y = int(ref["n_k"]), ref["P_y"].shape[0]
    fwd = max(expect_close("P_y", p_y, ref["P_y"]), expect_close("P_z", p_z, ref["P_z"]))
    expect_close("F_y", f_y, ref["F_y"])
    expect_close("F_z", f_z, ref["F_z"])
    expect_close("x0", x0, ref["s0"][n_k:n_y])
    return fwd


def _var_reference(ref) -> np.ndarray:
    n_y, n_z = ref["P_z"].shape
    m_inv = np.block([[np.eye(n_y), np.zeros((n_y, n_z))], [ref["F_y"], ref["F_z"]]])
    return m_inv @ ref["T_cl"] @ np.linalg.inv(m_inv)


# --- the library pipeline ---------------------------------------------------


def pipeline(lib, text: str, through: str) -> dict:
    """validate, checks, riccati, sylvester, anchor, then closed loop and VAR.

    The controllability gate's verdict is kept, not enforced, as
    ``auglqr solve --force`` does; the forcing gate is enforced.
    """
    spec = lib.load_model(text)
    report = lib.validate(spec)
    if not report.is_valid:
        raise Mismatch(f"validate rejected the model: {report.violations}")
    gate = lib.run_checks(lib.rescale(spec))
    if not gate.forcing_stable:
        raise Mismatch(f"forcing gate rejected the model: {gate.failures()}")
    reg = lib.solve_riccati(spec)
    aug = lib.solve_sylvester(spec, reg)
    out = {"spec": spec, "gate": gate, "reg": reg, "aug": aug, "anchored": lib.anchor_x0(spec, reg, aug)}
    if through == "anchor":
        return out
    out["system"] = lib.build_closed_loop(spec, reg, aug, out["anchored"])
    if spec.dims.n_u == spec.dims.n_z:
        out["var"] = lib.to_var(spec, reg, aug, out["system"])
    return out


def pipeline_checker(bench: Bench, model: str) -> Callable:
    ref = bench.refs[model]

    def check(out) -> float:
        if not out["gate"].controllable:
            bench.gate_disagreements[model] += 1
        reg, aug = out["reg"], out["aug"]
        fwd = _check_solution(ref, reg.P_y, aug.P_z, reg.F_y, aug.F_z, out["anchored"].x0)
        if "system" in out:
            expect_close("T_cl", out["system"].T_cl, ref["T_cl"])
        if "var" in out:
            expect_close("T_var", out["var"].T_var, _var_reference(ref))
        return fwd

    return check


def var_check_op(bench: Bench, model: str) -> Op:
    """Library ``var_simulate_check`` at the long horizon after a full solve."""

    def run():
        out = pipeline(bench.lib, bench.texts[model], "var")
        return bench.lib.var_simulate_check(
            out["var"], out["system"], out["spec"], out["reg"], out["aug"], LONG_HORIZON
        )

    scale = max(1.0, float(np.max(np.abs(bench.refs[model]["s0"]))))

    def check(deviation) -> float:
        if not deviation <= refs.RTOL * scale:
            raise Mismatch(f"VAR and closed-loop paths differ by {deviation:.3e}")
        return 0.0

    return Op(f"var_simulate_check {model}", model, "var_simulate_check", run, check)


# --- workloads --------------------------------------------------------------


def _cli_op(bench: Bench, model: str, argv: list[str], subprocess_run: bool) -> Op:
    label = " ".join([argv[0], model] + argv[3:])
    check = cli_checker(bench, model, argv)
    if subprocess_run:
        return Op(label, model, argv[0], lambda: run_subprocess(bench, argv), check,
                  replay=lambda: run_inprocess(bench, argv))
    return Op(label, model, argv[0], lambda: run_inprocess(bench, argv), check)


def cli_mix(bench: Bench) -> list[Op]:
    # si60 and the rejection fixtures come first, so a short traced run
    # still reaches the gate's verdicts
    ops = [_cli_op(bench, "si60", ["solve", "--model", bench.paths["si60"], "--force"], True)]
    for model in ("uncontrollable", "explosive_forcing", "bad_schema"):
        ops.append(_cli_op(bench, model, ["check", "--model", bench.paths[model]], True))
    for command in SUBCOMMANDS:
        for model in ("golden", "back", "s4232"):
            ops.append(_cli_op(bench, model, [command, "--model", bench.paths[model]], True))
    return ops


def _pipeline_op(bench: Bench, model: str, through: str) -> Op:
    text = bench.texts[model]
    return Op(f"pipeline {model}", model, "pipeline",
              lambda: pipeline(bench.lib, text, through), pipeline_checker(bench, model))


def solve_ladder(bench: Bench) -> list[Op]:
    return [_pipeline_op(bench, m, "var") for m in gen.MODEL_SETS["solve-ladder"]]


def riccati_hard(bench: Bench) -> list[Op]:
    weak = sorted(m for m in bench.texts if m.startswith("weak"))
    half = len(weak) // 2
    order = ["hard1"] + weak[:half] + ["hard2"] + weak[half:]
    return [_pipeline_op(bench, m, "anchor") for m in order]


def simulate_long(bench: Bench) -> list[Op]:
    ops = []
    for model in ("s2222", "back", "golden"):
        base = ["--model", bench.paths[model], "--horizon", str(LONG_HORIZON)]
        for argv in (
            ["simulate", *base],
            ["simulate", *base, "--format", "csv"],
            ["irf", *base],
            ["irf", *base, "--format", "csv"],
            ["simulate", *base, "--noise-seed", str(bench.noise_seed)],
        ):
            ops.append(_cli_op(bench, model, argv, False))
        ops.append(var_check_op(bench, model))
    return ops


CYCLES = {
    "cli-mix": cli_mix,
    "solve-ladder": solve_ladder,
    "riccati-hard": riccati_hard,
    "simulate-long": simulate_long,
}

#: operations only the traced run makes (too slow for a timed cycle)
TRACED_EXTRAS = {"riccati-hard": ("hard3",)}


def traced_extras(bench: Bench, workload: str) -> list[Op]:
    """Diagnostic solves whose check reports the forward error and never raises."""
    ops = []
    for model in TRACED_EXTRAS.get(workload, ()):
        ref = bench.refs[model]
        text = bench.texts[model]
        ops.append(Op(f"pipeline {model}", model, "pipeline",
                      lambda text=text: pipeline(bench.lib, text, "anchor"),
                      lambda out, ref=ref: max(refs.rel_err(out["reg"].P_y, ref["P_y"]),
                                               refs.rel_err(out["aug"].P_z, ref["P_z"]))))
    return ops
