"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time
from dataclasses import replace

import numpy as np

from auglqr import (
    anchor_x0,
    backward_induction,
    build_closed_loop,
    grid_search_x0,
    riccati_rhs,
    run_checks,
    simulate_path,
    solve_riccati,
    solve_sylvester,
    to_var,
    var_simulate_check,
)
from auglqr.cli import main
from auglqr.kernel import inf_norm, spectral_radius

from _support import (
    GOLDEN_F_Y,
    GOLDEN_P_Y,
    MODELS_DIR,
    assert_spectra_match,
    dense_stein_solution,
    load_fixture,
)


def _report(number, name, failures, detail=""):
    ok = not failures
    line = f"[acceptance] criterion {number:2d} {'PASS' if ok else 'FAIL'} - {name}"
    if ok and detail:
        line += f" ({detail})"
    print(line)
    for failure in failures:
        print(f"    {failure}")
    assert ok, f"criterion {number} failed: {failures}"


def _gap(a, b):
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def test_criterion_1_riccati_fixed_point(suite_models):
    failures = []
    start = time.perf_counter()
    for name, spec in suite_models:
        reg = solve_riccati(spec)
        residual = inf_norm(reg.P_y - riccati_rhs(reg.P_y, spec))
        if residual > 1e-10 * (1.0 + inf_norm(reg.P_y)):
            failures.append(f"{name}: fixed-point residual {residual:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "Riccati fixed point on every bundled model", failures,
            f"{len(suite_models)} models in {elapsed:.2f}s")


def test_criterion_2_scalar_closed_form(golden_spec):
    failures = []
    reg = solve_riccati(golden_spec)
    p_exact = (1.0 + math.sqrt(5.0)) / 2.0
    if abs(reg.P_y[0, 0] - p_exact) > 1e-9:
        failures.append(f"P_y = {reg.P_y[0, 0]!r} != (1+sqrt(5))/2")
    if abs(reg.F_y[0, 0] - (1.0 - p_exact)) > 1e-9:
        failures.append(f"F_y = {reg.F_y[0, 0]!r} != 1-(1+sqrt(5))/2")
    _report(2, "GOLDEN matches the closed-form root of p^2 - p - 1", failures,
            f"P_y = {reg.P_y[0, 0]:.12g}")


def test_criterion_3_sylvester_residual(solved_suite):
    failures = []
    for name, spec, reg, aug in solved_suite:
        scale = 1.0 + inf_norm(aug.P_z)
        if aug.residual > 1e-10 * scale:
            failures.append(f"{name}: residual {aug.residual:.3e}")
        gap = inf_norm(aug.P_z - dense_stein_solution(spec, reg))
        if gap > 1e-9 * scale:
            failures.append(f"{name}: dense reference differs by {gap:.3e}")
    _report(3, "Sylvester residual and dense Kronecker agreement", failures,
            f"{len(solved_suite)} models")


def test_criterion_4_oracle_equivalence(solved_suite):
    failures = []
    eligible = 0
    start = time.perf_counter()
    for name, spec, reg, aug in solved_suite:
        rho = max(
            spectral_radius(spec.A_yy + spec.B_y @ reg.F_y),
            spectral_radius(spec.A_zz),
        )
        if rho > 0.9:
            continue
        eligible += 1
        sol = backward_induction(spec, 500)
        gaps = {
            "P_y": _gap(reg.P_y, sol.P_y_seq[0]),
            "F_y": _gap(reg.F_y, sol.F_y_T),
            "P_z": _gap(aug.P_z, sol.P_z_seq[0]),
            "F_z": _gap(aug.F_z, sol.F_z_T),
        }
        for key, value in gaps.items():
            if value > 1e-8:
                failures.append(f"{name}: {key} deviates by {value:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    if eligible < 15:
        failures.append(f"only {eligible} models with closed-loop radius <= 0.9")
    _report(4, "backward induction at T=500 reproduces the solver", failures,
            f"{eligible} eligible models in {elapsed:.2f}s")


def test_criterion_5_anchor_optimality(solved_suite, golden_spec):
    failures = []
    reg = solve_riccati(golden_spec)
    aug = solve_sylvester(golden_spec, reg)
    anchored = anchor_x0(golden_spec, reg, aug)
    best = grid_search_x0(
        golden_spec, reg, aug, golden_spec.z0, golden_spec.k0, 200, (-1.0, 0.0, 1e-4)
    )
    if abs(best - anchored.x0[0]) > 1e-4:
        failures.append(f"grid optimum {best} vs anchored {anchored.x0[0]}")
    checked = 0
    for name, spec, reg, aug in solved_suite:
        if spec.dims.n_x == 0:
            continue
        checked += 1
        state = anchor_x0(spec, reg, aug)
        tol = 1e-9 * (1.0 + inf_norm(reg.P_y) * inf_norm(state.y0))
        worst = np.max(np.abs(state.mu0[spec.dims.n_k:]))
        if worst > tol:
            failures.append(f"{name}: mu_x,0 = {worst:.3e} exceeds {tol:.3e}")
    _report(5, "grid search confirms the anchor; mu_x,0 = 0", failures,
            f"grid step 1e-4, {checked} forward-looking models")


def test_criterion_6_stability(solved_suite):
    failures = []
    for name, spec, reg, aug in solved_suite:
        sb = math.sqrt(spec.beta)
        rho_cl = sb * spectral_radius(spec.A_yy + spec.B_y @ reg.F_y)
        rho_zz = sb * spectral_radius(spec.A_zz)
        if rho_cl >= 1.0:
            failures.append(f"{name}: sqrt(beta)*rho(A+BF) = {rho_cl:.6f} >= 1")
        if rho_zz >= 1.0:
            failures.append(f"{name}: sqrt(beta)*rho(A_zz) = {rho_zz:.6f} >= 1")
    uncontrollable = run_checks(load_fixture("uncontrollable.json"))
    if uncontrollable.controllable:
        failures.append("uncontrollable fixture (B_y = 0) not rejected")
    explosive = run_checks(load_fixture("explosive_forcing.json"))
    if explosive.forcing_stable:
        failures.append("explosive-forcing fixture (beta=0.81, A_zz=1.2) not rejected")
    _report(6, "closed-loop and forcing radii inside 1/sqrt(beta); bad fixtures rejected",
            failures)


def test_criterion_7_certainty_equivalence(suite_models):
    failures = []
    rng = np.random.default_rng(97)
    for name, spec in suite_models[:6]:
        moved = replace(
            spec,
            k0=rng.normal(size=spec.dims.n_k),
            z0=rng.normal(size=spec.dims.n_z),
        )
        reg_a, reg_b = solve_riccati(spec), solve_riccati(moved)
        aug_a = solve_sylvester(spec, reg_a)
        aug_b = solve_sylvester(moved, reg_b)
        same = (
            np.array_equal(reg_a.P_y, reg_b.P_y)
            and np.array_equal(reg_a.F_y, reg_b.F_y)
            and np.array_equal(aug_a.P_z, aug_b.P_z)
            and np.array_equal(aug_a.F_z, aug_b.F_z)
        )
        if not same:
            failures.append(f"{name}: solutions not bit-identical across k0/z0 change")
    _report(7, "gains and value matrices bit-identical across initial conditions",
            failures, "6 models")


def test_criterion_8_var_equivalence(solved_suite):
    failures = []
    eligible = 0
    for name, spec, reg, aug in solved_suite:
        if spec.dims.n_u != spec.dims.n_z or spec.dims.n_z == 0:
            continue
        cond = float(np.linalg.cond(aug.F_z))
        if not np.isfinite(cond) or cond >= 1e8:
            continue
        eligible += 1
        anchored = anchor_x0(spec, reg, aug)
        system = build_closed_loop(spec, reg, aug, anchored)
        rep = to_var(spec, reg, aug, system)
        deviation = var_simulate_check(rep, system, spec, reg, aug, 100)
        if deviation > 1e-7:
            failures.append(f"{name}: path deviation {deviation:.3e}")
        try:
            assert_spectra_match(rep.T_var, system.T_cl, 1e-8)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    if eligible < 3:
        failures.append(f"only {eligible} eligible models with square invertible F_z")
    _report(8, "observable-basis representation reproduces the closed loop", failures,
            f"{eligible} eligible models, horizon 100")


def test_criterion_9_local_optimality(back_solved):
    spec, reg, aug, anchored, system = back_solved
    base = simulate_path(system, spec, reg, aug, 500).loss
    failures = []
    for i in range(reg.F_y.shape[0]):
        for j in range(reg.F_y.shape[1]):
            for sign in (+1.0, -1.0):
                bumped = np.array(reg.F_y)
                bumped[i, j] += sign * 1e-3
                reg_b = replace(reg, F_y=bumped)
                system_b = build_closed_loop(spec, reg_b, aug, anchored)
                loss = simulate_path(system_b, spec, reg_b, aug, 500).loss
                if loss < base - 1e-12:
                    failures.append(
                        f"F_y[{i},{j}] {sign:+g}*1e-3 lowers loss: {loss} < {base}"
                    )
    _report(9, "perturbing F_y never lowers the BACK loss at horizon 500", failures,
            f"baseline loss {base:.12g}")


def test_criterion_10_cli_contract(capsys):
    failures = []
    cases = [
        (("solve", "--model", str(MODELS_DIR / "golden.json")), 0),
        (("check", "--model", str(MODELS_DIR / "uncontrollable.json")), 1),
        (("solve", "--model", str(MODELS_DIR / "explosive_forcing.json")), 1),
        (("solve", "--model", str(MODELS_DIR / "uncontrollable.json"), "--force"), 2),
        (("solve", "--model", str(MODELS_DIR / "bad_schema.json")), 3),
    ]
    golden_out = None
    for argv, expected in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        if code != expected:
            failures.append(f"{' '.join(argv)} -> exit {code}, expected {expected}")
        if expected == 0:
            golden_out = captured.out
    digits = f"{GOLDEN_P_Y:.12g}"
    if golden_out is None or digits not in golden_out:
        failures.append(f"solve report does not print P_y as {digits}")
    if f"{GOLDEN_F_Y:.12g}" not in (golden_out or ""):
        failures.append("solve report does not print F_y to 12 digits")
    with capsys.disabled():
        _report(10, "CLI exit statuses 0/1/2/3 and 12-digit solve report", failures,
                f"P_y printed as {digits}")
