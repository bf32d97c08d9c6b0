import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import auglqr
from auglqr import (
    ClosedLoopSystem,
    DivergenceError,
    InstabilityError,
    build_closed_loop,
    irf,
    simulate_path,
    solve,
    solve_riccati,
)
from auglqr.cli import main
from auglqr.kernel import spectral_radius, stein
from auglqr.simulate import _SETTLE_CHUNK, state_path

from _support import (
    GOLDEN_ABAR,
    GOLDEN_LOSS,
    GOLDEN_TCL_YZ,
    GOLDEN_X0,
    backward_periods,
    random_stabilizable_model,
    reference_path,
    save_model,
    scalar_spec,
)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """The matrices np.linalg.eigvals is called on, in call order."""
    calls = []
    original = np.linalg.eigvals

    def counted(m):
        calls.append(np.array(m))
        return original(m)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


def oracle_loss(spec, anchored_x0, horizon):
    """Finite-horizon loss under the time-varying gains of backward induction.

    Rolls the state forward with the date-t gains of the per-period backward
    loop; shares nothing with simulate_path.
    """
    a, b, beta = spec.A_yy, spec.B_y, spec.beta
    y = np.concatenate([spec.k0, anchored_x0])
    z = spec.z0.copy()
    loss = 0.0
    discount = 1.0
    for _, _, f_y, f_z in backward_periods(spec, horizon):
        u = f_y @ y + f_z @ z
        loss += 0.5 * discount * float(
            y @ spec.Q_yy @ y + 2.0 * (y @ spec.Q_yz @ z) + u @ spec.R @ u
        )
        y = a @ y + spec.A_yz @ z + b @ u
        z = spec.A_zz @ z
        discount *= beta
    return loss


class TestBuildClosedLoop:
    def test_golden_transition(self, golden_solved):
        _, _, _, _, system = golden_solved
        expected = np.array([[GOLDEN_ABAR, GOLDEN_TCL_YZ], [0.0, 0.5]])
        assert system.T_cl == pytest.approx(expected, abs=1e-9)
        assert system.T_cl[1, 0] == 0.0  # exogeneity block is exactly zero
        assert np.array_equal(system.impulse_loading, [[0.0], [1.0]])
        assert system.state0 == pytest.approx([GOLDEN_X0, 1.0], abs=1e-9)

    def test_no_forcing_block(self):
        spec = scalar_spec(beta=0.99, a=0.5)
        reg, aug, anchored, system = solve(spec)
        assert system.T_cl.shape == (1, 1)
        assert system.T_cl[0, 0] == pytest.approx(
            spec.A_yy[0, 0] + spec.B_y[0, 0] * reg.F_y[0, 0]
        )
        assert system.impulse_loading.shape == (1, 0)

    def test_zero_transition_keeps_zero_feedback(self):
        spec = scalar_spec(beta=0.95, a=0.0, a_yz=1.0, a_zz=0.5)
        reg, aug, anchored, system = solve(spec)
        assert np.array_equal(reg.F_y, [[0.0]])
        assert system.T_cl[0, 0] == 0.0

    def test_var_run_decides_each_spectrum_once(self, eigvals_calls, tmp_path, capsys):
        spec = random_stabilizable_model(np.random.default_rng(0), 10, 10, 10, 10, 0.99)
        path = tmp_path / "s10.json"
        path.write_text(save_model(spec), encoding="utf-8")
        eigvals_calls.clear()  # drawing the model ran its own checks
        assert main(["var", "--model", str(path)]) == 0
        assert capsys.readouterr().err == ""
        calls = list(eigvals_calls)
        # stabilizability gate, forcing gate, the solver's closed loop; none in build_closed_loop
        checked = [spec.A_yy, spec.A_zz, solve_riccati(spec).A_cl]
        assert len(calls) == len(checked)
        for m, expected in zip(calls, checked):
            assert np.array_equal(m, expected)

    def test_carried_radius_travels_with_its_loop(self, golden_solved, eigvals_calls):
        spec, reg, aug, anchored, _ = golden_solved
        assert reg.radius_cl == spectral_radius(reg.A_cl)
        assert spec.eigenvalues_zz.size == 1  # decided before counting
        eigvals_calls.clear()
        build_closed_loop(spec, reg, aug, anchored)
        assert eigvals_calls == []
        # the same values through a fresh array still count as the checked loop
        build_closed_loop(spec, replace(reg, F_y=reg.F_y.copy()), aug, anchored)
        assert eigvals_calls == []
        # a moved gain, or a moved A_yy, gets its own decision
        build_closed_loop(spec, replace(reg, F_y=reg.F_y * 0.99), aug, anchored)
        moved = replace(spec, A_yy=spec.A_yy * 0.99)
        build_closed_loop(moved, reg, aug, anchored)
        # a replaced spec is a new model, so its A_zz is decided afresh too
        expected = [
            spec.A_yy + spec.B_y @ (reg.F_y * 0.99),
            moved.A_yy + moved.B_y @ reg.F_y,
            moved.A_zz,
        ]
        assert len(eigvals_calls) == len(expected)
        for m, e in zip(eigvals_calls, expected):
            assert np.array_equal(m, e)

    # the library's own guard for callers that skip run_checks and the
    # Riccati solver's stability check
    def test_destabilizing_feedback_is_rejected(self, golden_solved):
        spec, reg, aug, anchored, _ = golden_solved
        pushed = replace(reg, F_y=np.array([[1.0]]))  # A_yy + B_y F_y = 2
        with pytest.raises(InstabilityError) as exc:
            build_closed_loop(spec, pushed, aug, anchored)
        assert str(exc.value) == "closed feedback loop unstable: sqrt(beta) * 2 >= 1"

    def test_explosive_forcing_block_is_rejected(self, golden_solved):
        spec, reg, aug, anchored, _ = golden_solved
        explosive = replace(spec, A_zz=np.array([[1.5]]))
        with pytest.raises(InstabilityError) as exc:
            build_closed_loop(explosive, reg, aug, anchored)
        assert str(exc.value) == "forcing block unstable: sqrt(beta) * 1.5 >= 1"


class TestSimulatePath:
    def test_zero_initial_state_stays_zero(self):
        spec = scalar_spec(beta=0.99, a=0.8, a_yz=1.0, a_zz=0.5, z0=0.0)
        reg, aug, anchored, system = solve(spec)
        traj = simulate_path(system, spec, reg, aug, 50)
        assert np.array_equal(traj.y, np.zeros((50, 1)))
        assert np.array_equal(traj.u, np.zeros((50, 1)))
        assert traj.loss == 0.0

    def test_golden_paths_and_loss(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        traj = simulate_path(system, spec, reg, aug, 200)
        assert traj.z[:, 0] == pytest.approx(0.5 ** np.arange(200), abs=1e-12)
        assert traj.y[0, 0] == pytest.approx(GOLDEN_X0, abs=1e-9)
        # frozen infinite-horizon value; the horizon-200 tail is ~2e-120
        assert traj.loss == pytest.approx(GOLDEN_LOSS, abs=1e-8)
        assert traj.loss == pytest.approx(
            oracle_loss(spec, anchored.x0, 200), abs=1e-8
        )
        assert traj.truncation_bound < 1e-100

    def test_rule_and_multiplier_consistency(self, back_solved):
        spec, reg, aug, anchored, system = back_solved
        traj = simulate_path(system, spec, reg, aug, 100)
        for t in (0, 3, 57, 99):
            assert traj.u[t] == pytest.approx(
                reg.F_y @ traj.y[t] + aug.F_z @ traj.z[t], abs=1e-12
            )
            assert traj.mu[t] == pytest.approx(
                reg.P_y @ traj.y[t] + aug.P_z @ traj.z[t], abs=1e-12
            )

    def test_forward_multiplier_zero_at_start(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        traj = simulate_path(system, spec, reg, aug, 10)
        assert abs(traj.mu[0, -1]) <= 1e-9

    def test_superposition_of_shocks(self):
        rng = np.random.default_rng(59)
        spec = random_stabilizable_model(rng, 1, 1, 2, 2, 0.97)
        reg, aug, anchored, system = solve(spec)
        zero_start = replace(system, state0=np.zeros_like(system.state0))
        s1 = rng.normal(size=(40, 2))
        s2 = rng.normal(size=(40, 2))
        t1 = simulate_path(zero_start, spec, reg, aug, 40, s1)
        t2 = simulate_path(zero_start, spec, reg, aug, 40, s2)
        t12 = simulate_path(zero_start, spec, reg, aug, 40, s1 + s2)
        assert np.max(np.abs(t12.y - (t1.y + t2.y))) <= 1e-10
        assert np.max(np.abs(t12.u - (t1.u + t2.u))) <= 1e-10

    def test_unit_impulse_equals_shifted_deterministic_path(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        # deterministic path from z0 = 1 with x0 NOT re-anchored: from zero
        # state, an impulse at t = 0 reproduces it one period later only in z
        zero_start = replace(system, state0=np.zeros(2))
        shocks = np.zeros((30, 1))
        shocks[0, 0] = 1.0
        impulse = simulate_path(zero_start, spec, reg, aug, 30, shocks)
        assert impulse.z[0, 0] == 0.0
        assert impulse.z[1:, 0] == pytest.approx(0.5 ** np.arange(29), abs=1e-12)

    def test_geometric_decay(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        traj = simulate_path(system, spec, reg, aug, 100)
        start = max(np.max(np.abs(traj.y[0])), np.max(np.abs(traj.z[0])))
        end = max(np.max(np.abs(traj.y[-1])), np.max(np.abs(traj.z[-1])))
        assert end <= 1e-8 * start

    def test_shock_shape_validated(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        with pytest.raises(ValueError, match="shocks"):
            simulate_path(system, spec, reg, aug, 10, np.zeros((5, 1)))

    def test_horizon_validated(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        with pytest.raises(ValueError, match="horizon"):
            simulate_path(system, spec, reg, aug, 0)

    def test_overflow_raises_divergence(self):
        spec = scalar_spec(beta=1.0, a=0.5)
        reg, aug, anchored, _ = solve(spec)
        runaway = ClosedLoopSystem(
            T_cl=np.array([[1e200]]),
            impulse_loading=np.zeros((1, 0)),
            state0=np.array([1e200]),
        )
        with pytest.raises(DivergenceError, match=r"overflowed at t = 1$"):
            simulate_path(runaway, spec, reg, aug, 10)

    def test_overflow_reports_first_bad_period(self):
        # 1, 1e100, 1e200, 1e300 are finite; 1e400 overflows at t = 4
        spec = scalar_spec(beta=1.0, a=0.5)
        reg, aug, anchored, _ = solve(spec)
        runaway = ClosedLoopSystem(
            T_cl=np.array([[1e100]]),
            impulse_loading=np.zeros((1, 0)),
            state0=np.array([1.0]),
        )
        with pytest.raises(DivergenceError, match=r"overflowed at t = 4$"):
            simulate_path(runaway, spec, reg, aug, 10)


HARD2_LOSS_SCRIPT = """
from auglqr import simulate_path, solve
from _support import HARD_CASES, scalar_spec
a, b, q, beta = HARD_CASES["hard2"]
spec = scalar_spec(beta=beta, a=a, b=b, q=q, a_yz=1.0, a_zz=0.5)
reg, aug, _, system = solve(spec)
print(simulate_path(system, spec, reg, aug, 10_000).loss.hex())
"""


def test_loss_bits_do_not_depend_on_blas_threads():
    # OpenBLAS threads a dot product above 10,000 elements: a loss summed by
    # BLAS took its last bit from the thread count (hard2, horizon 10,000)
    paths = [Path(auglqr.__file__).resolve().parent.parent, Path(__file__).resolve().parent]
    losses = set()
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(map(str, paths)),
        )
        result = subprocess.run(
            [sys.executable, "-c", HARD2_LOSS_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        losses.add(result.stdout.strip())
    assert len(losses) == 1, losses


def loop_state_path(transition, start, horizon, drive=None):
    """The loop ``state_path`` replaced: a fresh vector, and one step, per period."""
    states = np.empty((horizon, len(start)))
    state = np.asarray(start, dtype=float)
    for t in range(horizon):
        states[t] = state
        state = transition @ state
        if drive is not None:
            state += drive[t]
    return states


def dot_state_path(transition, start, horizon, drive=None):
    """state_path's arithmetic with no stop: one np.dot into every row, then
    np.add of its drive.

    It is the sign reference: the loop's ``@`` sums from +0.0, so where
    np.dot returns -0.0 (-0.5 times 5e-324) the loop has +0.0.
    """
    states = np.empty((horizon, len(start)))
    states[0] = start
    for t in range(1, horizon):
        np.dot(transition, states[t - 1], out=states[t])
        if drive is not None:
            np.add(states[t], drive[t - 1], out=states[t])
    return states


def same_rows_as_loop(transition, start, horizon, drive=None):
    """state_path's rows, after checking them against the loop's values (nan
    where it has nan) and, bit for bit, against dot_state_path's: the sign
    of every zero and the payload of every nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        old = loop_state_path(transition, start, horizon, drive)
        bits = dot_state_path(transition, start, horizon, drive)
        new = state_path(transition, start, horizon, drive)
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(bits))
    assert new.tobytes() == bits.tobytes()
    return new


class TestStatePathMatchesLoop:
    """The in-place recurrence does the loop's arithmetic: the same values,
    and the same bits as the np.dot reference."""

    @pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
    @pytest.mark.parametrize("horizon", [1, 2, 500])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_rows_bit_identical(self, n, horizon, driven):
        rng = np.random.default_rng(100 * n + horizon)
        transition = rng.normal(size=(n, n))
        transition *= 0.97 / max(1e-12, np.max(np.abs(np.linalg.eigvals(transition))))
        start = rng.normal(size=n)
        drive = rng.normal(size=(horizon, n)) if driven else None
        states = same_rows_as_loop(transition, start, horizon, drive)
        assert states.shape == (horizon, n)

    def test_driven_zero_signs(self):
        # (-0.5)^t reaches 0 at t = 1,075, then np.dot and a -0.0 drive
        # alternate -0.0 and +0.0; the loop's @ sums from +0.0 and stays +0.0
        horizon = 1_100
        drive = np.full((horizon, 1), -0.0)
        states = same_rows_as_loop(np.array([[-0.5]]), np.array([1.0]), horizon, drive)
        assert not states[-2:].any()
        assert np.signbit(states[-2, 0]) != np.signbit(states[-1, 0])

    @pytest.mark.parametrize("shocked", [False, True], ids=["deterministic", "shocks"])
    def test_overflow_at_the_loop_period(self, shocked):
        spec = scalar_spec(beta=0.95, a=0.5, a_yz=1.0, a_zz=0.5)
        reg, aug, anchored, _ = solve(spec)
        runaway = ClosedLoopSystem(
            T_cl=np.array([[1e30, -3e29], [2e29, 7e29]]),
            impulse_loading=np.array([[0.0], [1.0]]),
            state0=np.array([1.0, -2.0]),
        )
        horizon = 40
        shocks = np.random.default_rng(3).normal(size=(horizon, 1)) if shocked else None
        drive = None if shocks is None else shocks @ runaway.impulse_loading.T
        states = same_rows_as_loop(runaway.T_cl, runaway.state0, horizon, drive)
        first = int(np.argmax(~np.isfinite(states).all(axis=1)))
        assert 0 < first < horizon - 1
        with pytest.raises(DivergenceError, match=rf"overflowed at t = {first}$"):
            simulate_path(runaway, spec, reg, aug, horizon, shocks)


@pytest.fixture
def dot_calls(monkeypatch):
    """The number of np.dot calls made so far (state_path steps with np.dot)."""
    calls = [0]
    original = np.dot

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "dot", counted)
    return calls


def first_repeat(states):
    """The first t whose row equals row t - 1 bit for bit, or None."""
    for t in range(1, len(states)):
        if states[t].tobytes() == states[t - 1].tobytes():
            return t
    return None


def shift(m):
    """The m x m nilpotent shift: from e_0 the path reaches zero at row m and
    first repeats a row at m + 1."""
    return np.eye(m, k=-1)


class TestSettlingPathMatchesLoop:
    """An undriven path stops stepping at its bitwise fixed point, and every
    row it copies from there is the row the loop computes."""

    @pytest.mark.parametrize("n", [1, 2, 6, 40, 90])
    def test_zero_fixed_point(self, n):
        rng = np.random.default_rng(n)
        transition = rng.normal(size=(n, n))
        transition *= 0.5 / spectral_radius(transition)
        states = same_rows_as_loop(transition, rng.normal(size=n), 3000)
        settled = first_repeat(states)
        assert settled is not None and settled < 1200
        assert not states[-1].any()

    def test_negative_zero_fixed_point(self):
        states = same_rows_as_loop(np.array([[0.5]]), np.array([-1.0]), 3000)
        assert first_repeat(states) < 1200
        assert states[-1, 0] == 0.0 and np.signbit(states[-1, 0])

    def test_subnormal_fixed_point(self, back_solved):
        _, _, _, _, system = back_solved
        states = same_rows_as_loop(system.T_cl, system.state0, 10_000)
        settled = first_repeat(states)
        assert settled is not None and settled < 9_000
        assert states[-1, 0] == 0.0 and 0.0 < states[-1, 1] < 2.3e-308
        scalar = same_rows_as_loop(np.array([[0.9]]), np.array([1.0]), 10_000)
        assert 0.0 < scalar[-1, 0] < 2.3e-308 and first_repeat(scalar) is not None

    @pytest.mark.parametrize(
        "a, tiny, horizon",
        [(-0.9, 2.5e-323, 8000), (-0.5, 0.0, 3000)],
        ids=["subnormals", "zeros"],
    )
    def test_sign_flipping_cycle_runs_to_the_end(self, dot_calls, a, tiny, horizon):
        # -0.9 ends in the 2-cycle +-5 ulp; -0.5 in the 2-cycle +-0.0, rows
        # that compare equal with == but are not the same bits
        states = same_rows_as_loop(np.array([[a]]), np.array([1.0]), horizon)
        dot_calls[0] = 0
        state_path(np.array([[a]]), np.array([1.0]), horizon)
        assert dot_calls[0] == horizon - 1
        assert first_repeat(states) is None
        assert np.abs(states[-2:, 0]).tolist() == [tiny, tiny]
        assert np.signbit(states[-2, 0]) != np.signbit(states[-1, 0])

    @pytest.mark.parametrize(
        "transition, start",
        [([[1e300]], [1.0]), ([[1e300, -1e300], [1e300, -1e300]], [1.0, 0.5])],
        ids=["inf", "nan"],
    )
    def test_non_finite_fixed_point(self, transition, start):
        states = same_rows_as_loop(np.array(transition), np.array(start), 500)
        assert first_repeat(states) < 5
        assert not np.isfinite(states[-1]).any()

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    @pytest.mark.parametrize("size", [-2, -1, 0, _SETTLE_CHUNK - 1])
    def test_fixed_point_at_a_chunk_boundary(self, dot_calls, size, offset):
        m = _SETTLE_CHUNK + size  # the first repeat is row m + 1
        start = np.eye(m)[0]
        full = same_rows_as_loop(shift(m), start, 3 * _SETTLE_CHUNK)
        assert first_repeat(full) == m + 1
        dot_calls[0] = 0
        state_path(shift(m), start, 3 * _SETTLE_CHUNK)
        # stepped to the end of the chunk that holds the first repeat, no further
        assert dot_calls[0] == -(-(m + 1) // _SETTLE_CHUNK) * _SETTLE_CHUNK
        # horizons that end just before, at and just after the first repeat
        states = same_rows_as_loop(shift(m), start, m + 1 + offset)
        assert np.array_equal(states, full[: m + 1 + offset])

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_horizon_ending_at_the_settle_row(self, back_solved, offset):
        _, _, _, _, system = back_solved
        full = state_path(system.T_cl, system.state0, 10_000)
        horizon = first_repeat(full) + offset
        states = same_rows_as_loop(system.T_cl, system.state0, horizon)
        assert np.array_equal(states, full[:horizon])

    def test_golden_irf_stops_at_its_fixed_point(self, golden_solved, dot_calls):
        spec, reg, aug, _, system = golden_solved
        traj = irf(system, spec, reg, aug, 10_000, 0)  # np.dot runs in state_path only
        assert dot_calls[0] <= 1_076 + _SETTLE_CHUNK
        assert not traj.y[1_076:].any() and not traj.z[1_076:].any()

    @pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
    def test_path_that_never_settles_steps_every_period(self, dot_calls, driven):
        # the simulate-long benchmark's forcing radius: 0.999^t stays normal
        transition = np.array([[0.5, 1.0], [0.0, 0.999]])
        drive = np.zeros((10_000, 2)) if driven else None
        states = state_path(transition, np.array([0.0, 1.0]), 10_000, drive)
        assert dot_calls[0] == 10_000 - 1
        assert first_repeat(states) is None


def rel_gap(value, ref) -> float:
    """max |value - ref| over max |ref|; the raw gap when ref is all zero."""
    scale = float(np.max(np.abs(ref), initial=0.0))
    gap = float(np.max(np.abs(value - ref), initial=0.0))
    return gap / scale if scale > 0 else gap


class TestBatchedPathMatchesLoop:
    """The batched path against the plain per-period loop of tests/_support."""

    @pytest.mark.parametrize("shocked", [False, True], ids=["deterministic", "shocks"])
    @pytest.mark.parametrize("horizon", [1, 2, 500])
    @pytest.mark.parametrize(
        "dims",
        [(1, 0, 1, 1), (0, 2, 2, 1), (3, 1, 0, 2), (2, 2, 2, 2), (4, 2, 3, 2), (10, 10, 10, 5)],
        ids=lambda d: "x".join(map(str, d)),
    )
    def test_paths_and_loss(self, dims, horizon, shocked):
        rng = np.random.default_rng(sum(dims) * 1000 + horizon)
        spec = random_stabilizable_model(rng, *dims, 0.97)
        reg, aug, anchored, system = solve(spec)
        shocks = rng.normal(size=(horizon, spec.dims.n_z)) if shocked else None
        traj = simulate_path(system, spec, reg, aug, horizon, shocks)
        y, z, u, mu, loss = reference_path(system, spec, reg, aug, horizon, shocks)
        paths = {"y": (traj.y, y), "z": (traj.z, z), "u": (traj.u, u), "mu": (traj.mu, mu)}
        for name, (value, ref) in paths.items():
            assert value.shape == ref.shape, name
            assert rel_gap(value, ref) <= 1e-12, name
        assert rel_gap(np.array(traj.loss), np.array(loss)) <= 1e-12


def weighted_loss_matrix(spec, reg, aug):
    """Qbar = [[Q_yy, Q_yz], [Q_yz', 0]] + G' R G with G = [F_y F_z]."""
    n_z = spec.dims.n_z
    gains = np.hstack([reg.F_y, aug.F_z])
    weights = np.block([[spec.Q_yy, spec.Q_yz], [spec.Q_yz.T, np.zeros((n_z, n_z))]])
    return weights + gains.T @ spec.R @ gains


def long_sum_tail(system, spec, reg, aug, horizon, shocks=None, extra=3000):
    """The tail as a difference of two truncated sums: the loss over
    ``horizon + extra`` periods, with no shocks after ``horizon``, less the
    loss over ``horizon``."""
    long_shocks = None
    if shocks is not None:
        long_shocks = np.zeros((horizon + extra, spec.dims.n_z))
        long_shocks[:horizon] = shocks
    long = simulate_path(system, spec, reg, aug, horizon + extra, long_shocks)
    return long.loss - simulate_path(system, spec, reg, aug, horizon, shocks).loss


class TestExactTail:
    """``truncation_bound`` is the exact discounted loss beyond the horizon."""

    def test_golden_horizon_one(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        traj = simulate_path(system, spec, reg, aug, 1)
        assert traj.truncation_bound == pytest.approx(0.166149063331, rel=1e-11)
        assert traj.loss + traj.truncation_bound == pytest.approx(GOLDEN_LOSS, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_value_matrix_matches_lyapunov(self, seed):
        rng = np.random.default_rng(300 + seed)
        dims = [(1, 1, 1, 1), (2, 1, 2, 1), (4, 2, 3, 2)][seed % 3]
        spec = random_stabilizable_model(rng, *dims, 0.97)
        spec = replace(spec, Q_yz=0.3 * rng.normal(size=spec.Q_yz.shape))
        reg, aug, anchored, system = solve(spec)
        q_bar = weighted_loss_matrix(spec, reg, aug)
        w_ref = scipy.linalg.solve_discrete_lyapunov(
            np.sqrt(spec.beta) * system.T_cl.T, q_bar
        )
        w, _, _ = stein(system.T_cl.T, system.T_cl, q_bar, spec.beta)
        assert rel_gap(w, w_ref) <= 1e-10
        # at the optimal F_y the y-blocks are the value matrices of the solve
        n_y = spec.dims.n_y
        assert rel_gap(w[:n_y, :n_y], reg.P_y) <= 1e-10
        assert rel_gap(w[:n_y, n_y:], aug.P_z) <= 1e-10

        horizon = 3
        traj = simulate_path(system, spec, reg, aug, horizon)
        s_end = system.T_cl @ np.concatenate([traj.y[-1], traj.z[-1]])
        expected = 0.5 * spec.beta**horizon * (s_end @ w_ref @ s_end)
        assert traj.truncation_bound == pytest.approx(expected, rel=1e-10, abs=1e-14)

    def test_perturbed_gain_tail_is_the_long_sum(self, back_solved):
        # W_yy = P_y holds only at the optimal F_y; the tail must not lean on it
        spec, reg, aug, anchored, _ = back_solved
        pushed = replace(reg, F_y=reg.F_y + 0.05)
        system = build_closed_loop(spec, pushed, aug, anchored)
        tail = simulate_path(system, spec, pushed, aug, 5).truncation_bound
        assert tail == pytest.approx(0.179713840422, rel=1e-11)
        long = simulate_path(system, spec, pushed, aug, 5000).loss
        assert tail == pytest.approx(long - simulate_path(system, spec, pushed, aug, 5).loss, rel=1e-12)

    def test_last_shock_enters_the_tail(self, golden_solved):
        # shocks[H-1] moves s_H but no state on the path: the tail alone carries it
        spec, reg, aug, anchored, system = golden_solved
        zero_start = replace(system, state0=np.zeros(2))
        shocks = np.zeros((4, 1))
        shocks[-1, 0] = 1.0
        traj = simulate_path(zero_start, spec, reg, aug, 4, shocks)
        assert traj.loss == 0.0
        assert traj.truncation_bound > 0.0
        expected = long_sum_tail(zero_start, spec, reg, aug, 4, shocks)
        assert traj.truncation_bound == pytest.approx(expected, rel=1e-12)

    def test_random_shocks_tail_is_the_long_sum(self):
        rng = np.random.default_rng(71)
        spec = random_stabilizable_model(rng, 2, 1, 2, 1, 0.95)
        reg, aug, anchored, system = solve(spec)
        shocks = rng.normal(size=(7, 2))
        tail = simulate_path(system, spec, reg, aug, 7, shocks).truncation_bound
        assert tail == pytest.approx(long_sum_tail(system, spec, reg, aug, 7, shocks), rel=1e-11)

    @pytest.mark.parametrize("seed", range(8))
    def test_nonnegative_without_cross_weight(self, seed):
        rng = np.random.default_rng(400 + seed)
        spec = random_stabilizable_model(rng, 2, 1, 2, 2, 0.96)
        spec = replace(spec, Q_yz=np.zeros_like(spec.Q_yz))
        reg, aug, anchored, system = solve(spec)
        shocks = rng.normal(size=(2, 2)) if seed % 2 else None
        assert simulate_path(system, spec, reg, aug, 2, shocks).truncation_bound >= 0.0

    def test_cross_weight_can_make_it_negative(self):
        # Q = [[1, -1], [-1, 0]] is indefinite: the loss still to come is negative
        spec = scalar_spec(beta=0.95, a=0.5, a_yz=1.0, a_zz=0.9, q_yz=-1.0, forward=False)
        reg, aug, anchored, system = solve(spec)
        tail = simulate_path(system, spec, reg, aug, 1).truncation_bound
        assert tail < -1.0
        assert tail == pytest.approx(long_sum_tail(system, spec, reg, aug, 1), rel=1e-12)


class TestImpulseResponse:
    def test_golden_impact_instrument(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        traj = irf(system, spec, reg, aug, 5, 0)
        # F_y x0 + F_z * 1 collapses to the anchored x0 value itself
        assert traj.u[0, 0] == pytest.approx(GOLDEN_X0, abs=1e-9)
        assert traj.z[0, 0] == 1.0
        assert traj.y[0, 0] == pytest.approx(GOLDEN_X0, abs=1e-9)

    def test_decoupled_second_shock_stays_zero(self):
        rng = np.random.default_rng(61)
        spec = random_stabilizable_model(rng, 0, 1, 2, 1, 0.98)
        spec = replace(spec, A_zz=np.diag([0.5, 0.3]))
        reg, aug, anchored, system = solve(spec)
        traj = irf(system, spec, reg, aug, 20, 0)
        assert np.array_equal(traj.z[:, 1], np.zeros(20))

    def test_zero_coupling_means_zero_response(self):
        spec = scalar_spec(beta=0.96, a=0.6, a_yz=0.0, a_zz=0.5, q_yz=0.0)
        reg, aug, anchored, system = solve(spec)
        traj = irf(system, spec, reg, aug, 20, 0)
        assert np.array_equal(traj.y, np.zeros((20, 1)))
        assert np.array_equal(traj.u, np.zeros((20, 1)))
        assert traj.z[:, 0] == pytest.approx(0.5 ** np.arange(20), abs=1e-12)

    def test_shock_index_validated(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        with pytest.raises(ValueError, match="out of range"):
            irf(system, spec, reg, aug, 10, 1)
        with pytest.raises(ValueError, match="out of range"):
            irf(system, spec, reg, aug, 10, -1)
