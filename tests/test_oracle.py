import tracemalloc

import numpy as np
import pytest

from auglqr import (
    anchor_x0,
    backward_induction,
    solve_riccati,
    solve_sylvester,
)
from auglqr.kernel import inf_norm
from auglqr.model import symmetrize

from _support import (
    GOLDEN_F_Y,
    GOLDEN_X0,
    backward_periods,
    backward_step,
    grid_search_x0,
    random_stabilizable_model,
    scalar_spec,
    single_input_model,
)


def test_terminal_conditions(back_spec, golden_spec):
    # the horizon-1 answer is one step from P_y(1) = Q_yy, P_z(1) = Q_yz
    drawn = random_stabilizable_model(np.random.default_rng(4), 2, 1, 2, 2, 0.95)
    for spec in (back_spec, golden_spec, drawn):
        sol = backward_induction(spec, 1)
        step = backward_step(spec, symmetrize(spec.Q_yy), spec.Q_yz)
        for got, want in zip((sol.P_y, sol.P_z, sol.F_y, sol.F_z), step):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("horizon", [1, 3, 50])
def test_date_zero_of_the_per_period_loop(back_spec, horizon):
    # P_z(t) must be formed from P_y(t+1), before P_y(t) replaces it
    spec = random_stabilizable_model(np.random.default_rng(horizon), 2, 2, 2, 1, 0.99)
    for model in (back_spec, spec):
        sol = backward_induction(model, horizon)
        first = backward_periods(model, horizon)[0]
        for got, want in zip((sol.P_y, sol.P_z, sol.F_y, sol.F_z), first):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("horizon", [1, 50])
def test_one_inverse_per_period(golden_spec, back_spec, inv_calls, horizon):
    # S(t) serves both F_y(t) and F_z(t)
    for spec in (golden_spec, back_spec):
        inv_calls.clear()
        backward_induction(spec, horizon)
        assert len(inv_calls) == horizon


def test_single_step_zero_transition():
    spec = scalar_spec(beta=0.9, a=0.0, q=2.0)
    sol = backward_induction(spec, 1)
    assert np.array_equal(sol.P_y, [[2.0]])
    assert sol.P_z.shape == sol.F_z.shape == (1, 0)  # no forcing: empty P_z and F_z
    assert np.array_equal(sol.F_y, [[0.0]])


def test_golden_gain_converges(golden_spec):
    sol = backward_induction(golden_spec, 500)
    assert abs(sol.F_y[0, 0] - GOLDEN_F_Y) <= 1e-10


def test_back_gains_converged_between_499_and_500(back_spec):
    a = backward_induction(back_spec, 499)
    b = backward_induction(back_spec, 500)
    assert inf_norm(a.F_y - b.F_y) <= 1e-10
    assert inf_norm(a.F_z - b.F_z) <= 1e-10


def test_convergence_to_infinite_horizon_is_monotone(golden_spec, back_spec):
    for spec in (golden_spec, back_spec):
        reg = solve_riccati(spec)
        aug = solve_sylvester(spec, reg)
        errors = []
        for horizon in (25, 50, 100, 200, 400):
            sol = backward_induction(spec, horizon)
            errors.append(
                max(inf_norm(sol.F_y - reg.F_y), inf_norm(sol.F_z - aug.F_z))
            )
        assert all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-8


def test_memory_does_not_grow_with_horizon():
    # two periods of state at any horizon: 400 periods of n_y = 60 value
    # matrices alone would take 11.5 MB
    spec = single_input_model(np.random.default_rng(60), 60)
    peaks = {}
    for horizon in (10, 400):
        tracemalloc.start()
        try:
            backward_induction(spec, horizon)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] <= 2 * peaks[10], peaks


def test_horizon_validated(back_spec):
    with pytest.raises(ValueError, match="horizon"):
        backward_induction(back_spec, 0)


@pytest.fixture(scope="module")
def golden_parts(golden_spec):
    reg = solve_riccati(golden_spec)
    aug = solve_sylvester(golden_spec, reg)
    return golden_spec, reg, aug


class TestGridSearch:
    def test_golden_anchor_found(self, golden_parts):
        spec, reg, aug = golden_parts
        best = grid_search_x0(spec, reg, aug, spec.z0, spec.k0, 200, (-1.0, 0.0, 1e-4))
        assert abs(best - GOLDEN_X0) <= 1e-4

    def test_zero_conditions_give_zero(self, golden_parts):
        spec, reg, aug = golden_parts
        best = grid_search_x0(spec, reg, aug, [0.0], spec.k0, 100, (-0.5, 0.5, 1e-3))
        assert abs(best) <= 1e-3

    def test_flipping_z0_flips_x0(self, golden_parts):
        spec, reg, aug = golden_parts
        grid = (-1.0, 1.0, 1e-3)
        plus = grid_search_x0(spec, reg, aug, [1.0], spec.k0, 150, grid)
        minus = grid_search_x0(spec, reg, aug, [-1.0], spec.k0, 150, grid)
        assert abs(plus + minus) <= 1.5e-3

    def test_explicit_candidate_array(self, golden_parts):
        spec, reg, aug = golden_parts
        anchored = anchor_x0(spec, reg, aug)
        candidates = np.array([-0.9, anchored.x0[0], 0.1])
        best = grid_search_x0(spec, reg, aug, spec.z0, spec.k0, 200, candidates)
        assert best == anchored.x0[0]

    def test_errors(self, golden_parts, back_spec):
        spec, reg, aug = golden_parts
        with pytest.raises(ValueError, match="empty grid"):
            grid_search_x0(spec, reg, aug, spec.z0, spec.k0, 100, np.zeros(0))
        with pytest.raises(ValueError, match="step"):
            grid_search_x0(spec, reg, aug, spec.z0, spec.k0, 100, (-1.0, 0.0, -1e-3))
        reg_b = solve_riccati(back_spec)
        aug_b = solve_sylvester(back_spec, reg_b)
        with pytest.raises(ValueError, match="n_x = 1"):
            grid_search_x0(back_spec, reg_b, aug_b, back_spec.z0, back_spec.k0, 100, (-1, 0, 0.1))
