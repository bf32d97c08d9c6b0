import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from auglqr import DivergenceError, riccati_rhs, run_checks, solve_riccati
from auglqr.kernel import inf_norm, spectral_radius
from auglqr.model import symmetrize

from _support import (
    BACK_F_Y,
    BACK_P_Y,
    GOLDEN_F_Y,
    GOLDEN_P_Y,
    HARD_CASES,
    load_fixture,
    random_stabilizable_model,
    scalar_riccati_root,
    scalar_spec,
    single_input_model,
)


def _adversarial_model(name):
    if name in HARD_CASES:
        a, b, q, beta = HARD_CASES[name]
        return scalar_spec(beta=beta, a=a, b=b, q=q)
    # "single-input-<n_y>" or "single-input-<n_y>@<spectral radius of A_yy>"
    size, _, radius = name.removeprefix("single-input-").partition("@")
    n_y = int(size)
    return single_input_model(np.random.default_rng(n_y), n_y, float(radius or 0.97))


class TestRiccatiRhs:
    def test_zero_transition_returns_q(self):
        spec = scalar_spec(a=0.0, q=2.5)
        for p in ([[0.0]], [[3.0]], [[100.0]]):
            assert np.array_equal(riccati_rhs(np.array(p), spec), [[2.5]])

    def test_scalar_arithmetic(self):
        spec = scalar_spec(beta=1.0, a=1.0, b=1.0, q=1.0, r=1.0)
        out = riccati_rhs(np.array([[1.0]]), spec)
        # 1 + 1 - 1/(1+1)
        assert out[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_golden_fixed_point(self, golden_spec):
        p = np.array([[GOLDEN_P_Y]])
        assert riccati_rhs(p, golden_spec)[0, 0] == pytest.approx(GOLDEN_P_Y, abs=1e-9)

    def test_output_exactly_symmetric(self, back_spec):
        rng = np.random.default_rng(2)
        model = random_stabilizable_model(rng, 2, 1, 0, 1, 0.95)
        p = symmetrize(rng.normal(size=(3, 3)))
        p = p @ p.T  # PSD
        out = riccati_rhs(p, model)
        assert np.array_equal(out, out.T)


class TestSolveRiccati:
    def test_golden_closed_form(self, golden_spec):
        reg = solve_riccati(golden_spec)
        assert reg.P_y[0, 0] == pytest.approx(GOLDEN_P_Y, abs=1e-9)
        assert reg.F_y[0, 0] == pytest.approx(GOLDEN_F_Y, abs=1e-9)
        assert reg.residual <= 1e-12 * (1.0 + inf_norm(reg.P_y))
        assert reg.residual == inf_norm(riccati_rhs(reg.P_y, golden_spec) - reg.P_y)
        assert reg.iterations >= 1

    def test_zero_transition(self):
        spec = scalar_spec(a=0.0, q=3.0, r=2.0)
        reg = solve_riccati(spec)
        assert np.array_equal(reg.P_y, [[3.0]])
        assert np.array_equal(reg.F_y, [[0.0]])

    def test_back_matches_scalar_quadratic(self, back_spec):
        reg = solve_riccati(back_spec)
        root = scalar_riccati_root(0.99, 0.9, 1.0, 1.0, 1.0)
        assert reg.P_y[0, 0] == pytest.approx(root, abs=1e-9)
        assert reg.P_y[0, 0] == pytest.approx(BACK_P_Y, abs=1e-9)
        assert reg.F_y[0, 0] == pytest.approx(BACK_F_Y, abs=1e-9)

    def test_scalar_quadratic_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = scalar_spec(
                beta=rng.uniform(0.8, 1.0),
                a=rng.uniform(-1.2, 1.2),
                b=rng.uniform(0.5, 2.0),
                q=rng.uniform(0.1, 3.0),
                r=rng.uniform(0.1, 3.0),
            )
            reg = solve_riccati(spec)
            root = scalar_riccati_root(
                spec.beta, spec.A_yy[0, 0], spec.B_y[0, 0], spec.Q_yy[0, 0], spec.R[0, 0]
            )
            assert reg.P_y[0, 0] == pytest.approx(root, abs=1e-9 * (1 + root))

    def test_fixed_point_property(self, golden_spec, back_spec):
        for spec in (golden_spec, back_spec):
            reg = solve_riccati(spec)
            gap = inf_norm(reg.P_y - riccati_rhs(reg.P_y, spec))
            assert gap <= 1e-12 * (1.0 + inf_norm(reg.P_y))

    def test_certainty_equivalence_bit_identical(self, back_spec):
        base = solve_riccati(back_spec)
        moved = solve_riccati(replace(back_spec, k0=[17.0], z0=[-3.0]))
        assert np.array_equal(base.P_y, moved.P_y)
        assert np.array_equal(base.F_y, moved.F_y)

    def test_iterates_stay_symmetric_psd(self, back_spec):
        p = symmetrize(back_spec.Q_yy)
        for _ in range(50):
            p = riccati_rhs(p, back_spec)
            assert np.array_equal(p, p.T)
            floor = -1e-10 * max(1.0, inf_norm(p))
            assert np.linalg.eigvalsh(p).min() >= floor

    def test_closed_loop_stable(self, golden_spec, back_spec):
        for spec in (golden_spec, back_spec):
            reg = solve_riccati(spec)
            radius = spectral_radius(spec.A_yy + spec.B_y @ reg.F_y)
            assert radius < 1.0 / math.sqrt(spec.beta) - 1e-9

    def test_discounted_equals_rescaled_route(self):
        rng = np.random.default_rng(29)
        model = random_stabilizable_model(rng, 2, 1, 0, 2, 0.95)
        direct = solve_riccati(model)
        s = math.sqrt(model.beta)
        scaled_model = replace(model, beta=1.0, A_yy=s * model.A_yy, B_y=s * model.B_y)
        indirect = solve_riccati(scaled_model)
        scale = 1.0 + inf_norm(direct.P_y)
        assert inf_norm(direct.P_y - indirect.P_y) <= 1e-12 * scale
        assert inf_norm(direct.F_y - indirect.F_y) <= 1e-12 * scale

    def test_agrees_with_scipy_dare(self):
        rng = np.random.default_rng(31)
        model = random_stabilizable_model(rng, 2, 1, 0, 2, 0.97)
        reg = solve_riccati(model)
        s = math.sqrt(model.beta)
        p_ref = scipy.linalg.solve_discrete_are(
            s * model.A_yy, s * model.B_y, symmetrize(model.Q_yy), symmetrize(model.R)
        )
        assert inf_norm(reg.P_y - p_ref) <= 1e-8 * (1.0 + inf_norm(p_ref))

    @pytest.mark.parametrize(
        "name",
        [
            *HARD_CASES,
            "single-input-60",
            "single-input-100",
            "single-input-60@1.1",
            "single-input-100@1.1",
        ],
    )
    def test_adversarial_models_match_dare_in_few_steps(self, name):
        spec = _adversarial_model(name)
        assert run_checks(spec).ok
        reg = solve_riccati(spec)
        assert reg.iterations <= 40
        s = math.sqrt(spec.beta)
        p_ref = scipy.linalg.solve_discrete_are(
            s * spec.A_yy, s * spec.B_y, symmetrize(spec.Q_yy), symmetrize(spec.R)
        )
        assert inf_norm(reg.P_y - p_ref) <= 1e-10 * inf_norm(p_ref)

    def test_marginal_uncontrolled_mode_fails_fast(self):
        # B = 0 and sqrt(beta) a = 1: the value grows without bound, one
        # doubling of the horizon per step, and never blows up to BLOWUP
        beta = 0.9
        spec = scalar_spec(beta=beta, a=1.0 / math.sqrt(beta), b=0.0)
        start = time.perf_counter()
        with pytest.raises(DivergenceError, match="did not converge"):
            solve_riccati(spec)
        assert time.perf_counter() - start < 1.0

    def test_divergence_reported(self):
        spec = load_fixture("uncontrollable.json")  # B = 0, |A| > 1
        with pytest.raises(DivergenceError) as err:
            solve_riccati(spec)
        assert err.value.residual is not None

    def test_iteration_cap(self, back_spec):
        with pytest.raises(DivergenceError, match="did not converge"):
            solve_riccati(back_spec, max_iter=2)

    def test_loose_tolerance_converges_faster(self, back_spec):
        tight = solve_riccati(back_spec, tol=1e-13)
        loose = solve_riccati(back_spec, tol=1e-6)
        assert loose.iterations < tight.iterations

    def test_solution_arrays_frozen(self, golden_spec):
        reg = solve_riccati(golden_spec)
        assert not reg.P_y.flags.writeable
        assert not reg.F_y.flags.writeable
