from dataclasses import replace

import numpy as np
import pytest

from auglqr import Dims, ModelSpec, solve_riccati, solve_sylvester
from auglqr.kernel import inf_norm
from auglqr.model import symmetrize

from _support import (
    GOLDEN_F_Z,
    GOLDEN_P_Z,
    PHI,
    dense_stein_solution,
    random_stabilizable_model,
    scalar_spec,
)


def forcing_pair(spec):
    reg = solve_riccati(spec)
    return reg, solve_sylvester(spec, reg)


def s_matrix(spec, reg):
    """S = R + b B' P_y B, the matrix both gains invert."""
    return symmetrize(spec.R + spec.beta * (spec.B_y.T @ reg.P_y @ spec.B_y))


def feedforward(spec, reg, p_z):
    """-S^{-1} b B' (P_y A_yz + P_z A_zz) by an LU solve, not the carried inverse."""
    w = spec.beta * (spec.B_y.T @ (reg.P_y @ spec.A_yz + p_z @ spec.A_zz))
    return -np.linalg.solve(s_matrix(spec, reg), w)


def sylvester_gap(spec, reg, aug):
    abar = spec.A_yy + spec.B_y @ reg.F_y
    target = (
        spec.Q_yz
        + spec.beta * (abar.T @ reg.P_y @ spec.A_yz)
        + spec.beta * (abar.T @ aug.P_z @ spec.A_zz)
    )
    return inf_norm(aug.P_z - target)


class TestSolveSylvester:
    def test_zero_coupling_gives_zero(self):
        spec = scalar_spec(beta=0.95, a=0.5, a_yz=0.0, a_zz=0.5, q_yz=0.0)
        reg, aug = forcing_pair(spec)
        assert np.array_equal(aug.P_z, [[0.0]])
        assert np.array_equal(aug.F_z, [[0.0]])

    def test_golden_closed_form(self, golden_solved):
        _, _, aug, _, _ = golden_solved
        assert aug.P_z[0, 0] == pytest.approx(GOLDEN_P_Z, abs=1e-9)
        assert aug.F_z[0, 0] == pytest.approx(GOLDEN_F_Z, abs=1e-9)
        assert aug.iterations >= 1

    def test_residual_invariant(self, golden_solved, back_solved):
        for spec, reg, aug, _, _ in (golden_solved, back_solved):
            gap = sylvester_gap(spec, reg, aug)
            assert gap <= 1e-10 * (1.0 + inf_norm(aug.P_z))
            assert aug.residual <= 1e-10 * (1.0 + inf_norm(aug.P_z))

    def test_matches_dense_reference(self, golden_spec, back_spec):
        rng = np.random.default_rng(41)
        model = random_stabilizable_model(rng, 1, 1, 2, 2, 0.97)
        persistent = random_stabilizable_model(rng, 2, 1, 2, 1, 0.99)
        radius = np.max(np.abs(np.linalg.eigvals(persistent.A_zz)))
        persistent = replace(persistent, A_zz=persistent.A_zz * 0.999 / radius)
        unforced = random_stabilizable_model(rng, 2, 1, 0, 1, 0.95)
        for spec in (golden_spec, back_spec, model, persistent, unforced):
            reg, aug = forcing_pair(spec)
            p_ref = dense_stein_solution(spec, reg)
            f_ref = feedforward(spec, reg, p_ref)
            assert aug.P_z.shape == p_ref.shape
            assert inf_norm(aug.P_z - p_ref) <= 1e-9 * (1.0 + inf_norm(p_ref))
            assert inf_norm(aug.F_z - f_ref) <= 1e-9 * (1.0 + inf_norm(f_ref))

    def test_diagonal_forcing_decouples_into_scalar_solves(self):
        # scalar y, two independent forcing variables: each column of P_z
        # solves its own scalar equation
        a_zz = np.diag([0.5, 0.3])
        spec = ModelSpec(
            dims=Dims(n_k=0, n_x=1, n_z=2, n_u=1),
            beta=0.98,
            A_yy=[[0.9]],
            A_yz=[[1.0, -0.7]],
            A_zz=a_zz,
            B_y=[[1.0]],
            Q_yy=[[1.0]],
            Q_yz=[[0.1, 0.3]],
            R=[[1.0]],
            k0=[],
            z0=[1.0, 0.0],
        )
        reg, aug = forcing_pair(spec)
        abar = (spec.A_yy + spec.B_y @ reg.F_y)[0, 0]
        p_y = reg.P_y[0, 0]
        for j in range(2):
            expected = (
                spec.Q_yz[0, j] + spec.beta * abar * p_y * spec.A_yz[0, j]
            ) / (1.0 - spec.beta * abar * a_zz[j, j])
            assert aug.P_z[0, j] == pytest.approx(expected, abs=1e-12)

    def test_linearity_in_coupling(self, golden_spec):
        reg = solve_riccati(golden_spec)
        base = solve_sylvester(golden_spec, reg)
        doubled_spec = replace(
            golden_spec, A_yz=2.0 * golden_spec.A_yz, Q_yz=2.0 * golden_spec.Q_yz
        )
        doubled = solve_sylvester(doubled_spec, reg)
        assert inf_norm(doubled.P_z - 2.0 * base.P_z) <= 1e-9 * (1 + inf_norm(base.P_z))

    def test_certainty_equivalence_bit_identical(self, back_spec):
        reg = solve_riccati(back_spec)
        base = solve_sylvester(back_spec, reg)
        moved = solve_sylvester(replace(back_spec, k0=[5.0], z0=[-2.0]), reg)
        assert np.array_equal(base.P_z, moved.P_z)
        assert np.array_equal(base.F_z, moved.F_z)

    def test_no_forcing_returns_empty(self):
        spec = scalar_spec(beta=0.99, a=0.5)
        reg, aug = forcing_pair(spec)
        assert aug.P_z.shape == (1, 0)
        assert aug.F_z.shape == (1, 0)
        assert aug.residual == 0.0


class TestFeedforwardGain:
    """F_z reuses the S^{-1} the Riccati step carries as ``reg.S_inv``."""

    def test_zero_when_uncoupled(self):
        spec = scalar_spec(beta=0.95, a=0.5, a_yz=0.0, a_zz=0.5)
        reg = solve_riccati(spec)
        w = spec.beta * (spec.B_y.T @ (reg.P_y @ spec.A_yz))  # P_z = 0
        assert np.array_equal(-(reg.S_inv @ w), [[0.0]])

    def test_golden_value(self, golden_solved):
        spec, reg, aug, _, _ = golden_solved
        # S = r + b p b = 1 + PHI
        assert reg.S_inv[0, 0] == pytest.approx(1.0 / (1.0 + PHI), abs=1e-12)
        w = spec.beta * (spec.B_y.T @ (reg.P_y @ spec.A_yz + aug.P_z @ spec.A_zz))
        f_z = -(reg.S_inv @ w)
        assert np.array_equal(aug.F_z, f_z)
        assert f_z[0, 0] == pytest.approx(GOLDEN_F_Z, abs=1e-9)

    def test_shapes(self):
        rng = np.random.default_rng(43)
        model = random_stabilizable_model(rng, 2, 1, 2, 2, 0.95)
        reg, aug = forcing_pair(model)
        assert reg.S_inv.shape == (2, 2)
        assert aug.F_z.shape == (2, 2)

    def test_carried_inverse_is_the_inverse_of_s(self, golden_spec, back_spec):
        rng = np.random.default_rng(47)
        models = [golden_spec, back_spec] + [
            random_stabilizable_model(rng, *dims, 0.99)
            for dims in [(2, 1, 2, 2), (4, 2, 3, 2), (3, 0, 0, 1)]
        ]
        for spec in models:
            reg, aug = forcing_pair(spec)
            assert np.array_equal(reg.S_inv, np.linalg.inv(s_matrix(spec, reg)))
            assert not reg.S_inv.flags.writeable
            w = spec.beta * (spec.B_y.T @ reg.P_y @ spec.A_yy)
            assert np.array_equal(reg.F_y, -(reg.S_inv @ w))
            assert inf_norm(aug.F_z - feedforward(spec, reg, aug.P_z)) <= 1e-12 * (
                1.0 + inf_norm(aug.F_z)
            )
