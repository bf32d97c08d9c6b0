from dataclasses import replace

import numpy as np
import pytest

from auglqr import (
    DimensionError,
    SingularMatrixError,
    simulate_path,
    solve,
    to_var,
    var_simulate_check,
)

from _support import (
    GOLDEN_ABAR,
    GOLDEN_F_Y,
    GOLDEN_F_Z,
    assert_spectra_match,
    random_stabilizable_model,
    scalar_spec,
)


class TestToVar:
    def test_golden_basis_change(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        rep = to_var(spec, reg, aug, system)
        expected_m_inv = np.array([[1.0, 0.0], [GOLDEN_F_Y, GOLDEN_F_Z]])
        assert rep.M_inv == pytest.approx(expected_m_inv, abs=1e-9)
        assert rep.M @ rep.M_inv == pytest.approx(np.eye(2), abs=1e-10)
        assert_spectra_match(rep.T_var, np.diag([GOLDEN_ABAR, 0.5]), 1e-9)

    def test_spectrum_matches_closed_loop(self, back_solved):
        spec, reg, aug, anchored, system = back_solved
        rep = to_var(spec, reg, aug, system)
        assert_spectra_match(rep.T_var, system.T_cl, 1e-8)

    def test_rectangular_f_z_rejected(self):
        rng = np.random.default_rng(67)
        spec = random_stabilizable_model(rng, 0, 1, 2, 1, 0.98)
        reg, aug, anchored, system = solve(spec)
        with pytest.raises(DimensionError, match="F_z not square"):
            to_var(spec, reg, aug, system)

    def test_singular_f_z_rejected(self):
        # zero coupling forces F_z = 0, which cannot be inverted
        spec = scalar_spec(beta=0.95, a=0.5, a_yz=0.0, a_zz=0.5, q_yz=0.0)
        reg, aug, anchored, system = solve(spec)
        with pytest.raises(SingularMatrixError, match="ill-conditioned"):
            to_var(spec, reg, aug, system)

    def test_zero_feedback_block_structure(self):
        # A_yy = 0 gives F_y = 0; the change of basis then block-decouples:
        # u_{t+1} = F_z A_zz F_z^{-1} u_t
        spec = scalar_spec(beta=0.98, a=0.0, a_yz=1.0, a_zz=0.5)
        reg, aug, anchored, system = solve(spec)
        rep = to_var(spec, reg, aug, system)
        f_z = aug.F_z[0, 0]
        assert rep.T_var[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert rep.T_var[1, 1] == pytest.approx(f_z * 0.5 / f_z, abs=1e-12)
        assert rep.T_var[0, 1] == pytest.approx(
            (spec.A_yz[0, 0] + spec.B_y[0, 0] * f_z) / f_z, abs=1e-12
        )

    def test_z_recovery_round_trip(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        rep = to_var(spec, reg, aug, system)
        traj = simulate_path(system, spec, reg, aug, 50)
        from_y, from_u = rep.z_from_y, rep.z_from_u
        z_rec = traj.y @ from_y.T + traj.u @ from_u.T
        assert np.max(np.abs(z_rec - traj.z)) <= 1e-10
        u_again = traj.y @ reg.F_y.T + z_rec @ aug.F_z.T
        assert np.max(np.abs(u_again - traj.u)) <= 1e-10


class TestVarSimulateCheck:
    def test_golden_deviation_small(self, golden_solved):
        spec, reg, aug, anchored, system = golden_solved
        rep = to_var(spec, reg, aug, system)
        assert var_simulate_check(rep, system, spec, reg, aug, 100) <= 1e-8

    def test_zero_state_no_shocks_exact(self):
        spec = scalar_spec(beta=0.97, a=0.6, a_yz=1.0, a_zz=0.5, z0=0.0)
        reg, aug, anchored, system = solve(spec)
        rep = to_var(spec, reg, aug, system)
        assert var_simulate_check(rep, system, spec, reg, aug, 20) == 0.0

    def test_random_model_with_shocks(self):
        rng = np.random.default_rng(71)
        spec = random_stabilizable_model(rng, 1, 1, 2, 2, 0.97)
        reg, aug, anchored, system = solve(spec)
        rep = to_var(spec, reg, aug, system)
        shocks = rng.normal(size=(100, 2))
        assert var_simulate_check(rep, system, spec, reg, aug, 100, shocks) <= 1e-7

    def test_wrong_representation_detected(self):
        rng = np.random.default_rng(71)
        spec = random_stabilizable_model(rng, 1, 1, 2, 2, 0.97)
        reg, aug, anchored, system = solve(spec)
        rep = to_var(spec, reg, aug, system)
        shocks = rng.normal(size=(100, 2))
        bent = replace(rep, T_var=rep.T_var + 1e-3)
        assert var_simulate_check(bent, system, spec, reg, aug, 100) > 1e-6
        misloaded = replace(rep, shock_loading_var=2.0 * rep.shock_loading_var)
        assert var_simulate_check(misloaded, system, spec, reg, aug, 100) <= 1e-7
        assert var_simulate_check(misloaded, system, spec, reg, aug, 100, shocks) > 1e-3
