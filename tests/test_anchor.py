from dataclasses import replace

import numpy as np
import pytest

from auglqr import (
    SingularMatrixError,
    anchor_x0,
    solve_riccati,
    solve_sylvester,
)
from auglqr.kernel import inf_norm

from _support import GOLDEN_X0, grid_search_x0, random_stabilizable_model, scalar_spec


def solved(spec):
    reg = solve_riccati(spec)
    aug = solve_sylvester(spec, reg)
    return reg, aug


def test_homogeneous_case_is_zero():
    spec = scalar_spec(beta=0.99, a=0.8, a_yz=1.0, a_zz=0.5, z0=0.0)
    reg, aug = solved(spec)
    anchored = anchor_x0(spec, reg, aug)
    assert np.array_equal(anchored.x0, [0.0])
    assert np.array_equal(anchored.mu0, [0.0])


def test_golden_anchor(golden_solved):
    spec, reg, aug, anchored, _ = golden_solved
    assert anchored.x0[0] == pytest.approx(GOLDEN_X0, abs=1e-9)
    assert anchored.y0 == pytest.approx(anchored.x0)  # n_k = 0
    # multipliers evaluated at date 0; the forward component must vanish
    assert np.array_equal(anchored.mu0, reg.P_y @ anchored.y0 + aug.P_z @ spec.z0)
    tol = 1e-9 * (1.0 + inf_norm(reg.P_y) * inf_norm(anchored.y0))
    assert abs(anchored.mu0[-1]) <= tol


def test_no_forcing_zero_k0_gives_zero():
    spec = scalar_spec(beta=1.0, a=1.0)  # forward scalar, no z
    reg, aug = solved(spec)
    anchored = anchor_x0(spec, reg, aug)
    assert np.array_equal(anchored.x0, [0.0])


def test_backward_only_model_has_empty_x0(back_solved):
    spec, reg, aug, anchored, _ = back_solved
    assert anchored.x0.shape == (0,)
    assert np.array_equal(anchored.y0, spec.k0)
    assert anchored.mu0.shape == (1,)


def test_block_residual_identity():
    rng = np.random.default_rng(47)
    for _ in range(5):
        spec = random_stabilizable_model(rng, 2, 2, 1, 2, 0.97)
        reg, aug = solved(spec)
        anchored = anchor_x0(spec, reg, aug)
        n_k = spec.dims.n_k
        res = (
            reg.P_y[n_k:, :n_k] @ spec.k0
            + reg.P_y[n_k:, n_k:] @ anchored.x0
            + aug.P_z[n_k:, :] @ spec.z0
        )
        assert np.max(np.abs(res)) <= 1e-9 * (1.0 + inf_norm(reg.P_y))
        tol = 1e-9 * (1.0 + inf_norm(reg.P_y) * inf_norm(anchored.y0))
        assert np.max(np.abs(anchored.mu0[n_k:])) <= tol


def test_grid_search_confirms_anchor(golden_solved):
    spec, reg, aug, anchored, _ = golden_solved
    best = grid_search_x0(spec, reg, aug, spec.z0, spec.k0, 200, (-1.0, 0.0, 1e-4))
    assert abs(best - anchored.x0[0]) <= 1e-4


def test_loss_is_parabola_with_vertex_at_anchor(golden_solved):
    # simulated loss as a function of x0, gains fixed: quadratic with the
    # anchored x0 at the vertex
    spec, reg, aug, anchored, _ = golden_solved
    span = np.linspace(anchored.x0[0] - 0.1, anchored.x0[0] + 0.1, 2001)
    best = grid_search_x0(spec, reg, aug, spec.z0, spec.k0, 300, span)
    assert abs(best - anchored.x0[0]) <= (span[1] - span[0]) + 1e-12


def test_custom_initial_conditions():
    spec = scalar_spec(beta=0.97, a=0.7, a_yz=0.5, a_zz=0.4, z0=1.0)
    reg, aug = solved(spec)
    base = anchor_x0(spec, reg, aug)
    flipped = anchor_x0(spec, reg, aug, z0=[-1.0])
    assert flipped.x0[0] == pytest.approx(-base.x0[0], abs=1e-12)
    with pytest.raises(ValueError, match="z0"):
        anchor_x0(spec, reg, aug, z0=[1.0, 2.0])
    with pytest.raises(ValueError, match="k0"):
        anchor_x0(spec, reg, aug, k0=[1.0])


def test_singular_forward_block_is_hard_error():
    # A = 0 makes P = Q, and a zero forward diagonal leaves x0 undetermined
    spec = replace(
        random_stabilizable_model(np.random.default_rng(53), 1, 1, 0, 1, 1.0),
        A_yy=np.zeros((2, 2)),
        Q_yy=np.diag([1.0, 0.0]),
    )
    reg = solve_riccati(spec)
    aug = solve_sylvester(spec, reg)
    with pytest.raises(SingularMatrixError, match="forward block"):
        anchor_x0(spec, reg, aug)
