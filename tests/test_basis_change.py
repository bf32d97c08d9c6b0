"""Changes of basis and of scale that leave the Ramsey problem unchanged.

Renaming the instruments or the forcing variables by an invertible matrix,
or scaling the loss by a positive number, is the same policy problem, so the
solution moves by exact relations that need no second solver:

- inputs, u = T_u v (B -> B T_u, R -> T_u' R T_u): P_y, P_z and x0 are
  unchanged, and F -> T_u^-1 F;
- forcing, z = T_z z~ (A_yz -> A_yz T_z, A_zz -> T_z^-1 A_zz T_z,
  Q_yz -> Q_yz T_z, z0 -> T_z^-1 z0): P_z -> P_z T_z, F_z -> F_z T_z, and
  P_y and x0 are unchanged;
- scale, (Q_yy, Q_yz, R) -> c (Q_yy, Q_yz, R): P_y -> c P_y, P_z -> c P_z,
  and F_y, F_z and x0 are unchanged;
- state, y = T y~ with T = blockdiag(T_k, T_x) (A_yy -> T^-1 A_yy T,
  A_yz -> T^-1 A_yz, B_y -> T^-1 B_y, Q_yy -> T' Q_yy T, Q_yz -> T' Q_yz,
  k0 -> T_k^-1 k0): P_y -> T' P_y T, P_z -> T' P_z, F_y -> F_y T, F_z is
  unchanged and x0 -> T_x^-1 x0.  With n_x > 1 it is the one relation that
  sees the anchor read the wrong rows of P_z or mix k with x.

T is drawn as U diag(s) V' with U, V orthogonal and s in [0.5, 2], so its
condition number is at most 4.  Over 1,500 seeded draws the worst relative
gap was 6e-14 (x0 under the input change); ``TOL`` leaves a margin above it.
c is drawn as exp(U(-4, 4)); over 300 seeded draws the worst scale gap was
3.4e-14 (x0), and a power of two for c gave every result bit for bit.  Over
400 draws of ``draws`` the worst state gap was 5.6e-14 (F_y).
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from auglqr import solve, validate

from _support import random_stabilizable_model

TOL = 1e-12

draws = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(0, 3),  # n_k
    st.integers(1, 3),  # n_x
    st.integers(1, 3),  # n_z
    st.integers(1, 3),  # n_u
    st.floats(0.9, 1.0),  # beta
)


def rel_gap(value, ref) -> float:
    """max |value - ref| over max |ref|; the raw gap when ref is all zero."""
    scale = float(np.max(np.abs(ref), initial=0.0))
    gap = float(np.max(np.abs(value - ref), initial=0.0))
    return gap / scale if scale > 0 else gap


def basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """A nonsymmetric invertible n x n matrix with singular values in [0.5, 2]."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * rng.uniform(0.5, 2.0, size=n)) @ v.T


def drawn_model(draw):
    """The drawn model, and the generator that drew it for further draws."""
    seed, n_k, n_x, n_z, n_u, beta = draw
    rng = np.random.default_rng(seed)
    return random_stabilizable_model(rng, n_k, n_x, n_z, n_u, beta), rng


def model_and_basis(draw, size):
    spec, rng = drawn_model(draw)
    return spec, basis(rng, size(spec.dims))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(draws)
def test_input_basis_change(draw):
    spec, t_u = model_and_basis(draw, lambda dims: dims.n_u)
    moved = replace(spec, B_y=spec.B_y @ t_u, R=t_u.T @ spec.R @ t_u)
    assert validate(moved).is_valid
    reg, aug, anchored, _ = solve(spec)
    reg2, aug2, anchored2, _ = solve(moved)
    assert rel_gap(reg2.P_y, reg.P_y) <= TOL
    assert rel_gap(aug2.P_z, aug.P_z) <= TOL
    assert rel_gap(anchored2.x0, anchored.x0) <= TOL
    assert rel_gap(reg2.F_y, np.linalg.solve(t_u, reg.F_y)) <= TOL
    assert rel_gap(aug2.F_z, np.linalg.solve(t_u, aug.F_z)) <= TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(draws)
def test_forcing_basis_change(draw):
    spec, t_z = model_and_basis(draw, lambda dims: dims.n_z)
    moved = replace(
        spec,
        A_yz=spec.A_yz @ t_z,
        A_zz=np.linalg.solve(t_z, spec.A_zz @ t_z),
        Q_yz=spec.Q_yz @ t_z,
        z0=np.linalg.solve(t_z, spec.z0),
    )
    assert validate(moved).is_valid
    reg, aug, anchored, _ = solve(spec)
    reg2, aug2, anchored2, _ = solve(moved)
    assert rel_gap(reg2.P_y, reg.P_y) <= TOL
    assert rel_gap(aug2.P_z, aug.P_z @ t_z) <= TOL
    assert rel_gap(aug2.F_z, aug.F_z @ t_z) <= TOL
    assert rel_gap(anchored2.x0, anchored.x0) <= TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(draws)
def test_loss_scaling(draw):
    spec, rng = drawn_model(draw)
    c = float(np.exp(rng.uniform(-4.0, 4.0)))
    moved = replace(spec, Q_yy=c * spec.Q_yy, Q_yz=c * spec.Q_yz, R=c * spec.R)
    assert validate(moved).is_valid
    reg, aug, anchored, _ = solve(spec)
    reg2, aug2, anchored2, _ = solve(moved)
    assert rel_gap(reg2.P_y, c * reg.P_y) <= TOL
    assert rel_gap(aug2.P_z, c * aug.P_z) <= TOL
    assert rel_gap(reg2.F_y, reg.F_y) <= TOL
    assert rel_gap(aug2.F_z, aug.F_z) <= TOL
    assert rel_gap(anchored2.x0, anchored.x0) <= TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(draws)
def test_state_basis_change(draw):
    spec, rng = drawn_model(draw)
    n_k = spec.dims.n_k
    t_k, t_x = basis(rng, n_k), basis(rng, spec.dims.n_x)
    t = np.zeros((spec.dims.n_y, spec.dims.n_y))
    t[:n_k, :n_k], t[n_k:, n_k:] = t_k, t_x
    moved = replace(
        spec,
        A_yy=np.linalg.solve(t, spec.A_yy @ t),
        A_yz=np.linalg.solve(t, spec.A_yz),
        B_y=np.linalg.solve(t, spec.B_y),
        Q_yy=t.T @ spec.Q_yy @ t,
        Q_yz=t.T @ spec.Q_yz,
        k0=np.linalg.solve(t_k, spec.k0),
    )
    assert validate(moved).is_valid
    reg, aug, anchored, _ = solve(spec)
    reg2, aug2, anchored2, _ = solve(moved)
    assert rel_gap(reg2.P_y, t.T @ reg.P_y @ t) <= TOL
    assert rel_gap(aug2.P_z, t.T @ aug.P_z) <= TOL
    assert rel_gap(reg2.F_y, reg.F_y @ t) <= TOL
    assert rel_gap(aug2.F_z, aug.F_z) <= TOL
    assert rel_gap(anchored2.x0, np.linalg.solve(t_x, anchored.x0)) <= TOL
