import importlib
import pkgutil
import warnings
from dataclasses import FrozenInstanceError, dataclass, fields, is_dataclass

import numpy as np
import pytest

import auglqr
from auglqr import DimensionError, DivergenceError, SingularMatrixError, kernel
from auglqr.augmented import solve_sylvester
from auglqr.regulator import solve_riccati

from _support import load_fixture, random_stabilizable_model


class TestEigenvalues:
    def test_one_by_one(self):
        assert kernel.eigenvalues([[0.5]]) == pytest.approx([0.5])

    def test_rotation_matrix(self):
        eig = sorted(kernel.eigenvalues([[0.0, 1.0], [-1.0, 0.0]]), key=lambda v: v.imag)
        assert eig[0] == pytest.approx(-1j, abs=1e-12)
        assert eig[1] == pytest.approx(1j, abs=1e-12)

    def test_symmetric_two_by_two(self):
        eig = sorted(kernel.eigenvalues([[2.0, 1.0], [1.0, 2.0]]), key=lambda v: v.real)
        assert eig == pytest.approx([1.0, 3.0])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            kernel.eigenvalues(np.ones((2, 3)))

    def test_transpose_has_same_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            a = np.sort_complex(kernel.eigenvalues(m))
            b = np.sort_complex(kernel.eigenvalues(m.T))
            assert np.allclose(a, b, atol=1e-10)

    def test_empty(self):
        assert kernel.eigenvalues(np.zeros((0, 0))).size == 0


class TestRank:
    def test_identity(self):
        assert kernel.rank(np.eye(3)) == 3

    def test_proportional_rows(self):
        assert kernel.rank([[1.0, 2.0], [2.0, 4.0]]) == 1

    def test_zero_matrix(self):
        assert kernel.rank(np.zeros((3, 3))) == 0

    def test_rank_equals_rank_of_transpose(self):
        rng = np.random.default_rng(11)
        for cols in (2, 4, 6):
            m = rng.normal(size=(4, cols))
            assert kernel.rank(m) == kernel.rank(m.T)

    def test_complex_input_keeps_imaginary_part(self):
        # rows that are complex multiples of each other: rank 1
        assert kernel.rank([[1.0, 1j], [1j, -1.0]]) == 1
        assert kernel.rank([[1.0, 1j], [-1j, 1.0]]) == 1
        assert kernel.rank([[1.0, 1j], [1j, 1.0]]) == 2


def through_solve(a):
    """The inverse of a as kernel.solve_linear returns it: a solve against I."""
    return kernel.solve_linear(a, np.eye(np.shape(a)[0]))


#: the two gated routes to an inverse; each gate case runs through both
GATED = (kernel.inverse, through_solve)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(kernel.solve_linear(np.eye(2), b), b)

    def test_diagonal(self):
        x = kernel.solve_linear([[2.0, 0.0], [0.0, 4.0]], [[2.0], [8.0]])
        assert x == pytest.approx(np.array([[1.0], [2.0]]))

    def test_zero_matrix_singular(self):
        for route in GATED:
            with pytest.raises(SingularMatrixError, match="reciprocal condition|singular"):
                route(np.zeros((2, 2)))

    def test_ill_conditioned_unit_pivots_rejected(self):
        # unit upper triangular, -1 above the diagonal: every LU pivot is 1,
        # but the 1-norm condition number is about 3.5e19
        a = np.eye(60) - np.triu(np.ones((60, 60)), 1)
        for route in GATED:
            with pytest.raises(SingularMatrixError, match="reciprocal condition"):
                route(a)

    def test_badly_scaled_diagonal_accepted(self):
        # condition number 1e12, reciprocal 1e-12: above the 1e-13 threshold
        for route in GATED:
            x = route(np.diag([1e8, 1e-4])) @ np.array([1e8, 1e-4])
            assert x == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_recovers_solution_up_to_20x20(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 12, 20):
            a = rng.normal(size=(n, n)) + n * np.eye(n)  # diagonally dominant
            x0 = rng.normal(size=(n, 3))
            x = kernel.solve_linear(a, a @ x0)
            assert np.max(np.abs(x - x0)) <= 1e-8 * max(1.0, np.max(np.abs(x0)))

    def test_vector_rhs(self):
        x = kernel.solve_linear([[2.0]], np.array([4.0]))
        assert x.shape == (1,)
        assert x[0] == pytest.approx(2.0)

    def test_shape_errors(self):
        for route in GATED:
            with pytest.raises(DimensionError, match="must be square"):
                route(np.ones((2, 3)))
        with pytest.raises(DimensionError, match="right-hand side has 3 rows"):
            kernel.solve_linear(np.eye(2), np.ones((3, 1)))

    def test_empty(self):
        assert kernel.inverse(np.zeros((0, 0))).shape == (0, 0)
        assert kernel.solve_linear(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)
        assert kernel.solve_linear(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_rcond_is_the_one_of_the_transposed_norms(self):
        # the gate reads column sums directly; it must decide, and print,
        # the rcond that 1 / (||a'||_inf ||inv(a)'||_inf) gives
        rng = np.random.default_rng(23)
        for n in (2, 3, 9, 33):
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = u @ np.diag(np.logspace(0, -15, n)) @ u.T
            inv = np.linalg.inv(a)
            rcond = 1.0 / (method_inf_norm(a.T) * method_inf_norm(inv.T))
            for route in GATED:
                with pytest.raises(
                    SingularMatrixError, match=f"reciprocal condition {rcond:.3e}"
                ):
                    route(a)


def method_inf_norm(m):
    """The infinity norm through the ndarray methods inf_norm used to call."""
    return float(np.abs(m).sum(axis=1).max()) if m.size else 0.0


def test_inf_norm():
    assert kernel.inf_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0
    assert kernel.inf_norm(np.array([1.0, -5.0])) == 5.0
    assert kernel.inf_norm(np.zeros((0, 2))) == 0.0


def test_inf_norm_unchanged():
    rng = np.random.default_rng(29)
    for shape in [(1, 1), (3, 3), (2, 7), (40, 40), (130, 17)]:
        for m in (rng.normal(size=shape), rng.lognormal(10.0, 8.0, size=shape)):
            assert kernel.inf_norm(m) == method_inf_norm(m)
            assert kernel.inf_norm(m.T) == method_inf_norm(m.T)


def kronecker_stein(m, n, c, beta):
    """Dense solve of X = C + b M X N: (I - b N' kron M) vec(X) = vec(C)."""
    p, q = c.shape
    lhs = np.eye(p * q) - beta * np.kron(n.T, m)
    return np.linalg.solve(lhs, c.flatten(order="F")).reshape((p, q), order="F")


def with_radius(rng, size, radius):
    m = rng.normal(size=(size, size))
    return m * (radius / np.max(np.abs(np.linalg.eigvals(m))))


def loop_sylvester(spec, reg):
    """The Smith doubling solve_sylvester ran inline before kernel.stein:
    (P_z, iterations, residual), the residual taken through the scaled
    factors sqrt(b) Abar' and sqrt(b) A_zz the doubling starts from."""
    abar = spec.A_yy + spec.B_y @ reg.F_y
    root = np.sqrt(spec.beta)
    c = spec.Q_yz + spec.beta * (abar.T @ reg.P_y @ spec.A_yz)
    m_s, n_s = root * abar.T, root * spec.A_zz
    p_z, m_k, n_k = c, m_s, n_s
    for iteration in range(1, kernel.MAX_ITER + 1):
        step = m_k @ p_z @ n_k
        p_z = p_z + step
        if kernel.inf_norm(step) <= kernel.DEFAULT_TOL * (1.0 + kernel.inf_norm(p_z)):
            break
        m_k, n_k = m_k @ m_k, n_k @ n_k
    return p_z, iteration, kernel.inf_norm(p_z - (c + m_s @ p_z @ n_s))


def iterates(x, steps, drawn=None):
    """(X, step) pairs for kernel.converge: a fixed 1x1 X, the given step
    values, then step 1.0 forever; ``drawn`` counts the pairs taken."""
    values = iter(steps)
    while True:
        if drawn is not None:
            drawn.append(1)
        yield np.array([[x]]), np.array([[next(values, 1.0)]])


@pytest.mark.parametrize("name", ["Riccati", "Stein"])
class TestConverge:
    def test_stops_at_the_first_step_within_tol(self, name):
        # tol (1 + ||X||) = 2e-12 and the rule is inclusive
        drawn = []
        x, steps, scale = kernel.converge(
            iterates(1.0, [1.0, 1e-3, 2e-12], drawn), name, 1e-12
        )
        assert (x.tolist(), steps, scale, len(drawn)) == ([[1.0]], 3, 1.0, 3)

    def test_cap_draws_max_iter_steps(self, name):
        drawn = []
        with pytest.raises(
            DivergenceError,
            match=rf"^{name} iteration did not converge within 100 iterations"
            r" \(last step 1\.000e\+00\)$",
        ):
            kernel.converge(iterates(1.0, [], drawn), name)
        assert len(drawn) == kernel.MAX_ITER

    @pytest.mark.parametrize(
        "x, step, message",
        [
            (1.0, 1e300 * 1e300, r"step inf"),
            (1.0, np.inf - np.inf, r"step nan"),
            (2e100, 1.0, r"step 1\.000e\+00"),
        ],
        ids=["overflow", "invalid", "blowup"],
    )
    def test_divergence_names_the_step(self, name, x, step, message):
        expected = rf"^{name} iteration diverged at iteration 1 \({message}\)$"
        with pytest.raises(DivergenceError, match=expected):
            kernel.converge(iterates(x, [step]), name)

    def test_steps_run_without_numpy_warnings(self, name):
        def overflowing():
            big = np.array([[1e200]])
            while True:
                big = big @ big  # overflows at the first step, invalid at the next
                yield big, big - big

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"diverged at iteration 1 \(step nan\)$"):
                kernel.converge(overflowing(), name)


class TestStein:
    @pytest.mark.parametrize("p, q", [(1, 1), (3, 3), (6, 2), (2, 7)])
    @pytest.mark.parametrize("beta", [0.5, 0.95, 1.0])
    def test_matches_dense_kronecker_solve(self, p, q, beta):
        rng = np.random.default_rng(10 * p + q)
        m = with_radius(rng, p, 0.9)
        n = with_radius(rng, q, 0.8)
        c = rng.normal(size=(p, q))
        x, steps, residual = kernel.stein(m, n, c, beta)
        ref = kronecker_stein(m, n, c, beta)
        assert x.shape == (p, q)
        assert np.max(np.abs(x - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))
        assert 1 <= steps < kernel.MAX_ITER
        assert residual <= 1e-11 * max(1.0, kernel.inf_norm(x))

    def test_residual_is_the_recomputed_one(self):
        rng = np.random.default_rng(5)
        m, n = with_radius(rng, 4, 0.95), with_radius(rng, 3, 0.9)
        c = rng.normal(size=(4, 3))
        x, _, residual = kernel.stein(m, n, c, 0.97)
        root = np.sqrt(0.97)
        assert residual == kernel.inf_norm(x - (c + (root * m) @ x @ (root * n)))

    def test_residual_of_a_huge_m_and_a_tiny_beta_is_finite(self):
        # b M X N = 1e-100 * 1e300 * 1e9 * 1e-260 = 1e-51, but M X alone is
        # 1e309: the residual must be formed from sqrt(b) M and sqrt(b) N
        m = np.array([[0.0, 1e300], [0.0, 0.0]])
        c = np.array([[0.0], [1e9]])
        x, _, residual = kernel.stein(m, np.array([[1e-260]]), c, 1e-100)
        assert x[:, 0].tolist() == pytest.approx([1e-51, 1e9], rel=1e-12)
        assert residual == 0.0

    @pytest.mark.parametrize(
        "m, n, beta, message",
        [
            (1.2 * np.eye(2), np.eye(1), 1.0, r"diverged at iteration 11 \(step 7\.281e\+162\)"),
            # X doubles each step and stays far below BLOWUP: the step cap stops it
            (np.eye(2), np.eye(1), 1.0, r"did not converge within 100 iterations"
             r" \(last step 6\.338e\+29\)"),
            (np.array([[1.5]]), np.array([[1.5]]), 0.5,
             r"diverged at iteration 11 \(step 4\.607e\+105\)"),
        ],
        ids=["explosive", "unit", "beta-scaled"],
    )
    def test_divergence_when_product_of_radii_reaches_one(self, m, n, beta, message):
        radius = kernel.spectral_radius(m) * kernel.spectral_radius(n) * beta
        assert radius >= 1.0
        c = np.ones((m.shape[0], n.shape[0]))
        with pytest.raises(DivergenceError, match=f"^Stein iteration {message}$"):
            kernel.stein(m, n, c, beta)

    def test_wrong_fixed_point_is_rejected(self):
        # sqrt(b) M has eigenvalue -1: the doubling sums C - C and then
        # stands still at X = 0, a residual of ||C||; the solution is C / 2
        with pytest.raises(
            DivergenceError,
            match=r"^Stein iteration stopped at a wrong solution after 2 iterations"
            r" \(residual 1\.000e\+00\)$",
        ):
            kernel.stein(-np.eye(1), np.eye(1), np.ones((1, 1)), 1.0)

    def test_overflowing_powers_raise_without_a_warning(self):
        # rho product 1 through 2 * 0.5: M_k = diag(2, 0.1)^(2^k) overflows
        # while X grows only linearly
        m, n = np.diag([2.0, 0.1]), np.array([[0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="^Stein iteration diverged at iteration"):
                kernel.stein(m, n, np.ones((2, 1)), 1.0)

    def test_residual_gate_passes_every_fixture_solve(self):
        specs = [load_fixture("golden.json"), load_fixture("back.json")] + [
            random_stabilizable_model(np.random.default_rng(seed), *dims, 0.999)
            for seed, dims in enumerate([(2, 2, 2, 2), (4, 2, 3, 2), (10, 10, 10, 5)])
        ]
        for spec in specs:
            reg = solve_riccati(spec)
            aug = solve_sylvester(spec, reg)
            c = spec.Q_yz + spec.beta * (reg.A_cl.T @ reg.P_y @ spec.A_yz)
            scale = kernel.inf_norm(c) + kernel.inf_norm(aug.P_z)
            assert aug.residual <= 1e-13 * max(scale, 1.0)

    def test_solve_sylvester_unchanged(self):
        rng = np.random.default_rng(17)
        specs = [load_fixture("golden.json"), load_fixture("back.json")] + [
            random_stabilizable_model(rng, *dims, beta)
            for dims, beta in [((1, 1, 1, 1), 0.9), ((4, 2, 3, 2), 0.97), ((10, 10, 10, 5), 0.99)]
        ]
        for spec in specs:
            reg = solve_riccati(spec)
            aug = solve_sylvester(spec, reg)
            p_z, iterations, residual = loop_sylvester(spec, reg)
            assert np.array_equal(aug.P_z, p_z)
            assert (aug.iterations, aug.residual) == (iterations, residual)


class TestFrozen:
    def test_construction_freezes_fields_and_bases(self):
        class Box(kernel.Frozen):
            view: np.ndarray
            loose: np.ndarray
            note: str

        base = np.zeros((3, 2))
        loose = np.ones(2)
        box = Box(view=base[:, 0], loose=loose, note="x")
        assert is_dataclass(box) and [f.name for f in fields(box)] == ["view", "loose", "note"]
        assert not box.view.flags.writeable
        assert not base.flags.writeable
        assert not loose.flags.writeable
        assert box != Box(view=box.view, loose=loose, note="x")  # identity equality
        with pytest.raises(FrozenInstanceError):
            box.note = "y"

    def test_a_subclass_is_not_declared_twice(self):
        with pytest.raises(TypeError, match="Cannot overwrite attribute __setattr__"):

            @dataclass(frozen=True, eq=False)
            class Box(kernel.Frozen):
                note: str

    def test_every_array_container_uses_the_rule(self):
        modules = [
            importlib.import_module(f"auglqr.{info.name}")
            for info in pkgutil.iter_modules(auglqr.__path__)
        ]
        holders = {
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type)
            and is_dataclass(obj)
            and obj.__module__ == module.__name__
            and any("ndarray" in str(f.type) for f in fields(obj))
        }
        assert {cls.__name__ for cls in holders} == {
            "AnchoredState",
            "AugmentedSolution",
            "CheckReport",
            "ClosedLoopSystem",
            "FiniteHorizonSolution",
            "ModelSpec",
            "RegulatorSolution",
            "Trajectory",
            "VarRepresentation",
        }
        for cls in holders:
            assert issubclass(cls, kernel.Frozen), cls.__name__

    def test_model_copies_before_freezing(self):
        a_yy = np.array([[0.5]])
        spec = auglqr.ModelSpec(
            dims=auglqr.Dims(n_k=1, n_x=0, n_z=0, n_u=1),
            beta=0.99,
            A_yy=a_yy,
            A_yz=np.zeros((1, 0)),
            A_zz=np.zeros((0, 0)),
            B_y=[[1.0]],
            Q_yy=[[1.0]],
            Q_yz=[],
            R=[[1.0]],
            k0=[1.0],
            z0=[],
        )
        assert a_yy.flags.writeable
        assert not spec.A_yy.flags.writeable
        assert not spec.Q_yz.flags.writeable and spec.Q_yz.shape == (1, 0)
