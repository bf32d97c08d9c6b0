from dataclasses import replace

import numpy as np
import pytest

from auglqr import DivergenceError, Dims, ModelSpec, run_checks, solve_riccati

from _support import load_fixture, scalar_spec


def pair_spec(a_yy, b_y):
    n_y, n_u = np.shape(b_y)
    return ModelSpec(
        dims=Dims(n_k=n_y, n_x=0, n_z=0, n_u=n_u),
        beta=1.0,
        A_yy=a_yy,
        A_yz=np.zeros((n_y, 0)),
        A_zz=np.zeros((0, 0)),
        B_y=b_y,
        Q_yy=np.eye(n_y),
        Q_yz=np.zeros((n_y, 0)),
        R=np.eye(n_u),
        k0=np.zeros(n_y),
        z0=[],
    )


def chain_spec():
    # the mode 1.5 lies outside the unit circle, so the PBH gate has a rank to take
    return pair_spec([[1.5, 1.0], [0.0, 0.0]], [[0.0], [1.0]])


class TestRunChecks:
    def test_controllable_and_stable(self):
        report = run_checks(scalar_spec(beta=1.0, a=1.0, b=1.0, a_yz=0.0, a_zz=0.5))
        assert report.controllable
        assert report.controllability_rank == report.required_rank == 1
        assert report.forcing_stable
        assert report.forcing_spectral_radius == pytest.approx(0.5)
        assert report.ok
        assert report.failures() == []

    def test_zero_b_not_controllable(self):
        report = run_checks(load_fixture("uncontrollable.json"))
        assert not report.controllable
        assert report.controllability_rank == 0
        assert "controllability rank 0 < 1" in report.failures()[0]

    def test_explosive_forcing_detected(self):
        report = run_checks(load_fixture("explosive_forcing.json"))
        assert report.controllable
        assert not report.forcing_stable
        # 1/sqrt(0.81) = 10/9 < 1.2
        assert report.threshold == pytest.approx(10.0 / 9.0, abs=1e-12)
        assert report.forcing_spectral_radius == pytest.approx(1.2)

    def test_similarity_transform_leaves_verdict_unchanged(self):
        rng = np.random.default_rng(23)
        base = scalar_spec(beta=0.9, a=0.5, b=1.0, a_yz=1.0, a_zz=0.95)
        # embed the forcing block in 2 dimensions and conjugate it
        for _ in range(5):
            s = rng.normal(size=(2, 2)) + 3 * np.eye(2)
            a_zz = np.diag([0.95, 0.3])
            conj = s @ a_zz @ np.linalg.inv(s)
            spec = ModelSpec(
                dims=Dims(n_k=0, n_x=1, n_z=2, n_u=1),
                beta=0.9,
                A_yy=[[0.5]],
                A_yz=[[1.0, 0.0]],
                A_zz=conj,
                B_y=[[1.0]],
                Q_yy=[[1.0]],
                Q_yz=np.zeros((1, 2)),
                R=[[1.0]],
                k0=[],
                z0=[0.0, 0.0],
            )
            report = run_checks(spec)
            direct = run_checks(replace(spec, A_zz=a_zz))
            assert report.forcing_stable == direct.forcing_stable
            assert report.forcing_spectral_radius == pytest.approx(
                direct.forcing_spectral_radius, abs=1e-8
            )

    def test_duplicated_input_column_keeps_rank(self):
        spec = chain_spec()
        wider = replace(
            spec,
            dims=replace(spec.dims, n_u=2),
            B_y=np.hstack([spec.B_y, spec.B_y[:, :1]]),
            R=np.eye(2),
        )
        assert (
            run_checks(wider).controllability_rank
            == run_checks(spec).controllability_rank
        )

    @pytest.mark.parametrize(
        "a_yy, b_y, stabilizable",
        [
            # the uncontrollable mode 0.5 is stable
            ([[0.5, 0.0], [0.0, 2.0]], [[0.0], [1.0]], True),
            # the uncontrollable mode 2 is unstable
            ([[2.0, 0.0], [0.0, 0.5]], [[0.0], [1.0]], False),
            # a controllable complex pair of modulus 1.44
            ([[1.2, -0.8], [0.8, 1.2]], [[1.0], [0.0]], True),
        ],
    )
    def test_verdict_matches_riccati_solvability(self, a_yy, b_y, stabilizable):
        spec = pair_spec(a_yy, b_y)
        report = run_checks(spec)
        assert report.controllable == stabilizable
        assert report.controllability_rank == (2 if stabilizable else 1)
        if stabilizable:
            reg = solve_riccati(spec)
            assert np.max(np.abs(np.linalg.eigvals(spec.A_yy + spec.B_y @ reg.F_y))) < 1.0
        else:
            with pytest.raises(DivergenceError):
                solve_riccati(spec)

    def test_no_forcing_block_is_vacuously_stable(self):
        report = run_checks(scalar_spec(beta=0.99))
        assert report.forcing_stable
        assert report.forcing_spectral_radius == 0.0
        assert report.eigenvalues_zz.size == 0
