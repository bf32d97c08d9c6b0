import json
import math
from dataclasses import replace

import numpy as np
import pytest

from auglqr import (
    Dims,
    InvalidModelError,
    ModelFormatError,
    ModelSpec,
    load_model,
    rescale,
    validate,
    variable_names,
)

from _support import MODELS_DIR, save_model, scalar_spec


def two_dim_spec(q_yy, r=None):
    return ModelSpec(
        dims=Dims(n_k=1, n_x=1, n_z=0, n_u=1),
        beta=0.99,
        A_yy=[[0.5, 0.1], [0.0, 0.4]],
        A_yz=np.zeros((2, 0)),
        A_zz=np.zeros((0, 0)),
        B_y=[[1.0], [0.5]],
        Q_yy=q_yy,
        Q_yz=np.zeros((2, 0)),
        R=r if r is not None else [[1.0]],
        k0=[0.0],
        z0=[],
    )


class TestDims:
    def test_n_y(self):
        assert Dims(n_k=2, n_x=3, n_z=1, n_u=1).n_y == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_k=-1, n_x=1, n_z=0, n_u=1),
            dict(n_k=0, n_x=0, n_z=1, n_u=1),  # n_y = 0
            dict(n_k=1, n_x=0, n_z=0, n_u=0),  # no instrument
            dict(n_k=1.5, n_x=0, n_z=0, n_u=1),
        ],
    )
    def test_invalid_counts(self, kwargs):
        with pytest.raises(ValueError):
            Dims(**kwargs)


class TestForcingSpectrum:
    def test_computed_once_and_read_only(self):
        spec = scalar_spec(beta=0.99, a=0.5, a_yz=1.0, a_zz=0.5)
        eig = spec.eigenvalues_zz
        assert eig is spec.eigenvalues_zz
        assert np.array_equal(eig, [0.5 + 0.0j])
        assert not eig.flags.writeable

    def test_replaced_forcing_block_gets_its_own(self):
        spec = scalar_spec(beta=0.99, a=0.5, a_yz=1.0, a_zz=0.5)
        assert spec.eigenvalues_zz.size == 1  # fills the cache
        moved = replace(spec, A_zz=[[0.25]])
        assert np.array_equal(moved.eigenvalues_zz, [0.25 + 0.0j])
        assert scalar_spec(beta=0.99, a=0.5).eigenvalues_zz.size == 0


class TestValidate:
    def test_scalar_spec_is_valid(self):
        report = validate(scalar_spec(beta=0.99))
        assert report.is_valid
        assert report.violations == ()

    def test_zero_r_not_positive_definite(self):
        report = validate(scalar_spec(r=0.0))
        assert any("R not positive definite" in v for v in report.violations)

    def test_asymmetric_q(self):
        report = validate(two_dim_spec([[1.0, 2.0], [0.0, 1.0]]))
        assert any("Q_yy not symmetric" in v for v in report.violations)

    def test_indefinite_q(self):
        report = validate(two_dim_spec([[1.0, 0.0], [0.0, -1.0]]))
        assert any("Q_yy not positive semi-definite" in v for v in report.violations)

    def test_near_symmetric_q_within_tolerance_passes(self):
        report = validate(two_dim_spec([[1.0, 0.5 + 1e-12], [0.5, 1.0]]))
        assert report.is_valid

    def test_non_finite_entry_located(self):
        report = validate(two_dim_spec([[1.0, 0.0], [0.0, np.inf]]))
        assert any("Q_yy has non-finite entry at [1,1]" in v for v in report.violations)

    def test_shape_mismatch_reported(self):
        spec = replace(scalar_spec(), B_y=[[1.0], [1.0]])
        report = validate(spec)
        assert any("B_y has shape (2, 1), expected (1, 1)" in v for v in report.violations)

    def test_initial_condition_length(self):
        spec = replace(scalar_spec(a_zz=0.5, a_yz=1.0), z0=[1.0, 2.0])
        report = validate(spec)
        assert any("z0 has length 2, expected 1" in v for v in report.violations)

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5, math.nan])
    def test_beta_out_of_range(self, beta):
        report = validate(scalar_spec(beta=beta))
        assert any("beta" in v for v in report.violations)

    def test_beta_one_admitted(self):
        assert validate(scalar_spec(beta=1.0)).is_valid

    def test_idempotent_and_side_effect_free(self, golden_spec):
        first = validate(golden_spec)
        second = validate(golden_spec)
        assert first.violations == second.violations
        assert not golden_spec.Q_yy.flags.writeable


class TestRescale:
    def test_valid_spec_returned_unchanged(self, golden_spec):
        assert rescale(golden_spec) is golden_spec

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidModelError) as err:
            rescale(scalar_spec(r=0.0))
        assert any("R not positive definite" in v for v in err.value.report.violations)


class TestModelFile:
    def test_load_golden(self, golden_spec):
        assert golden_spec.beta == 1.0
        assert golden_spec.dims == Dims(n_k=0, n_x=1, n_z=1, n_u=1)
        assert golden_spec.A_zz[0, 0] == 0.5
        assert golden_spec.k0.shape == (0,)
        assert golden_spec.labels == {"k": [], "x": ["x"], "z": ["z"], "u": ["u"]}

    def test_missing_field_named(self):
        document = (MODELS_DIR / "bad_schema.json").read_text()
        with pytest.raises(ModelFormatError, match='"R"'):
            load_model(document)

    def test_ragged_matrix_named(self):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["A_yy"] = [[1.0, 2.0], [3.0]]
        with pytest.raises(ModelFormatError, match="ragged matrix A_yy"):
            load_model(json.dumps(doc))

    def test_non_finite_number_rejected(self):
        doc = (MODELS_DIR / "golden.json").read_text().replace("0.5", "NaN")
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(doc)

    def test_non_numeric_entry_rejected(self):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["R"] = [["one"]]
        with pytest.raises(ModelFormatError, match="R entry"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("A_yy", [[1.0, True]], "A_yy entry must be a number, got True"),
            ("Q_yy", [[1.0], ["2"]], "Q_yy entry must be a number, got '2'"),
            ("R", [[None]], "R entry must be a number, got None"),
            ("B_y", [[1, [2.0]]], "B_y entry must be a number, got [2.0]"),
            ("z0", [1.0, False, "x"], "z0 entry must be a number, got False"),
            ("k0", "1.0", "k0 must be an array of numbers"),
            ("A_zz", [[1.0, 2.0], [3.0]], "ragged matrix A_zz: row lengths [1, 2]"),
            ("A_yz", [1.0], "A_yz must be an array of arrays"),
        ],
    )
    def test_schema_error_message(self, field, value, message):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc[field] = value
        with pytest.raises(ModelFormatError) as err:
            load_model(json.dumps(doc))
        assert str(err.value) == message

    def test_invalid_json(self):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model("{not json")

    def test_bad_dims_rejected(self):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["dims"]["n_u"] = 0
        with pytest.raises(ModelFormatError, match="dims"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("count", [1.5, True, "1", -1])
    def test_non_count_dims_rejected(self, count):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["dims"]["n_k"] = count
        with pytest.raises(ModelFormatError, match="dims: n_k must be a non-negative"):
            load_model(json.dumps(doc))

    def test_unknown_label_key(self):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["labels"] = {"w": ["nope"]}
        with pytest.raises(ModelFormatError, match="labels"):
            load_model(json.dumps(doc))

    def test_round_trip_equality(self, golden_spec, back_spec):
        for spec in (golden_spec, back_spec):
            again = load_model(save_model(spec))
            assert again == spec

    def test_round_trip_bit_exact(self):
        # awkward doubles survive repr-based JSON serialization exactly
        spec = scalar_spec(beta=0.99, a=1 / 3, b=math.sqrt(2), q=0.1, r=1e-7,
                           a_yz=math.pi, a_zz=0.1 + 0.2)
        once = save_model(spec)
        twice = save_model(load_model(once))
        assert once == twice
        assert load_model(twice) == spec

    def test_empty_dimension_round_trip(self):
        document = (MODELS_DIR / "uncontrollable.json").read_text()
        spec = load_model(document)
        assert spec.A_yz.shape == (1, 0)
        assert spec.A_zz.shape == (0, 0)
        assert spec.z0.shape == (0,)
        assert load_model(save_model(spec)) == spec

    def test_flat_empty_matrix_accepted(self):
        # an n_y x 0 slot may be written [] instead of [[], []]
        doc = json.loads((MODELS_DIR / "uncontrollable.json").read_text())
        doc["A_yz"] = []
        doc["Q_yz"] = []
        spec = load_model(json.dumps(doc))
        assert spec.A_yz.shape == (1, 0)

    def test_top_level_must_be_object(self):
        with pytest.raises(ModelFormatError, match="top level"):
            load_model("[1, 2]")


class TestVariableNames:
    def test_labels_used(self, golden_spec):
        names = variable_names(golden_spec)
        assert names["y"] == ["x"]
        assert names["z"] == ["z"]
        assert names["u"] == ["u"]

    def test_generated_names(self):
        spec = two_dim_spec([[1.0, 0.0], [0.0, 1.0]])
        names = variable_names(spec)
        assert names["y"] == ["k1", "x1"]
        assert names["u"] == ["u1"]
