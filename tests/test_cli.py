import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import auglqr
from auglqr.cli import build_parser, main

from _support import MODELS_DIR, overflowing_doubling_model, save_model, scalar_spec

GOLDEN = str(MODELS_DIR / "golden.json")
BACK = str(MODELS_DIR / "back.json")
UNCONTROLLABLE = str(MODELS_DIR / "uncontrollable.json")
EXPLOSIVE = str(MODELS_DIR / "explosive_forcing.json")
BAD_SCHEMA = str(MODELS_DIR / "bad_schema.json")
SINGULAR_FORWARD = str(MODELS_DIR / "singular_forward.json")
DEFECTIVE = str(MODELS_DIR / "defective_uncontrollable.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitStatuses:
    def test_solve_valid_model(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", GOLDEN)
        assert code == 0
        assert out

    def test_check_uncontrollable(self, capsys):
        code, out, _ = run(capsys, "check", "--model", UNCONTROLLABLE)
        assert code == 1
        assert "controllability rank 0 < 1" in out

    def test_solve_uncontrollable_without_force(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", UNCONTROLLABLE)
        assert code == 1
        assert "controllability rank 0 < 1" in out

    def test_forced_solve_hits_numerical_failure(self, capsys):
        # B = 0 with |A| > 1: forcing past the check makes the Riccati
        # iteration diverge, which is a numerical failure, not a check failure
        code, _, err = run(capsys, "solve", "--model", UNCONTROLLABLE, "--force")
        assert code == 2
        assert "diverged" in err
        assert "[riccati]" in err

    def test_forced_overflowing_doubling_prints_no_numpy_warning(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(save_model(overflowing_doubling_model()), encoding="utf-8")
        # record every warning, where a plain process would print it to stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "solve", "--model", str(path), "--force")
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "warning [checks]: controllability rank 1 < 2 (forced)",
            "error [riccati]: Riccati iteration diverged at iteration 5 (step nan)",
        ]

    def test_defective_uncontrollable_mode_is_rejected(self, capsys):
        # the uncontrollable mode 2 is a Jordan block; its computed eigenvalues
        # may come out split apart, which must not change the verdict
        code, out, _ = run(capsys, "check", "--model", DEFECTIVE)
        assert code == 1
        assert json.loads(out)["controllability_rank"] == 1
        code, out, _ = run(capsys, "solve", "--model", DEFECTIVE)
        assert code == 1
        assert json.loads(out)["stage"] == "checks"
        code, out, err = run(capsys, "solve", "--model", DEFECTIVE, "--force")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "warning [checks]: controllability rank 1 < 2 (forced)"

    def test_explosive_forcing_rejected_even_with_force(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", EXPLOSIVE, "--force")
        assert code == 1
        assert "forcing block unstable" in out

    def test_schema_error(self, capsys):
        code, _, err = run(capsys, "solve", "--model", BAD_SCHEMA)
        assert code == 3
        assert '"R"' in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "no/such/file.json")
        assert code == 3
        assert "model-load" in err

    def test_non_stabilizing_fixed_point_is_numerical_failure(self, capsys, tmp_path):
        spec = scalar_spec(beta=0.95, a=2.0, q=0.0, forward=False, a_yz=1.0, a_zz=0.5)
        path = tmp_path / "unobserved.json"
        path.write_text(save_model(spec))
        code, _, err = run(capsys, "solve", "--model", str(path))
        assert code == 2
        assert "[riccati]" in err
        assert "closed loop not stabilizing" in err

    @pytest.mark.parametrize("command", ["solve", "simulate", "irf", "var", "oracle-compare"])
    def test_singular_forward_block_fails_at_anchor(self, capsys, command):
        # Q_yy = 0 gives P_y = 0: both gates pass, and P_y[x,x] cannot pin x0
        code, out, err = run(capsys, command, "--model", SINGULAR_FORWARD)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error [anchor]: forward block of Riccati solution singular: singular"
            " matrix: reciprocal condition 0.000e+00 (threshold 1e-13)"
        ]

    def test_invalid_model_stops_at_validate_stage(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["beta"] = 1.5
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", "--model", str(path))
        assert code == 1
        assert json.loads(out) == {
            "stage": "validate",
            "violations": ["beta must lie in (0, 1], got 1.5"],
        }

    @pytest.mark.parametrize(
        "field, digits, message",
        [
            ("beta", 401, "beta must fit in a double, got an integer of 401 digits"),
            ("A_zz", 401, "A_zz entry must fit in a double, got an integer of 401 digits"),
            ("k0", 401, "k0 entry must fit in a double, got an integer of 401 digits"),
            # past Python's int-conversion digit limit (4,300 by default)
            ("A_zz", 5001, "A_zz entry must fit in a double, got an integer of 5001 digits"),
        ],
    )
    def test_integer_too_large_for_a_double_is_a_load_error(
        self, capsys, tmp_path, field, digits, message
    ):
        doc = json.loads((MODELS_DIR / "back.json").read_text())
        doc[field] = {"beta": "@", "A_zz": [["@"]], "k0": ["@"]}[field]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"@"', "1" + "0" * (digits - 1)))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"error [model-load]: {message}"]

    @pytest.mark.parametrize(
        "old, new, encoding, message",
        [
            ('"beta": 0.99', '"beta": ' + "[" * 100_000 + "]" * 100_000, "utf-8",
             "invalid JSON: arrays or objects nested too deeply"),
            ("{", "\ufeff{", "utf-16-le",
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ('"beta": 0.99', '"beta": 1e400', "utf-8",
             "beta must fit in a double, got a number that overflows to inf"),
            ('"A_zz": [[0.8]]', '"A_zz": [[-1e999]]', "utf-8",
             "A_zz entry must fit in a double, got a number that overflows to -inf"),
        ],
        ids=["deep-nesting", "not-utf-8", "float-overflow", "float-overflow-entry"],
    )
    def test_unreadable_document_is_a_load_error(
        self, capsys, tmp_path, old, new, encoding, message
    ):
        text = json.dumps(json.loads((MODELS_DIR / "back.json").read_text()))
        path = tmp_path / "model.json"
        path.write_bytes(text.replace(old, new, 1).encode(encoding))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"error [model-load]: {message}"]

    @pytest.mark.parametrize(
        "model, field, value, status, solve_error",
        [
            ("golden", "Q_yy", [[1.7e308]], 0,
             "error [riccati]: Riccati iteration diverged at iteration 1 (step inf)"),
            ("golden", "R", [[1.7e308]], 0,
             "error [riccati]: Riccati iteration did not converge within 100 iterations"),
            ("defective_uncontrollable", "Q_yy", [[1.0, 1.7e308], [-1.7e308, 1.0]], 1,
             "failure [validate]: see report"),
        ],
        ids=["huge-Q_yy", "huge-R", "asymmetric-huge-Q_yy"],
    )
    def test_finite_extreme_entries_print_no_numpy_warning(
        self, capsys, tmp_path, model, field, value, status, solve_error
    ):
        doc = json.loads((MODELS_DIR / f"{model}.json").read_text())
        doc[field] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        # the suite turns warnings into errors, so a numpy warning fails here
        rejected = ["failure [validate]: see report"] if status else []
        for command in ("validate", "check"):
            code, _, err = run(capsys, command, "--model", str(path))
            assert (code, err.splitlines()) == (status, rejected)
        code, _, err = run(capsys, "solve", "--model", str(path))
        assert code == (2 if status == 0 else 1)
        assert err.startswith(solve_error)

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_overflowing_a_yy_norm_is_a_numerical_failure(self, capsys, tmp_path, command):
        # ||A_yy||_2 = 3.4e308 overflows: the staircase cannot scale B_y to it
        doc = json.loads(Path(DEFECTIVE).read_text())
        doc["A_yy"] = [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]
        doc["B_y"] = [[1.0], [0.0]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, "--model", str(path))
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error [checks]: staircase needs a finite ||A_yy||_2, got inf"
        ]
        assert "Warning" not in err


class TestUsageErrors:
    """argparse's usage errors exit 1; status 2 is kept for numerical failure."""

    def test_unrecognized_flag(self, capsys):
        code, out, err = run(capsys, "check", "--model", GOLDEN, "--force")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --force" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate", "--model", GOLDEN)
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "oracle-compare" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert build_parser() is build_parser()
        argv = ["simulate", "--model", GOLDEN, "--format", "csv"]
        code, out, _ = run(capsys, *argv, "--noise-seed", "-1")
        assert (code, out) == (1, "")
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "auglqr.cli", *argv], capture_output=True, text=True
        )
        assert (code, fresh.returncode) == (0, 0)
        assert out == fresh.stdout

    def test_process_exit_status(self):
        result = subprocess.run(
            [sys.executable, "-m", "auglqr.cli", "validate", "--model", GOLDEN, "--force"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "unrecognized arguments: --force" in result.stderr


class TestValidateCommand:
    def test_valid_model(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", GOLDEN)
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_invalid_model(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["R"] = [[0.0]]
        path = tmp_path / "flat_r.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "R not positive definite" in out

    def test_label_count_mismatch_is_a_violation(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["labels"]["x"] = []
        doc["labels"]["z"] = ["a", "b"]
        path = tmp_path / "miscounted.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 1
        assert json.loads(out)["violations"] == [
            "labels.x has 0 names, expected 1",
            "labels.z has 2 names, expected 1",
        ]

    def test_missing_label_group_gets_generated_names(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        del doc["labels"]["z"]
        path = tmp_path / "unnamed_z.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", "--model", str(path))[0] == 0
        code, out, _ = run(
            capsys, "simulate", "--model", str(path), "--horizon", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "t,x,z1,u,mu_x"


class TestCheckCommand:
    def test_golden_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--model", GOLDEN)
        assert code == 0
        report = json.loads(out)
        assert report["controllable"] is True
        assert report["forcing_stable"] is True
        assert report["eigenvalues_zz"] == [[0.5, 0.0]]

    def test_explosive_report(self, capsys):
        code, out, _ = run(capsys, "check", "--model", EXPLOSIVE)
        assert code == 1
        report = json.loads(out)
        assert report["forcing_spectral_radius"] == pytest.approx(1.2)
        assert report["threshold"] == pytest.approx(10 / 9, abs=1e-9)


class TestSolveCommand:
    def test_golden_prints_12_digits(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", GOLDEN)
        assert code == 0
        assert "1.61803398875" in out
        report = json.loads(out)
        assert report["P_y"] == [[1.61803398875]]
        assert report["riccati_residual"] <= 1e-11
        assert report["sylvester_residual"] <= 1e-11
        assert report["sylvester_iterations"] >= 1
        assert report["x0"] == [pytest.approx(-0.47213595500, abs=1e-10)]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", GOLDEN, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "P_y[0][0],1.61803398875" in lines

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "solve", "--model", BACK)
        _, second, _ = run(capsys, "solve", "--model", BACK)
        assert first == second

    def test_tolerance_override(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", BACK, "--tol-riccati", "1e-6")
        assert code == 0
        loose = json.loads(out)["riccati_iterations"]
        _, out2, _ = run(capsys, "solve", "--model", BACK)
        tight = json.loads(out2)["riccati_iterations"]
        assert loose < tight

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_meaningless_tolerance_is_a_config_error(self, capsys, tol):
        code, out, err = run(capsys, "solve", "--model", GOLDEN, f"--tol-riccati={tol}")
        assert code == 1
        assert out == ""
        assert f"argument --tol-riccati: must be finite and >= 0, got {tol}" in err
        assert "[riccati]" not in err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", GOLDEN, "--tol-riccati", "0")
        assert code == 0
        assert json.loads(out)["P_y"]


class TestTrajectoryCommands:
    def test_irf_csv_forcing_column(self, capsys):
        code, out, _ = run(
            capsys, "irf", "--model", GOLDEN, "--horizon", "3", "--shock", "0",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,x,z,u,mu_x"
        z_col = [line.split(",")[2] for line in lines[1:]]
        assert z_col == ["1", "0.5", "0.25"]

    def test_irf_shock_out_of_range(self, capsys):
        code, out, err = run(capsys, "irf", "--model", GOLDEN, "--shock", "3")
        assert code == 1
        assert out == ""
        assert err == (
            "error [config]: shock index 3 out of range for 1 forcing variables\n"
        )

    def test_simulate_json(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", BACK, "--horizon", "10")
        assert code == 0
        report = json.loads(out)
        assert report["columns"] == ["t", "k", "z", "u", "mu_k"]
        assert len(report["rows"]) == 10
        assert report["loss"] > 0
        assert "truncation_bound" in report

    def test_long_discounted_path_keeps_a_finite_loss(self, capsys, tmp_path):
        # the closed loop sits just inside 1/sqrt(beta) = 1.414: states grow like
        # 1.41^t, so their squares overflow while beta^t underflows, well before
        # the multiplier mu = P_y k overflows at t = 2052 (the states at 2067)
        spec = scalar_spec(
            beta=0.5, a=1.41, b=1e-3, forward=False, a_yz=0.0, a_zz=0.5, z0=0.0
        )
        path = tmp_path / "edge.json"
        path.write_text(save_model(spec), encoding="utf-8")
        totals = {}
        for horizon in (500, 1100, 2052):
            code, out, err = run(
                capsys, "simulate", "--model", str(path), "--horizon", str(horizon)
            )
            assert (code, err) == (0, ""), horizon
            assert "Infinity" not in out, horizon
            report = json.loads(out)
            assert math.isfinite(report["loss"]), horizon
            totals[horizon] = report["loss"] + report["truncation_bound"]
        assert totals[1100] == pytest.approx(totals[500], rel=1e-10)
        assert totals[2052] == pytest.approx(totals[500], rel=1e-10)
        for horizon in (2053, 2100):
            code, out, err = run(
                capsys, "simulate", "--model", str(path), "--horizon", str(horizon)
            )
            assert (code, out) == (2, ""), horizon
            assert err == "error [simulate]: simulated path overflowed at t = 2052\n"

    def test_noise_seed_is_deterministic_and_reported(self, capsys):
        code, first, err = run(
            capsys, "simulate", "--model", BACK, "--horizon", "10",
            "--noise-seed", "42",
        )
        assert code == 0
        assert "noise seed: 42" in err
        assert json.loads(first)["noise_seed"] == 42
        _, second, _ = run(
            capsys, "simulate", "--model", BACK, "--horizon", "10",
            "--noise-seed", "42",
        )
        assert first == second
        _, plain, _ = run(capsys, "simulate", "--model", BACK, "--horizon", "10")
        assert plain != first

    def test_bad_horizon(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", BACK, "--horizon", "0")
        assert code == 1
        assert out == ""
        assert "argument --horizon: must be at least 1, got 0" in err

    def test_negative_horizon(self, capsys):
        code, out, err = run(capsys, "irf", "--model", GOLDEN, "--horizon", "-3")
        assert code == 1
        assert out == ""
        assert "argument --horizon: must be at least 1, got -3" in err

    def test_unparsable_horizon_names_the_type(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", BACK, "--horizon", "abc")
        assert code == 1
        assert out == ""
        assert "argument --horizon: invalid int value: 'abc'" in err

    def test_flag_range_is_checked_before_the_model_is_read(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--model", "no/such/file.json", "--horizon", "0"
        )
        assert code == 1
        assert out == ""
        assert "argument --horizon: must be at least 1, got 0" in err
        assert "model-load" not in err

    def test_negative_noise_seed_is_a_config_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--model", BACK, "--horizon", "10", "--noise-seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert "argument --noise-seed: must be >= 0, got -1" in err
        assert "noise seed:" not in err

    @pytest.mark.parametrize("command", ["simulate", "irf"])
    def test_unallocatable_path_is_reported_without_traceback(
        self, capsys, monkeypatch, command
    ):
        # stands in for numpy's allocation failure at an absurd horizon
        # without asking for the memory
        def refuse(transition, start, horizon, drive=None):
            raise MemoryError(f"Unable to allocate for an array with shape ({horizon}, 2)")

        monkeypatch.setattr("auglqr.simulate.state_path", refuse)
        code, out, err = run(
            capsys, command, "--model", GOLDEN, "--horizon", "1000000000000"
        )
        assert code == 1
        assert out == ""
        stage = "simulate" if command == "simulate" else "impulse-response"
        assert err == (
            f"error [{stage}]: out of memory: Unable to allocate for an array"
            " with shape (1000000000000, 2)\n"
        )


#: flags each given a value outside its range, and a shock the fixtures lack
OUT_OF_RANGE = [
    ["--horizon", "0"],
    ["--horizon", "-3"],
    ["--noise-seed", "-1"],
    *([f"--tol-riccati={tol}"] for tol in ("nan", "-1", "inf", "-inf")),
    ["--shock", "3"],
]


@pytest.mark.parametrize("fixture", sorted(p.name for p in MODELS_DIR.glob("*.json")))
@pytest.mark.parametrize(
    "command", ["validate", "check", "solve", "simulate", "irf", "var", "oracle-compare"]
)
def test_stdout_is_empty_or_one_json_document(capsys, command, fixture):
    """Rejections go to stderr: stdout carries a whole JSON report or nothing."""
    base = [command, "--model", str(MODELS_DIR / fixture), "--format", "json"]
    for flags in [[], *OUT_OF_RANGE]:
        _, out, _ = run(capsys, *base, *flags)
        if out:
            json.loads(out)  # raises on any text that is not exactly one document


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


class TestCsvQuoting:
    def test_label_with_comma_keeps_table_rectangular(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["labels"]["x"] = ["inflation, annual"]
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "simulate", "--model", str(path), "--horizon", "3", "--format", "csv"
        )
        assert code == 0
        table = parse_csv(out)
        assert table[0] == ["t", "inflation, annual", "z", "u", "mu_inflation, annual"]
        assert out.splitlines()[0] == 't,"inflation, annual",z,u,"mu_inflation, annual"'
        assert len(table) == 4
        assert all(len(row) == 5 for row in table)

    def test_report_message_with_comma_is_one_cell(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["beta"] = 1.5
        path = tmp_path / "impatient.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--model", str(path), "--format", "csv")
        assert code == 1
        assert parse_csv(out) == [
            ["key", "value"],
            ["valid", "false"],
            ["violations[0]", "beta must lie in (0, 1], got 1.5"],
        ]

    def test_plain_cells_stay_unquoted(self, capsys):
        _, out, _ = run(capsys, "check", "--model", EXPLOSIVE, "--format", "csv")
        assert '"' not in out
        assert "failures[0],forcing block unstable: spectral radius 1.2" in out


class TestVarCommand:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "var", "--model", GOLDEN)
        assert code == 0
        report = json.loads(out)
        assert report["M_inv"][1] == [
            pytest.approx(-0.618033988750, abs=1e-11),
            pytest.approx(-0.763932022500, abs=1e-11),
        ]
        assert "z_from_u" in report

    def test_shape_mismatch(self, capsys, tmp_path):
        doc = json.loads((MODELS_DIR / "golden.json").read_text())
        doc["dims"]["n_z"] = 2
        doc["A_yz"] = [[1.0, 0.5]]
        doc["A_zz"] = [[0.5, 0.0], [0.0, 0.3]]
        doc["Q_yz"] = [[0.0, 0.0]]
        doc["z0"] = [1.0, 0.0]
        doc["labels"]["z"] = ["z1", "z2"]
        path = tmp_path / "two_shocks.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "var", "--model", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error [var-basis]: F_z not square, VAR representation undefined"
            " (n_u = 1, n_z = 2)"
        ]


class TestOracleCompareCommand:
    def test_golden_deviations_small(self, capsys):
        code, out, _ = run(
            capsys, "oracle-compare", "--model", GOLDEN, "--horizon", "300"
        )
        assert code == 0
        report = json.loads(out)
        for key in ("max_dev_P_y", "max_dev_F_y", "max_dev_P_z", "max_dev_F_z"):
            assert report[key] <= 1e-10


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "auglqr.cli", "solve", "--model", GOLDEN],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "1.61803398875" in result.stdout


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError
from auglqr.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = [name for name, module in sys.modules.items()
          if name.partition(".")[0] == "scipy" and module is not None]
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_runs_without_scipy():
    commands = [
        [cmd, "--model", GOLDEN]
        for cmd in ("validate", "check", "solve", "simulate", "irf", "var", "oracle-compare")
    ]
    # a rejection runs the whole stabilizability gate, staircase included
    commands.append(["check", "--model", DEFECTIVE])
    env = dict(os.environ, PYTHONPATH=str(Path(auglqr.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome["codes"] == [0] * 7 + [1]
    assert outcome["scipy_modules"] == []
