import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import auglqr
from auglqr.cli import main

from _support import MODELS_DIR

GOLDEN = str(MODELS_DIR / "golden.json")
BACK = str(MODELS_DIR / "back.json")
UNCONTROLLABLE = str(MODELS_DIR / "uncontrollable.json")
EXPLOSIVE = str(MODELS_DIR / "explosive_forcing.json")
BAD_SCHEMA = str(MODELS_DIR / "bad_schema.json")


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
        code, out, _ = run(capsys, "irf", "--model", GOLDEN, "--shock", "3")
        assert code == 1
        assert "out of range" in out

    def test_simulate_json(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", BACK, "--horizon", "10")
        assert code == 0
        report = json.loads(out)
        assert report["columns"] == ["t", "k", "z", "u", "mu_k"]
        assert len(report["rows"]) == 10
        assert report["loss"] > 0
        assert "truncation_bound" in report

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
        code, out, _ = run(capsys, "simulate", "--model", BACK, "--horizon", "0")
        assert code == 1


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
        code, _, err = run(capsys, "var", "--model", str(path))
        assert code == 1
        assert "F_z not square" in err


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
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = main(argv)
loaded = [name for name, module in sys.modules.items()
          if name.partition(".")[0] == "scipy" and module is not None]
print(json.dumps({"codes": codes, "scipy_modules": loaded}))
"""


def test_runs_without_scipy():
    commands = [
        [cmd, "--model", GOLDEN]
        for cmd in ("validate", "check", "solve", "simulate", "irf", "var", "oracle-compare")
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(auglqr.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome["codes"] == {argv[0]: 0 for argv in commands}
    assert outcome["scipy_modules"] == []
