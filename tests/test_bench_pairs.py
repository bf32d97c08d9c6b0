"""The paired-run summary of tools/bench_pairs.py on synthetic run.py lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import summarize  # noqa: E402

BETTER = {"op_p50_ms": "lower", "ops_per_s": "higher", "fwd_digits": "higher"}


def line(**metrics):
    return {"correct": True, "attempted": 9, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}


def test_medians_quartiles_and_wins():
    base_p50 = [10.0, 12.0, 14.0, 16.0]
    head_p50 = [9.0, 12.0, 10.0, 17.0]  # a win, a tie, a win, a loss
    pairs = [
        {
            "base": line(**{"simulate-long.op_p50_ms": b, "simulate-long.ops_per_s": 1 / b,
                            "simulate-long.fwd_digits": 11.5, "simulate-long.extra": 1.0,
                            "cli-mix.op_p50_ms": 100.0}),
            "head": line(**{"simulate-long.op_p50_ms": h, "simulate-long.ops_per_s": 1 / h,
                            "simulate-long.fwd_digits": 11.5, "simulate-long.extra": 2.0}),
        }
        for b, h in zip(base_p50, head_p50)
    ]
    summary = summarize(pairs, BETTER)
    # a metric missing from one side, or with no direction, is left out
    assert list(summary) == ["simulate-long"]
    assert sorted(summary["simulate-long"]) == ["fwd_digits", "op_p50_ms", "ops_per_s"]
    p50 = summary["simulate-long"]["op_p50_ms"]
    assert p50["base"] == {"median": 13.0, "q1": 10.5, "q3": 15.5}
    assert p50["head"]["median"] == 11.0
    assert p50["change"] == pytest.approx(11.0 / 13.0 - 1.0)
    assert (p50["wins"], p50["losses"]) == (2, 1)
    assert not p50["resolved"]  # a gap of 2 within the base's quartile distance 5
    # higher is better: the same pairs, seen through 1/x
    rate = summary["simulate-long"]["ops_per_s"]
    assert (rate["wins"], rate["losses"]) == (2, 1)
    digits = summary["simulate-long"]["fwd_digits"]
    assert (digits["wins"], digits["losses"], digits["change"]) == (0, 0, 0.0)
    assert not digits["resolved"]


def test_resolves_beyond_the_base_spread():
    pairs = [{"base": line(**{"simulate-long.op_p50_ms": b}),
              "head": line(**{"simulate-long.op_p50_ms": b - 3.0})}
             for b in (15.0, 15.5, 16.0)]
    p50 = summarize(pairs, BETTER)["simulate-long"]["op_p50_ms"]
    assert (p50["wins"], p50["losses"]) == (3, 0)
    assert p50["resolved"]


def test_single_pair_has_no_spread():
    pairs = [{"base": line(**{"cli-mix.op_p50_ms": 2.0}),
              "head": line(**{"cli-mix.op_p50_ms": 2.0})}]
    p50 = summarize(pairs, BETTER)["cli-mix"]["op_p50_ms"]
    assert p50["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (p50["wins"], p50["losses"], p50["resolved"]) == (0, 0, False)


def test_no_pairs_summarize_to_nothing():
    assert summarize([], BETTER) == {}


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_a_usage_error(pairs, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--base", "HEAD", "--pairs", pairs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_a_failed_run_keeps_the_runs_before_it(tmp_path, monkeypatch):
    # the third run (pair 2, head first) fails: the two runs of pair 1 are kept
    lines = iter([line(**{"cli-mix.op_p50_ms": 5.0}), line(**{"cli-mix.op_p50_ms": 4.0}), None])
    monkeypatch.setattr(bench_pairs, "extract", lambda root, rev, dest: True)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree: next(lines))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "3", "--out", str(out)]) == 2
    record = json.loads(out.read_text())
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [(0, "base"), (0, "head")]
    p50 = record["summary"]["cli-mix"]["op_p50_ms"]
    assert (p50["wins"], p50["losses"]) == (1, 0)
