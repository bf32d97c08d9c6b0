"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest

import gen
import refs
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.write_models(workload, 11, tmp_path / "a", ROOT / "models")
    second = gen.write_models(workload, 11, tmp_path / "b", ROOT / "models")
    other = gen.write_models(workload, 12, tmp_path / "c", ROOT / "models")
    assert first.keys() == second.keys() == other.keys()
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name
    generated = [n for n in first if n not in gen.FIXTURES and n not in gen.HARD_CASES]
    assert generated
    for name in generated:
        assert first[name].read_bytes() != other[name].read_bytes(), name


def _solved(name="s4232", seed=3):
    import auglqr

    doc = gen.generate("solve-ladder", seed)[name]
    ref = refs.solve_reference(doc)
    out = workloads.pipeline(auglqr, json.dumps(doc), "var")
    return ref, out


def test_checker_accepts_the_solver_and_flags_a_perturbed_p_y():
    ref, out = _solved()
    bench = workloads.Bench(None, str(ROOT), {}, {}, {"s4232": ref}, {}, 0)
    check = workloads.pipeline_checker(bench, "s4232")
    assert check(out) < 1e-10

    reg = out["reg"]
    bumped = reg.P_y.copy()
    bumped[0, 0] *= 1 + 1e-6
    with pytest.raises(refs.Mismatch, match="P_y"):
        check(dict(out, reg=dataclasses.replace(reg, P_y=bumped)))


def test_mix_percentile_leaves_ten_samples_beyond_the_tail():
    rng = random.Random(5)
    for n in range(11, 400, 7):
        cycle = rng.randint(1, 30)
        positions = [i % cycle for i in range(n)]
        samples = [rng.random() for _ in range(n)]
        value, quantile, beyond = run.mix_percentile(samples, positions, 0.9, 10)
        assert beyond >= 10
        assert sum(s > value for s in samples) == beyond
        if beyond > 10:  # not lowered: the mix's 90th percentile
            assert quantile >= 0.9 - 1e-9


def test_mix_percentile_weighs_every_cycle_position_equally():
    # position 0 ran three times, position 1 once: the median is still the mix's
    samples = [1.0, 1.0, 1.0, 5.0]
    value, quantile, _ = run.mix_percentile(samples, [0, 0, 0, 1], 0.5)
    assert value == 1.0 and quantile == pytest.approx(0.5)
    value, _, _ = run.mix_percentile(samples, [0, 0, 0, 1], 0.9)
    assert value == 5.0
    assert run.mix_mean(samples, [0, 0, 0, 1]) == pytest.approx(3.0)


def test_tracer_records_nested_spans_and_restores_the_functions():
    import auglqr
    import auglqr.cli

    original = auglqr.kernel.solve_linear
    tracer = tracing.Tracer()
    tracer.install(op_id=7)
    try:
        assert auglqr.kernel.solve_linear is not original
        workloads.pipeline(auglqr, (ROOT / "models" / "golden.json").read_text(), "anchor")
    finally:
        tracer.uninstall()
    assert auglqr.kernel.solve_linear is original
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert "regulator.solve_riccati" in names and "kernel.solve_linear" in names
    ric = names.index("regulator.solve_riccati")
    children = spans["parent"] == ric
    assert children.any()
    assert spans["self"][ric] == pytest.approx(spans["dur"][ric] - spans["dur"][children].sum())
    assert set(spans["op"]) == {7}

    metrics = tracing.layer_metrics(tracer, {7: "golden"}, {"golden"})
    assert metrics["regulator.iters"] == spans["value"][ric] > 0
    assert metrics["checks.rejects"] == 0


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1000 |      70000 |     numpy",
            "import time:       500 |      12000 |         scipy",
            "import time:       600 |     280000 |       scipy.linalg",
            "import time:       700 |     400000 | auglqr",
        ]
    )
    parsed = tracing.parse_importtime(stderr)
    assert parsed == pytest.approx(
        {"import.numpy_s": 0.07, "import.scipy_s": 0.28, "import.auglqr_s": 0.05}
    )


def test_expected_status_table():
    fixtures = {name: refs.load_document(ROOT / "models" / f"{name}.json") for name in gen.FIXTURES}
    assert refs.expected_status(fixtures["golden"], "solve") == 0
    assert refs.expected_status(fixtures["uncontrollable"], "check") == 1
    assert refs.expected_status(fixtures["explosive_forcing"], "solve") == 1
    assert refs.expected_status(fixtures["bad_schema"], "check") == 3
    s4232 = gen.generate("cli-mix", 0)["s4232"]
    assert refs.expected_status(s4232, "var") == 1
    assert refs.expected_status(gen.generate("cli-mix", 0)["si60"], "check") == 0
    np.testing.assert_allclose(refs.solve_reference(fixtures["golden"])["P_y"], [[(1 + 5**0.5) / 2]])
