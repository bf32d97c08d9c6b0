"""auglqr benchmark: four workloads, each in its own process.

Run from the repository root:

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs every workload in turn.  Untraced, the
run prints each workload's end-to-end metrics with units and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 1``
runs the traced form instead and reports the per-layer metrics.  The
program is imported from ``src/`` of the current directory and from nowhere
else.  Inputs come from the seed; scratch files live under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gen
import refs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
#: set-up is measured this many times per run (the worker's own included)
SETUP_SAMPLES = 5
#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
#: every run must end within this many seconds
RUN_LIMIT_S = 170


def mix_percentile(samples, positions, q: float, min_beyond: int = 0):
    """Percentile q of the operation mix, lowered until ``min_beyond`` samples lie beyond it.

    Every position of the operation cycle weighs the same, however often it
    ran, so a run that stops mid-cycle does not over-weight the operations
    it ran last.  The value is the first sample, in ascending order, at
    which the cumulative weight reaches q; when fewer than ``min_beyond``
    samples lie above it, the highest sample that leaves that many beyond is
    taken instead.  Returns (value, quantile used, samples beyond).
    """
    runs = Counter(positions)
    order = sorted(range(len(samples)), key=samples.__getitem__)
    weights = [1.0 / runs[positions[i]] for i in order]
    total = sum(weights)
    cumulative, rank = 0.0, len(order)
    for k, w in enumerate(weights, 1):
        cumulative += w
        if cumulative >= q * total * (1 - 1e-12):
            rank = k
            break
    rank = max(1, min(rank, len(order) - min_beyond))
    return samples[order[rank - 1]], sum(weights[:rank]) / total, len(order) - rank


def mix_mean(samples, positions) -> float:
    """Mean of the operation mix, each cycle position weighing the same."""
    runs = Counter(positions)
    return sum(t / runs[p] for t, p in zip(samples, positions)) / len(runs)


def _run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{' '.join(cmd[:3])} overran the run limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[:3])} exited with status {proc.returncode}")
    return out.strip().splitlines()[-1]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def prepare(workload: str, seed: int, root: Path, work: Path) -> Path:
    """Write the models, references and exit-status table; return the manifest."""
    paths = gen.write_models(workload, seed, work, root / "models")
    status, flat = {}, {}
    for name, path in paths.items():
        doc = refs.load_document(path)
        status[name] = {cmd: refs.expected_status(doc, cmd) for cmd in workloads.SUBCOMMANDS}
        if status[name]["solve"] == 0:
            for key, value in refs.solve_reference(doc).items():
                flat[f"{name}|{key}"] = value
    np.savez(work / "refs.npz", **flat)
    manifest = {
        "workload": workload,
        "seed": seed,
        "noise_seed": seed + 1,
        "root": str(root),
        "out": str(root / ".perfbench"),
        "models": {name: str(path) for name, path in paths.items()},
        "status": status,
        "refs": str(work / "refs.npz"),
    }
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def import_probe(env: dict, deadline: float, repeats: int = 3) -> dict[str, float]:
    """import.* metrics: bare interpreter start and ``-X importtime`` of auglqr."""
    starts, parsed = [], []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - t)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import auglqr"],
            env=env, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        parsed.append(tracing.parse_importtime(proc.stderr))
    out = {"import.process_s": statistics.median(starts)}
    for key in parsed[0]:
        out[key] = statistics.median(p[key] for p in parsed)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    work = root / ".perfbench" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = prepare(workload, seed, root, work)
        worker = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest)]
        setups = [
            json.loads(_run_child(worker + ["--setup-only"], env, deadline))["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        res = json.loads(
            _run_child(worker + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
        )
        if trace:
            res["per_layer"].update(import_probe(env, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["setup_samples"] = setups + [res["setup_s"]]
    return res


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    times, positions = res["times"], res["positions"]
    ok = res["attempted"] - len(res["failures"])
    p50, _, _ = mix_percentile(times, positions, 0.5)
    p90, res["tail_quantile"], res["tail_beyond"] = mix_percentile(times, positions, 0.9, MIN_BEYOND)
    fwd = res["fwd_err_max"]
    return {
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "ops_per_s": (ok / res["attempted"] / mix_mean(times, positions), "1/s"),
        "fail_frac": (len(res["failures"]) / res["attempted"], "ratio"),
        "fwd_err_max": (fwd, "ratio"),
        "fwd_digits": (-math.log10(max(fwd, 1e-17)), "digits"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(res["setup_samples"]), "s"),
    }


#: end-to-end metrics in the JSON line; fail_frac and the raw fwd_err_max are
#: printed above it (failures are the line's own ``failed`` count, and the
#: raw error's seed-to-seed spread is orders of magnitude, so it is compared
#: as digits)
REPORTED = ("op_p50_ms", "op_p90_ms", "ops_per_s", "fwd_digits", "peak_rss_mb", "setup_s")

def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    layers = dict(res["per_layer"])
    for cmd in workloads.SUBCOMMANDS:
        walls = [t for t, c in zip(res["times"], res["commands"]) if c == cmd]
        layers[f"cli.{cmd}.wall_ms"] = 1e3 * statistics.median(walls) if walls else 0.0
    return {name: (value, _layer_unit(name)) for name, value in sorted(layers.items())}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    for marker, unit in (("us_per_", "us"), ("flops_", "flop"), ("bytes_", "B"),
                         ("_frac", "ratio"), ("fwd_err", "ratio")):
        if marker in name:
            return unit
    return "count"


def report(workload: str, seed: int, trace: int, res: dict) -> dict[str, tuple[float, str]]:
    env = res["env"]
    print(f"== {workload}  seed {seed}  trace {trace}")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    metrics = per_layer(res) if trace else end_to_end(res)
    n = len(res["times"])
    print(f"   operations: {n} timed, {res['attempted']} attempted, {len(res['failures'])} failed,"
          f" cycle of {res['cycle']}")
    if not trace:
        print(f"   op_p90_ms is the {100 * res['tail_quantile']:.1f}th percentile"
              f" ({res['tail_beyond']} samples beyond it)")
    else:
        print(f"   spans: {res['spans_count']} written to {res['spans']}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:32s} {value:14.6g} {unit}")
    for model, count in sorted(res["gate_disagreements"].items()):
        print(f"   gate: the controllability check rejected {model} {count} times;"
              " the reference DARE stabilizes it")
    for failure in res["failures"][:5]:
        print(f"   FAILED {failure}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "auglqr" / "__init__.py").is_file():
        print(f"no auglqr source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        res = run_workload(workload, args.seed, args.seconds, args.trace, root)
        metrics = report(workload, args.seed, args.trace, res)
        keep = metrics if args.trace else {k: metrics[k] for k in REPORTED}
        prefix = "" if len(names) == 1 else f"{workload}."
        combined["correct"] &= not res["failures"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += len(res["failures"])
        for name, (value, unit) in keep.items():
            combined["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
