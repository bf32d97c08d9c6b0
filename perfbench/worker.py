"""One workload in its own process: set up, run the closed loop, report.

Started by run.py as ``python3 perfbench/worker.py --manifest M ...``.  The
set-up time covers importing auglqr and its CLI and reading and parsing
every model file of the workload; the benchmark's own modules load only
after it.  The result is one JSON line on standard output.

Untraced, the loop runs one untimed warm-up operation, then the workload's
operation cycle for ``--seconds``, one operation at a time (a closed loop
with one client).  Traced, it runs
each operation twice, once under the tracer and once without it, alternating
which goes first, so the tracing overhead is measured on the same work; a
cli-mix operation's traced form is its in-process replay.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path


def _setup(manifest: dict):
    start = time.perf_counter()
    import auglqr
    import auglqr.cli

    texts = {}
    for name, path in manifest["models"].items():
        texts[name] = Path(path).read_text(encoding="utf-8")
        try:
            auglqr.load_model(texts[name])
        except auglqr.ModelFormatError:
            pass  # a schema fixture: its rejection is what the workload checks
    return auglqr, texts, time.perf_counter() - start


def _environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        query = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            threads = query()
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


class Loop:
    """Timings and outcomes of every operation attempted in a run."""

    def __init__(self):
        self.times: list[float] = []
        self.positions: list[int] = []
        self.commands: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.fwd_err_max = 0.0
        self.fwd_by_model: dict[str, float] = {}

    def execute(self, op, run=None) -> float:
        """Time one execution of ``op`` (or of ``run``), then check it."""
        gc.collect()  # the previous check's garbage must not be collected on this op's time
        start = time.perf_counter()
        try:
            result = (run or op.run)()
        except Exception as exc:  # the program failed; the loop goes on
            result = exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            if isinstance(result, Exception):
                raise result
            fwd = op.check(result)
            self.fwd_err_max = max(self.fwd_err_max, fwd)
            self.fwd_by_model[op.model] = max(self.fwd_by_model.get(op.model, 0.0), fwd)
        except Exception as exc:  # a wrong result counts and the run goes on
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return elapsed

    def record(self, position: int, op, elapsed: float):
        self.times.append(elapsed)
        self.positions.append(position)
        self.commands.append(op.command)


def untraced(ops, seconds: float) -> Loop:
    loop = Loop()
    loop.execute(ops[0])  # warm-up: the allocator and the file cache settle
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        loop.record(i % len(ops), op, loop.execute(op))
        i += 1
    return loop


def traced(ops, extras, seconds: float, tracer) -> tuple[Loop, dict, dict]:
    """Paired untraced/traced executions, then each extra once under the tracer.

    Returns the loop, the model of each operation id, and the paired timings.
    Extras are diagnostics, not operations of the workload: only their
    forward error is kept, and they are not counted as attempted.
    """
    loop = Loop()
    op_model: dict[int, str] = {}
    paired = {"untraced_s": 0.0, "traced_s": 0.0, "startup_ms": [], "inproc_ms": []}

    def pair(i, op) -> float:
        run = op.replay or op.run
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.install(i)
            try:
                elapsed = loop.execute(op, run)
            finally:
                tracer.uninstall()
            paired["traced_s" if with_trace else "untraced_s"] += elapsed
            if not with_trace:
                plain = elapsed
        op_model[i] = op.model
        return plain

    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        if op.replay is not None:
            elapsed = loop.execute(op)
            inproc = pair(i, op)
            paired["inproc_ms"].append(1e3 * inproc)
            paired["startup_ms"].append(1e3 * (elapsed - inproc))
        else:
            elapsed = pair(i, op)
        loop.record(i % len(ops), op, elapsed)
        i += 1
    for op in extras:
        tracer.install(i)
        try:
            loop.fwd_by_model[op.model] = op.check(op.run())
        finally:
            tracer.uninstall()
        op_model[i] = op.model
        i += 1
    return loop, op_model, paired


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    lib, texts, setup_s = _setup(manifest)
    src = Path(manifest["root"], "src").resolve()
    if Path(lib.__file__).resolve().parent.parent != src:
        print(f"auglqr imported from {lib.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    import tracing
    import workloads

    with np.load(manifest["refs"]) as data:
        references: dict[str, dict] = {}
        for key in data.files:
            model, name = key.split("|")
            references.setdefault(model, {})[name] = data[key]
    bench = workloads.Bench(
        lib=lib,
        root=manifest["root"],
        paths=manifest["models"],
        texts=texts,
        refs=references,
        status=manifest["status"],
        noise_seed=manifest["noise_seed"],
    )
    workload = manifest["workload"]
    ops = workloads.CYCLES[workload](bench)

    result = {"setup_s": setup_s, "env": _environment(), "cycle": len(ops)}
    if args.trace:
        tracer = tracing.Tracer()
        extras = workloads.traced_extras(bench, workload)
        loop, op_model, paired = traced(ops, extras, args.seconds, tracer)
        stabilizable = {m for m, codes in bench.status.items() if codes["solve"] == 0}
        layers = tracing.layer_metrics(tracer, op_model, stabilizable)
        for case in ("hard1", "hard2", "hard3"):
            layers[f"regulator.fwd_err.{case}"] = loop.fwd_by_model.get(case, 0.0)
        layers["trace.overhead_frac"] = paired["traced_s"] / paired["untraced_s"] - 1.0
        for key in ("startup_ms", "inproc_ms"):
            layers[f"cli.{key}"] = float(np.median(paired[key])) if paired[key] else 0.0
        spans_path = Path(manifest["out"], f"spans-{workload}-seed{manifest['seed']}.npz")
        tracer.write(spans_path)
        result.update(per_layer=layers, spans=str(spans_path), spans_count=len(tracer.start))
    else:
        loop = untraced(ops, args.seconds)
    usage = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    result.update(
        times=loop.times,
        positions=loop.positions,
        commands=loop.commands,
        attempted=loop.attempted,
        failures=loop.failures,
        fwd_err_max=loop.fwd_err_max,
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
        gate_disagreements=dict(bench.gate_disagreements),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
